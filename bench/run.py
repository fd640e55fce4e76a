"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload mirror-edits --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

A run plays whole rounds while the next one fits in ``--seconds`` (at
least one).  Before each round an untraced run boots the workload's servers
a few extra times; ``setup_s`` is the median over those boots and every
round's, so like the other timings it sees the host's speed over the whole
run, not at one moment.  Each round runs one fixed script on freshly booted
servers; round k plays script variant k mod 8 of the seed, so a run
averages over eight scripts instead of resting on one.  The exact counts
(``history_events``, ``wire_bytes_per_op``) and ``peak_rss_mb`` come from
round 0, which every run plays, so they do not depend on how many rounds
fit.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run (medians over its
rounds), and the last round's spans are written under ``bench/out/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds figures that are not metrics: the calibration
loop's time before and after the workload, the median write latency over
the first and the last tenth of a round's writes, and the rounds played.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

VARIANTS = 8        # distinct scripts per seed, played round-robin
EXTRA_SETUPS = 3    # boots before each untraced round, beyond the round's own


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: tells a slow host from a
    slow program.  A diagnostic, never a metric."""
    t0 = time.perf_counter()
    d = {}
    for i in range(600_000):
        d[i & 1023] = i
    return time.perf_counter() - t0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setups(workload_cls, script, n: int) -> list[float]:
    times = []
    for _ in range(n):
        gc.collect()
        wl = workload_cls(script)
        try:
            t0 = time.perf_counter()
            wl.setup()
            times.append(time.perf_counter() - t0)
        finally:
            wl.close()
    return times


def run_round(workload_cls, script, tracer=None) -> dict:
    """One round on freshly booted servers: set up, run every scripted op
    in a closed loop, then check the end state."""
    from workloads import OpFailed, WrongResult

    wl = workload_cls(script)
    lat: dict[str, list[float]] = {"write": [], "read": []}
    failed: list[str] = []
    wrong: list[str] = []
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        bytes0 = wl.wire_bytes()
        t_ops = time.perf_counter()
        for i, op in enumerate(script["ops"]):
            if tracer is not None:
                tracer.op = i
            try:
                kind, seconds = wl.perform(op)
                lat[kind].append(seconds)
            except OpFailed as e:
                failed.append(str(e))
            except WrongResult as e:
                wrong.append(str(e))
            finally:
                if tracer is not None:
                    tracer.op = -1
        ops_s = time.perf_counter() - t_ops
        wire_bytes = wl.wire_bytes() - bytes0
        history_events, resume_events = wl.history()
        try:
            wl.finish()
        except (WrongResult, OpFailed) as e:
            wrong.append(f"end state: {e}")
    finally:
        wl.close()
    ops = len(script["ops"])
    writes = lat["write"]
    tenth = max(1, len(writes) // 10)
    out = {
        "setup_s": setup_s, "ops_s": ops_s, "ops": ops, "lat": lat,
        "failed": failed, "wrong": wrong, "wire_bytes": wire_bytes,
        "history_events": history_events, "resume_events": resume_events,
        "first_tenth_write_ms": statistics.median(writes[:tenth]) * 1e3,
        "last_tenth_write_ms": statistics.median(writes[-tenth:]) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from spans import layer_metrics
        spans, counts, waits = tracer.take_round()
        out["layers"] = layer_metrics(spans, counts, waits, ops, resume_events)
        out["spans"] = spans
    return out


def run_rounds(workload_cls, scripts, seconds: float,
               tracer=None) -> tuple[list[dict], list[float]]:
    """Whole rounds while the next one fits in ``seconds``; at least one.
    ``scripts(k)`` is the script of round k.  Returns the rounds and the
    set-up times of the extra boots.  Only the last round keeps its spans."""
    rounds: list[dict] = []
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        script = scripts(len(rounds))
        t0 = time.perf_counter()
        if tracer is None:
            setups += time_setups(workload_cls, script, EXTRA_SETUPS)
        gc.collect()
        if rounds:
            rounds[-1].pop("spans", None)
        rounds.append(run_round(workload_cls, script, tracer))
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            return rounds, setups


def end_to_end(rounds, setups: list[float]) -> dict[str, tuple[float, str]]:
    writes = [x for r in rounds for x in r["lat"]["write"]]
    reads = [x for r in rounds for x in r["lat"]["read"]]
    first = rounds[0]
    return {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
        "ops_per_s": (sum(r["ops"] for r in rounds) / sum(r["ops_s"] for r in rounds), "1/s"),
        "write_p50_ms": (quantile(writes, 0.5) * 1e3, "ms"),
        "write_p90_ms": (quantile(writes, 0.9) * 1e3, "ms"),
        "read_p50_ms": (quantile(reads, 0.5) * 1e3, "ms"),
        "read_p90_ms": (quantile(reads, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (first["peak_rss_mb"], "MB"),
        "history_events": (float(first["history_events"]), "count"),
        "wire_bytes_per_op": (first["wire_bytes"] / first["ops"], "B"),
    }


def per_layer(rounds) -> dict[str, tuple[float, str]]:
    from spans import unit_of
    return {name: (statistics.median(r["layers"][name] for r in rounds), unit_of(name))
            for name in rounds[0]["layers"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink every script (the self-test runs at 0.05)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "npckit" / "__init__.py").is_file():
        sys.stderr.write(f"no program under {ROOT / 'src'}: run from a full checkout\n")
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}\n")
        return 2
    cls = WORKLOADS[args.workload]
    variants: dict[int, dict] = {}

    def scripts(k: int) -> dict:
        v = k % VARIANTS
        if v not in variants:
            variants[v] = cls.make_script(f"{args.seed}/{v}", args.scale)
        return variants[v]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.attach()
    calib_before = calibrate()
    try:
        rounds, setups = run_rounds(cls, scripts, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.detach()
    calib_after = calibrate()

    failed = [f for r in rounds for f in r["failed"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    for problem in (failed + wrong)[:10]:
        sys.stderr.write(f"check failed: {problem}\n")
    e2e = end_to_end(rounds, setups)
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "calibration_s": {"before": calib_before, "after": calib_after},
        "first_tenth_write_ms": statistics.median(r["first_tenth_write_ms"] for r in rounds),
        "last_tenth_write_ms": statistics.median(r["last_tenth_write_ms"] for r in rounds),
        "ops_per_s": e2e["ops_per_s"][0],
        "resume_events": rounds[0]["resume_events"],
        "peak_rss_mb_at_end": peak_rss_mb(),
    }
    if tracer is not None:
        from spans import dump
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        dump(rounds[-1]["spans"], path)
        info["spans_file"] = str(path.relative_to(ROOT))
        metrics = per_layer(rounds)
    else:
        metrics = e2e
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
