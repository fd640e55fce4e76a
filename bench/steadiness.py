"""Steadiness report: do two sets of runs of one commit agree?

    python3 bench/steadiness.py                      # run both sets, then report
    python3 bench/steadiness.py --read bench/out/steadiness

Two sets of ten runs of every workload, each run ``bench/run.py --trace 0``
for BENCHMARK.json's ``run_seconds`` in its own process, one at a time,
with its own seed (set k uses seeds 100*k+1 .. 100*k+10).  Results are
saved under ``bench/out/steadiness/set<k>/`` and can be read back with
``--read`` instead of running again.

For every workload and end-to-end metric the report prints each set's
median and quartiles, the spread (distance between the quartiles as a share
of the median), the shift of the second set's median against the first in
the metric's worse direction, and the metric's bound from BENCHMARK.json.
A metric is steady when every spread, setup_s's included, stays within its
bound and the shift does too; the target while tuning is a spread below a
third of the bound.  A set passes only if it holds all ten runs of each
workload and every run is correct with no failed operation.  The
calibration loop's time, taken before and after each run, is printed per
set so a slow host can be told from a slow program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAVED = HERE / "out" / "steadiness"
SETS = 2
RUNS = 10    # seeds per set and workload


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(k: int, workloads: list[str], seconds: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.json"):
        stale.unlink()
    for w in workloads:
        for seed in range(100 * k + 1, 100 * k + 1 + RUNS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            (out / f"{w}-seed{seed}.json").write_text(lines[-2] + "\n" + lines[-1] + "\n")
            print(f"set {k} {w} seed {seed}: done", file=sys.stderr, flush=True)


def read_set(path: Path) -> dict[str, list[dict]]:
    """workload -> list of {"info": ..., "result": ...}"""
    runs: dict[str, list[dict]] = {}
    for f in sorted(path.glob("*.json")):
        info_line, result_line = f.read_text().splitlines()[-2:]
        info = json.loads(info_line)["info"]
        runs.setdefault(info["workload"], []).append(
            {"info": info, "result": json.loads(result_line)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def report(sets: list[dict[str, list[dict]]], bench: dict) -> bool:
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        counts = [len(s.get(w, [])) for s in sets]
        print(f"\n== {w} ({', '.join(f'{n} runs' for n in counts)})")
        if counts != [RUNS] * SETS:
            print(f"   UNSTEADY: each set needs {RUNS} runs")
            ok = False
            continue
        for i, s in enumerate(sets, 1):
            calib = [r["info"]["calibration_s"][k] for r in s[w] for k in ("before", "after")]
            failed = sum(r["result"]["failed"] for r in s[w])
            correct = all(r["result"]["correct"] for r in s[w])
            print(f"   set {i}: calibration median {statistics.median(calib):.4f} s "
                  f"[{min(calib):.4f}, {max(calib):.4f}]; failed {failed} of "
                  f"{sum(r['result']['attempted'] for r in s[w])}; correct {correct}")
            ok &= correct and failed == 0
        print(f"   {'metric':<18}" + "".join(f"{'set ' + str(i) + ' q1/median/q3':>34}"
                                              for i in range(1, len(sets) + 1))
              + f"{'spreads':>16}{'shift':>8}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, spreads, medians = "", [], []
            for s in sets:
                values = [r["result"]["metrics"][name]["value"] for r in s[w]]
                q1, med, q3 = quartiles(values)
                cols += f"{q1:>11.4g}{med:>11.4g}{q3:>12.4g}"
                spreads.append(spread(values))
                medians.append(med)
            shift = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                shift = -shift
            verdict = "ok" if all(x <= bound for x in spreads) and shift <= bound else "UNSTEADY"
            if verdict == "ok" and any(x > bound / 3 for x in spreads):
                verdict = "ok (spread above a third of the bound)"
            ok &= verdict.startswith("ok")
            print(f"   {name:<18}{cols}{'/'.join(f'{x:.3f}' for x in spreads):>16}"
                  f"{shift:>8.3f}{bound:>7.2f}  {verdict}")
    return ok


def main(argv=None) -> int:
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--read", type=Path, help="report on saved sets under this directory")
    args = p.parse_args(argv)

    base = SAVED if args.read is None else args.read
    dirs = [base / f"set{k}" for k in range(1, SETS + 1)]
    if args.read is None:
        workloads = [w["name"] for w in bench["workloads"]]
        for k, d in enumerate(dirs, 1):
            run_set(k, workloads, bench["run_seconds"], d)
    sets = [read_set(d) for d in dirs]
    return 0 if report(sets, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
