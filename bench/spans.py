"""Per-layer tracing from outside the program.

``Tracer.attach()`` wraps the public functions of each layer where the
calling modules look them up, and records one span per call: name, start,
end, thread, parent span and the op in flight.  With one op in flight,
every span belongs to that op, event and reader threads included.  Hot
calls that do no work worth timing (behaviour step polls, inbound
dispatches) are counted instead.  ``detach()`` restores every original.

Spans stay in memory; ``layer_metrics`` turns one round of them into the
per-layer metrics and ``dump`` writes them out.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import itertools
import statistics
import threading
import time
import weakref

from npckit import behaviors, filters, gateways, history, httpd, model, node, server, wire
from npckit.history import NODE_ORIGIN, SUSPEND
from npckit.ports import BEHAVIORS, Behavior

# span flags
HIT, SUSPEND_NOTICE = 1, 2


def _read_after_flag(result):
    return HIT if result[0] is not None else 0


def _deliver_flag(result):
    if result is None:
        return 0
    ev = result.event
    return SUSPEND_NOTICE if ev.kind == SUSPEND and ev.origin_port == NODE_ORIGIN else HIT


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.waits: list[float] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._stamps = weakref.WeakKeyDictionary()
        self._stamp_lock = threading.Lock()

    # -- wrapping ---------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, flag=None) -> None:
        fn = getattr(owner, attr)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            op = tracer.op
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, name, t0, t1, threading.get_ident(), parent, op,
                          flag(result) if flag is not None else 0))
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str, useful=None) -> None:
        fn = getattr(owner, attr)
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.op >= 0:
                counts[name] += 1
                if useful is not None and useful(result):
                    counts[name + ".useful"] += 1
            return result

        self._patch(owner, attr, counted)

    def _inbound_waits(self) -> None:
        """Time each inbound item waits between being queued and being
        dispatched on the driving thread.  The queue is FIFO, so one deque
        of enqueue stamps per server pairs up with dispatch order."""
        tracer = self

        def stamps(srv):
            return tracer._stamps.setdefault(srv, collections.deque())

        def stamped(fn):
            def put(srv, *args):
                with tracer._stamp_lock:
                    stamps(srv).append(time.perf_counter())
                    fn(srv, *args)
            return put

        dispatch = server.Server._dispatch

        def timed_dispatch(srv, item):
            queued = stamps(srv)
            t0 = queued.popleft() if queued else None
            if tracer.op >= 0 and t0 is not None:
                tracer.waits.append(time.perf_counter() - t0)
                tracer.counts["server.dispatch"] += 1
            return dispatch(srv, item)

        self._patch(server.Server, "enqueue", stamped(server.Server.enqueue))
        self._patch(server.Server, "run_soon", stamped(server.Server.run_soon))
        self._patch(server.Server, "_dispatch", timed_dispatch)

    def attach(self) -> None:
        # eval_filter recurses through the filters module's own global,
        # which stays unwrapped, so each top-level evaluation counts once
        for mod in (history, node, gateways, behaviors):
            self.span(mod, "eval_filter", "filters.eval")
        for mod in (server, behaviors, wire, gateways, model):
            self.span(mod, "parse_filter", "filters.parse")
        self.span(filters.FilterIndex, "match", "filters.index_match")

        self.span(history.EventHistory, "append", "history.append")
        self.span(history.EventHistory, "read_after", "history.read_after", _read_after_flag)

        self.span(node.Node, "post_event", "node.post")
        self.span(node.Node, "deliver_step", "node.deliver_step", _deliver_flag)
        self.span(node.Node, "read_for_pull", "node.read_for_pull")

        for cls in {Behavior, *BEHAVIORS.values()}:
            for attr in ("on_event", "on_external"):
                if attr in vars(cls):
                    self.span(cls, attr, f"behaviors.{attr}")
            if "step" in vars(cls):
                self.count(cls, "step", "server.step_poll", useful=bool)
        self.count(server.Server, "_spawn_port", "behaviors.spawn")

        for mod in (wire, gateways):
            self.span(mod, "encode_frame", "wire.encode")
        self.span(wire, "decode_body", "wire.decode")
        for mod in (wire, behaviors):
            for fn in ("event_to_json", "event_from_json", "entry_to_json", "entry_from_json"):
                if hasattr(mod, fn):
                    self.span(mod, fn, "wire.json_codec")

        self.span(gateways.LoopbackConn, "send", "gateways.loopback_send")
        self.span(gateways.TcpConn, "send", "gateways.tcp_send")
        self.count(server.Server, "accept_conn", "gateways.conn_opened")

        self._inbound_waits()
        self.span(httpd, "http_request", "httpd.request")

    def detach(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- rounds --------------------------------------------------------------------

    def take_round(self):
        """Hand over this round's spans, counts and waits, and start afresh.
        The wrappers hold these very objects, so they are emptied in place."""
        taken = (self.spans[:], collections.Counter(self.counts), self.waits[:])
        self.spans.clear()
        self.counts.clear()
        self.waits.clear()
        return taken


def _self_times(spans: list[tuple]) -> dict[int, float]:
    covered: dict[int, float] = collections.defaultdict(float)
    for sid, _, t0, t1, _, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return {s[0]: (s[3] - s[2]) - covered.get(s[0], 0.0) for s in spans}


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, counts, waits, ops: int, resume_events: int) -> dict[str, float]:
    """Per-layer metrics of one round.  ``*_us_per_op`` are self times."""
    own = _self_times(spans)
    calls = collections.Counter()
    us = collections.Counter()
    flags = collections.Counter()
    durations = collections.defaultdict(list)
    for s in spans:
        sid, name, t0, t1, _, _, op, flag = s
        if op < 0:
            continue
        calls[name] += 1
        us[name] += own[sid] * 1e6
        if flag:
            flags[(name, flag)] += 1
        if name == "httpd.request":
            durations[name].append((t1 - t0) * 1e6)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    polls = counts["server.step_poll"]
    return {
        "filters.eval_calls_per_op": per_op(calls["filters.eval"]),
        "filters.eval_us_per_op": per_op(us["filters.eval"]),
        "filters.parse_calls_per_op": per_op(calls["filters.parse"]),
        "filters.index_match_calls_per_op": per_op(calls["filters.index_match"]),
        "history.append_calls_per_op": per_op(calls["history.append"]),
        "history.append_us_per_op": per_op(us["history.append"]),
        "history.read_after_calls_per_op": per_op(calls["history.read_after"]),
        "history.read_after_us_per_op": per_op(us["history.read_after"]),
        "history.read_after_hit_ratio": ratio(flags[("history.read_after", HIT)],
                                              calls["history.read_after"]),
        "history.resume_events": float(resume_events),
        "node.post_us_per_op": per_op(us["node.post"]),
        "node.deliver_step_calls_per_op": per_op(calls["node.deliver_step"]),
        "node.deliver_step_us_per_op": per_op(us["node.deliver_step"]),
        "node.deliver_hit_ratio": ratio(flags[("node.deliver_step", HIT)],
                                        calls["node.deliver_step"]),
        "node.suspend_notices_per_op": per_op(flags[("node.deliver_step", SUSPEND_NOTICE)]),
        "node.read_for_pull_us_per_op": per_op(us["node.read_for_pull"]),
        "behaviors.on_event_calls_per_op": per_op(calls["behaviors.on_event"]),
        "behaviors.on_event_us_per_op": per_op(us["behaviors.on_event"]),
        "behaviors.on_external_us_per_op": per_op(us["behaviors.on_external"]),
        "behaviors.spawns_per_op": per_op(counts["behaviors.spawn"]),
        "wire.frames_per_op": per_op(calls["wire.encode"]),
        "wire.encode_us_per_op": per_op(us["wire.encode"]),
        "wire.decode_us_per_op": per_op(us["wire.decode"]),
        "wire.json_codec_us_per_op": per_op(us["wire.json_codec"]),
        "gateways.loopback_send_us_per_op": per_op(us["gateways.loopback_send"]),
        "gateways.tcp_send_us_per_op": per_op(us["gateways.tcp_send"]),
        "gateways.conns_opened_per_op": per_op(counts["gateways.conn_opened"]),
        "server.pump_items_per_op": per_op(counts["server.dispatch"]),
        "server.step_polls_per_op": per_op(polls),
        "server.step_useful_ratio": ratio(counts["server.step_poll.useful"], polls),
        "server.inbound_wait_us_p50": _p50([w * 1e6 for w in waits]),
        "httpd.request_us_p50": _p50(durations["httpd.request"]),
    }


UNITS = {
    "calls_per_op": "calls/op", "us_per_op": "us/op", "ratio": "ratio",
    "us_p50": "us", "per_op": "count/op", "events": "count",
}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def dump(spans: list[tuple], path) -> None:
    """Write spans as tab-separated rows, times in microseconds from the
    round's first span."""
    base = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as f:
        f.write("id\tname\tstart_us\tend_us\tthread\tparent\top\tflag\n")
        for sid, name, t0, t1, tid, parent, op, flag in spans:
            f.write(f"{sid}\t{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}"
                    f"\t{tid}\t{parent}\t{op}\t{flag}\n")
