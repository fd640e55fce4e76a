"""Shared generators and reference implementations for the test suite.

Property tests draw from per-test seeded Random instances so a failing run
reproduces exactly.  The oracles here are deliberately naive: a recursive
glob matcher and a replay of the cancellation rules, kept simple enough to
be obviously correct.  ``ScanNode`` polls every subscription and finds
each delivery by scanning the history from the subscription's cursor: the
reference for the node's indexed, queue-fed delivery through its ready
ring.  ``flush``, ``on_driver`` and ``wait_for`` sync a test with a
real-mode server's driver thread.
"""

import os
import pathlib
import random
import sys
import threading
import time
import zlib

import pytest

from npckit.filters import And, BoolLit, Cmp, Not, Or, eval_filter
from npckit.history import (CLOSE, INSERT, NODE_ORIGIN, REMOVE, RESUME, SUSPEND, TIME,
                            Event, is_exclusive)
from npckit.model import (DOCUMENT, NODE, PORT, PortSpec, document_entry,
                          node_entry, port_entry)
from npckit.node import Delivered, Node


# pytest puts src/ on this process's path (pyproject.toml); the npcd
# processes that tests start need it on theirs
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture
def rng(request):
    # crc32 of the test name, not hash(): hash() is salted per process
    return random.Random(zlib.crc32(request.node.name.encode()))


# ---------------------------------------------------------------------------
# generators

NAMES = ["alpha", "beta", "gamma", "news-42", "a.b.c", "x", "report_7", "in", "out"]
PORTS = ["in", "out", "admin", "fwd", "watch-1"]
SUBS = ["default", "docs", "s1"]
LABELS = [None, "tick", "digest", "exclusive"]
META_KEYS = ["topic", "rank", "reply-to", "exclusive"]
META_VALUES = ["", "news", "sports", "1", "12", "3", "true", "alpha", "out"]

FIELDS = ["event.type", "event.port", "event.subscription", "event.label",
          "entry.name", "entry.kind", "meta.topic", "meta.rank", "meta.reply-to"]
OPS = ["==", "!=", "matches", "<", "<=", ">", ">="]
LITERALS = ["Insert", "Remove", "Resume", "Time", "document", "port", "node",
            "alpha", "beta", "news-*", "?eta", "a.b.c", "", "42", "-7", "007",
            "12", "tick", 'he said "hi"', "back\\slash", "in", "out"]


def rand_filter(rng, depth=3):
    """Random filter AST; leans on atoms so most draws are satisfiable."""
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        if rng.random() < 0.12:
            return BoolLit(rng.random() < 0.5)
        return Cmp(rng.choice(FIELDS), rng.choice(OPS), rng.choice(LITERALS))
    if roll < 0.6:
        return Not(rand_filter(rng, depth - 1))
    if roll < 0.8:
        return And(rand_filter(rng, depth - 1), rand_filter(rng, depth - 1))
    return Or(rand_filter(rng, depth - 1), rand_filter(rng, depth - 1))


def rand_entry(rng, name=None):
    name = name or rng.choice(NAMES)
    meta = {}
    for key in META_KEYS:
        if rng.random() < 0.3:
            meta[key] = rng.choice(META_VALUES)
    kind = rng.choice([DOCUMENT, DOCUMENT, DOCUMENT, PORT, NODE])
    if kind == DOCUMENT:
        return document_entry(name, rng.randbytes(rng.randrange(0, 12)), meta=meta)
    if kind == PORT:
        return port_entry(name, PortSpec("manual"), meta=meta)
    return node_entry(name, meta=meta)


def rand_event(rng):
    """Random unstamped event covering every field a filter can read."""
    kind = rng.choice([INSERT, INSERT, REMOVE, TIME, RESUME, CLOSE, SUSPEND])
    origin = rng.choice(PORTS + ["@node"])
    if kind in (INSERT, REMOVE):
        return Event(kind, origin_port=origin, entry=rand_entry(rng))
    if kind == TIME:
        return Event(kind, origin_port="@node", label=rng.choice([l for l in LABELS if l]))
    return Event(kind, origin_port=origin, subscription=rng.choice(SUBS))


def _escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def loose_text(rng, e):
    """Render an AST to source with randomized spacing and redundant
    parentheses, to prod the parser with inputs the printer never emits."""
    sp = lambda: " " * rng.randrange(0, 3)

    def wrap(text):
        if rng.random() < 0.4:
            return "(" + sp() + text + sp() + ")"
        return text

    if isinstance(e, BoolLit):
        return wrap("true" if e.value else "false")
    if isinstance(e, Cmp):
        pad = sp() if e.op != "matches" else " " + sp()
        text = e.field + pad + e.op + pad + '"' + _escape(e.literal) + '"'
        return wrap(text)
    if isinstance(e, Not):
        return wrap("not " + sp() + _force_parens(rng, e.operand))
    word = " and " if isinstance(e, And) else " or "
    text = _force_parens(rng, e.left) + sp() + word + sp() + _force_parens(rng, e.right)
    return wrap(text)


def _force_parens(rng, e):
    text = loose_text(rng, e)
    if isinstance(e, (And, Or, Not)):
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# oracles

def glob_oracle(pattern, text):
    """Reference glob matcher: * spans any run, ? one character."""
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "*":
        return any(glob_oracle(rest, text[i:]) for i in range(len(text) + 1))
    if not text:
        return False
    if head == "?":
        return glob_oracle(rest, text[1:])
    return text[0] == head and glob_oracle(rest, text[1:])


def replay_live(events, max_events=None):
    """Reference cancellation: a Remove deletes every earlier live Insert of
    the same entry name, a Close deletes every earlier live Resume by the
    same port and subscription; everything else just accumulates.  With
    ``max_events``, the oldest live events beyond that many are dropped
    after each append."""
    live = []
    for ev in events:
        if ev.kind == REMOVE and ev.entry is not None:
            live = [e for e in live
                    if not (e.kind == INSERT and e.entry is not None
                            and e.entry.name == ev.entry.name)]
        elif ev.kind == CLOSE:
            live = [e for e in live
                    if not (e.kind == RESUME and e.origin_port == ev.origin_port
                            and e.subscription == ev.subscription)]
        live.append(ev)
        if max_events is not None:
            live = live[-max_events:]
    return live


def lines_run(modules, fn):
    """Run ``fn`` and count the Python lines it executes inside ``modules``:
    a measure of work that does not depend on the host's speed."""
    files = {m.__file__ for m in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


class ScanNode(Node):
    """A node that delivers the way the kit did before subscriptions were
    indexed: ``deliver_step`` polls every subscription in ring order until
    one delivers, each delivery is found by reading the history from the
    subscription's cursor through its effective filter, and an exclusive
    event is offered after evaluating every subscription's filter.  The
    per-subscription queues are ignored.  Readiness is found by the same
    scan and refreshed after every step, so that a ``Server`` can drive
    this node through its ring of ready nodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scan_ring = []
        self._scan_next = 0

    def _add_sub(self, sub):
        super()._add_sub(sub)
        self._scan_ring.append(sub.key)

    def _remove_sub(self, key):
        super()._remove_sub(key)
        idx = self._scan_ring.index(key)
        self._scan_ring.pop(idx)
        if idx < self._scan_next:
            self._scan_next -= 1
        if self._scan_ring:
            self._scan_next %= len(self._scan_ring)
        else:
            self._scan_next = 0

    def _peek(self, sub):
        pos = sub.cursor
        while True:
            ev, nxt = self.history.read_after(pos, self._effective(sub))
            if ev is None:
                return None
            if self._skippable(sub, ev):
                pos = nxt
                continue
            return ev

    def _refresh(self, sub):
        ready = sub.flag and (not sub.at_end_notified or self._peek(sub) is not None)
        if ready != sub.ready:
            self._file_ready(sub, ready)

    def _take_next(self, sub):
        while True:
            ev, nxt = self.history.read_after(sub.cursor, self._effective(sub))
            if ev is None:
                if not sub.at_end_notified:
                    sub.cursor = max(sub.cursor, nxt)
                return None
            if self._skippable(sub, ev):
                sub.offered.discard(ev.seq)
                sub.cursor = nxt
                continue
            return ev

    def deliver_step(self):
        d = self._poll()
        for sub in list(self.subs.values()):
            self._refresh(sub)
        return d

    def _poll(self):
        ring = self._scan_ring
        n = len(ring)
        for i in range(n):
            at = (self._scan_next + i) % n
            sub = self.subs[ring[at]]
            if not sub.flag:
                continue
            ev = self._take_next(sub)
            if ev is not None:
                sub.cursor = max(sub.cursor, ev.seq + 1)
                if ev.kind in (INSERT, REMOVE, TIME):
                    sub.at_end_notified = False
                self._scan_next = (at + 1) % n
                consumed = self._sink(sub.port, ev, sub.name)
                if consumed and is_exclusive(ev):
                    self.history.mark_consumed(ev.seq)
                return Delivered(sub.port, sub.name, ev)
            if not sub.at_end_notified:
                sub.flag = False
                sub.at_end_notified = True
                notice = Event(SUSPEND, origin_port=NODE_ORIGIN, subscription=sub.name)
                self._scan_next = (at + 1) % n
                self._sink(sub.port, notice, sub.name)
                return Delivered(sub.port, sub.name, notice)
        return None

    def deliver_exclusive(self, ev):
        matching = {}
        for key in list(self._scan_ring):
            sub = self.subs.get(key)
            if sub is None or not sub.flag or sub.port == ev.origin_port:
                continue
            if eval_filter(self._effective(sub), ev):
                matching.setdefault(sub.port, []).append(sub)

        def prio(port):
            spec = self.port_spec(port)
            return spec.priority if spec is not None else 0

        for port in sorted(matching, key=lambda p: (-prio(p), p)):
            for sub in matching[port]:
                sub.offered.add(ev.seq)
            consumed = self._sink(port, ev, matching[port][0].name)
            if consumed:
                self.history.mark_consumed(ev.seq)
                return port
        return None


# -- real mode ---------------------------------------------------------------------------

def flush(server) -> None:
    """Return once the driver has run every task queued before this call."""
    done = threading.Event()
    server.run_soon(done.set)
    assert done.wait(5), "the driver did not get to the task"


def on_driver(server, fn):
    """What ``fn`` returns when the driver runs it."""
    out = []
    server.run_soon(lambda: out.append(fn()))
    flush(server)
    return out[0]


def wait_for(cond, what: str, within: float = 5) -> None:
    deadline = time.monotonic() + within
    while not cond():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)
