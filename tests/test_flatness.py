"""Per-operation work stays flat as the table and the history grow.

Time is too noisy to pin this, so work is counted: calls of
``eval_filter`` (each top-level evaluation once), history events read
(what ``EventHistory.since`` hands out), documents a behaviour reads as
candidates (each ``insert_event`` of a document in ``behaviors``) and
``Node.deliver_step`` calls.
Each path is run at N and at 4N documents, every one of which is also an
event in the history, and its counts per operation must agree within
``SLACK``.  Delivery is run the same way at S and at 4S subscriptions that
no event matches.
"""

from collections import Counter

import pytest

from npckit import behaviors, filters, gateways, history, node
from npckit.history import EventHistory
from npckit.model import DOCUMENT, document_entry
from npckit.node import Node
from npckit.sim import SimRun
from npckit.wire import entry_to_json

N = 100
S = 20
OPS = 20
SLACK = 0.25  # per operation, or per result
PER_TOPIC = 10  # a local query matches this many documents, whatever the table's size


def counting(monkeypatch) -> Counter:
    counts = Counter()
    real_eval, real_since, real_step = behaviors.eval_filter, EventHistory.since, Node.deliver_step
    real_insert = behaviors.insert_event

    nesting = [0]

    def evaluated(f, ev):
        counts["eval_filter"] += not nesting[0]
        nesting[0] += 1
        try:
            return real_eval(f, ev)
        finally:
            nesting[0] -= 1

    def since(self, first):
        for ev in real_since(self, first):
            counts["events_read"] += 1
            yield ev

    def insert_event(entry, *args):
        counts["documents_read"] += entry.kind == DOCUMENT
        return real_insert(entry, *args)

    def deliver_step(self, *args, **kwargs):
        counts["deliver_step"] += 1
        return real_step(self, *args, **kwargs)

    # the filters module too, for the index's evaluations; its recursion
    # is nested, so stays uncounted
    for module in (behaviors, filters, gateways, history, node):
        monkeypatch.setattr(module, "eval_filter", evaluated)
    monkeypatch.setattr(EventHistory, "since", since)
    monkeypatch.setattr(behaviors, "insert_event", insert_event)
    monkeypatch.setattr(Node, "deliver_step", deliver_step)
    return counts


def doc(i: int) -> dict:
    return entry_to_json(document_entry(f"d{i:05d}", b"x", meta={"topic": f"t{i // PER_TOPIC}"}))


def watcher(i: int) -> dict:
    """A port whose subscription no event here matches, filed under
    ``meta.topic`` or under ``event.type == "Time"`` by turns."""
    return {"name": f"w{i}", "kind": "port", "behavior": "admin", "receive_flag": True,
            "input_filter": f'meta.topic == "none{i}"' if i % 2 else 'event.type == "Time"'}


def origin(n: int, s: int = 0) -> SimRun:
    """A server with an admin port, ``n`` documents and ``s`` watchers."""
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "admin", "kind": "port", "behavior": "admin"}]
        + [doc(i) for i in range(n)] + [watcher(i) for i in range(s)]}})
    run.quiesce()
    return run


def ask(run: SimRun, msg: dict) -> list:
    run.connect("c", "npc://a:7070/root/admin")
    run.take_replies("c")
    run.send("c", msg)
    replies = run.take_replies("c")
    run.close("c")
    return replies


def last_seq(run) -> int:
    return run.server("a").root.history.last_seq


def insert(run, i):
    assert ask(run, {"kind": "cmd", "op": "insert", "entry": doc(100000 + i)})[0]["kind"] == "ack"


def remove(run, i):
    assert ask(run, {"kind": "cmd", "op": "remove", "name": f"d{i:05d}"})[0]["kind"] == "ack"


def get(run, i):
    assert ask(run, {"kind": "cmd", "op": "get", "name": f"d{i:05d}"})[0]["kind"] == "ack"


def pull_at_end(run, i):
    (ack,) = ask(run, {"kind": "pull", "after": last_seq(run)})
    assert ack["events"] == [] and ack["at_end"]


def history_tail(run, i):
    (ack,) = ask(run, {"kind": "cmd", "op": "history", "after": last_seq(run) - 5})
    assert len(ack["events"]) == 5 and ack["at_end"]


def fetch_hit(run, i):
    assert ask(run, {"kind": "cmd", "op": "fetch", "name": f"d{i:05d}"})[0]["kind"] == "ack"


def fetch_miss(run, i):
    assert ask(run, {"kind": "cmd", "op": "fetch", "name": f"ghost{i}"})[0]["code"] == "not-found"


def push_insert(run, i):
    event = {"kind": "Insert", "entry": doc(100000 + i)}
    assert ask(run, {"kind": "event", "event": event}) == []


def local_query(run, i):
    """Counted per result: a table of any size holds ``PER_TOPIC``."""
    replies = ask(run, {"kind": "cmd", "op": "query", "query": f'meta.topic == "t{i % 10}"'})
    (done,) = [r for r in replies if r["kind"] == "ack"]
    assert done["count"] == PER_TOPIC
    return done["count"]


PATHS = {"insert": insert, "remove": remove, "get": get, "pull-at-end": pull_at_end,
         "history-tail": history_tail, "fetch-hit": fetch_hit, "fetch-miss": fetch_miss,
         "push-insert": push_insert, "local-query-per-result": local_query}


def per_op(monkeypatch, path, n: int, s: int = 0) -> dict:
    run = origin(n, s)
    counts = counting(monkeypatch)
    per = 0
    for i in range(OPS):
        per += PATHS[path](run, i) or 1
    monkeypatch.undo()
    assert run.server("a").faults == 0
    return {key: value / per for key, value in counts.items()}


def assert_flat(small: dict, large: dict) -> None:
    for key in ("eval_filter", "events_read", "documents_read", "deliver_step"):
        assert abs(small.get(key, 0) - large.get(key, 0)) <= SLACK, (key, small, large)


@pytest.mark.parametrize("path", PATHS)
def test_work_per_op_does_not_grow_with_the_table(monkeypatch, path):
    assert_flat(per_op(monkeypatch, path, N), per_op(monkeypatch, path, 4 * N))


def test_work_per_insert_does_not_grow_with_subscriptions_that_never_match(monkeypatch):
    assert_flat(per_op(monkeypatch, "insert", N, S), per_op(monkeypatch, "insert", N, 4 * S))


def pulled(monkeypatch, n: int) -> dict:
    """Counts per event a puller takes from an origin holding ``n``
    documents, each event inserted and pulled on its own."""
    run = origin(n)
    start = run.server("a").root.history.last_seq
    run.add_server({"host": "b", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "p", "kind": "port", "behavior": "puller",
         "config": {"source": "npc://a:7070/root/admin", "every": "1", "after": str(start)}}]}})
    run.quiesce()
    run.tick()  # the puller dials and catches up with nothing
    counts = counting(monkeypatch)
    for i in range(OPS):
        run.connect("c", "npc://a:7070/root/admin")
        run.send("c", {"kind": "cmd", "op": "insert", "entry": doc(100000 + i)})
        run.close("c")
        run.tick()
    monkeypatch.undo()
    copies = [name for name in run.server("b").root.entries if name.startswith("d")]
    assert len(copies) == OPS
    assert run.server("a").faults == run.server("b").faults == 0
    return {key: value / OPS for key, value in counts.items()}


def test_work_per_pulled_event_does_not_grow_with_the_history(monkeypatch):
    assert_flat(pulled(monkeypatch, N), pulled(monkeypatch, 4 * N))
