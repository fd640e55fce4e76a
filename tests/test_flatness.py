"""Per-operation work stays flat as the table and the history grow.

Time is too noisy to pin this, so work is counted: calls of
``eval_filter`` (each top-level evaluation once), history events read
(what ``EventHistory.since`` hands out), documents a behaviour reads as
candidates (each ``insert_event`` of a document in ``behaviors``),
``Node.deliver_step`` calls, full encodes of a document's content
(``base64.b64encode`` calls), events written as JSON (``wire.event_bytes``
calls), names ``behaviors`` passes to ``sorted``, and entries handed out by
iterating a node's table.
Each path is run at N and at 4N documents, every one of which is also an
event in the history, and its counts per operation must agree within
``SLACK``.  Delivery is run the same way at S and at 4S subscriptions that
no event matches.  Some counts are pinned exactly, at every size: what a
``get`` reads of the table, what a local query sorts, and how often a
stored document is encoded on each path that serves it.
"""

import base64
from collections import Counter

import pytest

from npckit import behaviors, filters, gateways, history, node, wire
from npckit.history import INSERT, Event, EventHistory
from npckit.model import DOCUMENT
from npckit.node import Node
from npckit.sim import SimRun

N = 100
S = 20
OPS = 20
SLACK = 0.25  # per operation, or per result
PER_TOPIC = 10  # a local query matches this many documents, whatever the table's size


class CountedTable(dict):
    """A node's entry table that counts the entries iteration hands out."""

    def __init__(self, entries: dict, counts: Counter):
        super().__init__(entries)
        self.counts = counts

    def _handed(self, items):
        for item in items:
            self.counts["entries_iterated"] += 1
            yield item

    def __iter__(self):
        return self._handed(super().__iter__())

    def keys(self):
        return self._handed(super().keys())

    def values(self):
        return self._handed(super().values())

    def items(self):
        return self._handed(super().items())


def counting(monkeypatch, *runs: SimRun) -> Counter:
    """Count, from now until ``monkeypatch.undo()``, the work named in the
    module docstring; the entry tables counted are those of ``runs``'
    nodes, and are counted for good."""
    counts = Counter()
    real_eval, real_since, real_step = behaviors.eval_filter, EventHistory.since, Node.deliver_step
    real_insert, real_b64 = behaviors.insert_event, base64.b64encode
    real_event_bytes = wire.event_bytes

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

    def b64encode(data, *args):
        counts["content_encodes"] += 1
        return real_b64(data, *args)

    def event_bytes(ev):
        counts["event_bytes"] += 1
        return real_event_bytes(ev)

    def sorted_names(names, **kwargs):
        names = list(names)
        counts["names_sorted"] += len(names)
        return sorted(names, **kwargs)

    # the filters module too, for the index's evaluations; its recursion
    # is nested, so stays uncounted
    for module in (behaviors, filters, gateways, history, node):
        monkeypatch.setattr(module, "eval_filter", evaluated)
    monkeypatch.setattr(EventHistory, "since", since)
    monkeypatch.setattr(behaviors, "insert_event", insert_event)
    monkeypatch.setattr(Node, "deliver_step", deliver_step)
    monkeypatch.setattr(base64, "b64encode", b64encode)
    for module in (behaviors, wire):
        monkeypatch.setattr(module, "event_bytes", event_bytes)
    monkeypatch.setitem(wire._SPLICED, Event, event_bytes)  # an event in a list
    monkeypatch.setattr(behaviors, "sorted", sorted_names, raising=False)
    for run in runs:  # the tables stay swapped: what was posted meanwhile stays in them
        for server in run.servers.values():
            for n in server.nodes.values():
                n.entries = CountedTable(n.entries, counts)
    return counts


def doc(i: int) -> dict:
    """The JSON of document ``i``, written here so that making it encodes
    nothing."""
    return {"name": f"d{i:05d}", "kind": "document", "content_b64": "eA==",
            "media_type": "application/octet-stream", "meta": {"topic": f"t{i // PER_TOPIC}"}}


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
    counts = counting(monkeypatch, run)
    per = 0
    for i in range(OPS):
        per += PATHS[path](run, i) or 1
    monkeypatch.undo()
    assert run.server("a").faults == 0
    return {key: value / per for key, value in counts.items()}


def assert_flat(small: dict, large: dict) -> None:
    for key in ("eval_filter", "events_read", "documents_read", "deliver_step",
                "content_encodes", "event_bytes", "names_sorted"):
        assert abs(small.get(key, 0) - large.get(key, 0)) <= SLACK, (key, small, large)


# counts pinned exactly, per operation (per result for the local query):
# a get or a fetch of a stored document looks it up and reads nothing else
# of the table, and a local query sorts its results' names and no others
EXACT = {"get": {"entries_iterated": 0}, "fetch-hit": {"entries_iterated": 0},
         "local-query-per-result": {"names_sorted": 1}}


@pytest.mark.parametrize("path", PATHS)
def test_work_per_op_does_not_grow_with_the_table(monkeypatch, path):
    small, large = per_op(monkeypatch, path, N), per_op(monkeypatch, path, 4 * N)
    assert_flat(small, large)
    for counts in (small, large):
        for key, want in EXACT.get(path, {}).items():
            assert counts.get(key, 0) == want, (key, counts)


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
    counts = counting(monkeypatch, run)
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
    small, large = pulled(monkeypatch, N), pulled(monkeypatch, 4 * N)
    assert_flat(small, large)
    # the bytes ``serve_pull`` sizes an event by are the bytes its ack carries
    assert small["event_bytes"] == large["event_bytes"] == 1, (small, large)


def test_one_pull_writes_each_event_it_answers_with_once(monkeypatch):
    run = origin(N)
    after = last_seq(run) - 7
    counts = counting(monkeypatch, run)
    (ack,) = ask(run, {"kind": "pull", "after": after})
    assert len(ack["events"]) == 7 and ack["at_end"]
    assert counts["event_bytes"] == 7, counts


# ---------------------------------------------------------------------------
# a stored document is encoded once, whichever paths serve it and how often

REPEATS = 3
SERVED = 5  # documents served on a path, each REPEATS times
TOPICS = 2  # the topics queried, each REPEATS times


def stored_seq(run: SimRun, name: str) -> int:
    """The seq of the live Insert of ``name`` on the origin."""
    return next(ev.seq for ev in run.server("a").root.history.live
                if ev.kind == INSERT and ev.entry.name == name)


def serve_by_query(monkeypatch, run: SimRun) -> Counter:
    counts = counting(monkeypatch, run)
    for _ in range(REPEATS):
        for topic in range(TOPICS):
            local_query(run, topic)
    return counts


def serve_by_get(monkeypatch, run: SimRun) -> Counter:
    counts = counting(monkeypatch, run)
    for _ in range(REPEATS):
        for i in range(SERVED):
            get(run, i)
    return counts


def serve_by_pull(monkeypatch, run: SimRun) -> Counter:
    after = [stored_seq(run, f"d{i:05d}") - 1 for i in range(SERVED)]
    counts = counting(monkeypatch, run)
    for _ in range(REPEATS):
        for i in range(SERVED):
            (ack,) = ask(run, {"kind": "pull", "after": after[i], "max": 1})
            (ev,) = ack["events"]
            assert ev["entry"]["name"] == f"d{i:05d}"
            assert ev["entry"]["meta"]["origin-node"] == "npc://a:7070/root"
    return counts


def serve_pushed(monkeypatch, run: SimRun) -> Counter:
    """Pushed Inserts that a forwarder sends on, tagged, and that ``get``
    then reads on the node they were pushed to."""
    run.add_server({"host": "b", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "admin", "kind": "port", "behavior": "admin"}]}})
    ask(run, {"kind": "cmd", "op": "insert", "entry": {
        "name": "fwd", "kind": "port", "behavior": "forwarder", "cursor": last_seq(run) + 1,
        "config": {"target": "npc://b:7070/root/admin"}}})
    run.quiesce()
    counts = counting(monkeypatch, run)
    for i in range(SERVED):
        push_insert(run, i)
    run.quiesce()
    for _ in range(REPEATS):
        for i in range(SERVED):
            get(run, 100000 + i)
    copies = run.server("b").root.entries
    assert [copies[f"d{100000 + i:05d}"].meta["origin-node"] for i in range(SERVED)] == [
        "npc://a:7070/root"] * SERVED
    return counts


ENCODED_ONCE = {"local-query": (serve_by_query, PER_TOPIC * TOPICS),
                "get": (serve_by_get, SERVED), "pull": (serve_by_pull, SERVED),
                "push-insert": (serve_pushed, SERVED)}


@pytest.mark.parametrize("path", ENCODED_ONCE)
def test_each_stored_document_is_encoded_once_however_often_it_is_served(monkeypatch, path):
    """A document's content is base64-encoded once for all of its frames:
    the query results, ``get`` replies and tagged copies (pulled, or pushed
    on by a forwarder) that carry it, at N and at 4N documents."""
    serve, documents = ENCODED_ONCE[path]
    for n in (N, 4 * N):
        run = origin(n)
        counts = serve(monkeypatch, run)
        monkeypatch.undo()
        assert all(s.faults == 0 for s in run.servers.values())
        assert counts["content_encodes"] == documents, (n, counts)


def test_five_pulls_of_one_document_encode_it_once(monkeypatch):
    """Each pull tags its copy of the document with the origin's URL; the
    copies share the original's one encoding, and so do untagged history
    replies afterwards."""
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "admin", "kind": "port", "behavior": "admin"},
        {"name": "doc", "content_text": "x" * 300}]}})
    run.quiesce()
    counts = counting(monkeypatch, run)
    for op in ("pull", "history"):
        for _ in range(5):
            msg = {"kind": "pull"} if op == "pull" else {"kind": "cmd", "op": "history"}
            (ack,) = ask(run, msg)
            (ev,) = [e for e in ack["events"] if e["entry"]["name"] == "doc"]
            assert ("origin-node" in ev["entry"]["meta"]) == (op == "pull")
        assert counts["content_encodes"] == 1, (op, counts)
