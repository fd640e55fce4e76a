"""The behavior runtime: one choke point into behavior code, fault isolation."""

import ast
import base64
import json
import pathlib
import selectors
import struct
import time
from contextlib import closing

import pytest

from npckit import gateways
from npckit.apps import build_preset
from npckit.cli import NpcClient
from npckit.filters import parse_filter
from npckit.history import NODE_ORIGIN, REMOVE, TIME, EventHistory, insert_event
from npckit.httpd import http_request
from npckit.model import PORT, PortSpec, document_entry, node_entry, port_entry
from npckit.ports import BEHAVIORS, Behavior
from npckit.server import Server, ServerConfig
from npckit.sim import SimClient, SimRun, apply_stimulus
from npckit import wire
from npckit.wire import entry_to_json

ADMIN = {"name": "admin", "kind": "port", "behavior": "admin"}
LIST = {"kind": "cmd", "op": "list"}
HOOKS = {"on_start", "on_event", "on_external", "on_stop"}
LOOP = {"pump", "drain", "step_behaviors"}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "npckit"


def admin_run() -> SimRun:
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [ADMIN]}})
    run.quiesce()
    run.connect("c", "npc://a:7070/root/admin")
    run.take_replies("c")
    return run


def insert_cmd(entry) -> dict:
    return {"kind": "cmd", "op": "insert", "entry": entry_to_json(entry)}


def insert_port(name: str, behavior: str, config: dict) -> dict:
    return insert_cmd(port_entry(name, PortSpec(behavior, config)))


def listed(replies: list) -> list:
    acks = [r for r in replies if r["kind"] == "ack" and "entries" in r]
    assert acks, replies
    return [e["name"] for e in acks[-1]["entries"]]


def retired_by_node(run: SimRun, name: str) -> bool:
    """The port's last word in the history is a node-issued Remove."""
    last = [e for e in run.server("a").root.history.live
            if e.entry is not None and e.entry.name == name][-1]
    return last.kind == REMOVE and last.origin_port == NODE_ORIGIN


def test_faulting_event_hook_retires_the_port_and_the_server_answers_on(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "faulty", Faulty)
    run = admin_run()
    # the port raises on the first event delivered to it
    run.send("c", insert_port("p1", "faulty", {"fail": "on_event"}))
    assert run.take_replies("c")[0]["kind"] == "ack"
    run.tick(1)
    faults = [line for line in run.tracer.lines() if "\tfault\t" in line]
    assert len(faults) == 1 and "p1" in faults[0] and "on_event" in faults[0]
    assert "p1" not in run.server("a").root.entries
    assert retired_by_node(run, "p1")
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]


def test_failed_spawn_answers_an_error_and_leaves_no_port(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "faulty", Faulty)
    run = admin_run()
    server = run.server("a")
    start = len(run.tracer.rows)
    # the port passes every admission rule, and then raises in on_start
    run.send("c", insert_port("p1", "faulty", {"fail": "on_start"}))
    reply = run.take_replies("c")[0]
    assert reply["kind"] == "error" and reply["code"] == "behavior-failed", reply
    assert "p1" not in server.root.entries
    assert (("root",), "p1") not in server.behaviors
    appends = [line.split("\t")[3] for line in run.tracer.lines()[start:]
               if line.split("\t")[2] == "append"]
    assert [a.split("#")[0] for a in appends] == ["Insert", "Remove"]
    assert retired_by_node(run, "p1")
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]


class Faulty(Behavior):
    """Raises from the hook its ``fail`` config names; ``run`` is the
    deferred work it queues at start."""

    def __init__(self, ctx):
        super().__init__(ctx)
        # kept now: the config is gone with the entry by on_stop
        self.fail = ctx.config.get("fail")

    def _maybe_fail(self, hook: str) -> None:
        if self.fail == hook:
            raise RuntimeError(f"boom in {hook}")

    def on_start(self) -> None:
        self.ctx.receive("default")
        self.ctx.defer("run")
        self._maybe_fail("on_start")

    def on_event(self, ev, subscription: str) -> bool:
        self._maybe_fail("on_event")
        return False

    def on_external(self, conn, msg: dict) -> None:
        self._maybe_fail("on_external")

    def run(self) -> None:
        self._maybe_fail("run")

    def on_stop(self, reason: str) -> None:
        self._maybe_fail("on_stop")


@pytest.mark.parametrize("hook", ["on_start", "on_event", "on_external", "run", "on_stop"])
def test_every_hook_is_fault_isolated(monkeypatch, hook):
    monkeypatch.setitem(BEHAVIORS, "faulty", Faulty)
    run = admin_run()
    server = run.server("a")
    run.send("c", insert_port("f", "faulty", {"fail": hook}))
    run.connect("f", "npc://a:7070/root/f")
    run.send("f", {"kind": "cmd", "op": "anything"})
    run.send("c", {"kind": "cmd", "op": "remove", "name": "f"})
    faults = [line for line in run.tracer.lines() if "\tfault\t" in line]
    assert len(faults) == 1 and faults[0].split("\t")[1] == "a/root:f"
    assert f"\t{hook}: RuntimeError: boom in {hook}" in faults[0]
    assert "f" not in server.root.entries
    assert (("root",), "f") not in server.behaviors
    # one Remove only: a port faulting in on_stop is not retired twice
    removes = [e for e in server.root.history.live
               if e.kind == REMOVE and e.entry.name == "f"]
    assert len(removes) == 1
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]


def test_driver_survives_a_faulting_behavior_over_tcp(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "faulty", Faulty)
    config = {"host": "127.0.0.1", "npc_tcp_port": 0, "root": {"entries": [ADMIN]}}
    server = Server(ServerConfig.from_dict(config), real=True)
    server.start()
    try:
        client = NpcClient(f"npc://127.0.0.1:{server.advertised_port}/root/admin",
                           timeout=5)
        try:
            reply = client.roundtrip(insert_port("p1", "faulty", {"fail": "on_event"}))
            assert reply["kind"] == "ack", reply
            # the first event delivered to the port raises in its on_event
            deadline = time.monotonic() + 5
            while "p1" in listed([client.roundtrip({"kind": "cmd", "op": "list"})]):
                assert time.monotonic() < deadline, "faulting port was not retired"
                time.sleep(0.01)
            assert server._driver.is_alive()
            assert listed([client.roundtrip({"kind": "cmd", "op": "list"})]) == ["admin"]
        finally:
            client.close()
    finally:
        server.stop()
    assert not server._driver.is_alive()


def test_driver_survives_a_raising_task(capsys):
    server = real_server()
    server.start()
    try:
        server.run_soon(lambda: 1 / 0)
        client = NpcClient(f"npc://127.0.0.1:{server.advertised_port}/root/admin", timeout=5)
        try:
            assert listed([client.roundtrip({"kind": "cmd", "op": "list"})]) == ["admin"]
        finally:
            client.close()
        assert server._driver.is_alive()
        assert server.faults == 1
    finally:
        server.stop()
    assert "ZeroDivisionError" in capsys.readouterr().err


class Spinner(Behavior):
    """Defers another turn from each turn while ``spinning``, so every pass
    of the driver moves something."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.spinning = True
        self.turns = 0

    def on_start(self) -> None:
        self.ctx.defer("turn")

    def turn(self) -> None:
        self.turns += 1
        if self.spinning:
            self.ctx.defer("turn")


def test_a_driver_busy_on_every_pass_still_serves_sockets(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "spinner", Spinner)
    server = real_server()
    server.start()
    url = f"npc://127.0.0.1:{server.advertised_port}/root/admin"
    spinner = None
    try:
        with closing(NpcClient(url, timeout=5)) as client:
            assert client.roundtrip(insert_port("spin", "spinner", {}))["kind"] == "ack"
            spinner = server.behavior_at(("root",), "spin")
            deadline = time.monotonic() + 5
            while spinner.turns < 100:
                assert time.monotonic() < deadline, "the spinner did not spin"
                time.sleep(0.01)
            # the driver never goes idle now; a new client is still
            # accepted and answered, and so is the old one
            t0 = time.monotonic()
            with closing(NpcClient(url, timeout=5)) as other:
                assert listed([other.roundtrip(LIST)]) == ["admin", "spin"]
            assert listed([client.roundtrip(LIST)]) == ["admin", "spin"]
            assert time.monotonic() - t0 < 1.0
            turns = spinner.turns
            time.sleep(0.05)
            assert spinner.turns > turns  # still busy throughout
    finally:
        if spinner is not None:
            spinner.spinning = False
        server.stop()
    assert not server._driver.is_alive()
    assert server.faults == 0


def test_an_oversize_reply_becomes_an_error_reply(monkeypatch):
    run = admin_run()
    server = run.server("a")
    big = {"name": "big", "kind": "document", "meta": {},
           "content_b64": base64.b64encode(b"x" * 6000).decode("ascii"),
           "media_type": "text/plain"}
    run.send("c", {"kind": "cmd", "op": "insert", "entry": big})
    assert run.take_replies("c")[0]["kind"] == "ack"
    monkeypatch.setattr(wire, "MAX_BODY", 4096)
    last = server.root.history.last_seq
    run.send("c", {"kind": "cmd", "op": "get", "name": "big"})
    assert run.take_replies("c") == [{"v": 1, "kind": "error", "code": "oversize"}]
    assert server.faults == 0
    assert server.root.entries["admin"].kind == PORT
    assert server.root.history.last_seq == last
    # the connection still works: the whole table is too big to list, too
    run.send("c", {"kind": "cmd", "op": "list"})
    assert run.take_replies("c") == [{"v": 1, "kind": "error", "code": "oversize"}]
    run.send("c", {"kind": "cmd", "op": "remove", "name": "big"})
    assert run.take_replies("c")[0]["kind"] == "ack"
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]
    assert not [line for line in run.tracer.lines() if "\tfault\t" in line]


@pytest.mark.parametrize("msg", [
    {"kind": "cmd", "op": []},
    {"kind": "cmd", "op": {}},
    {"kind": "pull", "filter": 123},
    {"kind": "pull", "filter": ["a"]},
    {"kind": "pull", "after": True},
    {"kind": "cmd", "op": "history", "filter": None},
    {"kind": "cmd", "op": "history", "max": False},
], ids=["op-list", "op-object", "pull-filter-int", "pull-filter-list", "pull-after-bool",
        "history-filter-null", "history-max-bool"])
def test_a_malformed_field_is_refused_and_the_admin_port_answers_on(msg):
    run = SimRun()
    run.add_server(build_preset("doc-server")[0])
    run.quiesce()
    run.connect("c", "npc://web:7070/root/admin")
    run.take_replies("c")
    server = run.server("web")
    last = server.root.history.last_seq
    run.send("c", msg)
    reply, = run.take_replies("c")
    assert reply["kind"] == "error" and reply["code"] == "malformed", reply
    assert server.faults == 0
    assert server.root.entries["admin"].kind == PORT
    run.send("c", LIST)
    assert listed(run.take_replies("c")) == ["admin", "welcome"]
    assert server.root.history.last_seq == last


DEEP_FILTERS = {"parentheses": "(" * 3000 + "true" + ")" * 3000,
                "and-chain": " and ".join(["true"] * 5000),
                "nots": "not " * 3000 + "true"}


@pytest.mark.parametrize("shape", sorted(DEEP_FILTERS))
@pytest.mark.parametrize("op", ["pull", "history", "query"])
def test_a_filter_nested_too_deep_is_refused_and_the_admin_port_answers_on(op, shape):
    """Parsing, evaluating and printing a filter recurse once or more per
    level; a filter deeper than the parser's bound is an error reply, not
    a fault that takes the admin port away."""
    run = admin_run()
    server = run.server("a")
    server.root.post_event("admin", insert_event(document_entry("d", b"x")))
    text = DEEP_FILTERS[shape]
    run.send("c", {"pull": {"kind": "pull", "filter": text},
                   "history": {"kind": "cmd", "op": "history", "filter": text},
                   "query": {"kind": "cmd", "op": "query", "query": text}}[op])
    replies = run.take_replies("c")
    assert replies[0]["kind"] == "error" and replies[0]["code"] == "too-deep", replies
    assert server.faults == 0
    assert sorted(server.root.entries) == ["admin", "d"]
    assert server.root.entries["admin"].kind == PORT
    run.connect("c2", "npc://a:7070/root/admin")
    run.take_replies("c2")
    run.send("c2", LIST)
    assert listed(run.take_replies("c2")) == ["admin", "d"]


def test_local_queries_encode_a_document_once(monkeypatch):
    """A stored entry keeps its encoding: N queries that each return the
    same document base64-encode its content once between them."""
    run = admin_run()
    content = b"the one document" * 8
    run.send("c", {"kind": "cmd", "op": "insert", "entry": entry_to_json(
        document_entry("d", content, meta={"topic": "news"}))})
    assert run.take_replies("c")[0]["kind"] == "ack"
    encoded = []
    b64encode = base64.b64encode
    monkeypatch.setattr(base64, "b64encode", lambda data: encoded.append(data) or b64encode(data))
    for i in range(5):
        run.connect(f"q{i}", "npc://a:7070/root/admin")
        run.take_replies(f"q{i}")
        run.send(f"q{i}", {"kind": "cmd", "op": "query", "query": 'meta.topic == "news"'})
        events = [r for r in run.take_replies(f"q{i}") if r["kind"] == "event"]
        assert [e["event"]["entry"]["content_b64"] for e in events] == [
            b64encode(content).decode("ascii")]
    assert encoded == [content]


def test_an_oversize_forward_is_traced_as_a_drop(monkeypatch):
    """A document too big to frame cannot reach the other side of a
    mirror; the forwarder says so in the trace and forwards on."""
    run = SimRun()
    for config in build_preset("mirror"):
        run.add_server(config)
    run.quiesce()
    monkeypatch.setattr(wire, "MAX_BODY", 4096)
    a, b = run.server("a"), run.server("b")
    a.root.post_event("admin", insert_event(document_entry("big", b"x" * 6000)))
    run.quiesce()
    drops = [line for line in run.tracer.lines() if "\tdrop\t" in line]
    assert len(drops) == 1 and "Insert big not sent" in drops[0]
    a.root.post_event("admin", insert_event(document_entry("small", b"y")))
    run.quiesce()
    assert "small" in b.root.entries and "big" not in b.root.entries
    assert a.faults == b.faults == 0


def test_a_pull_passes_over_an_event_it_cannot_frame(monkeypatch):
    """A document too big for any frame must not wedge a puller: the origin
    passes over it, says so in the trace, and serves what follows."""
    run = SimRun()
    for config in build_preset("retrieval"):
        run.add_server(config)
    run.quiesce()
    monkeypatch.setattr(wire, "MAX_BODY", 4096)
    origin, cache = run.server("origin"), run.server("cache")
    origin.root.post_event("admin", insert_event(document_entry("big", b"x" * 6000)))
    origin.root.post_event("admin", insert_event(document_entry("small", b"y")))
    for _ in range(50):
        run.tick(10)
    assert {"seed", "small"} <= set(cache.root.entries)
    assert "big" not in cache.root.entries
    lines = run.tracer.lines()
    assert not [line for line in lines if "\trecv\terror" in line]
    drops = [line for line in lines if "\tdrop\t" in line]
    assert len(drops) == 1 and "Insert big too big to pull" in drops[0]
    assert origin.faults == cache.faults == 0


@pytest.mark.parametrize("msg", [{"kind": "pull", "max": 0},
                                 {"kind": "cmd", "op": "history", "max": 0}],
                         ids=["pull", "history"])
def test_an_unbounded_pull_of_a_long_history_comes_in_frames(monkeypatch, msg):
    run = admin_run()
    server = run.server("a")
    names = [f"d{i:02}" for i in range(20)]
    for name in names:
        server.root.post_event("admin", insert_event(document_entry(name, b"x" * 500)))
    monkeypatch.setattr(wire, "MAX_BODY", 4096)
    got, after, acks = [], 0, 0
    while True:
        run.send("c", {**msg, "after": after})
        reply, = run.take_replies("c")
        assert reply["kind"] == "ack" and reply["events"], reply
        acks += 1
        got += [e["entry"]["name"] for e in reply["events"] if "entry" in e]
        if reply["at_end"]:
            break
        assert reply["last"] == reply["events"][-1]["seq"]
        after = reply["last"]
    assert acks > 1
    assert [name for name in got if name.startswith("d")] == names
    assert not [line for line in run.tracer.lines() if "\tdrop\t" in line]


def test_catching_up_over_a_long_history_reads_each_event_about_once(monkeypatch):
    """Each ack reads the events it holds and one more, the one that did
    not fit or the end of the history; never the rest of the history."""
    run = admin_run()
    server = run.server("a")
    for i in range(200):
        server.root.post_event("admin", insert_event(document_entry(f"d{i:03}", b"x" * 500)))
    monkeypatch.setattr(wire, "MAX_BODY", 4096)
    reads = []
    read_after = EventHistory.read_after
    monkeypatch.setattr(EventHistory, "read_after",
                        lambda h, pos, filt: reads.append(pos) or read_after(h, pos, filt))
    after, acks, got = 0, 0, 0
    while True:
        run.send("c", {"kind": "pull", "max": 0, "after": after})
        reply, = run.take_replies("c")
        acks += 1
        got += len(reply["events"])
        if reply["at_end"]:
            break
        after = reply["last"]
    assert got == len(server.root.history) and acks == 50
    assert len(reads) == got + acks


def test_behavior_hooks_are_entered_only_through_the_server_choke_point():
    """A direct call, or a bound hook handed out, would bypass fault
    handling; only ``Server._hook`` may touch the hooks."""
    bypasses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Server"):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "_hook":
                    allowed.update(id(n) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in HOOKS
                    and id(node) not in allowed):
                bypasses.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert bypasses == []


# -- a node entry that leaves its table retires its subtree -----------------------------------

SUB = {"name": "sub", "kind": "node", "entries": [
    ADMIN,
    {"name": "inner", "kind": "document", "content_text": "deep"},
    {"name": "g", "kind": "port", "behavior": "gc", "config": {"every": "1"}},
    {"name": "deeper", "kind": "node", "entries": [ADMIN]},
]}


def subtree_run() -> SimRun:
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [ADMIN, SUB]}})
    run.quiesce()
    run.connect("c", "npc://a:7070/root/admin")
    run.connect("s", "npc://a:7070/root/sub/admin")
    run.take_replies("c")
    assert run.take_replies("s")[0]["kind"] == "hello"
    return run


@pytest.mark.parametrize("how", [
    {"kind": "cmd", "op": "remove", "name": "sub"},
    insert_cmd(document_entry("sub", b"flat")),
    insert_port("sub", "gc", {"every": "1"}),
], ids=["removed", "by-document", "by-port"])
def test_a_node_entry_that_leaves_its_table_retires_its_subtree(how):
    run = subtree_run()
    s = run.server("a")
    sub = s.nodes[("root", "sub")]
    run.send("c", how)
    assert run.take_replies("c")[0]["kind"] == "ack"
    assert list(s.nodes) == [("root",)]
    assert [key for key in s.behaviors if key[0] != ("root",)] == []
    assert sub.subs == {} and all(node is s.root for _, node in s._ready.ready)
    # its ports stopped as on a removal: the connection to the inner admin closed
    assert run.conns["s"].closed
    for target in ["root/sub/admin", "root/sub/deeper/admin"]:
        run.connect("x", f"npc://a:7070/{target}")
        assert run.take_replies("x")[0]["code"] == "not-found"
    assert http_request(s, "GET", "/root/sub/inner")[0] == 404
    assert http_request(s, "PUT", "/root/sub/new", b"x")[0] == 404
    last = sub.history.last_seq
    run.tick(5)
    assert sub.history.last_seq == last  # the gc port inside ticks no more
    assert s.faults == 0
    run.send("c", insert_cmd(node_entry("sub")))
    assert run.take_replies("c")[0]["kind"] == "ack"
    assert s.nodes[("root", "sub")].entries == {}
    run.send("c", LIST)
    assert listed(run.take_replies("c")) == ["admin", "sub"]


def test_a_node_entry_replaced_by_a_node_entry_keeps_its_subtree():
    run = subtree_run()
    s = run.server("a")
    sub = s.nodes[("root", "sub")]
    run.send("c", insert_cmd(node_entry("sub", {"note": "again"})))
    assert run.take_replies("c")[0]["kind"] == "ack"
    assert s.nodes[("root", "sub")] is sub and "inner" in sub.entries
    run.send("s", {"kind": "cmd", "op": "get", "name": "inner"})
    assert run.take_replies("s")[0]["kind"] == "ack"
    last = sub.history.last_seq
    run.tick(1)
    assert sub.history.last_seq > last


# -- behaviour paths ----------------------------------------------------------------------------

def test_a_puller_catches_up_in_one_tick_and_skips_its_own_documents_coming_home():
    home = {"origin-node": "npc://b:7070/root"}
    docs = [entry_to_json(document_entry(f"d{i}", b"x", meta=home if i == 2 else None))
            for i in range(5)]
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [ADMIN] + docs}})
    run.add_server({"host": "b", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "p", "kind": "port", "behavior": "puller",
         "config": {"source": "npc://a:7070/root/admin", "every": "1", "max": "2"}}]}})
    run.quiesce()
    run.tick(1)
    # two events an ack, so each ack that is not at the end asks again at once
    pulls = [line for line in run.tracer.lines() if "\tsend\tpull" in line]
    assert len(pulls) == 3
    assert sorted(run.server("b").root.entries) == ["d0", "d1", "d3", "d4", "p"]
    assert run.server("b").behavior_at(("root",), "p").cursor == 6
    assert run.server("a").faults == run.server("b").faults == 0


def test_the_mailing_list_submit_port_admits_pushed_documents_and_refuses_commands():
    run = SimRun()
    for cfg in build_preset("mailing-list"):
        run.add_server(cfg)
    run.quiesce()
    run.connect("c", "npc://list:7070/root/submit")
    assert run.take_replies("c")[0]["kind"] == "hello"
    run.send("c", {"kind": "event", "event": {
        "kind": "Insert", "entry": entry_to_json(document_entry("posting", b"hi"))}})
    assert run.take_replies("c") == []
    assert "posting" in run.server("list").root.entries
    run.send("c", LIST)
    assert [r.get("code") for r in run.take_replies("c")] == ["not-allowed"]


def test_a_fetch_is_answered_by_an_insert_that_lands_before_its_turn():
    run = admin_run()
    run.connect("w", "npc://a:7070/root/admin")
    run.take_replies("w")
    # both reach the server in one pass: the request port spawns and
    # subscribes, and then the document it wants is inserted
    run.conns["c"].send({"kind": "cmd", "op": "fetch", "name": "late"})
    run.conns["w"].send(insert_cmd(document_entry("late", b"here")))
    run.quiesce()
    assert [r["kind"] for r in run.take_replies("w")] == ["ack"]
    answer = run.take_replies("c")[0]
    assert answer["kind"] == "ack" and base64.b64decode(answer["content_b64"]) == b"here"
    assert sorted(run.server("a").root.entries) == ["admin", "late"]


# -- a port's timers retire with it ---------------------------------------------------------

@pytest.mark.parametrize("behavior, config, label", [
    ("gc", {"every": "1"}, "gc-p"),
    ("puller", {"every": "1", "source": "npc://nowhere:7070/root/admin"}, "pull-p"),
    ("subscriber", {"digest": "5"}, "digest-p"),
], ids=["gc", "puller", "subscriber"])
def test_removed_port_leaves_no_timer_and_can_be_inserted_again(behavior, config, label):
    run = admin_run()
    root = run.server("a").root
    for _ in range(2):
        run.send("c", insert_port("p", behavior, config))
        assert run.take_replies("c")[0]["kind"] == "ack"
        assert label in root.timers
        run.send("c", {"kind": "cmd", "op": "remove", "name": "p"})
        assert run.take_replies("c")[0]["kind"] == "ack"
        assert label not in root.timers
        last = root.history.last_seq
        run.tick(10)
        assert root.history.last_seq == last  # no Time event of a retired port


def test_a_puller_takes_no_other_ports_timer_label():
    # a puller's timer is always pull-<name>; a label in its config is no knob
    run = admin_run()
    root = run.server("a").root
    run.send("c", insert_port("x", "gc", {"every": "1"}))
    run.send("c", insert_port("p", "puller", {"every": "1", "label": "gc-x",
                                              "source": "npc://nowhere:7070/root/admin"}))
    assert [r["kind"] for r in run.take_replies("c")] == ["ack", "ack"]
    last = root.history.last_seq
    run.tick(1)
    fired = [e.label for e in root.history.live if e.kind == TIME and e.seq > last]
    assert sorted(fired) == ["gc-x", "pull-p"]
    assert run.server("a").faults == 0


def test_a_puller_without_a_source_is_told_it_cannot_dial():
    run = admin_run()
    run.send("c", insert_port("p", "puller", {"every": "1"}))
    assert run.take_replies("c")[0]["kind"] == "ack"
    run.tick(1)
    actions = [line.split("\t")[2:] for line in run.tracer.lines()
               if line.split("\t")[2] in ("dial-failed", "drop", "fault")]
    assert actions == [["dial-failed", "bad url ''"], ["drop", "source unreachable"]]
    assert "p" in run.server("a").root.entries


# -- admin requests are checked before they can fault ---------------------------------------

@pytest.mark.parametrize("op", ["get", "remove", "fetch", "abort"])
@pytest.mark.parametrize("name", [[], {}, 7, None], ids=["list", "object", "int", "null"])
def test_a_name_that_is_not_a_string_is_malformed(op, name):
    run = admin_run()
    server = run.server("a")
    last = server.root.history.last_seq
    run.send("c", {"kind": "cmd", "op": op, "name": name})
    (reply,) = run.take_replies("c")
    assert reply["kind"] == "error" and reply["code"] == "malformed", reply
    assert server.faults == 0 and server.root.history.last_seq == last
    assert (("root",), "admin") in server.behaviors
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]


@pytest.mark.parametrize("name, code", [("admin", "name-taken"), ("doc", "name-taken"),
                                        ("no/slash", "malformed"), (["q"], "malformed")],
                         ids=["port", "document", "bad-name", "list"])
def test_a_query_never_replaces_an_entry(name, code):
    run = admin_run()
    server = run.server("a")
    run.send("c", {"kind": "cmd", "op": "insert",
                   "entry": {"name": "doc", "kind": "document", "content_b64": ""}})
    assert run.take_replies("c")[0]["kind"] == "ack"
    last, entries = server.root.history.last_seq, dict(server.root.entries)
    run.send("c", {"kind": "cmd", "op": "query", "query": "true", "name": name})
    (reply,) = run.take_replies("c")
    assert reply["kind"] == "error" and reply["code"] == code, reply
    assert server.root.history.last_seq == last and server.root.entries == entries
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin", "doc"]


def test_http_put_never_replaces_a_port():
    run = SimRun()
    for config in build_preset("doc-server"):
        run.add_server(config)
    run.quiesce()
    server = run.server("web")
    last = server.root.history.last_seq
    apply_stimulus(run, {"do": "http", "server": "web", "method": "PUT", "path": "/root/admin",
                         "body_text": "not a port", "content_type": "text/plain"})
    assert run.http[-1][0] == 404
    assert server.root.entries["admin"].kind == PORT
    assert server.root.history.last_seq == last
    run.connect("c", "npc://web:7070/root/admin")
    run.take_replies("c")
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin", "welcome"]


# -- one driving loop -----------------------------------------------------------------------

def inside(tree, cls_name: str, fn_name: str | None = None) -> set:
    """ids of the AST nodes in class ``cls_name``, or in its method ``fn_name``."""
    found = set()
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name):
        for fn in [cls] if fn_name is None else cls.body:
            if fn_name is None or isinstance(fn, ast.FunctionDef) and fn.name == fn_name:
                found.update(id(n) for n in ast.walk(fn))
    return found


def test_the_driving_loop_is_written_once():
    """Every loop (settle, the sim's rounds, the real-mode driver) runs
    passes of ``Server.run_once``; nothing else calls its parts."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = inside(tree, "Server", "run_once")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LOOP and id(node) not in allowed):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}()")
    assert calls == []


def test_connections_are_recorded_only_by_the_ports_that_own_them():
    """A port's connections live in its context; no table of every
    connection exists for a server (the sim keeps its scripted clients'
    ends, by stimulus id, in ``SimRun.conns``)."""
    tables = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = inside(tree, "PortContext") | inside(tree, "SimRun")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "conns" and id(node) not in allowed
                    and not (isinstance(node.value, ast.Attribute) and node.value.attr == "ctx")):
                tables.append(f"{path.name}:{node.lineno}")
    assert tables == []
    assert not hasattr(admin_run().server("a"), "conns")


def test_no_module_copies_with_dataclasses_replace():
    """Events are copied with ``_replace`` or a constructor, entries with
    their constructor: ``dataclasses.replace`` costs about twice either."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                calls += [f"{path.name}:{node.lineno} import {a.name}"
                          for a in node.names if a.name == "replace"]
            if (isinstance(node, ast.Attribute) and node.attr == "replace"
                    and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"):
                calls.append(f"{path.name}:{node.lineno} dataclasses.replace")
    assert calls == []


def real_server() -> Server:
    config = {"host": "127.0.0.1", "npc_tcp_port": 0, "root": {"entries": [ADMIN]}}
    return Server(ServerConfig.from_dict(config), real=True)


def test_the_driver_blocks_only_when_idle_and_until_the_next_timer(monkeypatch):
    server = real_server()
    waits = []  # (timeout, anything ready, deferred or queued) of each blocking select

    class RecordingSelector(selectors.DefaultSelector):
        def select(self, timeout=None):
            if timeout != 0:  # a wait, not the poll between busy passes
                waits.append((timeout, bool(server._ready.ready),
                              bool(server._deferred or server.inbound)))
            return super().select(timeout)

    monkeypatch.setattr(selectors, "DefaultSelector", RecordingSelector)
    server.start()
    try:
        deadline = time.monotonic() + 5
        while not waits:
            assert time.monotonic() < deadline, "the driver never blocked"
            time.sleep(0.01)
        idle = len(waits)
        time.sleep(0.3)
        # no timers: one wait with no timeout, and no turn while idle
        assert len(waits) == idle and waits[-1][0] is None
        client = NpcClient(f"npc://127.0.0.1:{server.advertised_port}/root/admin", timeout=5)
        try:
            reply = client.roundtrip(insert_port("gc1", "gc", {"every": "200"}))
            assert reply["kind"] == "ack", reply
            time.sleep(0.5)
        finally:
            client.close()
    finally:
        server.stop()
    assert not server._driver.is_alive()
    timed = [timeout for timeout, _, _ in waits[idle:] if timeout is not None]
    assert timed and all(0 <= timeout <= 0.2 for timeout in timed)
    assert not any(ready or pending for _, ready, pending in waits)


@pytest.mark.parametrize("behavior, config, label", [
    ("gc", {"every": "1000"}, "gc-p"),
    # nothing listens on port 1 of this host: each pull fails at once
    ("puller", {"every": "1000", "source": "npc://127.0.0.1:1/root/admin"}, "pull-p"),
], ids=["gc", "puller"])
def test_removed_port_can_be_inserted_again_over_tcp(behavior, config, label):
    server = real_server()
    server.start()
    try:
        client = NpcClient(f"npc://127.0.0.1:{server.advertised_port}/root/admin", timeout=5)
        try:
            for _ in range(2):
                reply = client.roundtrip(insert_port("p", behavior, config))
                assert reply["kind"] == "ack", reply
                assert label in server.root.timers
                reply = client.roundtrip({"kind": "cmd", "op": "remove", "name": "p"})
                assert reply["kind"] == "ack", reply
                assert label not in server.root.timers and "p" not in server.root.held
            assert listed([client.roundtrip({"kind": "cmd", "op": "list"})]) == ["admin"]
        finally:
            client.close()
    finally:
        server.stop()
    assert not server._driver.is_alive()


RECV = {"recv", "recv_into", "recvfrom", "recvfrom_into", "recvmsg"}


def test_threads_start_only_in_start_and_sockets_are_read_only_by_connections():
    """One thread: ``Server.start`` starts the driver.  A server's socket
    is read only by its ``TcpConn`` (an ``HttpConn`` reads through it), on
    the driver, and the driver's waker reads its own socketpair; a
    connection with a reader thread of its own would need a read somewhere
    else.  (``NpcClient`` is the client end, read on its caller's
    thread.)"""
    threads, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        may_thread = inside(tree, "Server", "start")
        may_read = inside(tree, "TcpConn") | inside(tree, "Waker") | inside(tree, "NpcClient")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in may_thread
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Thread"):
                threads.append(f"{path.name}:{node.lineno}")
            # a socket's read method, called or handed on (not a method of self)
            if (isinstance(node, ast.Attribute) and node.attr in RECV and id(node) not in may_read
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert threads == [] and reads == []


# -- a lone surrogate is malformed where frames are decoded ---------------------------------

def ascii_frame(msg: dict) -> bytes:
    """``msg`` framed as ``json.dumps`` writes it, every character outside
    ASCII as an escape: as a client's JSON can carry a lone surrogate."""
    body = json.dumps({**msg, "v": 1}).encode("ascii")
    return struct.pack(">I", len(body)) + body


DOC = {"name": "d", "kind": "document", "content_b64": "", "media_type": "text/plain"}


@pytest.mark.parametrize("msg, then", [
    ({"kind": "event", "event": {"kind": "Insert", "label": "\ud800", "entry": DOC}},
     {"kind": "cmd", "op": "history"}),
    ({"kind": "cmd", "op": "insert", "entry": {**DOC, "meta": {"k": "\ud800"}}}, LIST),
], ids=["pushed-label", "cmd-insert-meta"])
def test_a_lone_surrogate_ends_only_its_connection(monkeypatch, msg, then):
    run = admin_run()
    server = run.server("a")
    table, last = dict(server.root.entries), server.root.history.last_seq
    with monkeypatch.context() as m:
        m.setattr(gateways, "encode_frame", ascii_frame)
        run.send("c", msg)
    assert run.conns["c"].closed
    assert server.root.entries == table and server.root.history.last_seq == last
    assert server.faults == 0
    run.connect("again", "npc://a:7070/root/admin")
    run.take_replies("again")
    run.send("again", then)  # the request that once faulted on what was posted
    run.send("again", LIST)
    assert listed(run.take_replies("again")) == ["admin"]
    assert server.faults == 0


def test_an_escaped_surrogate_pair_is_admitted(monkeypatch):
    run = admin_run()
    with monkeypatch.context() as m:
        m.setattr(gateways, "encode_frame", ascii_frame)
        run.send("c", {"kind": "cmd", "op": "insert",
                       "entry": {**DOC, "meta": {"k": "\U0001F600"}}})
    assert run.take_replies("c")[0]["kind"] == "ack"
    assert run.server("a").root.entries["d"].meta["k"] == "\U0001F600"
    run.send("c", LIST)
    assert listed(run.take_replies("c")) == ["admin", "d"]


# -- a behaviour's constructor runs under the same fault handling as its hooks ---------------

class FailsToBuild(Behavior):
    def __init__(self, ctx):
        super().__init__(ctx)
        raise RuntimeError("boom in __init__")


def test_a_constructor_that_raises_retires_its_port(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "fails-to-build", FailsToBuild)
    run = admin_run()
    server = run.server("a")
    run.send("c", insert_port("p1", "fails-to-build", {}))
    reply, = run.take_replies("c")
    assert (reply["kind"], reply["code"]) == ("error", "behavior-failed"), reply
    faults = [line.split("\t")[1:] for line in run.tracer.lines() if "\tfault\t" in line]
    assert faults == [["a/root:p1", "fault", "__init__: RuntimeError: boom in __init__"]]
    assert server.faults == 1
    assert "p1" not in server.root.entries and (("root",), "p1") not in server.behaviors
    assert retired_by_node(run, "p1")
    run.send("c", LIST)
    assert listed(run.take_replies("c")) == ["admin"]


def test_a_config_file_boots_without_a_port_whose_constructor_raises(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "fails-to-build", FailsToBuild)
    run = SimRun()
    server = run.add_server({"host": "a", "root": {"entries": [
        ADMIN, {"name": "p1", "kind": "port", "behavior": "fails-to-build"}]}})
    run.quiesce()
    assert sorted(server.root.entries) == ["admin"] and server.faults == 1
    assert retired_by_node(run, "p1")


# -- a subscriber's digest is a period on its own timer --------------------------------------

def test_a_digest_subscriber_mails_once_a_period_what_matched_in_it():
    run = SimRun()
    server = run.add_server({"host": "a", "stubs": {"mail": {"type": "mail"}},
                             "root": {"entries": [ADMIN]}})
    run.quiesce()
    run.connect("c", "npc://a:7070/root/admin")
    run.send("c", insert_port("s", "subscriber", {"digest": "5", "address": "x@example.org"}))
    run.send("c", insert_cmd(document_entry("one", b"1")))
    run.send("c", insert_cmd(document_entry("two", b"2")))
    outbox = server.stubs["mail"].outbox
    assert outbox == []
    run.tick(5)
    assert outbox == [{"to": "x@example.org", "subject": "digest of 2", "body": "one, two"}]
    run.tick(5)  # nothing matched in this period
    assert len(outbox) == 1
    assert server.faults == 0


@pytest.mark.parametrize("digest", ["hourly", "0", ""])
def test_a_digest_that_is_not_a_period_is_refused(digest):
    run = admin_run()
    run.send("c", insert_port("s", "subscriber", {"digest": digest}))
    reply, = run.take_replies("c")
    assert (reply["kind"], reply["code"]) == ("error", "invalid-entry")
    assert "config.digest" in reply["message"]


# -- boundary paths -------------------------------------------------------------------------

@pytest.mark.parametrize("target", [5, "npc://a:7070/root"], ids=["not-text", "a-node"])
def test_a_hello_that_names_no_port_is_refused_and_ends_its_connection(target):
    run = admin_run()
    client = SimClient("x")
    conn = run.network.connect(client, "a", 7070)
    conn.send({"kind": "hello", "target": target})
    run.quiesce()
    reply, bye = client.replies
    assert (reply["kind"], reply["code"], bye["kind"]) == ("error", "not-found", "bye"), reply
    assert conn.closed
    assert run.server("a").faults == 0


def test_a_post_the_ports_own_output_filter_refuses_is_traced_and_the_port_runs_on():
    run = admin_run()
    server = run.server("a")
    run.send("c", insert_cmd(port_entry("g", PortSpec("gc", {"every": "1", "max_age": "0"},
                                                      output_filter=parse_filter("false")))))
    run.send("c", insert_cmd(document_entry("old", b"x")))
    assert [r["kind"] for r in run.take_replies("c")] == ["ack", "ack"]
    run.tick(1)
    rejected = [line.split("\t")[1:] for line in run.tracer.lines() if "\trejected\t" in line]
    assert rejected and rejected[0][:2] == ["a/root:g", "rejected"]
    assert rejected[0][2].startswith("Remove old: ")
    assert "g" in server.root.entries and "old" in server.root.entries
    assert server.faults == 0


def test_a_forwarder_with_no_channel_drops_each_insert():
    run = admin_run()
    run.send("c", insert_port("f", "forwarder", {"target": "npc://nowhere:7070/root/in"}))
    run.send("c", insert_cmd(document_entry("one", b"1")))
    run.send("c", insert_cmd(document_entry("two", b"2")))
    drops = [line.split("\t")[1:] for line in run.tracer.lines() if "\tdrop\t" in line]
    assert drops == [["a/root:f", "drop", "no channel to npc://nowhere:7070/root/in"]] * 2
    assert "f" in run.server("a").root.entries
    assert run.server("a").faults == 0
