"""The behavior runtime: one choke point into behavior code, fault isolation."""

import ast
import pathlib
import time

import pytest

from npckit.apps import build_preset
from npckit.cli import NpcClient
from npckit.history import NODE_ORIGIN, REMOVE
from npckit.model import PORT, PortSpec, port_entry
from npckit.ports import BEHAVIORS, Behavior
from npckit.server import Server, ServerConfig
from npckit.sim import SimRun, apply_stimulus
from npckit.wire import entry_to_json

ADMIN = {"name": "admin", "kind": "port", "behavior": "admin"}
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


def insert_port(name: str, behavior: str, config: dict) -> dict:
    entry = port_entry(name, PortSpec(behavior, config))
    return {"kind": "cmd", "op": "insert", "entry": entry_to_json(entry)}


def listed(replies: list) -> list:
    acks = [r for r in replies if r["kind"] == "ack" and "entries" in r]
    assert acks, replies
    return [e["name"] for e in acks[-1]["entries"]]


def retired_by_node(run: SimRun, name: str) -> bool:
    """The port's last word in the history is a node-issued Remove."""
    last = [e for e in run.server("a").root.history.live
            if e.entry is not None and e.entry.name == name][-1]
    return last.kind == REMOVE and last.origin_port == NODE_ORIGIN


def test_faulting_event_hook_retires_the_port_and_the_server_answers_on():
    run = admin_run()
    run.send("c", insert_port("gc1", "gc", {"every": "1", "max_age": "x"}))
    assert run.take_replies("c")[0]["kind"] == "ack"
    run.tick(1)
    faults = [line for line in run.tracer.lines() if "\tfault\t" in line]
    assert len(faults) == 1 and "gc1" in faults[0] and "on_event" in faults[0]
    assert "gc1" not in run.server("a").root.entries
    assert retired_by_node(run, "gc1")
    run.send("c", {"kind": "cmd", "op": "list"})
    assert listed(run.take_replies("c")) == ["admin"]


def test_failed_spawn_answers_an_error_and_leaves_no_port():
    run = admin_run()
    server = run.server("a")
    start = len(run.tracer.rows)
    run.send("c", insert_port("gc1", "gc", {"every": "abc"}))
    reply = run.take_replies("c")[0]
    assert reply["kind"] == "error" and reply["code"] == "behavior-failed", reply
    assert "gc1" not in server.root.entries
    assert (("root",), "gc1") not in server.behaviors
    appends = [line.split("\t")[3] for line in run.tracer.lines()[start:]
               if line.split("\t")[2] == "append"]
    assert [a.split("#")[0] for a in appends] == ["Insert", "Remove"]
    assert retired_by_node(run, "gc1")
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


def test_driver_survives_a_faulting_behavior_over_tcp():
    config = {"host": "127.0.0.1", "npc_tcp_port": 0, "root": {"entries": [ADMIN]}}
    server = Server(ServerConfig.from_dict(config), real=True)
    server.start()
    try:
        client = NpcClient(f"npc://127.0.0.1:{server.advertised_port}/root/admin",
                           timeout=5)
        try:
            reply = client.roundtrip(insert_port("gc1", "gc", {"every": "1", "max_age": "x"}))
            assert reply["kind"] == "ack", reply
            # the first tick of the gc port's timer raises in its on_event
            deadline = time.monotonic() + 5
            while "gc1" in listed([client.roundtrip({"kind": "cmd", "op": "list"})]):
                assert time.monotonic() < deadline, "faulting port was not retired"
                time.sleep(0.01)
            assert server._driver.is_alive()
            assert listed([client.roundtrip({"kind": "cmd", "op": "list"})]) == ["admin"]
        finally:
            client.close()
    finally:
        server.stop()
    assert not server._driver.is_alive()


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


# -- a port's timers retire with it ---------------------------------------------------------

@pytest.mark.parametrize("behavior, config, label", [
    ("gc", {"every": "1"}, "gc-p"),
    ("puller", {"every": "1", "source": "npc://nowhere:7070/root/admin"}, "pull-p"),
], ids=["gc", "puller"])
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


def real_server() -> Server:
    config = {"host": "127.0.0.1", "npc_tcp_port": 0, "root": {"entries": [ADMIN]}}
    return Server(ServerConfig.from_dict(config), real=True)


def test_the_driver_blocks_only_when_idle_and_until_the_next_timer():
    server = real_server()
    waits = []  # (timeout, anything ready, anything deferred) of each block
    get = server.inbound.get

    def recording_get(block=True, timeout=None):
        if block:
            waits.append((timeout, bool(server._ready.ready), bool(server._deferred)))
        return get(block, timeout)

    server.inbound.get = recording_get
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
    assert not any(ready or deferred for _, ready, deferred in waits)


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
