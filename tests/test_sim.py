"""The scenario runner itself: clocks, traces, stimuli, determinism."""

import pytest

from npckit.apps import demo_scenario
from npckit.node import Node
from npckit.sim import (SimError, SimRun, Tracer, VirtualClock, apply_stimulus, assert_trace,
                        run_scenario)
from npckit.wire import event_to_json
from npckit.history import insert_event
from npckit.model import document_entry


def test_virtual_clock():
    c = VirtualClock()
    assert c() == 0
    assert c.advance(7) == 7
    assert c() == 7


def test_tracer_line_format():
    c = VirtualClock(3)
    t = Tracer(c)
    t.record("a:port", "post", "Insert x")
    c.advance(2)
    t.record("b", "deliver", "Insert#1 -> default")
    assert t.lines() == ["3\ta:port\tpost\tInsert x",
                         "5\tb\tdeliver\tInsert#1 -> default"]


def test_assert_trace_subsequence():
    lines = ["1\ta\tpost\tInsert x",
             "1\ta\tappend\tInsert#1 x",
             "2\tb\tdeliver\tInsert#1 -> default"]
    assert assert_trace(lines, ["*post*Insert x", "*deliver*"]) is None
    assert assert_trace(lines, ["*deliver*", "*post*"]) == 1  # order matters
    assert assert_trace(lines, ["*nothing like this*"]) == 0


ADMIN = {"name": "admin", "kind": "port", "behavior": "admin"}


def base_scenario(extra_entries=None, stimuli=None):
    return {
        "servers": [{
            "host": "a", "npc_tcp_port": 7070,
            "root": {"entries": [ADMIN] + (extra_entries or [])},
        }],
        "stimuli": stimuli or [],
    }


def insert_stim(name, text, server="a"):
    ev = event_to_json(insert_event(document_entry(name, text.encode())))
    return {"do": "post", "server": server, "event": ev}


def test_scenario_post_then_http_get():
    run = run_scenario(base_scenario(stimuli=[
        insert_stim("page", "written in sim"),
        {"do": "http", "server": "a", "method": "GET", "path": "/root/page"},
    ]))
    assert run.http == [(200, b"written in sim")]
    assert "page" in run.server("a").root.entries
    assert assert_trace(run.tracer.lines(), ["*append*Insert#* page"]) is None


def test_scenario_connect_and_command():
    run = run_scenario(base_scenario(stimuli=[
        insert_stim("doc1", "x"),
        {"do": "connect", "id": "c1", "target": "npc://a:7070/root/admin"},
        {"do": "send", "conn": "c1", "msg": {"kind": "cmd", "op": "list"}},
        {"do": "close", "conn": "c1"},
    ]))
    replies = run.replies("c1")
    assert replies[0]["kind"] == "hello"
    listing = [r for r in replies if r["kind"] == "ack"][0]
    assert [e["name"] for e in listing["entries"]] == ["admin", "doc1"]


def test_scenario_tick_drives_timers():
    gc_port = {"name": "sweeper", "kind": "port", "behavior": "gc",
               "config": {"every": "5", "max_age": "10"}}
    run = run_scenario(base_scenario([gc_port], stimuli=[
        insert_stim("old", "stale"),
        {"do": "tick", "dt": 4},
        {"do": "tick", "dt": 8},
    ]))
    # 12 units old with max_age 10: swept
    assert "old" not in run.server("a").root.entries


def test_scenario_is_deterministic():
    def go():
        return run_scenario(base_scenario(stimuli=[
            insert_stim("d1", "one"),
            insert_stim("d2", "two"),
            {"do": "http", "server": "a", "method": "DELETE", "path": "/root/d1"},
            {"do": "tick", "dt": 3},
        ]))
    first, second = go(), go()
    assert first.tracer.lines() == second.tracer.lines()
    assert first.http == second.http


def test_unknown_stimulus_raises():
    with pytest.raises(SimError):
        run_scenario(base_scenario(stimuli=[{"do": "transmogrify"}]))


def test_budget_guard_trips():
    run = SimRun()
    run.steps_used = 10**6
    with pytest.raises(SimError):
        run._spend(1)


def test_duplicate_server_host_rejected():
    with pytest.raises(SimError):
        run_scenario({"servers": [
            {"host": "a", "root": {"entries": []}},
            {"host": "a", "npc_tcp_port": 7071, "root": {"entries": []}},
        ]})


def test_tracing_costs_nothing_when_off(monkeypatch):
    """With no tracer attached, no trace site names an actor: a document
    inserted, forwarded by the classifier preset and delivered formats no
    trace text on the way."""
    calls = []
    port_actor, path_text = Node._port_actor, Node.path_text.fget
    monkeypatch.setattr(Node, "_port_actor",
                        lambda self, port: calls.append("_port_actor") or port_actor(self, port))
    monkeypatch.setattr(Node, "path_text",
                        property(lambda self: calls.append("path_text") or path_text(self)))
    run = SimRun()
    run.tracer = None
    scenario = demo_scenario("classifier")
    for config in scenario["servers"]:
        run.add_server(config)
    run.quiesce()
    for stim in scenario["stimuli"]:
        apply_stimulus(run, stim)
    feed = run.server("feed")
    assert "match-report" in feed.nodes[("root", "sports")].entries
    assert "debate" in feed.nodes[("root", "politics")].entries
    assert calls == []
