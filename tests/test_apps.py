"""Every stock application, run end to end in the sim."""

from pathlib import Path

import pytest

from npckit.apps import PRESETS, build_preset, demo_scenario
from npckit.history import INSERT
from npckit.model import DOCUMENT, PORT
from npckit.sim import SimRun, run_scenario


def docs_of(server):
    return {n: e for n, e in server.root.entries.items() if e.kind == DOCUMENT}


def test_every_preset_builds_valid_configs():
    from npckit.server import ServerConfig
    for name in PRESETS:
        for cfg in build_preset(name):
            ServerConfig.from_dict(cfg)


def test_unknown_preset_is_an_error():
    with pytest.raises(KeyError):
        build_preset("time-machine")


TRACES = Path(__file__).parent / "traces"


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_demo_trace_is_pinned(name):
    # each preset's demo trace is part of the kit's fixed contract: a
    # change inside the kit must reproduce it line for line
    lines = run_scenario(demo_scenario(name)).tracer.lines()
    assert lines == (TRACES / f"{name}.trace").read_text().split("\n")[:-1]


# -- mirror ---------------------------------------------------------------------

def test_mirror_converges_both_ways():
    run = run_scenario(demo_scenario("mirror"))
    a, b = run.server("a"), run.server("b")
    for s in (a, b):
        names = set(docs_of(s))
        assert names == {"left-note", "right-note"}
    assert a.root.entries["right-note"].payload.content == b"written on the right"
    assert b.root.entries["left-note"].payload.content == b"written on the left"
    # the copy is marked with where it came from; the original is not
    assert a.root.entries["right-note"].meta["origin-node"] == "npc://b:7070/root"
    assert "origin-node" not in a.root.entries["left-note"].meta


def test_mirror_does_not_ping_pong():
    run = run_scenario(demo_scenario("mirror"))
    # one Insert per document per node; echoes would add more
    for host in ("a", "b"):
        hist = run.server(host).root.history
        doc_inserts = [e for e in hist.live
                       if e.kind == INSERT and e.entry.kind == DOCUMENT]
        assert len(doc_inserts) == 2


def test_mirror_propagates_removal():
    scenario = demo_scenario("mirror")
    run = run_scenario(scenario)
    a, b = run.server("a"), run.server("b")
    from npckit.history import NODE_ORIGIN, remove_event
    a.root.post_event(NODE_ORIGIN, remove_event(a.root.entries["left-note"]))
    run.quiesce()
    assert "left-note" not in docs_of(a)
    assert "left-note" not in docs_of(b)


# -- doc-server -------------------------------------------------------------------

def test_doc_server_http_lifecycle():
    run = run_scenario(demo_scenario("doc-server"))
    statuses = [s for s, _ in run.http]
    assert statuses == [200, 201, 200, 204, 404]
    assert run.http[0][1] == b"it works"
    assert run.http[2][1] == b"fresh content"


# -- retrieval ---------------------------------------------------------------------

def test_retrieval_cache_pulls_documents():
    run = run_scenario(demo_scenario("retrieval"))
    cache = run.server("cache")
    assert set(docs_of(cache)) == {"seed", "fresh"}
    assert cache.root.entries["seed"].meta["origin-node"] == "npc://origin:7070/root"


def test_retrieval_tracks_later_changes():
    scenario = demo_scenario("retrieval")
    run = run_scenario(scenario)
    origin, cache = run.server("origin"), run.server("cache")
    from npckit.history import NODE_ORIGIN, remove_event
    origin.root.post_event(NODE_ORIGIN, remove_event(origin.root.entries["fresh"]))
    run.tick(10)
    assert "fresh" not in docs_of(cache)
    assert "seed" in docs_of(cache)


# -- mediator -----------------------------------------------------------------------

def mediator_ports(server):
    return {n for n, e in server.root.entries.items() if e.kind == PORT}


def test_mediator_returns_union_exactly_once():
    run = run_scenario(demo_scenario("mediator"))
    replies = run.replies("c1")
    results = [r["event"]["entry"] for r in replies if r.get("kind") == "event"]
    names = sorted(e["meta"]["source-name"] for e in results)
    assert names == ["alpha", "beta", "gamma", "shared"]
    (done,) = [r for r in replies if r.get("kind") == "ack"]
    assert done["done"] is True and done["count"] == 4


def test_mediator_leaves_no_orphans():
    run = run_scenario(demo_scenario("mediator"))
    hub = run.server("hub")
    baseline = {"admin", "t-archive", "t-library", "t-annex", "t-picky"}
    assert mediator_ports(hub) == baseline
    assert docs_of(hub) == {}


def test_mediator_queries_each_source_once():
    run = run_scenario(demo_scenario("mediator"))
    hub = run.server("hub")
    assert hub.stubs["archive"].queries == ["true"]
    assert hub.stubs["library"].queries == ["true"]
    assert hub.stubs["annex"].queries == ["true"]


def test_mediator_abort_reclaims_wrappers():
    from npckit.sim import SimClient
    scenario = demo_scenario("mediator")
    run = SimRun()
    for cfg in scenario["servers"]:
        run.add_server(cfg)
    run.quiesce()
    hub = run.server("hub")

    run.connect("c1", "npc://hub:7070/root/admin")
    conn = run.conns["c1"]
    conn.send({"kind": "cmd", "op": "query", "query": "true", "name": "q-halt"})
    # deliver everything but do NOT run behavior steps: wrappers spawn
    # and are seen by the query port, but have not queried their sources
    hub.pump()
    hub.drain()
    qp = hub.behavior_at(("root",), "q-halt")
    assert qp is not None and len(qp.live_wrappers) == 3

    # the caller's connection now belongs to the query port, so the abort
    # arrives on a second management connection
    mgr = SimClient("client-mgr")
    conn2 = run.network.connect(mgr, "hub", 7070)
    conn2.send({"kind": "hello", "target": "npc://hub:7070/root/admin"})
    conn2.send({"kind": "cmd", "op": "abort", "name": "q-halt"})
    hub.pump()
    run.quiesce()

    assert mediator_ports(hub) == {"admin", "t-archive", "t-library", "t-annex", "t-picky"}
    assert docs_of(hub) == {}
    # the torn-down wrappers told their sources to cancel
    aborted = sum(len(hub.stubs[s].aborted) for s in ("archive", "library", "annex"))
    assert aborted == 3
    assert any(r.get("code") == "aborted" for r in run.replies("c1"))
    assert any(r.get("kind") == "ack" and r.get("aborted") == "q-halt"
               for r in mgr.replies)


def test_mediator_abort_on_disconnect():
    scenario = demo_scenario("mediator")
    run = SimRun()
    for cfg in scenario["servers"]:
        run.add_server(cfg)
    run.quiesce()
    hub = run.server("hub")

    run.connect("c1", "npc://hub:7070/root/admin")
    conn = run.conns["c1"]
    conn.send({"kind": "cmd", "op": "query", "query": "true", "name": "q-gone"})
    hub.pump()
    hub.drain()
    assert hub.behavior_at(("root",), "q-gone") is not None

    conn.close()  # caller vanishes mid-query
    run.quiesce()
    assert mediator_ports(hub) == {"admin", "t-archive", "t-library", "t-annex", "t-picky"}
    assert docs_of(hub) == {}


# -- alerting -----------------------------------------------------------------------

def test_alerting_mails_only_matching_documents():
    run = run_scenario(demo_scenario("alerting"))
    outbox = run.server("alerts").stubs["mail"].outbox
    assert [(m["to"], m["subject"]) for m in outbox] == \
        [("oncall@example.net", "disk-full")]
    assert outbox[0]["body"] == "disk is full"


# -- mailing list -------------------------------------------------------------------

def _req(name, request, address):
    from npckit.apps import _put
    return _put("list", name, "", request=request, address=address)


def test_mailing_list_subscribe_post_unsubscribe():
    from npckit.apps import _put
    scenario = demo_scenario("mailing-list")
    scenario["stimuli"] += [
        _req("req-2", "subscribe", "bob@example.net"),
        _put("list", "msg-2", "second posting"),
        _req("req-3", "unsubscribe", "ada@example.net"),
        _put("list", "msg-3", "third posting"),
        {"do": "quiesce"},
    ]
    run = run_scenario(scenario)
    outbox = run.server("list").stubs["mail"].outbox
    got = [(m["to"], m["subject"]) for m in outbox]
    # ada saw 1 and 2, bob saw 2 and 3; nobody was mailed a request document
    assert got == [("ada@example.net", "msg-1"),
                   ("ada@example.net", "msg-2"),
                   ("bob@example.net", "msg-2"),
                   ("bob@example.net", "msg-3")]


def test_mailing_list_requests_are_consumed():
    run = run_scenario(demo_scenario("mailing-list"))
    docs = docs_of(run.server("list"))
    assert "req-1" not in docs
    assert "msg-1" in docs


# -- classifier ----------------------------------------------------------------------

def test_classifier_sorts_by_topic():
    run = run_scenario(demo_scenario("classifier"))
    feed = run.server("feed")
    sports = feed.nodes[("root", "sports")]
    politics = feed.nodes[("root", "politics")]
    assert "match-report" in sports.entries
    assert "debate" in politics.entries
    assert "match-report" not in politics.entries
    assert "debate" not in sports.entries
    # unclassified documents stay put
    assert "misc" in feed.root.entries
    assert "misc" not in sports.entries and "misc" not in politics.entries
