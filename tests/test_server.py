"""Server wiring: config parsing, boot, channel routing, admin ops."""

import json

import pytest

from npckit.filters import parse_filter
from npckit.gateways import LoopbackNetwork
from npckit.history import INSERT, NODE_ORIGIN, REMOVE, insert_event, receive_event, remove_event
from npckit.model import DOCUMENT, PORT, PortSpec, document_entry, port_entry
from npckit.ports import BEHAVIORS, Behavior
from npckit.server import ConfigError, Server, ServerConfig
from npckit.wire import event_to_json
from npckit import server as server_module

from conftest import ScanNode, lines_run


class ManualClock:
    def __init__(self, t: int = 0):
        self.t = t

    def __call__(self) -> int:
        return self.t


class FakeClient:
    """Stands in for a CLI process on the loopback network."""

    host = "client"

    def __init__(self):
        self.msgs = []

    def describe(self) -> str:
        return "client"

    def enqueue(self, conn, msg) -> None:
        self.msgs.append(msg)

    def take(self):
        out, self.msgs = self.msgs, []
        return out


def make_server(network=None, host="a", entries=None, stubs=None, firewall=""):
    cfg = {
        "host": host,
        "npc_tcp_port": 7070,
        "firewall": firewall,
        "root": {"name": "root", "entries": entries or []},
    }
    if stubs:
        cfg["stubs"] = stubs
    return Server(ServerConfig.from_dict(cfg), network=network, clock=ManualClock())


def connect(network, client, server, port="admin"):
    conn = network.connect(client, server.config.host, 7070)
    assert conn is not None
    conn.send({"kind": "hello",
               "target": f"npc://{server.config.host}:7070/root/{port}"})
    server.settle()
    replies = client.take()
    assert replies and replies[0]["kind"] == "hello", replies
    return conn


def settle_all(*servers, rounds=200):
    for _ in range(rounds):
        moved = 0
        for s in servers:
            moved += s.pump()
            moved += s.drain()
            moved += s.step_behaviors()
        if moved == 0:
            return
    raise AssertionError("servers did not quiesce")


ADMIN = {"name": "admin", "kind": "port", "behavior": "admin"}


# -- configuration ---------------------------------------------------------------

def test_config_requires_host():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({})
    assert "config.host" in str(e.value)


def test_config_rejects_bad_port():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "npc_tcp_port": 70000})
    assert "npc_tcp_port" in str(e.value)


def test_config_rejects_unknown_behavior():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "root": {"entries": [
            {"name": "p", "kind": "port", "behavior": "no-such-thing"}]}})
    assert "entries[0].behavior" in str(e.value)


def test_config_rejects_bad_filter():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "root": {"entries": [
            {"name": "p", "kind": "port", "behavior": "manual",
             "input_filter": "event.type =="}]}})
    assert "entries[0]" in str(e.value)


def test_config_rejects_bad_base64():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "root": {"entries": [
            {"name": "d", "kind": "document", "content_b64": "@@@"}]}})
    assert "content_b64" in str(e.value)


def test_config_rejects_bad_entry_name():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "root": {"entries": [
            {"name": "has space", "kind": "document"}]}})
    assert "entries[0].name" in str(e.value)


def test_config_rejects_unknown_stub_type():
    with pytest.raises(ConfigError) as e:
        make_server(stubs={"odd": {"type": "teapot"}})
    assert e.value.path == "config.stubs.odd"


def test_config_rejects_nonpositive_cursor():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "root": {"entries": [
            {"name": "p", "kind": "port", "behavior": "manual", "cursor": 0}]}})
    assert "cursor" in str(e.value)


@pytest.mark.parametrize("config, where", [
    ({"http_port": True}, "config.http_port"),
    ({"max_history": True}, "config.max_history"),
    ({"root": {"entries": [{"name": "p", "kind": "port", "behavior": "manual",
                            "cursor": True}]}}, "config.root.entries[0].cursor"),
    ({"root": {"entries": [{"name": "p", "kind": "port", "behavior": "manual",
                            "receive_flag": "false"}]}}, "config.root.entries[0].receive_flag"),
    ({"root": {"entries": [{"name": "p", "kind": "port", "behavior": "manual",
                            "input_filter": 7}]}}, "config.root.entries[0].input_filter"),
    ({"root": {"entries": [{"name": "n", "kind": "node", "entries": [
        {"name": "d", "content_text": 7}]}]}}, "config.root.entries[0].entries[0].content_text"),
    ({"firewall": ["deny in *:* *"]}, "config.firewall"),
    ({"stubs": {"odd": "mail"}}, "config.stubs.odd"),
    ({"stubs": {"archive": {"type": "repo", "documents": 5}}}, "config.stubs.archive.documents"),
    ({"stubs": {"archive": {"type": "repo", "documents": [{"name": "a b"}]}}},
     "config.stubs.archive.documents[0].name"),
], ids=["http-port-bool", "max-history-bool", "cursor-bool", "receive-flag-text",
        "filter-not-text", "content-text-not-text", "firewall-not-text", "stub-not-an-object",
        "stub-documents-not-a-list", "stub-document-name"])
def test_config_values_follow_the_wire_rules(config, where):
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", **config})
    assert e.value.path == where


def test_config_still_loads_with_the_retired_indexed_key():
    # delivery has one path now; older configs may still carry the key
    for value in (True, False):
        cfg = ServerConfig.from_dict({"host": "a", "indexed": value})
        assert not hasattr(cfg, "indexed")


def test_config_rejects_bad_firewall():
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict({"host": "a", "firewall": "allow sideways *:* *"})
    assert e.value.path == "config.firewall" and "line 1" in str(e.value)


def test_a_config_is_parsed_whole_when_it_loads():
    cfg = ServerConfig.from_dict({"host": "a", "firewall": "deny out mail:* stub",
                                  "stubs": {"mail": {"type": "mail"}, "archive": {
                                      "type": "repo", "documents": [{"name": "d"}]}}})
    assert [(r.allow, r.direction, r.host_glob) for r in cfg.rules] == [(False, "out", "mail")]
    kind, (doc,) = cfg.stubs["archive"]
    assert (kind, doc.name, cfg.stubs["mail"]) == ("repo", "d", ("mail", []))
    assert Server(cfg).stubs["archive"].entries == [doc]


@pytest.mark.parametrize("escape, refused", [(r"\ud800", True), (r"x\udfffy", True),
                                             (r"\ud83d\ude00", False)],
                         ids=["high", "low", "pair"])
def test_a_config_holding_a_lone_surrogate_is_refused(escape, refused):
    # as a config file's JSON can carry it
    config = json.loads('{"host": "a", "root": {"entries": [{"name": "d", "meta": {"k": "%s"}}]}}'
                        % escape)
    if not refused:
        assert ServerConfig.from_dict(config).entries[0][0].meta["k"] == "\U0001F600"
        return
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict(config)
    assert e.value.path == "config" and "surrogate" in str(e.value)


# -- boot -------------------------------------------------------------------------

def test_boot_builds_tree_and_spawns_ports():
    net = LoopbackNetwork()
    s = make_server(net, entries=[
        {"name": "readme", "kind": "document", "content_text": "hello"},
        ADMIN,
        {"name": "sub", "kind": "node", "entries": [
            {"name": "inner", "kind": "document", "content_text": "deep"},
        ]},
    ])
    root = s.root
    assert set(root.entries) == {"readme", "admin", "sub"}
    assert ("root", "sub") in s.nodes
    assert s.nodes[("root", "sub")].entries["inner"].payload.content == b"deep"
    assert s.behavior_at(("root",), "admin") is not None
    assert net.lookup("a", 7070) is s


def test_unknown_behavior_spawn_is_inert():
    s = make_server()
    spec = PortSpec("not-registered", {})
    s.root.post_event(NODE_ORIGIN, insert_event(port_entry("odd", spec)))
    assert "odd" in s.root.entries
    assert s.behavior_at(("root",), "odd") is None


def test_settle_on_idle_server_is_quiet():
    s = make_server(entries=[ADMIN])
    assert s.settle() == 0


# -- hello and routing -------------------------------------------------------------

def test_hello_binds_and_replies_with_node_url():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    client = FakeClient()
    conn = net.connect(client, "a", 7070)
    conn.send({"kind": "hello", "target": "npc://a:7070/root/admin"})
    s.settle()
    (reply,) = client.take()
    assert reply == {"v": 1, "kind": "hello", "node": "npc://a:7070/root"}


def test_hello_to_missing_port_is_refused():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    client = FakeClient()
    conn = net.connect(client, "a", 7070)
    conn.send({"kind": "hello", "target": "npc://a:7070/root/nope"})
    s.settle()
    replies = client.take()
    assert replies[0]["kind"] == "error"
    assert replies[0]["code"] == "not-found"
    # the server hangs up after refusing
    assert replies[-1]["kind"] == "bye"


def test_first_frame_must_be_hello():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    client = FakeClient()
    conn = net.connect(client, "a", 7070)
    conn.send({"kind": "cmd", "op": "list"})
    s.settle()
    replies = client.take()
    assert replies[0]["code"] == "no-hello"


def test_dial_to_unregistered_address_fails():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    assert s.dial("npc://ghost:7070/root/admin") is None


# -- admin operations ----------------------------------------------------------------

def doc(name, text, **meta):
    return {"name": name, "kind": "document", "content_text": text,
            "meta": {k: str(v) for k, v in meta.items()}}


def test_admin_list_and_get():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN, doc("page", "content here")])
    client = FakeClient()
    conn = connect(net, client, s)

    conn.send({"kind": "cmd", "op": "list"})
    s.settle()
    (reply,) = client.take()
    assert [e["name"] for e in reply["entries"]] == ["admin", "page"]

    conn.send({"kind": "cmd", "op": "get", "name": "page"})
    s.settle()
    (reply,) = client.take()
    assert reply["kind"] == "ack"
    assert reply["entry"]["name"] == "page"

    conn.send({"kind": "cmd", "op": "get", "name": "ghost"})
    s.settle()
    (reply,) = client.take()
    assert reply["kind"] == "error" and reply["code"] == "not-found"


def test_admin_insert_then_remove_document():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    client = FakeClient()
    conn = connect(net, client, s)

    entry = document_entry("note", b"jotted")
    conn.send({"kind": "cmd", "op": "insert",
               "entry": {
                   "name": "note", "kind": "document", "meta": {},
                   "content_b64": "am90dGVk", "media_type": "text/plain"}})
    s.settle()
    (reply,) = client.take()
    assert reply["kind"] == "ack" and reply["seq"] > 0
    assert s.root.entries["note"].payload.content == b"jotted"

    conn.send({"kind": "cmd", "op": "remove", "name": "note"})
    s.settle()
    (reply,) = client.take()
    assert reply["kind"] == "ack"
    assert "note" not in s.root.entries

    conn.send({"kind": "cmd", "op": "remove", "name": "note"})
    s.settle()
    (reply,) = client.take()
    assert reply["code"] == "not-found"


def test_admin_history_reflects_cancellation():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN, doc("a", "1"), doc("b", "2")])
    s.root.post_event(NODE_ORIGIN, remove_event(s.root.entries["a"]))
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "cmd", "op": "history", "after": 0,
               "filter": 'entry.kind == "document"'})
    s.settle()
    (reply,) = client.take()
    got = [(e["kind"], e["entry"]["name"]) for e in reply["events"]]
    # a's Insert was cancelled by its Remove; b's Insert survives
    assert got == [("Insert", "b"), ("Remove", "a")]
    assert reply["at_end"] is True


def test_admin_push_gated_by_output_filter():
    net = LoopbackNetwork()
    s = make_server(net, entries=[
        {"name": "in", "kind": "port", "behavior": "admin",
         "output_filter": '(event.type == "Insert" or event.type == "Remove") '
                          'and entry.kind == "document"'},
    ])
    client = FakeClient()
    conn = connect(net, client, s, port="in")

    conn.send({"kind": "event",
               "event": event_to_json(insert_event(document_entry("d1", b"x")))})
    s.settle()
    assert client.take() == []
    assert "d1" in s.root.entries

    sneak = port_entry("mole", PortSpec("manual", {}))
    conn.send({"kind": "event", "event": event_to_json(insert_event(sneak))})
    s.settle()
    (reply,) = client.take()
    assert reply["kind"] == "error" and reply["code"] == "rejected-filter"
    assert "mole" not in s.root.entries


def test_admin_pull_tags_origin_node():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN, doc("page", "text")])
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "pull", "after": 0,
               "filter": 'event.type == "Insert" and entry.kind == "document"'})
    s.settle()
    (reply,) = client.take()
    (ev,) = reply["events"]
    assert ev["entry"]["meta"]["origin-node"] == "npc://a:7070/root"
    # history itself is untouched by the tagging
    assert s.root.entries["page"].meta == {}


def test_admin_fetch_roundtrip_and_cleanup():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN, doc("page", "got me")])
    client = FakeClient()
    conn = connect(net, client, s)

    conn.send({"kind": "cmd", "op": "fetch", "name": "page"})
    s.settle()
    replies = client.take()
    reply = replies[0]
    assert reply["kind"] == "ack"
    assert reply["name"] == "page"
    import base64
    assert base64.b64decode(reply["content_b64"]) == b"got me"
    # the request port hangs up once it has answered
    assert replies[-1]["kind"] == "bye"

    conn2 = connect(net, client, s)
    conn2.send({"kind": "cmd", "op": "fetch", "name": "ghost"})
    s.settle()
    replies = client.take()
    assert replies[0]["kind"] == "error" and replies[0]["code"] == "not-found"
    # request ports retire themselves
    leftovers = [n for n, e in s.root.entries.items() if e.kind == PORT
                 and n.startswith("req-")]
    assert leftovers == []


def test_missing_fetch_evaluates_no_backlog_event(monkeypatch):
    from npckit import filters, history, node
    from npckit.httpd import http_request
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN] + [doc(f"d{i}", "x") for i in range(1000)])
    client = FakeClient()
    conn = connect(net, client, s)
    before = s.root.history.last_seq
    evaluated = []
    real_eval = filters.eval_filter

    def counting(f, ev):
        evaluated.append(ev.seq)
        return real_eval(f, ev)

    for module in (filters, history, node):
        monkeypatch.setattr(module, "eval_filter", counting)
    conn.send({"kind": "cmd", "op": "fetch", "name": "ghost"})
    s.settle()
    (reply, _bye) = client.take()
    assert reply["kind"] == "error" and reply["code"] == "not-found"
    assert http_request(s, "GET", "/root/ghost")[0] == 404
    # the request ports read only events appended since they were spawned;
    # seq 0 is a post not yet stamped, judged by a port's output filter
    assert evaluated and all(seq == 0 or seq > before for seq in evaluated)


def test_admin_query_local_streams_matches():
    net = LoopbackNetwork()
    s = make_server(net, entries=[
        ADMIN, doc("apple", "1"), doc("apricot", "2"), doc("banana", "3")])
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "cmd", "op": "query",
               "query": 'entry.name matches "ap*"'})
    s.settle()
    replies = client.take()
    names = [r["event"]["entry"]["name"] for r in replies if r["kind"] == "event"]
    assert names == ["apple", "apricot"]
    acks = [r for r in replies if r["kind"] == "ack"]
    assert acks == [{"v": 1, "kind": "ack", "done": True, "count": 2}]
    assert replies[-1]["kind"] == "bye"
    leftovers = [n for n, e in s.root.entries.items() if e.kind == PORT
                 and n.startswith("query-")]
    assert leftovers == []


def test_admin_query_local_reads_only_the_candidate_documents(monkeypatch):
    """A required equality narrows the documents a local query reads to the
    entries with that value; a filter that is only that equality is not
    evaluated again."""
    from npckit import behaviors
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN] + [doc(f"d{i:04d}", "x", topic=f"t{i % 100}")
                                            for i in range(1000)])
    client = FakeClient()
    read, evaluated = [], []
    real_insert, real_eval = behaviors.insert_event, behaviors.eval_filter

    def insert_event(entry, *args):
        if entry.kind == DOCUMENT:
            read.append(entry.name)
        return real_insert(entry, *args)

    monkeypatch.setattr(behaviors, "insert_event", insert_event)
    monkeypatch.setattr(behaviors, "eval_filter",
                        lambda f, ev: evaluated.append(ev.entry.name) or real_eval(f, ev))

    def query(text):
        read.clear()
        evaluated.clear()
        conn = connect(net, client, s)
        conn.send({"kind": "cmd", "op": "query", "query": text})
        s.settle()
        replies = client.take()
        return [r["event"]["entry"]["name"] for r in replies if r["kind"] == "event"]

    wanted = 'meta.topic == "t7" and entry.name < "d0500"'
    assert query(wanted) == ["d0007", "d0107", "d0207", "d0307", "d0407"]
    assert len(read) == len(evaluated) == 10  # the ten documents of topic t7
    assert len(query('meta.topic == "t7"')) == len(read) == 10 and evaluated == []
    # the lookup follows later inserts, replacements and removals
    root = s.root
    root.post_event(NODE_ORIGIN, insert_event(document_entry("d0001", b"y", meta={"topic": "t7"})))
    root.post_event(NODE_ORIGIN, insert_event(document_entry("d0107", b"y", meta={"topic": "t8"})))
    root.post_event(NODE_ORIGIN, remove_event(root.entries["d0207"]))
    root.post_event(NODE_ORIGIN, insert_event(port_entry("d0002", PortSpec("manual"),
                                                         meta={"topic": "t7"})))
    s.settle()
    assert query(wanted) == ["d0001", "d0007", "d0307", "d0407"]
    assert query('entry.name == "d0042"') == read == ["d0042"] and evaluated == []
    # no required equality: every document is a candidate
    assert len(query('meta.topic == "t7" or meta.topic == "t8"')) == 20
    assert len(read) == len(evaluated) == 998


def spawn_mediated_query(s, q):
    """Insert a mediated query port ``q`` and a wrapper port for it, before
    the query's first pass ends and it finds no translator took it up."""
    s.root.post_event(NODE_ORIGIN, insert_event(port_entry(
        q, PortSpec("query", {"mode": "mediated"}), meta={"query": "true"})))
    s.root.post_event(NODE_ORIGIN, insert_event(port_entry(
        f"w-{q}", PortSpec("manual"), meta={"reply-to": q})))
    s.settle()


def post_results(s, q, results):
    for i in range(results):
        s.root.post_event(NODE_ORIGIN, insert_event(document_entry(
            f"{q}-r{i}", b"x", meta={"reply-to": q})))


def test_mediated_query_work_per_result_does_not_grow_with_the_table():
    from npckit import behaviors, node
    costs = {}
    for size in (10, 1000):
        s = make_server(entries=[ADMIN] + [doc(f"d{i}", "x") for i in range(size)])
        work = []
        for q in ("q1", "q2"):  # the first lookup builds the reply-to map
            spawn_mediated_query(s, q)
            query = s.behavior_at(("root",), q)

            def finish():
                # the results and the wrapper's retirement arrive together
                post_results(s, q, 3)
                s.root.post_event(NODE_ORIGIN, remove_event(s.root.entries[f"w-{q}"]))
                s.settle()
            work.append(lines_run([behaviors, node], finish))
            assert query.count == 3 and query.finished
            assert [n for n in s.root.entries if n.startswith(("q", "w-"))] == []
        # an aborted query removes its wrapper and its unsent results
        spawn_mediated_query(s, "q3")
        post_results(s, "q3", 3)

        def abort():
            s.root.post_event(NODE_ORIGIN, remove_event(s.root.entries["q3"]))
            s.settle()
        work.append(lines_run([behaviors, node], abort))
        assert [n for n in s.root.entries if n.startswith(("q", "w-"))] == []
        costs[size] = work[1:]
    assert costs[10] == costs[1000]


@pytest.mark.parametrize("op, text", [("fetch", "this connection only carries the answer"),
                                      ("query", "this connection only streams query results")])
def test_a_port_that_answers_once_refuses_stray_frames(op, text):
    net = LoopbackNetwork()
    s = make_server(net, entries=[{**ADMIN, "config": {"query_mode": "mediated"}}])
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "cmd", "op": op, "name": "ghost", "query": "true"})
    for kind in ("hello", "ack", "error", "cmd"):  # reach the port before it answers
        conn.send({"kind": kind})
    s.settle()
    refused = [r for r in client.take() if r.get("code") == "bad-kind"]
    assert refused == [{"v": 1, "kind": "error", "code": "bad-kind", "message": text}]
    assert s.faults == 0


TRANSLATOR = {"name": "t", "kind": "port", "behavior": "translator",
              "config": {"accept": "*", "source": "archive"}}
DONE = {"v": 1, "kind": "ack", "done": True}
ARCHIVE = {"archive": {"type": "repo", "documents": [{"name": "one"}, {"name": "two"}]}}


def mediated_query(s, net, limit=100000) -> list:
    """Send a mediated query, run passes of at most ``limit`` deliveries
    until the server is idle, and return the replies."""
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "cmd", "op": "query", "query": "true"})
    while s.run_once(limit):
        pass
    return client.take()


@pytest.mark.parametrize("translators", [[], [{**TRANSLATOR, "config": {
    "accept": "special:*", "source": "archive"}}]], ids=["no-translator", "declining"])
def test_a_mediated_query_no_translator_takes_up_is_answered_with_no_results(translators):
    net = LoopbackNetwork()
    s = make_server(net, entries=[{**ADMIN, "config": {"query_mode": "mediated"}}] + translators,
                    stubs=ARCHIVE)
    assert mediated_query(s, net) == [DONE | {"count": 0}, {"v": 1, "kind": "bye"}]
    assert sorted(s.root.entries) == ["admin"] + [t["name"] for t in translators]
    assert s.faults == 0


def test_a_mediated_query_waits_for_translators_a_short_pass_left_undelivered():
    net = LoopbackNetwork()
    s = make_server(net, entries=[{**ADMIN, "config": {"query_mode": "mediated"}}, TRANSLATOR],
                    stubs=ARCHIVE)
    replies = mediated_query(s, net, limit=1)
    assert [r["event"]["entry"]["name"] for r in replies if r["kind"] == "event"] == [
        "wrap-t-query-1-r0", "wrap-t-query-1-r1"]
    assert replies[-2:] == [DONE | {"count": 2}, {"v": 1, "kind": "bye"}]
    assert sorted(s.root.entries) == ["admin", "t"]


@pytest.mark.parametrize("ending", ["hang-up", "abort"])
def test_a_query_that_ends_unfinished_is_torn_down_after_its_own_remove(ending):
    net = LoopbackNetwork()
    s = make_server(net, entries=[{**ADMIN, "config": {"query_mode": "mediated"}}])
    client = FakeClient()
    conn = connect(net, client, s)
    conn.send({"kind": "cmd", "op": "query", "query": "true"})
    s.pump()  # the query port starts; its first pass has not ended
    s.root.post_event(NODE_ORIGIN, insert_event(port_entry(
        "w", PortSpec("manual"), meta={"reply-to": "query-1"})))
    s.settle()
    query = s.behavior_at(("root",), "query-1")
    assert query.live_wrappers == {"w"}
    # a result the query has not streamed out yet
    s.root.post_event(NODE_ORIGIN, insert_event(document_entry(
        "r", b"x", meta={"reply-to": "query-1"})))
    last = s.root.history.last_seq
    client.take()
    if ending == "hang-up":
        conn.close()
    else:
        s.root.post_event(NODE_ORIGIN, remove_event(s.root.entries["query-1"]))
    s.settle()
    removed = [e.entry.name for e in s.root.history.live if e.seq > last and e.kind == REMOVE]
    assert removed == ["query-1", "w", "r"]
    assert query.finished and sorted(s.root.entries) == ["admin"]
    # only an abort still has a caller to tell
    told = [m.get("code") for m in client.take() if m["kind"] == "error"]
    assert told == ([] if ending == "hang-up" else ["aborted"])


class Watcher(Behavior):
    """Keeps receiving news documents and records what it is given."""

    resume_on_suspend = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.got = []

    def on_start(self) -> None:
        self.ctx.receive("default", parse_filter('meta.topic == "news"'))

    def on_event(self, ev, subscription: str) -> bool:
        self.got.append(ev.entry.name if ev.entry is not None else ev.kind)
        return False


class DocWatcher(Watcher):
    """Keeps receiving every document."""

    def on_start(self) -> None:
        self.ctx.receive("default", parse_filter('entry.kind == "document"'))


@pytest.mark.parametrize("reference", [True, False])
def test_a_drain_leaves_other_cursors_where_their_own_walks_put_them(monkeypatch, reference):
    # the drain that delivers "old" to d passes w, armed and caught up; w's
    # cursor stays where w's own end-of-history Suspend put it, so a wider
    # re-Receive of w gets "old" as well as "new"
    if reference:
        monkeypatch.setattr(server_module, "Node", ScanNode)
    monkeypatch.setitem(BEHAVIORS, "watcher", Watcher)
    monkeypatch.setitem(BEHAVIORS, "docs", DocWatcher)
    s = make_server(entries=[{"name": "w", "kind": "port", "behavior": "watcher"},
                             {"name": "d", "kind": "port", "behavior": "docs"}])
    assert isinstance(s.root, ScanNode) == reference
    s.settle()
    watcher = s.behavior_at(("root",), "w")
    docs = s.behavior_at(("root",), "d")
    s.root.post_event(NODE_ORIGIN, insert_event(document_entry("old", b"x")))
    s.settle()
    assert docs.got == ["old"] and watcher.got == []
    s.root.post_event(NODE_ORIGIN, insert_event(document_entry("new", b"x")))
    s.root.post_event("w", receive_event("default", parse_filter('entry.kind == "document"')))
    s.settle()
    assert watcher.got == ["old", "new"]


def test_idle_drain_work_does_not_grow_with_the_tree(monkeypatch):
    from npckit import node, server
    monkeypatch.setitem(BEHAVIORS, "watcher", Watcher)
    costs = {}
    for size in (10, 300):
        s = make_server(entries=[
            {"name": f"n{i}", "kind": "node",
             "entries": [{"name": "w", "kind": "port", "behavior": "watcher"}]}
            for i in range(size)])
        s.settle()
        costs[size] = lines_run([server, node], s.drain)
    assert costs[10] == costs[300]


# -- firewalls over loopback -----------------------------------------------------------

def test_outbound_firewall_blocks_dial():
    net = LoopbackNetwork()
    a = make_server(net, host="a", firewall="deny out b:* *", entries=[ADMIN])
    make_server(net, host="b", entries=[ADMIN])
    assert a.dial("npc://b:7070/root/admin") is None


def test_inbound_firewall_refuses_peer():
    net = LoopbackNetwork()
    a = make_server(net, host="a", entries=[ADMIN])
    make_server(net, host="b", firewall="deny in a:* *", entries=[ADMIN])
    assert a.dial("npc://b:7070/root/admin") is None


def test_port_meta_firewall_narrows_dialing():
    net = LoopbackNetwork()
    entries = [ADMIN,
               {"name": "fwd", "kind": "port", "behavior": "manual",
                "meta": {"firewall": "deny out *:* *"}}]
    a = make_server(net, host="a", entries=entries)
    make_server(net, host="b", entries=[ADMIN])
    # the port's own rules forbid what the server default would allow
    assert a.dial("npc://b:7070/root/admin", owner=(("root",), "fwd")) is None
    assert a.dial("npc://b:7070/root/admin") is not None


def test_stub_access_respects_firewall():
    s = make_server(firewall="deny out mail:* stub",
                    stubs={"mail": {"type": "mail"}})
    assert s.stub("mail") is None
    open_s = make_server(stubs={"mail": {"type": "mail"}})
    assert open_s.stub("mail") is not None


def test_a_port_posted_with_rules_that_do_not_parse_faults_when_it_dials():
    # posted past admission, as the sim's post stimulus does
    net = LoopbackNetwork()
    a = make_server(net, host="a")
    make_server(net, host="b", entries=[ADMIN])
    spec = PortSpec("forwarder", {"target": "npc://b:7070/root/admin"})
    a.root.post_event(NODE_ORIGIN, insert_event(port_entry(
        "fwd", spec, meta={"firewall": "allow sideways *:* *"})))
    a.root.post_event(NODE_ORIGIN, insert_event(document_entry("news", b"fresh")))
    a.settle()
    assert a.faults == 1
    assert "fwd" not in a.root.entries and a.behavior_at(("root",), "fwd") is None


def test_every_firewall_decision_is_made_and_traced_in_one_place(monkeypatch):
    net = LoopbackNetwork()
    a = make_server(net, host="a", entries=[ADMIN], firewall="deny out mail:* stub",
                    stubs={"mail": {"type": "mail"}})
    make_server(net, host="b", entries=[ADMIN], firewall="deny in a:* *")
    decisions = []
    admits = Server.admits
    monkeypatch.setattr(Server, "admits", lambda s, *args: decisions.append(
        (s.host,) + args) or admits(s, *args))
    assert a.dial("npc://b:7070/root/admin") is None
    assert a.stub("mail") is None
    assert decisions == [("a", "out", "b", 7070, "npc-tcp", None),
                         ("b", "in", "a", 7070, "npc-tcp"),
                         ("a", "out", "mail", 1, "stub")]


# -- cross-server forwarding ------------------------------------------------------------

MIRROR_OUT = ('(event.type == "Insert" or event.type == "Remove") '
              'and entry.kind == "document"')


def test_forwarder_pushes_documents_to_remote():
    net = LoopbackNetwork()
    b = make_server(net, host="b", entries=[
        {"name": "in", "kind": "port", "behavior": "admin",
         "output_filter": MIRROR_OUT}])
    a = make_server(net, host="a", entries=[
        {"name": "fwd", "kind": "port", "behavior": "forwarder",
         "config": {"target": "npc://b:7070/root/in", "flavor": "event"}},
    ])
    a.root.post_event(NODE_ORIGIN, insert_event(document_entry("news", b"fresh")))
    settle_all(a, b)
    assert "news" in b.root.entries
    assert b.root.entries["news"].payload.content == b"fresh"
    assert b.root.entries["news"].meta["origin-node"] == "npc://a:7070/root"

    a.root.post_event(NODE_ORIGIN, remove_event(a.root.entries["news"]))
    settle_all(a, b)
    assert "news" not in b.root.entries


def test_forwarder_skips_documents_from_its_target():
    net = LoopbackNetwork()
    b = make_server(net, host="b", entries=[
        {"name": "in", "kind": "port", "behavior": "admin",
         "output_filter": MIRROR_OUT}])
    a = make_server(net, host="a", entries=[
        {"name": "fwd", "kind": "port", "behavior": "forwarder",
         "config": {"target": "npc://b:7070/root/in", "flavor": "event"}},
    ])
    # a document that already carries b's origin never goes back to b
    came_from_b = document_entry("boomerang", b"x",
                                 meta={"origin-node": "npc://b:7070/root"})
    a.root.post_event(NODE_ORIGIN, insert_event(came_from_b))
    settle_all(a, b)
    assert "boomerang" not in b.root.entries


def test_puller_replicates_over_pulls():
    net = LoopbackNetwork()
    clock_a, clock_b = ManualClock(), ManualClock()
    b_cfg = ServerConfig.from_dict({
        "host": "b", "npc_tcp_port": 7070,
        "root": {"entries": [
            {"name": "out", "kind": "port", "behavior": "forwarder",
             "input_filter": MIRROR_OUT}]}})
    b = Server(b_cfg, network=net, clock=clock_b)
    a_cfg = ServerConfig.from_dict({
        "host": "a", "npc_tcp_port": 7070,
        "root": {"entries": [
            {"name": "pull", "kind": "port", "behavior": "puller",
             "config": {"source": "npc://b:7070/root/out", "every": "10",
                        "flavor": "event"}}]}})
    a = Server(a_cfg, network=net, clock=clock_a)

    b.root.post_event(NODE_ORIGIN, insert_event(document_entry("item", b"v1")))
    settle_all(a, b)
    assert "item" not in a.root.entries  # no tick yet

    clock_a.t = 10
    a.tick_timers()
    settle_all(a, b)
    assert "item" in a.root.entries
    assert a.root.entries["item"].meta["origin-node"] == "npc://b:7070/root"

    # a later tick only replays what is new
    b.root.post_event(NODE_ORIGIN, remove_event(b.root.entries["item"]))
    clock_a.t = 20
    a.tick_timers()
    settle_all(a, b)
    assert "item" not in a.root.entries


def test_bye_reaches_owning_behavior():
    net = LoopbackNetwork()
    b = make_server(net, host="b", entries=[
        {"name": "in", "kind": "port", "behavior": "admin",
         "output_filter": MIRROR_OUT}])
    a = make_server(net, host="a", entries=[
        {"name": "fwd", "kind": "port", "behavior": "forwarder",
         "config": {"target": "npc://b:7070/root/in", "flavor": "event"}},
    ])
    a.root.post_event(NODE_ORIGIN, insert_event(document_entry("one", b"1")))
    settle_all(a, b)
    fwd = a.behavior_at(("root",), "fwd")
    assert fwd.conn is not None
    (conn,) = b.behavior_at(("root",), "in").ctx.conns.values()
    b.release_conn(conn)
    settle_all(a, b)
    assert fwd.conn is None
    # and traffic resumes over a fresh channel
    a.root.post_event(NODE_ORIGIN, insert_event(document_entry("two", b"2")))
    settle_all(a, b)
    assert "two" in b.root.entries


def test_port_removal_closes_owned_conns():
    net = LoopbackNetwork()
    b = make_server(net, host="b", entries=[
        {"name": "in", "kind": "port", "behavior": "admin",
         "output_filter": MIRROR_OUT}])
    a = make_server(net, host="a", entries=[
        {"name": "fwd", "kind": "port", "behavior": "forwarder",
         "config": {"target": "npc://b:7070/root/in", "flavor": "event"}},
    ])
    a.root.post_event(NODE_ORIGIN, insert_event(document_entry("one", b"1")))
    settle_all(a, b)
    fwd = a.behavior_at(("root",), "fwd")
    assert list(fwd.ctx.conns.values()) == [fwd.conn]
    a.root.post_event(NODE_ORIGIN, remove_event(a.root.entries["fwd"]))
    settle_all(a, b)
    assert fwd.ctx.conns == {} and fwd.conn.closed
    assert a.behavior_at(("root",), "fwd") is None
    # the far end heard the bye and let the connection go
    assert b.behavior_at(("root",), "in").ctx.conns == {}


# -- a port owns what it holds ------------------------------------------------------------

def test_a_mediated_query_port_scans_no_history_when_it_starts():
    # every result and wrapper it waits for is posted after it exists
    from npckit import behaviors, history, node
    costs = {}
    for size in (10, 1000):
        net = LoopbackNetwork()
        s = make_server(net, entries=[{**ADMIN, "config": {"query_mode": "mediated"}}]
                        + [doc(f"d{i}", "x") for i in range(size)])
        conn = connect(net, FakeClient(), s)
        live = len(s.root.history)

        def query():
            conn.send({"kind": "cmd", "op": "query", "query": "true"})
            s.pump()  # the query port starts; its first pass has not ended
            s.root.post_event(NODE_ORIGIN, insert_event(port_entry(
                "w", PortSpec("manual"), meta={"reply-to": "query-1"})))
            s.settle()
        costs[live] = lines_run([behaviors, node, history], query)
        query_port = s.behavior_at(("root",), "query-1")
        assert query_port is not None and not query_port.finished
    assert list(costs) == [11, 1001]
    assert costs[11] == costs[1001]


class Ticking(Behavior):
    """Holds one subscription and one timer."""

    def on_start(self) -> None:
        self.ctx.receive("default", parse_filter(f'event.label == "t-{self.ctx.name}"'))
        self.ctx.schedule(f"t-{self.ctx.name}", every=10)


def test_retiring_a_port_releases_only_what_it_holds(monkeypatch):
    from npckit import node, server
    monkeypatch.setitem(BEHAVIORS, "ticking", Ticking)
    costs = {}
    for size in (10, 1000):
        s = make_server(entries=[{"name": f"p{i}", "kind": "port", "behavior": "ticking"}
                                 for i in range(size)])
        s.settle()
        root = s.root
        assert len(root.subs) == len(root.timers) == size

        def remove():
            root.post_event(NODE_ORIGIN, remove_event(root.entries["p3"]))
        costs[size] = lines_run([node, server], remove)
        assert ("p3", "default") not in root.subs and "t-p3" not in root.timers
        assert "p3" not in root.held and s.behavior_at(("root",), "p3") is None
        assert len(root.subs) == len(root.timers) == size - 1
    assert costs[10] == costs[1000]


def test_closed_connections_leave_their_owners_record():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    admin = s.behavior_at(("root",), "admin")
    for _ in range(50):
        conn = connect(net, FakeClient(), s)
        assert list(admin.ctx.conns.values()) == [conn._peer]
        conn.close()
        s.settle()
        assert admin.ctx.conns == {}


def test_fetch_hands_the_connection_over_to_the_request_port():
    net = LoopbackNetwork()
    s = make_server(net, entries=[ADMIN])
    client = FakeClient()
    conn = connect(net, client, s)
    admin = s.behavior_at(("root",), "admin")
    (theirs,) = admin.ctx.conns.values()
    conn.send({"kind": "cmd", "op": "fetch", "name": "ghost"})
    s.pump()  # the request port has started; its answer waits for a delivery
    (key,) = [k for k in s.behaviors if k[1].startswith("req-")]
    request = s.behaviors[key]
    assert admin.ctx.conns == {}
    assert list(request.ctx.conns.values()) == [theirs] and theirs.owner == key
    s.settle()
    assert [r["kind"] for r in client.take()] == ["error", "bye"]
    assert key not in s.behaviors and request.ctx.conns == {} and theirs.closed
    assert admin.ctx.conns == {}


def names_listed_per_result(monkeypatch, k: int) -> int:
    """One ``query: "true"`` on the mediator preset with k more documents
    in the archive: the result names ``Node.entries_with`` hands out, per
    result the query port streams, to the nearest whole name (the last
    few lookups find nothing pending)."""
    from npckit.apps import build_preset
    from npckit.node import Node
    from npckit.sim import SimRun
    run = SimRun()
    run.add_server(build_preset("mediator")[0])
    for i in range(k):
        run.server("hub").stubs["archive"].entries.append(document_entry(f"doc{i}", b"x"))
    run.quiesce()
    listed = 0
    entries_with = Node.entries_with

    def counting(self, field, value):
        nonlocal listed
        for name in entries_with(self, field, value):
            listed += 1
            yield name
    monkeypatch.setattr(Node, "entries_with", counting)
    run.connect("c", "npc://hub:7070/root/admin")
    run.send("c", {"kind": "cmd", "op": "query", "query": "true"})
    done, bye = run.take_replies("c")[-2:]
    assert done["kind"] == "ack" and done["count"] == k + 4, done
    return round(listed / done["count"])


def test_a_mediated_query_lists_no_more_names_per_result_as_results_grow(monkeypatch):
    """Whether a result is still pending is answered without listing them
    all, so a query of k results costs k, not k squared."""
    assert names_listed_per_result(monkeypatch, 100) == names_listed_per_result(monkeypatch, 400)
