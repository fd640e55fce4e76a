"""One admission rule for every entry, on every path into a node.

``ports.admission_fault`` holds the rules: a document fits in the query
result that returns it, reserved metadata keys parse, a port's behavior is
registered, and each config key its behavior declares parses.  A command,
a push, a config file, a pulled event and an HTTP PUT all ask it, and a
refusal changes nothing.
"""

import base64
import pathlib
import re

import pytest

from npckit import wire
from npckit.wire import entry_from_json
from npckit.apps import build_preset
from npckit.cli import NpcClient
from npckit.history import INSERT, REMOVE, insert_event
from npckit.httpd import http_request
from npckit.model import PORT, document_entry
from npckit.ports import BEHAVIORS, RESERVED_META, Behavior, admission_fault
from npckit.server import ConfigError, Server, ServerConfig
from npckit.sim import SimRun


def _doc(**meta) -> dict:
    return {"name": "welcome", "kind": "document", "meta": meta,
            "content_b64": "", "media_type": "text/plain"}


def _port(behavior: str, **config) -> dict:
    return {"name": "welcome", "kind": "port", "behavior": behavior, "config": config}


SOURCE = "npc://web:7070/root/admin"

# id: (entry, the field at fault and the code of the refusal, or None when
# every rule admits it)
CASES = {
    "document": (_doc(), None),
    "node": ({"name": "welcome", "kind": "node"}, None),
    "port": (_port("manual"), None),
    "reserved-meta-that-parses": (_doc(**{
        "origin-node": "npc://other.example:7070/root", "reply-to": "query1",
        "firewall": "deny out *:* *\nallow out web:7070 npc-tcp"}), None),
    "filter-keys-that-parse": (_port("puller", source=SOURCE, every="5", filter=""), None),
    "origin-node-not-a-url": (_doc(**{"origin-node": "not a url"}),
                              ("meta.origin-node", "invalid-entry")),
    # keys the kit does not read are any text
    "priority-word": (_doc(priority="high"), None),
    "priority-text": (_doc(priority="abc"), None),
    "reply-to-not-a-name": (_doc(**{"reply-to": "a/b"}), ("meta.reply-to", "invalid-entry")),
    "input-filter": (_doc(**{"input-filter": "not ("}), None),
    "output-filter": (_doc(**{"output-filter": "not ("}), None),
    "port-firewall": ({**_port("forwarder", target=SOURCE),
                       "meta": {"firewall": "allow sideways *:* *"}},
                      ("meta.firewall", "invalid-entry")),
    "unknown-behavior": (_port("no-such"), ("behavior", "unknown-behavior")),
    "gc-every-text": (_port("gc", every="abc"), ("config.every", "invalid-entry")),
    "gc-every-negative": (_port("gc", every="-1"), ("config.every", "invalid-entry")),
    "gc-every-zero": (_port("gc", every="0"), ("config.every", "invalid-entry")),
    "gc-max-age-text": (_port("gc", every="5", max_age="old"),
                        ("config.max_age", "invalid-entry")),
    "gc-max-age-decimal": (_port("gc", max_age="1.5"), ("config.max_age", "invalid-entry")),
    "puller-every-zero": (_port("puller", source=SOURCE, every="0"),
                          ("config.every", "invalid-entry")),
    "puller-after-text": (_port("puller", source=SOURCE, after="first"),
                          ("config.after", "invalid-entry")),
    "puller-max-empty": (_port("puller", source=SOURCE, max=""), ("config.max", "invalid-entry")),
    "puller-filter": (_port("puller", source=SOURCE, filter="not ("),
                      ("config.filter", "invalid-entry")),
    "forwarder-filter": (_port("forwarder", target=SOURCE, filter="not ("),
                         ("config.filter", "invalid-entry")),
    "classifier-filter": (_port("classifier", target=SOURCE, filter="not ("),
                          ("config.filter", "invalid-entry")),
    "subscriber-manager-topic-filter": (_port("subscriber-manager", topic_filter="not ("),
                                        ("config.topic_filter", "invalid-entry")),
    # config values from a closed set
    "choices-that-parse": (_port("puller", source=SOURCE, flavor="event"), None),
    "forwarder-flavor": (_port("forwarder", target=SOURCE, flavor="events"),
                         ("config.flavor", "invalid-entry")),
    "classifier-flavor": (_port("classifier", target=SOURCE, flavor="Document"),
                          ("config.flavor", "invalid-entry")),
    "puller-flavor": (_port("puller", source=SOURCE, flavor=""), ("config.flavor", "invalid-entry")),
    "admin-query-mode": (_port("admin", query_mode="Local"), ("config.query_mode", "invalid-entry")),
    "query-mode": (_port("query", mode="remote"), ("config.mode", "invalid-entry")),
    "subscriber-manager-role": (_port("subscriber-manager", role="submitt"),
                                ("config.role", "invalid-entry")),
}

# every config key whose value comes from a closed set, with that set
CHOICES = {("forwarder", "flavor"): ["document", "entry", "event"],
           ("classifier", "flavor"): ["document", "entry", "event"],
           ("puller", "flavor"): ["document", "entry", "event"],
           ("admin", "query_mode"): ["local", "mediated"],
           ("query", "mode"): ["local", "mediated"],
           ("subscriber-manager", "role"): ["manage", "submit"]}


class Feed(Behavior):
    """Answers every pull with one Insert of the entry in ``entry``."""

    entry: dict = {}

    def on_external(self, conn, msg: dict) -> None:
        if msg.get("kind") == "pull":
            conn.send({"kind": "ack", "events": [{"kind": "Insert", "entry": self.entry}],
                       "last": 1, "at_end": True})


def doc_server() -> SimRun:
    run = SimRun()
    run.add_server(build_preset("doc-server")[0])
    run.quiesce()
    run.connect("c", "npc://web:7070/root/admin")
    run.take_replies("c")
    return run


def over_a_channel(path: str, entry: dict, fault) -> None:
    run = doc_server()
    server = run.server("web")
    table = dict(server.root.entries)
    last = server.root.history.last_seq
    if path == "cmd":
        run.send("c", {"kind": "cmd", "op": "insert", "entry": entry})
    else:
        run.send("c", {"kind": "event", "event": {"kind": "Insert", "entry": entry}})
    replies = run.take_replies("c")
    assert server.faults == 0
    if fault is None:
        assert [r["kind"] for r in replies] == (["ack"] if path == "cmd" else []), replies
        assert server.root.entries["welcome"].kind == entry["kind"]
        return run
    reply, = replies
    assert (reply["kind"], reply["code"]) == ("error", fault[1]), reply
    assert fault[0].split(".")[-1] in reply["message"]
    assert server.root.entries == table
    assert server.root.history.last_seq == last
    return run


def from_a_config_file(entry: dict, fault) -> None:
    config = {"host": "a", "root": {"entries": [entry]}}
    if fault is None:
        assert ServerConfig.from_dict(config).entries[0][0].kind == entry["kind"]
        return
    with pytest.raises(ConfigError) as e:
        ServerConfig.from_dict(config)
    assert e.value.path == f"config.root.entries[0].{fault[0]}"


def by_a_pull(monkeypatch, entry: dict, fault) -> None:
    monkeypatch.setitem(BEHAVIORS, "feed", Feed)
    monkeypatch.setattr(Feed, "entry", entry)
    run = SimRun()
    run.add_server({"host": "src", "root": {"entries": [
        {"name": "feed", "kind": "port", "behavior": "feed"}]}})
    run.add_server({"host": "dst", "root": {"entries": [
        {"name": "welcome", "content_text": "it works"},
        {"name": "p", "kind": "port", "behavior": "puller",
         "config": {"source": "npc://src:7070/root/feed", "every": "1"}}]}})
    run.quiesce()
    node = run.server("dst").root
    table = dict(node.entries)
    last = node.history.last_seq
    run.tick(1)
    assert run.server("src").faults == 0 and run.server("dst").faults == 0
    rejected = [line for line in run.tracer.lines() if "\tdst/root:p\trejected\t" in line]
    if fault is None:
        assert not rejected
        assert node.entries["welcome"].kind == entry["kind"]
        return
    assert len(rejected) == 1 and fault[0].split(".")[-1] in rejected[0], rejected
    assert node.entries == table
    assert [e for e in node.history.live if e.seq > last and e.kind in (INSERT, REMOVE)] == []


@pytest.mark.parametrize("path", ["cmd", "push", "config", "pull"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_path_admits_by_the_one_rule_and_a_refusal_changes_nothing(monkeypatch, case, path):
    entry, fault = CASES[case]
    if path == "config":
        from_a_config_file(entry, fault)
    elif path == "pull":
        by_a_pull(monkeypatch, entry, fault)
    else:
        over_a_channel(path, entry, fault)


@pytest.mark.parametrize("behavior, key", sorted(CHOICES))
def test_a_closed_set_config_key_admits_its_values_and_nothing_else(behavior, key):
    values = CHOICES[behavior, key]
    for value in values:
        assert admission_fault(entry_from_json(_port(behavior, **{key: value}))) is None
    for value in ["", " " + values[0], values[0].upper(), values[0] + "s", values[-1][:-1]]:
        fault = admission_fault(entry_from_json(_port(behavior, **{key: value})))
        assert fault[:2] == (f"config.{key}", "invalid-entry"), (value, fault)


def test_a_query_mode_outside_its_set_is_refused_not_read_as_mediated():
    """An admin port whose ``query_mode`` was ``Local`` used to be admitted,
    and then answered a matching local query with no results."""
    run = doc_server()
    run.send("c", {"kind": "cmd", "op": "insert", "entry": {
        "name": "d", "kind": "document", "meta": {"t": "a"}, "content_b64": ""}})
    for mode, count in (("Local", None), ("local", 1)):
        run.send("c", {"kind": "cmd", "op": "insert",
                       "entry": {**_port("admin", query_mode=mode), "name": "q"}})
        run.take_replies("c")
        if count is None:
            assert "q" not in run.server("web").root.entries
            continue
        run.connect("q", "npc://web:7070/root/q")
        run.take_replies("q")
        run.send("q", {"kind": "cmd", "op": "query", "query": 'meta.t == "a"'})
        done = [r for r in run.take_replies("q") if r["kind"] == "ack"]
        assert done == [{"v": 1, "kind": "ack", "done": True, "count": count}]


@pytest.mark.parametrize("msg", [
    {"kind": "cmd", "op": "insert", "entry": {**_doc(), "name": "admin"}},
    {"kind": "cmd", "op": "insert", "entry": {**_port("admin"), "name": "admin"}},
    {"kind": "cmd", "op": "remove", "name": "admin"},
    {"kind": "cmd", "op": "abort", "name": "admin"},
    {"kind": "event", "event": {"kind": "Insert", "entry": {**_doc(), "name": "admin"}}},
    {"kind": "event", "event": {"kind": "Remove", "entry": {**_doc(), "name": "admin"}}},
], ids=["cmd-insert-document", "cmd-insert-port", "cmd-remove", "cmd-abort",
        "push-insert", "push-remove"])
def test_the_admin_port_never_replaces_or_removes_itself_through_its_own_connection(msg):
    run = doc_server()
    server = run.server("web")
    table = dict(server.root.entries)
    last = server.root.history.last_seq
    run.send("c", msg)
    reply, = run.take_replies("c")
    assert (reply["kind"], reply["code"]) == ("error", "not-allowed"), reply
    assert server.root.entries == table
    assert server.root.entries["admin"].kind == PORT
    assert server.root.history.last_seq == last
    assert server.faults == 0
    run.send("c", {"kind": "cmd", "op": "list"})
    reply, = run.take_replies("c")
    assert [e["name"] for e in reply["entries"]] == ["admin", "welcome"]


SMALL_BODY = 4096  # wire.MAX_BODY in the size tests, so a document over it stays small


def most_content(media_type: str, name: str = "welcome", meta: dict | None = None) -> int:
    """The most bytes of content a document ``name`` of ``media_type``,
    with ``meta`` (none by default), may hold under ``SMALL_BODY``."""
    fits = lambda n: admission_fault(document_entry(name, b"x" * n, media_type, meta)) is None
    low, high = 0, SMALL_BODY  # fits(low), not fits(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


@pytest.mark.parametrize("size", ["fits", "one-byte-over"])
@pytest.mark.parametrize("path", ["cmd", "push", "config", "http"])
def test_a_document_too_big_for_its_own_get_reply_is_refused(monkeypatch, path, size):
    """A stored document can always be read back: one whose query result,
    which holds more around it than its ``get`` reply, could not be framed
    is refused on the way in, and the largest one admitted is served by
    ``get``, ``fetch`` and HTTP GET."""
    monkeypatch.setattr(wire, "MAX_BODY", SMALL_BODY)
    media = "text/plain" if path == "http" else ""
    n = most_content(media) + (size == "one-byte-over")
    content = b"x" * n
    entry = {"name": "welcome", "kind": "document", "meta": {}, "media_type": media,
             "content_b64": base64.b64encode(content).decode("ascii")}
    fault = None if size == "fits" else ("content_b64", "oversize")
    if path == "config":
        from_a_config_file(entry, fault)
        return
    if path == "http":
        run = doc_server()
        server = run.server("web")
        table, last = dict(server.root.entries), server.root.history.last_seq
        status, _, _ = http_request(server, "PUT", "/root/welcome", content, media)
        assert status == (201 if fault is None else 413)
        if fault is not None:
            assert server.root.entries == table
            assert server.root.history.last_seq == last
    else:
        run = over_a_channel(path, entry, fault)
    if fault is None:
        server = run.server("web")
        assert server.root.entries["welcome"].payload.content == content
        # the content counts exactly: a query result, the largest frame that
        # carries the document whole, is as big as it can be, save the five
        # bytes a character of the name or media type is counted over
        stored = server.root.entries["welcome"]
        result = wire.encode_frame({"kind": "event", "event": insert_event(stored)})
        assert SMALL_BODY - 4 < len(result) - 4 + 5 * len("welcome" + media) <= SMALL_BODY
        assert http_request(server, "GET", "/root/welcome")[::2] == (200, content)
        run.send("c", {"kind": "cmd", "op": "get", "name": "welcome"})
        (got,) = run.take_replies("c")
        assert got["kind"] == "ack" and got["entry"]["content_b64"] == entry["content_b64"]
        run.send("c", {"kind": "cmd", "op": "fetch", "name": "welcome"})
        assert run.take_replies("c")[0]["content_b64"] == entry["content_b64"]
    assert run.server("web").faults == 0


def query_over_tcp(entry: dict, query: str) -> list[dict]:
    """The replies to inserting ``entry`` and then to ``query``, each on
    its own connection to a real server's admin port."""
    server = Server(ServerConfig.from_dict({"host": "127.0.0.1", "npc_tcp_port": 0, "root": {
        "entries": [{"name": "admin", "kind": "port", "behavior": "admin"}]}}), real=True)
    server.start()
    try:
        url = f"npc://127.0.0.1:{server.advertised_port}/root/admin"
        replies = []
        for msg in ({"kind": "cmd", "op": "insert", "entry": entry},
                    {"kind": "cmd", "op": "query", "query": query}):
            client = NpcClient(url)
            client.collect = replies.append
            replies.append(client.roundtrip(msg))
            client.close()
        assert server.faults == 0
        return replies
    finally:
        server.stop()


@pytest.mark.parametrize("size", ["fits", "one-byte-over"])
@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("name,meta", [("w", {"t": "a"}), ("welcome", {"topic": "a"})],
                         ids=["w", "welcome"])
def test_the_largest_admitted_document_is_streamed_whole_by_a_local_query(
        monkeypatch, name, meta, transport, size):
    """A query result holds more around a document than its ``get`` reply
    does, and the rule admits a document only if that result fits."""
    monkeypatch.setattr(wire, "MAX_BODY", SMALL_BODY)
    content = b"x" * (most_content("", name, meta) + (size == "one-byte-over"))
    entry = {"name": name, "kind": "document", "meta": meta, "media_type": "",
             "content_b64": base64.b64encode(content).decode("ascii")}
    (key, value), = meta.items()
    query = f'meta.{key} == "{value}"'
    if transport == "tcp":
        replies = query_over_tcp(entry, query)
    else:
        run = doc_server()
        run.send("c", {"kind": "cmd", "op": "insert", "entry": entry})
        run.send("c", {"kind": "cmd", "op": "query", "query": query})
        # the query port closes the connection it was handed after done
        replies = [r for r in run.take_replies("c") if r["kind"] != "bye"]
        assert run.server("web").faults == 0
    if size == "one-byte-over":
        assert [(r["kind"], r.get("code")) for r in replies] == [
            ("error", "oversize"), ("ack", None)]
        assert replies[1]["count"] == 0
        return
    inserted, result, done = replies
    assert inserted["kind"] == "ack" and done == {"v": 1, "kind": "ack", "done": True, "count": 1}
    assert result["kind"] == "event" and result["event"]["entry"] == entry


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_admission_table_names_exactly_the_metadata_keys_the_kit_reads():
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `meta.")]
    documented = {key for row in rows
                  for key in re.findall(r"`meta\.([^`]+)`", row.split("|")[1])}
    assert documented == set(RESERVED_META)
