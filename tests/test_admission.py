"""One admission rule for every entry, on every path into a node.

``ports.admission_fault`` holds the rules: a document fits in its own
``get`` reply, reserved metadata keys parse, a port's behavior is
registered, and each config key its behavior declares parses.  A command,
a push, a config file, a pulled event and an HTTP PUT all ask it, and a
refusal changes nothing.
"""

import base64
import pathlib
import re

import pytest

from npckit import wire
from npckit.apps import build_preset
from npckit.history import INSERT, REMOVE
from npckit.httpd import http_request
from npckit.model import PORT, document_entry
from npckit.ports import BEHAVIORS, RESERVED_META, Behavior, admission_fault
from npckit.server import ConfigError, ServerConfig
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
}


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


def most_content(media_type: str) -> int:
    """The most bytes of content a document ``welcome`` of ``media_type``,
    with no metadata, may hold under ``SMALL_BODY``."""
    fits = lambda n: admission_fault(document_entry("welcome", b"x" * n, media_type)) is None
    low, high = 0, SMALL_BODY  # fits(low), not fits(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


@pytest.mark.parametrize("size", ["fits", "one-byte-over"])
@pytest.mark.parametrize("path", ["cmd", "push", "config", "http"])
def test_a_document_too_big_for_its_own_get_reply_is_refused(monkeypatch, path, size):
    """A stored document can always be read back: one whose ``get`` reply
    could not be framed is refused on the way in, and the largest one
    admitted is served by ``get``, ``fetch`` and HTTP GET."""
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
        # the content counts exactly: the reply is as big as it can be, save
        # the five bytes a character of the name or media type is counted over
        reply = wire.encode_frame({"kind": "ack", "entry": server.root.entries["welcome"]})
        assert SMALL_BODY - 4 < len(reply) - 4 + 5 * len("welcome" + media) <= SMALL_BODY
        assert http_request(server, "GET", "/root/welcome")[::2] == (200, content)
        run.send("c", {"kind": "cmd", "op": "get", "name": "welcome"})
        (got,) = run.take_replies("c")
        assert got["kind"] == "ack" and got["entry"]["content_b64"] == entry["content_b64"]
        run.send("c", {"kind": "cmd", "op": "fetch", "name": "welcome"})
        assert run.take_replies("c")[0]["content_b64"] == entry["content_b64"]
    assert run.server("web").faults == 0


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_admission_table_names_exactly_the_metadata_keys_the_kit_reads():
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `meta.")]
    documented = {key for row in rows
                  for key in re.findall(r"`meta\.([^`]+)`", row.split("|")[1])}
    assert documented == set(RESERVED_META)
