"""Wire frames and the JSON codecs for entries and events."""

import json
import struct

import pytest

from conftest import rand_event, rand_filter
from npckit import wire
from npckit.behaviors import tagged_with_origin
from npckit.filters import Cmp, parse_filter, print_filter
from npckit.history import Event, INSERT, KINDS, REMOVE, insert_event
from npckit.model import Document, Entry, PortSpec, document_entry, node_entry, port_entry
from npckit.wire import (FrameBuffer, MAX_BODY, WireError, bye_frame, decode_body,
                         encode_frame, entry_bytes, entry_from_json, entry_to_json,
                         event_bytes, event_from_json, event_to_json, read_frame)


def roundtrip_frame(msg):
    raw = encode_frame(msg)
    buf = FrameBuffer()
    buf.feed(raw)
    return buf.pop()


# ---------------------------------------------------------------------------
# framing

def test_frame_layout_is_length_prefixed_json():
    raw = encode_frame({"kind": "pull", "after": 3})
    (length,) = struct.unpack(">I", raw[:4])
    assert length == len(raw) - 4
    body = json.loads(raw[4:].decode("utf-8"))
    assert body == {"v": 1, "kind": "pull", "after": 3}


def test_bye_frame_is_canonical():
    raw = bye_frame()
    assert raw[:4] == struct.pack(">I", 20)
    assert raw[4:] == b'{"kind":"bye","v":1}'


def test_frame_buffer_handles_partial_and_multiple_frames():
    raw = encode_frame({"kind": "bye"}) + encode_frame({"kind": "pull", "after": 0})
    buf = FrameBuffer()
    for i in range(len(raw)):
        buf.feed(raw[i:i + 1])
    assert buf.pop()["kind"] == "bye"
    assert buf.pop()["kind"] == "pull"
    assert buf.pop() is None


def test_oversize_rejected_before_body_arrives():
    buf = FrameBuffer()
    buf.feed(struct.pack(">I", MAX_BODY + 1))
    with pytest.raises(WireError) as exc:
        buf.pop()
    assert exc.value.code == "oversize"


def test_encode_refuses_oversize_bodies():
    with pytest.raises(WireError) as exc:
        encode_frame({"kind": "event", "blob": "x" * (MAX_BODY + 1)})
    assert exc.value.code == "oversize"


def test_decode_rejects_bad_version_and_malformed():
    with pytest.raises(WireError) as exc:
        decode_body(b'{"v":2,"kind":"bye"}')
    assert exc.value.code == "bad-version"
    with pytest.raises(WireError) as exc:
        decode_body(b'{"v":1}')
    assert exc.value.code == "malformed"
    with pytest.raises(WireError) as exc:
        decode_body(b"not json")
    assert exc.value.code == "malformed"
    with pytest.raises(WireError) as exc:
        decode_body(b'["v",1]')
    assert exc.value.code == "malformed"
    with pytest.raises(WireError) as exc:
        decode_body(b'\xff\xfe{}')
    assert exc.value.code == "malformed"


DEEP = 100000


@pytest.mark.parametrize("data", [
    b"[" * DEEP,
    b'{"v":1,"kind":"bye","x":' + b"[" * DEEP + b"]" * DEEP + b"}",
], ids=["open", "closed"])
def test_a_body_nested_deeper_than_the_decoder_recurses_is_malformed(data):
    with pytest.raises(WireError) as exc:
        decode_body(data)
    assert exc.value.code == "malformed"


@pytest.mark.parametrize("data, code", [
    (b'{"v":1,"kind":"bye"} x', "malformed"),
    (b'{"v":1,"kind":"bye"}{}', "malformed"),
    (b'1', "malformed"),
    (b'"bye"', "malformed"),
    (b'null', "malformed"),
    (b'{"kind":"bye"}', "bad-version"),
    (b'{"v":"1","kind":"bye"}', "bad-version"),
    (b'{"v":1.5,"kind":"bye"}', "bad-version"),
    (b'{"v":1,"kind":""}', "malformed"),
    (b'{"v":1,"kind":7}', "malformed"),
    (b'{"v":1,"kind":"\xc3"}', "malformed"),
    (b'{"v":1,"kind":"bye","x":"\xed\xa0\x80"}', "malformed"),
    (b'', "malformed"),
    (b' \n', "malformed"),
    (b' {"v":1,"kind":"bye"} x', "malformed"),
    (b'{"v":1,"kind":"bye"', "malformed"),
], ids=["trailing-text", "trailing-object", "number", "string", "null", "no-version",
        "version-text", "version-float", "empty-kind", "kind-not-text", "cut-utf8",
        "surrogate-utf8", "empty", "only-space", "space-then-trailing-text", "unclosed"])
def test_decode_refuses_anything_but_one_versioned_object(data, code):
    with pytest.raises(WireError) as exc:
        decode_body(data)
    assert exc.value.code == code
    assert decode_body(b' {"v":1,"kind":"bye"}\n') == {"v": 1, "kind": "bye"}


@pytest.mark.parametrize("text", [r"\ud800", r"\udc00", r"x\ud83dy", r"\ude00\ud83d"],
                         ids=["high", "low", "high-alone-in-text", "pair-reversed"])
@pytest.mark.parametrize("where", ["value", "key"])
def test_a_lone_surrogate_escape_is_malformed(text, where):
    body = ('{"v":1,"kind":"cmd","meta":{"k":"%s"}}' if where == "value"
            else '{"v":1,"kind":"cmd","meta":{"%s":"v"}}') % text
    with pytest.raises(WireError) as exc:
        decode_body(body.encode("ascii"))
    assert exc.value.code == "malformed"


def test_escapes_that_decode_to_text_are_admitted():
    body = rb'{"v":1,"kind":"cmd","pair":"\ud83d\ude00","escaped":"\\ud800","e":"\u00e9"}'
    got = decode_body(body)
    assert (got["pair"], got["escaped"], got["e"]) == ("\U0001F600", "\\ud800", "\u00e9")
    assert decode_body(encode_frame(got)[4:]) == got


def test_decode_passes_unknown_kinds_through():
    # the codec stays kind-agnostic so peers can extend the vocabulary
    msg = roundtrip_frame({"kind": "stretch", "x": 1})
    assert msg["kind"] == "stretch"


def test_read_frame_from_blocking_stream():
    raw = encode_frame({"kind": "bye"}) + encode_frame({"kind": "hello", "target": "t"})
    chunks = [raw[i:i + 3] for i in range(0, len(raw), 3)]

    def recv(n):
        if not chunks:
            return b""
        chunk = chunks[0][:n]
        rest = chunks[0][n:]
        if rest:
            chunks[0] = rest
        else:
            chunks.pop(0)
        return chunk

    assert read_frame(recv)["kind"] == "bye"
    assert read_frame(recv)["kind"] == "hello"
    assert read_frame(recv) is None  # clean end of stream


def test_read_frame_mid_frame_eof_is_malformed():
    chunks = [encode_frame({"kind": "bye"})[:10]]

    def recv(n):
        if not chunks:
            return b""
        out = chunks[0][:n]
        rest = chunks[0][n:]
        chunks.pop(0)
        if rest:
            chunks.insert(0, rest)
        return out

    with pytest.raises(WireError) as exc:
        read_frame(recv)
    assert exc.value.code == "malformed"


# ---------------------------------------------------------------------------
# entry and event codecs

def test_document_entry_roundtrip():
    e = document_entry("d1", b"\x00binary\xff", "text/plain", meta={"topic": "news"})
    back = entry_from_json(roundtrip_frame({"kind": "x", "entry": entry_to_json(e)})["entry"])
    assert back == e


def test_port_entry_roundtrip_carries_filters_as_text():
    spec = PortSpec("forwarder", {"target": "npc://h:1/r"},
                    input_filter=parse_filter('entry.kind == "document"'),
                    output_filter=parse_filter('false'),
                    receive_flag=True, cursor=7, priority=-2)
    e = port_entry("fwd", spec, meta={"firewall": "deny out *:* *"})
    d = entry_to_json(e)
    assert d["input_filter"] == 'entry.kind == "document"'
    back = entry_from_json(d)
    assert back == e


def test_node_entry_roundtrip():
    e = node_entry("sub", meta={"origin-node": "npc://h:1/r"})
    assert entry_from_json(entry_to_json(e)) == e


def test_entry_from_json_rejects_garbage():
    for bad in [
        {"name": "a b", "kind": "document", "content_b64": ""},
        {"name": "a", "kind": "widget"},
        {"name": "a", "kind": "document", "content_b64": "@@"},
        {"name": "a", "kind": "document", "meta": {"x": 1}},
        {"name": "a", "kind": "port"},
        {"name": "a", "kind": "port", "behavior": ""},
        {"name": "a", "kind": "port", "behavior": "manual", "cursor": 0},
        {"name": "a", "kind": "port", "behavior": "manual", "cursor": True},
        {"name": "a", "kind": "port", "behavior": "manual", "priority": False},
        {"name": "a", "kind": "port", "behavior": "manual", "receive_flag": "false"},
        {"name": "a", "kind": "port", "behavior": "manual", "receive_flag": 1},
        {"name": "a", "kind": "port", "behavior": "manual", "input_filter": "(("},
        {"name": "a", "kind": "port", "behavior": "manual", "output_filter": 7},
        "not a dict",
    ]:
        with pytest.raises(WireError) as exc:
            entry_from_json(bad)
        assert exc.value.code == "malformed"


def test_event_roundtrip_random(rng):
    for _ in range(300):
        ev = rand_event(rng)
        if rng.random() < 0.3:
            ev = Event(ev.kind, origin_port=ev.origin_port, entry=ev.entry,
                       subscription=ev.subscription, filter=rand_filter(rng),
                       label=ev.label, seq=rng.randrange(1, 100),
                       created_at=rng.randrange(0, 10**6))
        back = event_from_json(roundtrip_frame({"kind": "event",
                                                "event": event_to_json(ev)})["event"])
        assert back == ev


def test_event_from_json_rejects_garbage():
    for bad in [
        {"kind": "Explode"},
        {"kind": "Insert", "entry": {"name": "a", "kind": "widget"}},
        {"kind": "Insert", "seq": "three"},
        {"kind": "Insert", "seq": True},
        {"kind": "Insert", "created_at": False},
        {"kind": "Receive", "filter": "not ("},
        {"kind": "Resume", "subscription": 4},
        [],
    ]:
        with pytest.raises(WireError):
            event_from_json(bad)


def test_stamped_insert_event_survives_the_wire():
    e = document_entry("d", b"payload")
    ev = Event(INSERT, origin_port="in", entry=e, seq=42, created_at=1234)
    assert event_from_json(event_to_json(ev)) == ev


# ---------------------------------------------------------------------------
# events and entries spliced into frames

# quotes, backslashes, every control character, non-ASCII and non-BMP text
ALPHABET = ['"', "\\", "/", "\x7f", "é", "ß", "中", " ", "\U0001F600", "\U00010348",
            "a", "Z", "0", " ", "-", "."] + [chr(c) for c in range(0x20)]


def rand_text(rng, most=8):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, most + 1)))


def rand_meta(rng):
    return {rand_text(rng): rand_text(rng) for _ in range(rng.randrange(0, 4))}


def rand_any_filter(rng):
    if rng.random() < 0.5:
        return rand_filter(rng)
    return Cmp("meta." + rng.choice(["topic", "x"]), rng.choice(["==", "matches"]), rand_text(rng))


def rand_any_entry(rng):
    name, meta = rand_text(rng) or "n", rand_meta(rng)
    kind = rng.choice(["document", "node", "port"])
    if kind == "document":
        return document_entry(name, rng.randbytes(rng.randrange(0, 40)), rand_text(rng), meta)
    if kind == "node":
        return node_entry(name, meta)
    spec = PortSpec(rand_text(rng) or "b", rand_meta(rng), rand_any_filter(rng),
                    rand_any_filter(rng), receive_flag=rng.random() < 0.5,
                    cursor=rng.randrange(1, 10**6), priority=rng.randrange(-9, 10))
    return port_entry(name, spec, meta)


def rand_any_event(rng):
    kind = rng.choice(sorted(KINDS))
    maybe = lambda make: make() if rng.random() < 0.5 else None
    return Event(kind, origin_port=rand_text(rng),
                 entry=rand_any_entry(rng) if kind in (INSERT, REMOVE) else maybe(
                     lambda: rand_any_entry(rng)),
                 subscription=maybe(lambda: rand_text(rng)),
                 filter=maybe(lambda: rand_any_filter(rng)),
                 label=maybe(lambda: rand_text(rng)),
                 seq=rng.randrange(0, 10**9), created_at=rng.randrange(0, 10**12))


def rand_message(rng):
    events = lambda: [rand_any_event(rng) for _ in range(rng.randrange(0, 4))]
    return rng.choice([
        lambda: {"kind": "hello", "target": rand_text(rng)},
        lambda: {"kind": "cmd", "op": rand_text(rng), "name": rand_text(rng),
                 "filter": print_filter(rand_any_filter(rng)), "max": rng.randrange(0, 9)},
        lambda: {"kind": "error", "code": rand_text(rng), "message": rand_text(rng, 20)},
        lambda: {"kind": "event", "event": rand_any_event(rng)},
        lambda: {"kind": "ack", "events": events(), "last": rng.randrange(0, 99),
                 "at_end": rng.random() < 0.5},
        lambda: {"kind": "ack", "entry": rand_any_entry(rng)},
        lambda: {"kind": "ack", "entries": [rand_any_entry(rng)
                                            for _ in range(rng.randrange(0, 4))]},
        lambda: {"kind": "ack", "name": rand_text(rng), "meta": rand_meta(rng),
                 "count": rng.randrange(0, 9), "done": True, "gone": None},
    ])()


def rand_plain(rng, depth=0):
    """A JSON value of any plain type, nested up to three levels."""
    makers = [lambda: True, lambda: False, lambda: None, lambda: rand_text(rng),
              lambda: rng.randrange(-10**12, 10**12), lambda: -rng.randrange(1, 10)]
    if depth < 3:
        makers += [lambda: [rand_plain(rng, depth + 1) for _ in range(rng.randrange(0, 4))],
                   lambda: {rand_text(rng): rand_plain(rng, depth + 1)
                            for _ in range(rng.randrange(0, 4))},
                   lambda: [{rand_text(rng): rand_plain(rng, depth + 1)}
                            for _ in range(rng.randrange(0, 3))],
                   lambda: []]
    return rng.choice(makers)()


def rand_plain_message(rng):
    """Plain values under escaped and non-ASCII keys, alone or beside an
    event, an unstamped node-issued Insert (a query result) or entries."""
    msg = {rand_text(rng): rand_plain(rng) for _ in range(rng.randrange(0, 6))}
    msg["kind"] = rng.choice(["ack", "event", rand_text(rng)])
    extra = rng.choice([
        lambda: {},
        lambda: {"event": rand_any_event(rng)},
        lambda: {"event": insert_event(rand_any_entry(rng))},
        lambda: {rand_text(rng): [rand_any_entry(rng) for _ in range(rng.randrange(1, 3))]},
    ])()
    return {**msg, **extra}


def as_dicts(v):
    if isinstance(v, Event):
        return event_to_json(v)
    if isinstance(v, Entry):
        return entry_to_json(v)
    if isinstance(v, list):
        return [as_dicts(x) for x in v]
    return v


def test_events_and_entries_encode_to_the_bytes_of_their_dicts(rng):
    for i in range(800):
        msg = rand_message(rng) if i % 2 else rand_plain_message(rng)
        dicts = {k: as_dicts(v) for k, v in msg.items()}
        body = json.dumps({**dicts, "v": 1}, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8")
        expected = struct.pack(">I", len(body)) + body
        assert encode_frame(dicts) == expected
        assert encode_frame(msg) == expected
        assert encode_frame(msg) == expected  # again, from the entries' kept bytes


def framed_json(msg: dict) -> bytes:
    """The frame of ``msg`` as ``json.dumps`` writes its dicts."""
    body = json.dumps({**{k: as_dicts(v) for k, v in msg.items()}, "v": 1}, sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def test_an_event_frame_is_its_events_bytes_between_constants(rng, monkeypatch):
    """A message that is one event and nothing else skips the general path,
    and its frame is byte for byte the one that path writes; one with
    another key, or of another kind, takes the general path."""
    general = []
    body = wire._body
    monkeypatch.setattr(wire, "_body", lambda msg: general.append(msg) or body(msg))
    for _ in range(600):
        ev = rand_any_event(rng)
        ev = rng.choice([ev, ev._replace(seq=0, created_at=0), insert_event(rand_any_entry(rng))])
        msg = {"kind": "event", "event": ev}
        frame = encode_frame(msg)
        assert general == []
        data = body({**msg, "v": 1})
        assert frame == struct.pack(">I", len(data)) + data == framed_json(msg)
        for other in ({**msg, rand_text(rng): rand_plain(rng)},
                      {**msg, "kind": rng.choice(["ack", "error", rand_text(rng)])},
                      {**msg, "event": event_to_json(ev)}):
            assert encode_frame(other) == framed_json(other)
            assert len(general) == 1
            general.clear()


def test_a_get_reply_is_never_larger_than_its_bound_and_its_content_counts_exactly(rng):
    for _ in range(300):
        doc = document_entry(rand_text(rng) or "n", rng.randbytes(rng.randrange(0, 40)),
                             rand_text(rng), rand_meta(rng))
        slack = {}
        for extra in range(4):
            grown = document_entry(doc.name, doc.payload.content + b"x" * extra,
                                   doc.payload.media_type, doc.meta)
            reply = encode_frame({"kind": "ack", "entry": grown})
            slack[extra] = wire.get_reply_bound(grown) - (len(reply) - 4)
        assert min(slack.values()) >= 0
        assert len(set(slack.values())) == 1, slack  # content is never over-counted


def test_a_document_keeps_its_bytes_and_a_port_does_not():
    doc = document_entry("d", b"payload", meta={"k": "v"})
    port = port_entry("p", PortSpec("manual"))
    for e in (doc, port):
        assert entry_bytes(e) == json.dumps(entry_to_json(e), sort_keys=True,
                                            separators=(",", ":")).encode()
    assert doc._wire == entry_bytes(doc)
    assert port._wire is None
    port.payload.config["changed"] = "yes"  # a spec may change; the encoding follows
    assert b'"changed":"yes"' in entry_bytes(port)


def test_a_tagged_copy_never_carries_the_originals_bytes():
    ev = insert_event(document_entry("d", b"payload"))
    event_bytes(ev)
    assert ev.entry._wire is not None
    tagged = tagged_with_origin(ev, "npc://a:7070/root")
    assert tagged.entry._wire is None
    assert b'"origin-node":"npc://a:7070/root"' in event_bytes(tagged)
    assert b"origin-node" not in event_bytes(ev)
