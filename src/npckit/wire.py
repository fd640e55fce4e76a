"""Channel wire format: length-prefixed JSON frames plus object codecs.

A frame is a 32-bit big-endian body length followed by that many bytes of
UTF-8 JSON.  Every body is an object carrying ``v`` (protocol version, 1)
and ``kind``.  The codec does not interpret kinds beyond that; unknown
kinds are the receiver's problem, which keeps old peers talking to new
ones.  Bodies over 16 MiB are refused before the body is read.

A message handed to ``encode_frame`` may carry ``Event`` and ``Entry``
values, alone or in a list.  Their JSON is spliced into the body.  A
document or node entry is encoded once: it keeps the whole frame of the
unstamped node-issued Insert that a local query streams it in, length
prefix included, and that frame is the answer for such a message.  Every
other frame that carries the entry splices in its JSON, a view into the
kept frame.  A copy of an entry with other metadata, as a replica tagged
with ``origin-node`` is, gets its frame by splicing its metadata into the
original's (``with_meta``).  A message that is one event and nothing else,
as every pushed event is, is written as constant bytes around the
event's.  The body is byte for byte what the ``event_to_json`` and
``entry_to_json`` dicts would give.
"""

from __future__ import annotations

import base64
import json
import struct
from json.encoder import encode_basestring as _str  # json.dumps' own, ensure_ascii off

from .filters import FilterExpr, parse_filter, print_filter
from .history import Event, INSERT, KINDS, NODE_ORIGIN
from .model import (DOCUMENT, Document, Entry, NODE, NodeRef, PORT, PortSpec,
                    valid_name)

VERSION = 1
MAX_BODY = 16 * 1024 * 1024

HELLO = "hello"
EVENT = "event"
PULL = "pull"
ACK = "ack"
ERROR = "error"
BYE = "bye"
CMD = "cmd"


class WireError(Exception):
    def __init__(self, code: str, message: str = "", field: str | None = None):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.field = field  # the key whose value is at fault, when one is


_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, sort_keys=True).encode


def _json(obj) -> bytes:
    return _encode(obj).encode("utf-8")


def room_in(msg: dict) -> int:
    """Bytes left under ``MAX_BODY`` in the body of ``msg``'s frame."""
    return MAX_BODY - len(_body({**msg, "v": VERSION}))


# the frame a local query streams an entry in: an unstamped node-issued
# Insert of it, and nothing else, where only the entry's JSON varies
_EVENT_HEAD = b'{"event":'
_EVENT_TAIL = b',"kind":"event","v":%d}' % VERSION
_RESULT_HEAD = _EVENT_HEAD + b'{"created_at":0,"entry":'
_RESULT_TAIL = b',"kind":"Insert","origin_port":"@node","seq":0}' + _EVENT_TAIL
_AT, _END = 4 + len(_RESULT_HEAD), -len(_RESULT_TAIL)  # where the entry's JSON is
_EVENT_AT, _EVENT_END = 4 + len(_EVENT_HEAD), -len(_EVENT_TAIL)  # and the event's


def _framed(*parts: bytes) -> bytes:
    """The frame whose body is ``parts`` joined."""
    return b"".join((struct.pack(">I", sum(map(len, parts))), *parts))


def result_frame(entry: Entry) -> bytes:
    """The frame of ``{"kind": "event", "event": insert_event(entry)}``.
    A document or node entry keeps it the first time; a port's is encoded
    afresh, since its spec may change."""
    frame = entry._wire
    if frame is None:
        frame = _framed(_RESULT_HEAD, _json(entry_to_json(entry)), _RESULT_TAIL)
        if entry.kind != PORT:
            object.__setattr__(entry, "_wire", frame)
    return frame


def entry_bytes(entry: Entry) -> bytes | memoryview:
    """The JSON of ``entry_to_json(entry)``: a view into its kept frame,
    which copies nothing, or for a port, encoded afresh."""
    if entry.kind == PORT:
        return _json(entry_to_json(entry))
    return memoryview(result_frame(entry))[_AT:_END]


def _spliced(frame: bytes, meta) -> bytes:
    """``frame``, an entry's kept frame, with ``meta``'s JSON in place of
    the entry's metadata.  That object lies between the first ``,"meta":``
    after the entry starts and the last ``,"name":``: neither sequence can
    stand unescaped inside a JSON string, and only the metadata, which
    comes between them, can hold another."""
    start = frame.index(b',"meta":', _AT) + 8
    end = frame.rindex(b',"name":')
    view = memoryview(frame)
    return _framed(view[4:start], _json(dict(meta)), view[end:])


def with_meta(entry: Entry, meta) -> Entry:
    """A copy of ``entry`` with the metadata ``meta``.  A document's or
    node's copy keeps the original's frame with ``meta`` spliced in, so the
    two share one encoding of the content."""
    copy = Entry(entry.name, meta, entry.kind, entry.payload)
    if entry.kind != PORT:
        object.__setattr__(copy, "_wire", _spliced(result_frame(entry), copy.meta))
    return copy


_FILTER, _LABEL, _SUBSCRIPTION = ',"filter":', ',"label":', ',"subscription":'


def _is_result(ev: Event) -> bool:
    """Whether ``ev`` is an unstamped node-issued Insert, as a query result is."""
    return not ev.seq and ev.entry is not None and ev == (INSERT, NODE_ORIGIN, ev.entry,
                                                          None, None, None, 0, 0)


def event_bytes(ev: Event) -> bytes | memoryview:
    """The JSON of ``event_to_json(ev)``, its fields written around the
    entry's own bytes; a query result's is a view into its kept frame."""
    if _is_result(ev):
        return memoryview(result_frame(ev.entry))[_EVENT_AT:_EVENT_END]
    kind, origin, entry, sub, filt, label, seq, created = ev
    tail = (f'{"" if filt is None else _FILTER + _str(print_filter(filt))},"kind":{_str(kind)}'
            f'{"" if label is None else _LABEL + _str(label)},"origin_port":{_str(origin)}'
            f',"seq":{seq}{"" if sub is None else _SUBSCRIPTION + _str(sub)}}}').encode("utf-8")
    if entry is None:
        return b'{"created_at":%d%s' % (created, tail)
    return b'{"created_at":%d,"entry":%s%s' % (created, entry_bytes(entry), tail)


# how a value of each type is written: events and entries from their own
# bytes, spliced into the body, as are bytes, which are JSON text already;
# plain values as JSON text
_SPLICED = {Event: event_bytes, Entry: entry_bytes, bytes: lambda v: v, memoryview: lambda v: v}
_PLAIN = {str: _str, int: int.__repr__, bool: lambda v: "true" if v else "false",
          type(None): lambda v: "null"}


def _item(v: Event | Entry | bytes | memoryview) -> bytes:
    return _SPLICED[type(v)](v)


def _body(body: dict) -> bytes:
    """``_json(body)``, with the values that are events and entries, or
    lists of them, spliced in from their own bytes.  An event or entry is
    spliced only as a value of ``body`` or an item of a list that starts
    with one; a body without any takes one call of the C encoder."""
    for v in body.values():  # the same test as below, inline: every frame takes it
        if type(v) in _SPLICED or (type(v) is list and v and type(v[0]) in _SPLICED):
            break
    else:
        return _json(body)
    parts, text = [], "{"  # text: what comes after the last spliced value
    for key in sorted(body):
        v = body[key]
        t = type(v)
        if t in _SPLICED:
            data = _SPLICED[t](v)
        elif t is list and v and type(v[0]) in _SPLICED:
            data = b"[" + b",".join(map(_item, v)) + b"]"
        else:
            text += f"{_str(key)}:{_PLAIN.get(t, _encode)(v)},"
            continue
        parts += (f"{text}{_str(key)}:".encode("utf-8"), data)
        text = ","
    parts.append(text[:-1].encode("utf-8") + b"}")
    return b"".join(parts)


def encode_frame(msg: dict) -> bytes:
    """Serialize a message dict (without ``v``; it is added here).  A value
    may be an ``Event`` or ``Entry``, or a list of them, or of their JSON
    as ``event_bytes`` and ``entry_bytes`` give it.  A query result's
    frame is the kept frame of its entry, the very object."""
    if len(msg) == 2 and msg.get("kind") == EVENT and type(ev := msg.get("event")) is Event:
        if _is_result(ev):
            frame = result_frame(ev.entry)
            if len(frame) - 4 > MAX_BODY:
                raise WireError("oversize", f"{len(frame) - 4} byte body")
            return frame
        data = _EVENT_HEAD + event_bytes(ev) + _EVENT_TAIL
    else:
        data = _body({**msg, "v": VERSION})
    if len(data) > MAX_BODY:
        raise WireError("oversize", f"{len(data)} byte body")
    return struct.pack(">I", len(data)) + data


_decoder = json.JSONDecoder()


def check_text(value) -> None:
    """Raise ``malformed`` when a string in ``value``, a decoded JSON value,
    holds a lone surrogate: a JSON escape such as ``\\ud800`` decodes to
    one, and no frame can then encode it.  An ASCII string is passed over
    unencoded."""
    todo = [value]
    while todo:
        v = todo.pop()
        if type(v) is str:
            if not v.isascii():
                try:
                    v.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise WireError("malformed",
                                    f"text holds a lone surrogate ({e.reason})") from None
        elif type(v) is dict:
            todo += v
            todo += v.values()
        elif type(v) is list:
            todo += v


def decode_body(data: bytes) -> dict:
    try:
        text = data.decode("utf-8")
        try:  # the decoder's C core reads a body as frames carry it, with no space around
            body, end = _decoder.scan_once(text, 0)
        except StopIteration:  # no JSON value at the start
            end = -1
        if end != len(text):  # space around it, trailing data, or no value: the full rules
            body = _decoder.decode(text)
        # only a \u escape can make a lone surrogate; the search for one
        # byte is memchr's, so a body with no backslash pays next to nothing
        if b"\\" in data and b"\\u" in data:
            check_text(body)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nested deeper than the decoder's C core recurses
        raise WireError("malformed", str(e))
    if type(body) is not dict:
        raise WireError("malformed", "frame body is not an object")
    if body.get("v") != VERSION:
        raise WireError("bad-version", f"got {body.get('v')!r}")
    kind = body.get("kind")
    if not isinstance(kind, str) or not kind:
        raise WireError("malformed", "missing kind")
    return body


class FrameBuffer:
    """Incremental frame decoder: feed bytes in, pop messages out.

    The length prefix is checked as soon as it is complete, so an oversize
    announcement fails fast without buffering the body.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def _end(self) -> int:
        """Where the frame at the front ends, or its length prefix until that is in."""
        if len(self._buf) < 4:
            return 4
        (length,) = struct.unpack_from(">I", self._buf)
        if length > MAX_BODY:
            raise WireError("oversize", f"{length} byte body announced")
        return 4 + length

    def needed(self) -> int:
        """How many more bytes the frame at the front takes to be whole."""
        return max(self._end() - len(self._buf), 0)

    def pop(self) -> dict | None:
        end = self._end()
        if len(self._buf) < end:
            return None
        data = bytes(self._buf[4:end])
        del self._buf[:end]
        return decode_body(data)


def read_frame(recv) -> dict | None:
    """Read one frame from a blocking byte source, never past its end.

    ``recv(n)`` must return up to n bytes, empty at end of stream.  Returns
    None on a clean end of stream before a frame starts.
    """
    frames = FrameBuffer()
    while n := frames.needed():
        chunk = recv(n)
        if not chunk:
            if not frames._buf:  # nothing of a frame read yet
                return None
            raise WireError("malformed", "stream ended mid-frame")
        frames.feed(chunk)
    return frames.pop()


def bye_frame() -> bytes:
    return encode_frame({"kind": BYE})


# ---------------------------------------------------------------------------
# value rules, each written once; a value that breaks one is malformed

def get_int(d: dict, key: str, default: int | None, low: int | None = None,
            high: int | None = None) -> int | None:
    """``d[key]``, or ``default`` when absent: an integer (a JSON boolean
    is not one) from ``low`` to ``high``, or null where the default is."""
    v = d.get(key, default)
    if v is None and default is None:
        return None
    if type(v) is not int or (low is not None and v < low) or (high is not None and v > high):
        raise WireError("malformed", f"bad {key} {v!r}", key)
    return v


def get_string_map(d: dict, key: str) -> dict:
    """``d[key]``, or an empty map when absent: an object of strings."""
    v = d.get(key, {})
    if not isinstance(v, dict) or not all(
            isinstance(k, str) and isinstance(x, str) for k, x in v.items()):
        raise WireError("malformed", f"{key} is not a string map", key)
    return v


def _get_filter(d: dict, key: str) -> FilterExpr:
    """``d[key]``, or ``true`` when absent: filter text, parsed."""
    try:
        return parse_filter(d.get(key, "true"))
    except Exception as e:  # FilterError, TypeError on text that is not a string
        raise WireError("malformed", f"{key} does not parse: {e}", key)


# ---------------------------------------------------------------------------
# object codecs

def content_b64(doc: Document) -> str:
    return base64.b64encode(doc.content).decode("ascii")


# the body of a query result for a document whose strings are all empty
_RESULT_EMPTY = len(_RESULT_HEAD + b'{"content_b64":"","kind":"document","media_type":"",'
                    b'"meta":{},"name":""}' + _RESULT_TAIL)


def result_frame_bound(doc: Entry) -> int:
    """An upper bound on the body of the query result that carries the
    document ``doc``, from lengths alone, with nothing encoded.  That is
    the largest frame that carries a stored document whole and unchanged:
    a ``get`` reply or a ``fetch`` answer holds less around it.  Its
    content counts exactly: base64 writes n bytes as 4 * ceil(n / 3).
    Each character of its name, media type and metadata counts 6 bytes,
    the most JSON text takes for one (``\\u001f``), and each metadata item
    6 more for its quotes, colon and comma."""
    meta, payload = doc.meta, doc.payload
    chars = len(doc.name) + len(payload.media_type)
    if meta:  # the sums cost more than the rest: a document without metadata skips them
        chars += len(meta) + sum(map(len, meta)) + sum(map(len, meta.values()))
    return _RESULT_EMPTY + (len(payload.content) + 2) // 3 * 4 + 6 * chars


def entry_to_json(entry: Entry) -> dict:
    out: dict = {"name": entry.name, "kind": entry.kind, "meta": dict(entry.meta)}
    p = entry.payload
    if entry.kind == DOCUMENT and isinstance(p, Document):
        out["content_b64"] = content_b64(p)
        out["media_type"] = p.media_type
    elif entry.kind == PORT and isinstance(p, PortSpec):
        out["behavior"] = p.behavior
        out["config"] = dict(p.config)
        out["input_filter"] = print_filter(p.input_filter)
        out["output_filter"] = print_filter(p.output_filter)
        out["receive_flag"] = p.receive_flag
        out["cursor"] = p.cursor
        out["priority"] = p.priority
    return out


def entry_from_json(d: dict, kind: str | None = None,
                    media_type: str = "application/octet-stream",
                    text_field: str | None = None) -> Entry:
    """The entry ``d`` describes: the one parser of entries, on channels
    and in config files.  The keywords serve ``server.parse_entry_def``:
    the ``kind`` and ``media_type`` where ``d`` has none, and a field that
    may hold a document's content as UTF-8 text."""
    if not isinstance(d, dict):
        raise WireError("malformed", "entry is not an object")
    name = d.get("name")
    if not valid_name(name):
        raise WireError("malformed", f"bad entry name {name!r}", "name")
    meta = get_string_map(d, "meta")  # Entry keeps a copy
    kind = d.get("kind", kind)
    if kind == DOCUMENT:
        if text_field in d and "content_b64" not in d:
            text = d[text_field]
            if not isinstance(text, str):
                raise WireError("malformed", f"{text_field} is not a string", text_field)
            content = text.encode("utf-8")
        else:
            try:
                content = base64.b64decode(d.get("content_b64", ""), validate=True)
            except (TypeError, ValueError):
                raise WireError("malformed", "content_b64 is not base64", "content_b64")
        media = d.get("media_type", media_type)
        if not isinstance(media, str):
            raise WireError("malformed", "media_type is not a string", "media_type")
        return Entry(name, meta, DOCUMENT, Document(content, media))
    if kind == NODE:
        return Entry(name, meta, NODE, NodeRef())
    if kind == PORT:
        behavior = d.get("behavior")
        if not isinstance(behavior, str) or not behavior:
            raise WireError("malformed", "port entry without behavior", "behavior")
        flag = d.get("receive_flag", False)
        if type(flag) is not bool:  # "false" would read as true
            raise WireError("malformed", f"bad receive_flag {flag!r}", "receive_flag")
        spec = PortSpec(behavior, dict(get_string_map(d, "config")),
                        _get_filter(d, "input_filter"), _get_filter(d, "output_filter"),
                        receive_flag=flag,
                        cursor=get_int(d, "cursor", 1, low=1),
                        priority=get_int(d, "priority", 0))
        return Entry(name, meta, PORT, spec)
    raise WireError("malformed", f"unknown entry kind {kind!r}", "kind")


def event_to_json(ev: Event) -> dict:
    out: dict = {"kind": ev.kind, "origin_port": ev.origin_port,
                 "seq": ev.seq, "created_at": ev.created_at}
    if ev.entry is not None:
        out["entry"] = entry_to_json(ev.entry)
    if ev.subscription is not None:
        out["subscription"] = ev.subscription
    if ev.filter is not None:
        out["filter"] = print_filter(ev.filter)
    if ev.label is not None:
        out["label"] = ev.label
    return out


def event_from_json(d: dict) -> Event:
    if not isinstance(d, dict):
        raise WireError("malformed", "event is not an object")
    kind = d.get("kind")
    if type(kind) is not str or kind not in KINDS:  # a list or an object is no kind
        raise WireError("malformed", f"unknown event kind {kind!r}")
    entry = None
    if "entry" in d:
        entry = entry_from_json(d["entry"])
    filt = _get_filter(d, "filter") if "filter" in d else None
    seq = get_int(d, "seq", 0)
    created = get_int(d, "created_at", 0)
    origin = d.get("origin_port", "@node")
    if not isinstance(origin, str):
        raise WireError("malformed", "origin_port is not a string")
    sub = d.get("subscription")
    label = d.get("label")
    if sub is not None and not isinstance(sub, str):
        raise WireError("malformed", "subscription is not a string")
    if label is not None and not isinstance(label, str):
        raise WireError("malformed", "label is not a string")
    return Event(kind, origin_port=origin, entry=entry, subscription=sub,
                 filter=filt, label=label, seq=seq, created_at=created)
