"""Channel wire format: length-prefixed JSON frames plus object codecs.

A frame is a 32-bit big-endian body length followed by that many bytes of
UTF-8 JSON.  Every body is an object carrying ``v`` (protocol version, 1)
and ``kind``.  The codec does not interpret kinds beyond that; unknown
kinds are the receiver's problem, which keeps old peers talking to new
ones.  Bodies over 16 MiB are refused before the body is read.
"""

from __future__ import annotations

import base64
import json
import struct

from .filters import parse_filter, print_filter
from .history import Event, KINDS
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
    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False,
                      sort_keys=True).encode("utf-8")


def json_size(obj) -> int:
    """Bytes that ``obj`` takes inside a frame body."""
    return len(_json(obj))


def room_in(msg: dict) -> int:
    """Bytes left under ``MAX_BODY`` in the body of ``msg``'s frame."""
    return MAX_BODY - json_size({**msg, "v": VERSION})


def encode_frame(msg: dict) -> bytes:
    """Serialize a message dict (without ``v``; it is added here)."""
    body = dict(msg)
    body["v"] = VERSION
    data = _json(body)
    if len(data) > MAX_BODY:
        raise WireError("oversize", f"{len(data)} byte body")
    return struct.pack(">I", len(data)) + data


def decode_body(data: bytes) -> dict:
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise WireError("malformed", str(e))
    if not isinstance(body, dict):
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

    def pop(self) -> dict | None:
        if len(self._buf) < 4:
            return None
        (length,) = struct.unpack(">I", self._buf[:4])
        if length > MAX_BODY:
            raise WireError("oversize", f"{length} byte body announced")
        if len(self._buf) < 4 + length:
            return None
        data = bytes(self._buf[4 : 4 + length])
        del self._buf[: 4 + length]
        return decode_body(data)

    def pending(self) -> int:
        return len(self._buf)


def read_frame(recv) -> dict | None:
    """Read one frame from a blocking byte source.

    ``recv(n)`` must return up to n bytes, empty at end of stream.  Returns
    None on a clean end of stream before a frame starts.
    """
    header = _recv_exact(recv, 4, allow_eof=True)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_BODY:
        raise WireError("oversize", f"{length} byte body announced")
    data = _recv_exact(recv, length, allow_eof=False)
    return decode_body(data)


def _recv_exact(recv, n: int, allow_eof: bool):
    buf = bytearray()
    while len(buf) < n:
        chunk = recv(n - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise WireError("malformed", "stream ended mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def bye_frame() -> bytes:
    return encode_frame({"kind": BYE})


# ---------------------------------------------------------------------------
# object codecs

def entry_to_json(entry: Entry) -> dict:
    out: dict = {"name": entry.name, "kind": entry.kind, "meta": dict(entry.meta)}
    p = entry.payload
    if entry.kind == DOCUMENT and isinstance(p, Document):
        out["content_b64"] = base64.b64encode(p.content).decode("ascii")
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


def entry_from_json(d: dict) -> Entry:
    if not isinstance(d, dict):
        raise WireError("malformed", "entry is not an object")
    name = d.get("name")
    kind = d.get("kind")
    meta = d.get("meta", {})
    if not valid_name(name if isinstance(name, str) else ""):
        raise WireError("malformed", f"bad entry name {name!r}")
    if not isinstance(meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in meta.items()):
        raise WireError("malformed", "entry meta is not a string map")
    if kind == DOCUMENT:
        try:
            content = base64.b64decode(d.get("content_b64", ""), validate=True)
        except Exception:
            raise WireError("malformed", "content_b64 is not base64")
        media = d.get("media_type", "application/octet-stream")
        if not isinstance(media, str):
            raise WireError("malformed", "media_type is not a string")
        return Entry(name, dict(meta), DOCUMENT, Document(content, media))
    if kind == NODE:
        return Entry(name, dict(meta), NODE, NodeRef())
    if kind == PORT:
        behavior = d.get("behavior")
        if not isinstance(behavior, str) or not behavior:
            raise WireError("malformed", "port entry without behavior")
        config = d.get("config", {})
        if not isinstance(config, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in config.items()):
            raise WireError("malformed", "port config is not a string map")
        try:
            inp = parse_filter(d.get("input_filter", "true"))
            outp = parse_filter(d.get("output_filter", "true"))
        except Exception as e:
            raise WireError("malformed", f"port filter does not parse: {e}")
        cursor = d.get("cursor", 1)
        priority = d.get("priority", 0)
        if not isinstance(cursor, int) or isinstance(cursor, bool) or cursor < 1:
            raise WireError("malformed", f"bad cursor {cursor!r}")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise WireError("malformed", f"bad priority {priority!r}")
        spec = PortSpec(behavior, dict(config), inp, outp,
                        receive_flag=bool(d.get("receive_flag", False)),
                        cursor=cursor, priority=priority)
        return Entry(name, dict(meta), PORT, spec)
    raise WireError("malformed", f"unknown entry kind {kind!r}")


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
    if kind not in KINDS:
        raise WireError("malformed", f"unknown event kind {kind!r}")
    entry = None
    if "entry" in d:
        entry = entry_from_json(d["entry"])
    filt = None
    if "filter" in d:
        try:
            filt = parse_filter(d["filter"])
        except Exception as e:
            raise WireError("malformed", f"event filter does not parse: {e}")
    seq = d.get("seq", 0)
    created = d.get("created_at", 0)
    if not isinstance(seq, int) or not isinstance(created, int):
        raise WireError("malformed", "seq and created_at must be integers")
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
