"""Core value types: entry names, URLs, metadata, documents, port specs.

Nodes hold named entries; an entry is a document, a subnode, or a port.
Entries travel inside events as immutable snapshots, so everything here is
value-like and JSON serializable (see :mod:`npckit.wire`).  An entry's
metadata is read-only, so an entry can keep its own wire encoding.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .filters import FilterExpr, TRUE, parse_filter

NAME_RE = re.compile(r"[A-Za-z0-9._-]{1,128}")

DOCUMENT = "document"
NODE = "node"
PORT = "port"


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


class UrlError(ValueError):
    """Malformed URL text."""


_URL_RE = re.compile(r"npc://([A-Za-z0-9.-]+):([0-9]+)((?:/[^/]+)+)")


@dataclass(frozen=True)
class EntryUrl:
    """Address of an entry: host and channel port of its server, then the
    chain of entry names from the root node down."""

    host: str
    tcp_port: int
    path: tuple[str, ...]

    def text(self) -> str:
        return f"npc://{self.host}:{self.tcp_port}/" + "/".join(self.path)

    def __str__(self) -> str:
        return self.text()

    @property
    def name(self) -> str:
        return self.path[-1]

    def parent(self) -> "EntryUrl":
        if len(self.path) < 2:
            raise UrlError(f"no parent path in {self.text()}")
        return EntryUrl(self.host, self.tcp_port, self.path[:-1])

    def child(self, *names: str) -> "EntryUrl":
        return EntryUrl(self.host, self.tcp_port, self.path + tuple(names))


def parse_url(text: str) -> EntryUrl:
    """Parse and normalize URL text (host is lowercased)."""
    m = _URL_RE.fullmatch(text)
    if not m:
        raise UrlError(f"malformed url: {text!r}")
    host, port_text, path_text = m.group(1), m.group(2), m.group(3)
    port = int(port_text)
    if not 1 <= port <= 65535:
        raise UrlError(f"port out of range in {text!r}")
    segments = tuple(path_text[1:].split("/"))
    for seg in segments:
        if not valid_name(seg):
            raise UrlError(f"invalid entry name {seg!r} in {text!r}")
    return EntryUrl(host.lower(), port, segments)


@dataclass(frozen=True, slots=True)
class Document:
    content: bytes
    media_type: str = "application/octet-stream"


@dataclass(frozen=True)
class NodeRef:
    """Payload of a node entry: a marker, here and on the wire."""


@dataclass
class PortSpec:
    """Payload of a port entry.

    ``receive_flag`` and ``cursor`` are the starting delivery state of the
    port's subscriptions; the live state is kept by the node.  ``config`` is
    a string map interpreted by the behavior.
    """

    behavior: str
    config: dict[str, str] = field(default_factory=dict)
    input_filter: FilterExpr = TRUE
    output_filter: FilterExpr = TRUE
    receive_flag: bool = False
    cursor: int = 1
    priority: int = 0


EntryPayload = Document | NodeRef | PortSpec


@dataclass(frozen=True, slots=True)
class Entry:
    """A named document, subnode or port.

    ``meta`` is a read-only view of a private copy of the map it was built
    from.  ``_wire`` is the entry's JSON text, filled in by the first
    ``wire`` encoding of a document or node entry; a copy made with
    ``dataclasses.replace`` starts without it."""

    name: str
    meta: Mapping[str, str]
    kind: str
    payload: EntryPayload
    _wire: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))


def document_entry(name: str, content: bytes, media_type: str = "application/octet-stream",
                   meta: Mapping[str, str] | None = None) -> Entry:
    return Entry(name, meta or {}, DOCUMENT, Document(content, media_type))


def node_entry(name: str, meta: Mapping[str, str] | None = None) -> Entry:
    return Entry(name, meta or {}, NODE, NodeRef())


def port_entry(name: str, spec: PortSpec, meta: Mapping[str, str] | None = None) -> Entry:
    return Entry(name, meta or {}, PORT, spec)


def validate_entry(entry: Entry) -> list[str]:
    """Collect violations of the reserved metadata keys; an empty list
    means ``entry`` may be posted.  The rest of its shape was checked where
    it was parsed, by ``wire.entry_from_json``.

    Reserved keys have kit-defined meaning; other metadata values are
    free-form strings.  Checked here: origin-node tags replicas with the
    URL of the node a copy came from, priority orders candidates for
    exclusive consumption, reply-to routes result entries back to the port
    that asked for them, and input-filter and output-filter hold filter
    text.  Not checked: query carries filter text on query ports, firewall
    holds per-port rule text, exclusive marks entries whose events are
    consumed by a single port.
    """
    problems: list[str] = []
    origin = entry.meta.get("origin-node")
    if origin is not None:
        try:
            parse_url(origin)
        except UrlError:
            problems.append(f"origin-node is not a url: {origin!r}")
    prio = entry.meta.get("priority")
    if prio is not None and not re.fullmatch(r"-?[0-9]+", prio):
        problems.append(f"priority is not an integer: {prio!r}")
    reply_to = entry.meta.get("reply-to")
    if reply_to is not None and not valid_name(reply_to):
        problems.append(f"reply-to is not an entry name: {reply_to!r}")
    for key in ("input-filter", "output-filter"):
        text = entry.meta.get(key)
        if text is not None:
            try:
                parse_filter(text)
            except Exception:
                problems.append(f"{key} does not parse: {text!r}")
    return problems
