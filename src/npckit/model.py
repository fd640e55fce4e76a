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

from .filters import FilterExpr, TRUE
from .filters import parse_filter  # noqa: F401  (wrapped by name in bench/spans.py)

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
    from.  ``_wire`` is the whole frame, length prefix included, of the
    unstamped node-issued Insert of a document or node entry, as a local
    query streams it: filled in by the first ``wire`` encoding of the entry,
    or for a copy made by ``wire.with_meta``, spliced from the original's.
    The entry's JSON is a view into it.  A copy made with ``dataclasses.replace`` starts
    without it."""

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

