"""Entry names, URLs, and entry values; admission is in test_admission."""

from dataclasses import FrozenInstanceError, replace

import pytest

from npckit.model import (Document, EntryUrl, NodeRef, PortSpec, UrlError,
                          document_entry, node_entry, parse_url, port_entry,
                          valid_name)


def test_valid_names():
    for name in ["a", "A-1", "report.2024_v2", "x" * 128]:
        assert valid_name(name)
    for name in ["", "a b", "a/b", "x" * 129, "päge", "a:b", 7]:
        assert not valid_name(name)


def test_parse_url_roundtrip():
    u = parse_url("npc://Example.ORG:7070/root/sub/doc-1")
    assert u.host == "example.org"
    assert u.tcp_port == 7070
    assert u.path == ("root", "sub", "doc-1")
    assert u.text() == "npc://example.org:7070/root/sub/doc-1"
    assert parse_url(u.text()) == u


def test_url_navigation():
    u = parse_url("npc://h:1/a/b/c")
    assert u.name == "c"
    assert u.parent().path == ("a", "b")
    assert u.child("d", "e").path == ("a", "b", "c", "d", "e")
    with pytest.raises(UrlError):
        parse_url("npc://h:1/a").parent()


@pytest.mark.parametrize("bad", [
    "http://h:1/a",
    "npc://h/a",
    "npc://h:0/a",
    "npc://h:65536/a",
    "npc://h:1",
    "npc://h:1/",
    "npc://h:1//a",
    "npc://h:1/a b",
    "npc:/h:1/a",
    "",
])
def test_parse_url_rejects(bad):
    with pytest.raises(UrlError):
        parse_url(bad)


def test_entry_helpers_pair_kind_and_payload():
    d = document_entry("d", b"body", "text/plain")
    assert d.kind == "document" and d.payload == Document(b"body", "text/plain")
    n = node_entry("n")
    assert n.kind == "node" and isinstance(n.payload, NodeRef)
    p = port_entry("p", PortSpec("manual"))
    assert p.kind == "port" and p.payload.behavior == "manual"


def test_an_entry_is_immutable_and_owns_its_metadata():
    meta = {"topic": "news"}
    e = document_entry("d", b"x", meta=meta)
    with pytest.raises(TypeError):
        e.meta["topic"] = "sports"
    with pytest.raises(FrozenInstanceError):
        e.name = "other"
    meta["topic"] = "sports"
    meta["extra"] = "1"
    assert dict(e.meta) == {"topic": "news"}
    assert e == document_entry("d", b"x", meta={"topic": "news"})


def test_a_replaced_entry_starts_without_kept_bytes():
    e = node_entry("n", meta={"a": "1"})
    object.__setattr__(e, "_wire", b"kept")
    copy = replace(e, meta={**e.meta, "b": "2"})
    assert copy._wire is None
    assert dict(copy.meta) == {"a": "1", "b": "2"} and dict(e.meta) == {"a": "1"}
