"""The HTTP facade, in sim mode and over a real socket.

The real-mode tests share one server on port 0 and open at most three
sockets each.
"""

import socket
import time
import urllib.error
import urllib.request

import pytest

from conftest import on_driver, wait_for
from npckit.behaviors import RequestBehavior
from npckit.history import NODE_ORIGIN, insert_event
from npckit.cli import NpcClient
from npckit.httpd import MAX_HEAD, http_request, split_resource_path
from npckit.model import PORT, document_entry
from npckit.ports import BEHAVIORS
from npckit.server import Server, ServerConfig
from npckit.wire import MAX_BODY


def make_server(**extra):
    cfg = {"host": "web", "npc_tcp_port": 7070,
           "root": {"entries": [
               {"name": "page", "kind": "document", "content_text": "original",
                "media_type": "text/plain"},
               {"name": "admin", "kind": "port", "behavior": "admin"},
           ]}}
    cfg.update(extra)
    return Server(ServerConfig.from_dict(cfg), clock=lambda: 0)


def test_split_resource_path():
    assert split_resource_path("/root/page") == (("root",), "page")
    assert split_resource_path("/root/sub/deep") == (("root", "sub"), "deep")
    assert split_resource_path("/root/page?x=1") == (("root",), "page")
    assert split_resource_path("/root") is None
    assert split_resource_path("/") is None
    assert split_resource_path("/root/bad name") is None


def test_get_existing_document():
    s = make_server()
    status, headers, body = http_request(s, "GET", "/root/page")
    assert status == 200
    assert body == b"original"
    assert ("Content-Type", "text/plain") in headers


def test_get_missing_document_is_404():
    s = make_server()
    status, _, _ = http_request(s, "GET", "/root/ghost")
    assert status == 404


def test_get_non_document_is_404():
    s = make_server()
    status, _, _ = http_request(s, "GET", "/root/admin")
    assert status == 404


def test_put_then_get_then_delete_cycle():
    s = make_server()
    blob = bytes(range(256))
    status, _, _ = http_request(s, "PUT", "/root/fresh", blob,
                                "application/octet-stream")
    assert status == 201
    status, headers, body = http_request(s, "GET", "/root/fresh")
    assert status == 200 and body == blob
    status, _, _ = http_request(s, "DELETE", "/root/fresh")
    assert status == 204
    status, _, _ = http_request(s, "GET", "/root/fresh")
    assert status == 404


def test_request_ports_clean_up_after_themselves():
    s = make_server()
    baseline = {n for n, e in s.root.entries.items() if e.kind == PORT}
    for _ in range(5):
        http_request(s, "GET", "/root/page")
        http_request(s, "GET", "/root/ghost")
    after = {n for n, e in s.root.entries.items() if e.kind == PORT}
    assert after == baseline


def test_unknown_method_is_405():
    s = make_server()
    status, _, _ = http_request(s, "POST", "/root/page", b"data")
    assert status == 405


def test_malformed_path_is_400():
    s = make_server()
    status, _, _ = http_request(s, "GET", "/")
    assert status == 400


def test_facade_over_real_socket():
    s = make_server(npc_tcp_port=0, http_port=0)
    s.real = True
    s.start()
    try:
        base = f"http://127.0.0.1:{s.httpd.port}"
        req = urllib.request.Request(f"{base}/root/pushed", data=b"over http",
                                     method="PUT",
                                     headers={"Content-Type": "text/plain"})
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 201
        with urllib.request.urlopen(f"{base}/root/pushed", timeout=5) as resp:
            assert resp.status == 200
            assert resp.read() == b"over http"
        req = urllib.request.Request(f"{base}/root/pushed", method="DELETE")
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 204
        try:
            urllib.request.urlopen(f"{base}/root/pushed", timeout=5)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as e:
            assert e.code == 404
    finally:
        s.stop()


@pytest.fixture(scope="module")
def web():
    s = make_server(host="127.0.0.1", npc_tcp_port=0, http_port=0)
    s.real = True
    s.start()
    yield s
    s.stop()


def http_socket(server: Server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.httpd.port), timeout=5)


def answer(sock: socket.socket) -> tuple[int, bytes]:
    """Status and body of the response, read to the end of the stream: the
    server closes after every answer."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *fields = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.0 "), status_line
    assert f"Content-Length: {len(body)}" in fields
    return int(status_line.split(" ")[1]), body


def exchange(server: Server, request: bytes) -> tuple[int, bytes]:
    with http_socket(server) as s:
        s.sendall(request)
        return answer(s)


def test_a_stalled_partial_head_delays_neither_a_get_nor_an_npc_list(web):
    with http_socket(web) as stalled:
        stalled.sendall(b"GET /root/page HTTP/1.0\r\nHost: x")
        time.sleep(0.05)
        t0 = time.monotonic()
        assert exchange(web, b"GET /root/page HTTP/1.0\r\n\r\n") == (200, b"original")
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        client = NpcClient(f"npc://127.0.0.1:{web.advertised_port}/root/admin", timeout=5)
        try:
            assert client.roundtrip({"kind": "cmd", "op": "list"})["kind"] == "ack"
        finally:
            client.close()
        assert time.monotonic() - t0 < 1.0
        # the stalled request is still whole once the rest arrives
        stalled.sendall(b"\r\n\r\n")
        assert answer(stalled) == (200, b"original")


@pytest.mark.parametrize("cut", [6, 50], ids=["in-head", "in-body"])
def test_a_request_split_across_two_sends_is_answered(web, cut):
    request = b"PUT /root/split HTTP/1.0\r\nContent-Length: 12\r\n\r\nsplit across"
    assert request.index(b"\r\n\r\n") < 50 < len(request)
    with http_socket(web) as s:
        s.sendall(request[:cut])
        time.sleep(0.05)
        s.sendall(request[cut:])
        assert answer(s) == (201, b"created\n")
    assert exchange(web, b"GET /root/split HTTP/1.0\r\n\r\n") == (200, b"split across")


@pytest.mark.parametrize("request_bytes, status", [
    (b"NONSENSE\r\n\r\n", 400),
    (b"PUT /root/x HTTP/1.0\r\nContent-Length: -1\r\n\r\n", 400),
    (b"POST /root/page HTTP/1.0\r\nContent-Length: 4\r\n\r\ndata", 405),
    (f"PUT /root/x HTTP/1.0\r\nContent-Length: {MAX_BODY + 1}\r\n\r\n".encode(), 413),
    # one byte over the limit, and no end of head in sight
    ((b"GET /root/page HTTP/1.0\r\nX-Pad: " + b"a" * MAX_HEAD)[:MAX_HEAD + 1], 431),
], ids=["request-line", "content-length", "method", "body-too-large", "head-too-large"])
def test_a_bad_request_is_answered_and_closed(web, request_bytes, status):
    # answer() reads to the end of the stream: the server has closed
    assert exchange(web, request_bytes)[0] == status
    assert "x" not in web.root.entries


class SilentRequest(RequestBehavior):
    """A request port that leaves its client waiting."""

    def on_start(self) -> None:
        pass


def test_a_client_that_hangs_up_before_its_answer_leaves_no_request_port(web, monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "request", SilentRequest)

    def waiting():
        return on_driver(web, lambda: [n for n in web.root.entries if n.startswith("req-")])

    with http_socket(web) as s:
        s.sendall(b"GET /root/page HTTP/1.0\r\n\r\n")
        wait_for(waiting, "no request port took the GET")
    wait_for(lambda: not waiting(), "the request port outlived its client")
    assert web.faults == 0


def test_a_media_type_that_is_no_header_value_is_still_served(web):
    """Any string can be a document's media type over npc-tcp; HTTP sends
    it on one line, in Latin-1."""
    doc = document_entry("odd", b"odd body", "text/\u20ac\r\nX-Injected: 1")
    on_driver(web, lambda: web.root.post_event(NODE_ORIGIN, insert_event(doc)))
    with http_socket(web) as s:
        s.sendall(b"GET /root/odd HTTP/1.0\r\n\r\n")
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    assert data.startswith(b"HTTP/1.0 200 ") and data.endswith(b"\r\n\r\nodd body")
    assert b"\r\nX-Injected" not in data
    assert web.faults == 0


def test_a_spawned_port_never_takes_the_name_of_an_entry():
    s = make_server()
    assert http_request(s, "PUT", "/root/req-1", b"mine", "text/plain")[0] == 201
    assert http_request(s, "GET", "/root/page")[0] == 200
    assert http_request(s, "GET", "/root/req-1")[2] == b"mine"
