"""Socket gateways: the driver thread owns every socket.

The real-mode tests here share one server on port 0 and open at most three
sockets each, except the mirror test, which runs two servers of its own.
"""

import base64
import http.client
import socket
import struct
import threading
import time

import pytest

from conftest import flush, on_driver, wait_for
from npckit import gateways, wire
from npckit.apps import demo_scenario
from npckit.cli import NpcClient, TransportError
from npckit.filters import parse_filter
from npckit.gateways import TcpConn
from npckit.history import NODE_ORIGIN, insert_event
from npckit.model import PortSpec, port_entry
from npckit.server import Server, ServerConfig
from npckit.sim import SimRun, run_scenario
from npckit.wire import MAX_BODY, bye_frame, encode_frame, read_frame

CONFIG = {"host": "127.0.0.1", "npc_tcp_port": 0,
          "root": {"entries": [{"name": "admin", "kind": "port", "behavior": "admin"}]}}


@pytest.fixture(scope="module")
def server():
    s = Server(ServerConfig.from_dict(CONFIG), real=True)
    s.start()
    yield s
    s.stop()


def admin_url(server: Server) -> str:
    return f"npc://127.0.0.1:{server.advertised_port}/root/admin"


def raw(server: Server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.advertised_port), timeout=5)


def hello(server: Server) -> bytes:
    return encode_frame({"kind": "hello", "target": admin_url(server)})


LIST = encode_frame({"kind": "cmd", "op": "list"})


def test_a_stopped_server_leaves_no_thread_and_no_listener():
    before = set(threading.enumerate())
    for _ in range(2):
        s = Server(ServerConfig.from_dict(dict(CONFIG, http_port=0)), real=True)
        s.start()
        ports = [s.advertised_port, s.httpd.port]
        s.stop()
        assert not s._driver.is_alive()
        for port in ports:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=2).close()
    assert set(threading.enumerate()) - before == set()


def test_a_started_server_runs_the_driver_and_no_more():
    before = set(threading.enumerate())
    config = dict(CONFIG, http_port=0, root={"entries": CONFIG["root"]["entries"] + [
        {"name": "page", "kind": "document", "content_text": "hi"}]})
    s = Server(ServerConfig.from_dict(config), real=True)
    s.start()
    clients = []
    try:
        assert set(threading.enumerate()) - before == {s._driver}
        for _ in range(3):
            conn = http.client.HTTPConnection("127.0.0.1", s.httpd.port, timeout=5)
            conn.request("GET", "/root/page")
            assert conn.getresponse().read() == b"hi"
            conn.close()
        clients = [NpcClient(admin_url(s), timeout=5) for _ in range(3)]
        for c in clients:
            assert c.roundtrip({"kind": "cmd", "op": "list"})["kind"] == "ack"
        # three HTTP requests served, three open connections, no thread more
        assert set(threading.enumerate()) - before == {s._driver}
    finally:
        for c in clients:
            c.close()
        s.stop()


@pytest.mark.parametrize("denied", ["http", "npc-tcp"])
def test_inbound_rules_refuse_http_and_npc_tcp_accepts_alike(denied):
    config = dict(CONFIG, http_port=0, firewall=f"deny in *:* {denied}")
    s = Server(ServerConfig.from_dict(config), real=True)
    s.start()
    try:
        web = http.client.HTTPConnection("127.0.0.1", s.httpd.port, timeout=5)
        try:
            web.request("GET", "/root/admin")
            status = web.getresponse().status
        except (http.client.HTTPException, OSError):  # closed unanswered
            status = None
        finally:
            web.close()
        try:
            client = NpcClient(admin_url(s), timeout=5)
            listed = client.roundtrip({"kind": "cmd", "op": "list"})["kind"]
            client.close()
        except TransportError:
            listed = None
        assert (status, listed) == ((None, "ack") if denied == "http" else (404, None))
    finally:
        s.stop()


def test_a_peer_that_says_bye_and_stays_connected_holds_no_socket(server):
    held = 2  # the listener and the waker
    with raw(server) as a, raw(server) as b, raw(server) as c:
        for s in (a, b, c):
            s.sendall(hello(server))
            assert read_frame(s.recv)["kind"] == "hello"
        assert on_driver(server, lambda: len(server._selector.get_map())) >= held + 3
        for s in (a, b, c):
            s.sendall(bye_frame())
        wait_for(lambda: on_driver(server, lambda: len(server._selector.get_map())) == held,
                 "a peer that said bye still holds its socket", within=1)
        for s in (a, b, c):
            assert read_frame(s.recv) is None  # end of stream


class RecordingSocket:
    """Socket stand-in that notes which thread closes it."""

    def __init__(self, sock):
        self._sock = sock
        self.closed_by = []

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def close(self):
        self.closed_by.append(threading.current_thread())
        self._sock.close()


def test_only_the_driver_closes_a_socket_and_only_once(server):
    # one side hangs up locally, the other sees its peer go first
    for peer_first in (False, True):
        ours, theirs = socket.socketpair()
        sock = RecordingSocket(ours)
        got, made = [], []

        def register(sock=sock, got=got, made=made):
            made.append(TcpConn("pair", sock, lambda c, msg: got.append(msg["kind"]),
                                server._selector))

        server.run_soon(register)
        flush(server)
        conn = made[0]
        if peer_first:
            theirs.close()
            wait_for(lambda: sock.closed_by, "the driver did not see the hang-up")
            server.run_soon(conn.close)
        else:
            server.run_soon(conn.close)
            flush(server)
            theirs.settimeout(5)
            assert read_frame(theirs.recv)["kind"] == "bye"
            assert read_frame(theirs.recv) is None
            theirs.close()
        flush(server)
        assert sock.closed_by == [server._driver]
        assert got == (["bye"] if peer_first else [])


@pytest.mark.parametrize("cut", [2, 9], ids=["in-header", "in-body"])
def test_a_hello_split_across_two_sends_is_answered(server, cut):
    with raw(server) as s:
        frame = hello(server)
        s.sendall(frame[:cut])
        time.sleep(0.05)
        s.sendall(frame[cut:])
        assert read_frame(s.recv)["kind"] == "hello"


def test_two_frames_in_one_send_are_both_answered_in_order(server):
    with raw(server) as s:
        s.sendall(hello(server) + LIST)
        assert read_frame(s.recv)["kind"] == "hello"
        reply = read_frame(s.recv)
        assert reply["kind"] == "ack" and [e["name"] for e in reply["entries"]] == ["admin"]


def test_an_announced_oversize_body_closes_only_its_connection(server):
    with raw(server) as bad, raw(server) as good:
        good.sendall(hello(server))
        assert read_frame(good.recv)["kind"] == "hello"
        bad.sendall(hello(server))
        assert read_frame(bad.recv)["kind"] == "hello"
        bad.sendall(struct.pack(">I", MAX_BODY + 1))
        assert read_frame(bad.recv) is None  # end of stream
        good.sendall(LIST)
        assert read_frame(good.recv)["kind"] == "ack"


DEEP_BODY = b"[" * 100000  # nested deeper than the JSON decoder recurses


def test_a_frame_nested_too_deep_ends_only_its_connection_over_tcp(server):
    faults = server.faults
    with raw(server) as bad, raw(server) as good:
        bad.sendall(hello(server))
        assert read_frame(bad.recv)["kind"] == "hello"
        bad.sendall(struct.pack(">I", len(DEEP_BODY)) + DEEP_BODY)
        assert read_frame(bad.recv) is None  # end of stream
        good.sendall(hello(server) + LIST)
        assert read_frame(good.recv)["kind"] == "hello"
        assert read_frame(good.recv)["kind"] == "ack"
    assert server.faults == faults


def test_a_frame_nested_too_deep_ends_only_its_connection_over_loopback(monkeypatch):
    run = SimRun()
    run.add_server(dict(CONFIG, host="a", npc_tcp_port=7070))
    run.connect("bad", "npc://a:7070/root/admin")
    run.connect("good", "npc://a:7070/root/admin")
    encode = gateways.encode_frame
    monkeypatch.setattr(gateways, "encode_frame", lambda msg: (
        struct.pack(">I", len(DEEP_BODY)) + DEEP_BODY if msg["kind"] == "deep" else encode(msg)))
    run.send("bad", {"kind": "deep"})
    assert run.conns["bad"].closed
    run.send("good", {"kind": "cmd", "op": "list"})
    assert run.take_replies("good")[-1]["kind"] == "ack"
    assert run.server("a").faults == 0


def test_a_stalled_partial_header_does_not_delay_another_client(server):
    with raw(server) as stalled, raw(server) as other:
        stalled.sendall(hello(server))
        assert read_frame(stalled.recv)["kind"] == "hello"
        other.sendall(hello(server))
        assert read_frame(other.recv)["kind"] == "hello"
        stalled.sendall(LIST[:2])
        time.sleep(0.05)
        t0 = time.monotonic()
        other.sendall(LIST)
        assert read_frame(other.recv)["kind"] == "ack"
        assert time.monotonic() - t0 < 1.0
        # the stalled frame is still whole once the rest arrives
        stalled.sendall(LIST[2:])
        assert read_frame(stalled.recv)["kind"] == "ack"


def loopback_buffers() -> int:
    """What one loopback connection holds unread: the sender's send buffer
    plus the receiver's receive buffer."""
    with socket.create_server(("127.0.0.1", 0)) as lsn:
        with socket.create_connection(lsn.getsockname()) as ours:
            theirs, _ = lsn.accept()
            with theirs:
                return (ours.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                        + theirs.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))


def test_mirrored_servers_sending_each_other_more_than_the_buffers_hold_converge():
    """Each side of a mirror forwards a document bigger than a connection's
    buffers to the other at the same moment.  A driver that waited for its
    own send to finish before reading would never read its peer's, and
    both would hang."""
    held = loopback_buffers()
    size = min(2 * held, MAX_BODY * 3 // 4 - 65536)  # base64 must still frame
    assert size > held
    # as the mirror preset: "in" takes what the other side forwards
    config = dict(CONFIG, root={"entries": CONFIG["root"]["entries"] + [
        {"name": "in", "kind": "port", "behavior": "admin"}]})
    sides = [Server(ServerConfig.from_dict(config), real=True) for _ in range(2)]
    clients = []
    try:
        for s in sides:
            s.start()
        for s, other in zip(sides, reversed(sides)):
            # forwards every change but those the other side sent in
            target = f"npc://127.0.0.1:{other.advertised_port}/root/in"
            fwd = port_entry("fwd", PortSpec("forwarder", {"target": target},
                                             parse_filter('event.port != "in"'),
                                             parse_filter("true")))
            s.run_soon(lambda s=s, fwd=fwd: s.root.post_event(NODE_ORIGIN, insert_event(fwd)))
            flush(s)
        clients = [NpcClient(admin_url(s), timeout=30) for s in sides]
        inserts = [encode_frame({"kind": "cmd", "op": "insert", "entry": {
            "name": f"big-{i}", "kind": "document", "media_type": "text/plain",
            "content_b64": base64.b64encode(bytes([65 + i]) * size).decode("ascii")}})
            for i in range(2)]
        senders = [threading.Thread(target=c.sock.sendall, args=(frame,))
                   for c, frame in zip(clients, inserts)]
        for t in senders:
            t.start()
        for t in senders:
            t.join(30)
        deadline = time.monotonic() + 30
        while not all({"big-0", "big-1"} <= set(s.root.entries) for s in sides):
            assert time.monotonic() < deadline, "the mirror did not converge"
            time.sleep(0.05)
        for s in sides:
            for i in range(2):
                assert s.root.entries[f"big-{i}"].payload.content == bytes([65 + i]) * size
            assert s.faults == 0
    finally:
        for c in clients:
            c.close()
        for s in sides:
            s.stop()
    assert not any(s._driver.is_alive() for s in sides)


def test_every_loopback_frame_passes_the_frame_hook_once(monkeypatch):
    """Frames and their bytes are counted by wrapping ``gateways.encode_frame``
    (as ``bench/workloads.py`` does): every frame a loopback channel delivers
    must pass the wrapper once, as a message dict whose kind names the frame."""
    hooked = []
    encode = gateways.encode_frame

    def counting_encode(msg):
        frame = encode(msg)
        hooked.append((msg, frame))
        return frame

    delivered = []
    decode = wire.decode_body
    monkeypatch.setattr(gateways, "encode_frame", counting_encode)
    monkeypatch.setattr(wire, "decode_body", lambda data: delivered.append(data) or decode(data))
    scenario = demo_scenario("classifier")
    scenario["stimuli"] += [
        {"do": "connect", "id": "q", "target": "npc://feed:7070/root/admin"},
        {"do": "send", "conn": "q",
         "msg": {"kind": "cmd", "op": "query", "query": 'meta.topic == "sports"'}}]
    run_scenario(scenario)
    assert [frame[4:] for _, frame in hooked] == delivered
    assert all(type(msg) is dict for msg, _ in hooked)
    kinds = [decode(data)["kind"] for data in delivered]
    assert [msg.get("kind") for msg, _ in hooked] == kinds
    assert kinds.count("event") == 3  # two routed documents, one query result
