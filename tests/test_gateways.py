"""Socket gateways: the driver thread owns every socket.

The real-mode tests here share one server on port 0 and open at most three
sockets each, except the mirror test, which runs two servers of its own.
"""

import base64
import http.client
import selectors
import socket
import struct
import threading
import time

import pytest

from conftest import flush, on_driver, wait_for
from npckit import gateways, server as server_module, wire
from npckit.apps import demo_scenario
from npckit.cli import NpcClient, TransportError
from npckit.filters import parse_filter
from npckit.gateways import TcpConn
from npckit.history import NODE_ORIGIN, insert_event
from npckit.model import PortSpec, port_entry
from npckit.server import Server, ServerConfig
from npckit.sim import SimRun, run_scenario
from npckit.wire import MAX_BODY, FrameBuffer, bye_frame, encode_frame, read_frame

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


# ---------------------------------------------------------------------------
# a connection's own socket paths: partial writes, a peer lost mid-write, a
# close with output pending, each on the test's own socket pair with small
# buffers and a selector of its own

SMALL_BUFFER = 4096


def small_pair() -> tuple[socket.socket, socket.socket]:
    ours, theirs = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SMALL_BUFFER)
    theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SMALL_BUFFER)
    theirs.settimeout(5)
    return ours, theirs


def stalled_conn():
    """A ``TcpConn`` on one end of a small pair, sent frames until the
    kernel takes no more and some wait in its output: the conn, its
    selector, the other end, what reached the conn, and the bytes sent."""
    ours, theirs = small_pair()
    selector = selectors.DefaultSelector()
    got = []
    conn = TcpConn("pair", ours, lambda c, msg: got.append(msg["kind"]), selector)
    sent = bytearray()
    i = 0
    while not conn._out:
        msg = {"kind": "ack", "i": i, "pad": "x" * 1000}
        assert conn.send(msg)
        sent += encode_frame(msg)
        i += 1
    assert selector.get_key(ours).events == selectors.EVENT_READ | selectors.EVENT_WRITE
    return conn, selector, theirs, got, sent


def drain(conn, theirs, chunk: int = 97) -> bytes:
    """Read ``theirs`` in small chunks, handing the conn a writable socket
    between them, until the conn's output is out; then read what is left
    up to the end of the stream or the last byte the conn sent."""
    received = bytearray()
    while conn._out:
        received += theirs.recv(chunk)
        conn.on_writable()
    theirs.setblocking(False)
    try:
        while data := theirs.recv(chunk):
            received += data
    except BlockingIOError:
        pass
    return bytes(received)


def test_a_send_the_kernel_takes_in_part_goes_out_whole_and_in_order():
    conn, selector, theirs, got, sent = stalled_conn()
    with theirs:
        assert drain(conn, theirs) == sent
        # all out: the socket is watched for reads alone again
        assert selector.get_key(conn._sock).events == selectors.EVENT_READ
        assert not conn.closed and got == []
        conn.close()
    selector.close()


def test_a_peer_lost_mid_write_is_a_bye_and_frees_the_socket():
    conn, selector, theirs, got, _ = stalled_conn()
    theirs.close()
    conn.on_writable()  # the write finds the peer gone
    assert got == ["bye"] and conn.closed
    assert conn._sock.fileno() < 0 and selector.get_map() == {}
    assert not conn.send({"kind": "ack"})
    selector.close()


def test_a_send_to_a_peer_already_gone_is_a_bye_and_frees_the_socket():
    ours, theirs = small_pair()
    selector = selectors.DefaultSelector()
    got = []
    conn = TcpConn("pair", ours, lambda c, msg: got.append(msg["kind"]), selector)
    theirs.close()
    assert not conn.send({"kind": "ack"})
    assert got == ["bye"] and conn.closed
    assert ours.fileno() < 0 and selector.get_map() == {}
    selector.close()


def test_a_close_with_output_pending_sends_it_all_then_bye_then_ends():
    conn, selector, theirs, got, sent = stalled_conn()
    with theirs:
        conn.close()
        # the socket stays open, watched for writes alone, until all is out
        assert conn.closed and conn._sock.fileno() >= 0
        assert selector.get_key(conn._sock).events == selectors.EVENT_WRITE
        assert drain(conn, theirs) == bytes(sent) + bye_frame()
        assert conn._sock.fileno() < 0 and selector.get_map() == {}
        assert got == []
    selector.close()


def test_a_frame_for_a_port_that_is_gone_is_answered_without_a_fault(monkeypatch):
    """Two frames wait in one pass: the first removes the port that owns
    the second's connection, whose answer then finds the port gone."""
    run = SimRun()
    run.add_server({"host": "a", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "admin", "kind": "port", "behavior": "admin"},
        {"name": "other", "kind": "port", "behavior": "admin"}]}})
    run.connect("owner", "npc://a:7070/root/other")
    run.connect("remover", "npc://a:7070/root/admin")
    answers = []
    send = gateways.LoopbackConn.send
    monkeypatch.setattr(gateways.LoopbackConn, "send",
                        lambda conn, msg: answers.append(msg) or send(conn, msg))
    # queued on the server, not yet handled
    run.conns["remover"].send({"kind": "cmd", "op": "remove", "name": "other"})
    run.conns["owner"].send({"kind": "cmd", "op": "list"})
    answers.clear()
    run.quiesce()
    server = run.server("a")
    assert server.faults == 0 and "other" not in server.root.entries
    assert {"kind": "error", "code": "not-found", "message": "owning port is gone"} in answers
    # the removal closed the connection, so the answer goes nowhere
    assert [r["kind"] for r in run.take_replies("owner")] == ["hello", "bye"]
    assert [r["kind"] for r in run.take_replies("remover")] == ["hello", "ack"]


def test_a_local_query_reaches_a_client_that_reads_in_small_chunks_byte_for_byte(monkeypatch):
    """The server's socket takes little at a time, so the results go out
    in parts, and the client reads them a few bytes at a time: every result
    frame arrives as the entry's kept frame, in order."""
    writable = []

    class SmallSendBuffer(TcpConn):
        def __init__(self, label, sock, enqueue, selector):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SMALL_BUFFER)
            super().__init__(label, sock, enqueue, selector)

        def on_writable(self):
            writable.append(self.id)
            super().on_writable()

    monkeypatch.setattr(server_module, "TcpConn", SmallSendBuffer)
    docs = [{"name": f"d{i:03d}", "kind": "document", "meta": {"topic": "t"},
             "content_text": chr(65 + i % 26) * 2000} for i in range(40)]
    s = Server(ServerConfig.from_dict(dict(CONFIG, root={"entries": CONFIG["root"]["entries"]
                                                         + docs})), real=True)
    s.start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SMALL_BUFFER)
        sock.settimeout(5)
        with sock:
            sock.connect(("127.0.0.1", s.advertised_port))
            sock.sendall(hello(s) + encode_frame({"kind": "cmd", "op": "query",
                                                  "query": 'meta.topic == "t"'}))
            received = bytearray()
            while data := sock.recv(97):
                received += data
        frames = []
        while received:
            (length,) = struct.unpack(">I", received[:4])
            frames.append(bytes(received[:4 + length]))
            del received[:4 + length]
        kept = on_driver(s, lambda: [s.root.entries[d["name"]]._wire for d in docs])
        assert frames[1:-2] == kept
        buffer = FrameBuffer()
        buffer.feed(frames[0] + frames[-2] + frames[-1])
        assert [buffer.pop()["kind"] for _ in range(3)] == ["hello", "ack", "bye"]
        assert writable  # the server's socket did take the results in parts
        assert s.faults == 0
    finally:
        s.stop()
