"""Connections and external resources: loopback channels, TCP channels,
and the stub mail and repository services used by the reference setups.

A Conn carries already-decoded message dicts; loopback pairs still push
every message through the frame codec so the sim exercises the same bytes
as a socket would.  Closing either end delivers a synthesized bye to the
peer, which is also what a dropped TCP connection turns into.
"""

from __future__ import annotations

import itertools
import socket
import threading

from .filters import eval_filter, parse_filter
from .history import Event, INSERT
from .wire import FrameBuffer, WireError, bye_frame, encode_frame, read_frame

_conn_ids = itertools.count(1)


class Conn:
    """One end of a bidirectional message channel."""

    def __init__(self, label: str):
        self.id = next(_conn_ids)
        self.label = label
        self.closed = False
        self.owner = None  # (node_path, port_name) routing for inbound messages

    def send(self, msg: dict) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"<conn {self.id} {self.label} {state}>"


class LoopbackConn(Conn):
    """In-process end of a channel; the peer end may live on another
    in-process server.  Messages are framed and unframed on every send."""

    def __init__(self, label: str):
        super().__init__(label)
        self._peer: LoopbackConn | None = None
        self._put = None  # enqueue on the peer's server

    def send(self, msg: dict) -> bool:
        if self.closed or self._peer is None or self._peer.closed:
            return False
        buf = FrameBuffer()
        buf.feed(encode_frame(msg))
        decoded = buf.pop()
        self._put(self._peer, decoded)
        return True

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        peer = self._peer
        if peer is not None and not peer.closed:
            self._put(peer, {"v": 1, "kind": "bye"})
            peer.closed = True


def loopback_pair(label_a: str, put_b, label_b: str, put_a) -> tuple[LoopbackConn, LoopbackConn]:
    """Two joined ends; ``put_b`` enqueues (conn, msg) on b's server and is
    invoked by sends from a, and vice versa."""
    a = LoopbackConn(label_a)
    b = LoopbackConn(label_b)
    a._peer, b._peer = b, a
    a._put, b._put = put_b, put_a
    return a, b


class LoopbackNetwork:
    """Registry of in-process servers addressable by (host, port).

    Stands in for the sockets layer in sim mode and for same-process
    shortcuts otherwise.
    """

    def __init__(self):
        self._servers: dict[tuple[str, int], object] = {}

    def register(self, host: str, port: int, server) -> None:
        key = (host.lower(), port)
        if key in self._servers:
            raise ValueError(f"address already registered: {key}")
        self._servers[key] = server

    def lookup(self, host: str, port: int):
        return self._servers.get((host.lower(), port))

    def connect(self, dialer, host: str, port: int) -> LoopbackConn | None:
        """Join a new conn pair between two registered servers; returns the
        dialer's end, or None when nobody listens (or the target's firewall
        refuses the dialer's host)."""
        target = self.lookup(host, port)
        if target is None:
            return None
        a, b = loopback_pair(
            f"{dialer.describe()}->{host}:{port}", target.enqueue,
            f"{host}:{port}<-{dialer.describe()}", dialer.enqueue)
        if not target.accept_conn(b, peer_host=getattr(dialer, "host", None)):
            a.closed = True
            return None
        return a


class TcpConn(Conn):
    """Socket-backed channel end; a daemon thread reads frames into the
    owning server's inbound queue.

    Only that reader thread closes the socket, once ``recv`` has returned
    and holding the write lock, so no other thread can be inside a call on
    the descriptor when its number is freed for reuse."""

    def __init__(self, label: str, sock: socket.socket, enqueue):
        super().__init__(label)
        self._sock = sock
        self._enqueue = enqueue
        self._wlock = threading.Lock()
        self._thread = threading.Thread(target=self._read_loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _read_loop(self) -> None:
        try:
            while True:
                msg = read_frame(self._sock.recv)
                if msg is None:
                    break
                self._enqueue(self, msg)
        except (WireError, OSError):
            pass
        # end of stream, clean or not: the server sees a bye either way
        if not self.closed:
            self.closed = True
            self._enqueue(self, {"v": 1, "kind": "bye"})
        with self._wlock:
            try:
                self._sock.close()
            except OSError:
                pass

    def send(self, msg: dict) -> bool:
        if self.closed:
            return False
        try:
            with self._wlock:
                self._sock.sendall(encode_frame(msg))
            return True
        except OSError:
            self.closed = True
            return False

    def close(self) -> None:
        """Say bye and shut the socket down; the reader thread then sees
        the end of the stream and closes the descriptor."""
        if self.closed:
            return
        self.closed = True
        with self._wlock:
            try:
                self._sock.sendall(bye_frame())
            except OSError:
                pass
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class TcpListener:
    """Accept loop feeding new TcpConns to a server."""

    def __init__(self, host: str, port: int, server):
        self._server = server
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._stopping = False

    def start(self) -> None:
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, addr = self._sock.accept()
            except OSError:
                break
            host = addr[0]
            if not self._server.allow_inbound(host, self.port, "npc-tcp"):
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            conn = TcpConn(f"tcp:{host}:{addr[1]}", sock, self._server.enqueue)
            self._server.accept_conn(conn)
            conn.start()

    def stop(self) -> None:
        """Wake the accept thread, which a bare close leaves blocked in
        ``accept()``, wait for it to end, then close the socket."""
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._thread.is_alive():
            self._thread.join(timeout=2)
        self._sock.close()


def dial_tcp(host: str, port: int, enqueue, timeout: float = 5.0) -> TcpConn:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    conn = TcpConn(f"tcp->{host}:{port}", sock, enqueue)
    conn.start()
    return conn


# ---------------------------------------------------------------------------
# stub resources

class MailStub:
    """Outgoing mail sink; deliveries pile up in ``outbox`` for inspection."""

    protocol = "stub"

    def __init__(self, name: str = "mail"):
        self.name = name
        self.outbox: list[dict] = []

    def send_mail(self, to: str, subject: str, body: str) -> None:
        self.outbox.append({"to": to, "subject": subject, "body": body})


class RepoStub:
    """Queryable document store; queries are filter text evaluated against
    each document as if it were freshly inserted."""

    protocol = "stub"

    def __init__(self, name: str, entries=()):
        self.name = name
        self.entries = list(entries)
        self.queries: list[str] = []
        self.aborted: list[str] = []

    def add(self, entry) -> None:
        self.entries.append(entry)

    def query(self, filter_text: str) -> list:
        self.queries.append(filter_text)
        f = parse_filter(filter_text)
        hits = []
        for entry in self.entries:
            probe = Event(INSERT, origin_port="@node", entry=entry)
            if eval_filter(f, probe):
                hits.append(entry)
        return hits

    def abort(self, token: str) -> None:
        self.aborted.append(token)
