"""Connections and external resources: loopback channels, TCP channels,
and the stub mail and repository services used by the reference setups.

A Conn carries already-decoded message dicts; loopback pairs still push
every message through the frame codec so the sim exercises the same bytes
as a socket would.  Closing either end delivers a synthesized bye to the
peer, which is also what a dropped TCP connection turns into.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading

from .filters import eval_filter, parse_filter
from .history import Event, INSERT
from . import wire  # wire.decode_body, looked up at each call as bench/spans.py wraps it
from .wire import ERROR, FrameBuffer, WireError, bye_frame, encode_frame

RECV_SIZE = 65536
_conn_ids = itertools.count(1)


def _frame(msg: dict) -> tuple[bytes, bool]:
    """``msg`` as a frame and True, or, when it is too big to frame, an
    ``oversize`` error in its place and False: a request that cannot be
    answered in full still gets an answer, and the sender learns that
    ``msg`` did not go."""
    try:
        return encode_frame(msg), True
    except WireError as e:
        return encode_frame({"kind": ERROR, "code": e.code}), False


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
        frame, whole = _frame(msg)
        try:
            self._put(self._peer, wire.decode_body(frame[4:]))
        except WireError:  # as over a socket, a frame that does not decode ends the channel
            self.close()
            return False
        return whole

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
    """Non-blocking socket-backed channel end on the driver's selector.

    The driver thread reads the socket when the selector reports it
    readable, writes it and closes it; no other thread touches it, so its
    descriptor is never freed while another call on it is in flight.  What
    a send cannot hand the kernel at once waits in ``_out`` and goes out
    when the socket is writable, so a peer that is slow to read never
    stops the driver from reading everyone else."""

    def __init__(self, label: str, sock: socket.socket, enqueue, selector):
        super().__init__(label)
        sock.setblocking(False)
        self._sock = sock
        self._enqueue = enqueue
        self._selector = selector
        self._frames = FrameBuffer()
        self._out = bytearray()  # sent, but not yet taken by the kernel
        self._closing = False  # closed here; the socket goes once _out is out
        selector.register(sock, selectors.EVENT_READ, self)

    def on_readable(self) -> None:
        """Hand one ``recv`` to ``_feed``; at the end of the stream, or on
        a bad frame, queue a bye and close."""
        try:
            data = self._sock.recv(RECV_SIZE)
            if data:
                self._feed(data)
                return
        except BlockingIOError:
            return
        except (WireError, OSError):
            pass
        self._lost()  # end of stream, clean or not

    def _feed(self, data: bytes) -> None:
        """Queue every frame that ``data`` completes."""
        self._frames.feed(data)
        while (msg := self._frames.pop()) is not None:
            self._enqueue(self, msg)

    def on_writable(self) -> None:
        """Hand the kernel what it takes of ``_out``; once all of it is
        out, wait for reads again, or finish a close."""
        try:
            del self._out[:self._sock.send(self._out)]
        except BlockingIOError:
            return
        except OSError:
            self._lost()
            return
        if not self._out:
            if self._closing:
                self.drop()
            else:
                self._selector.modify(self._sock, selectors.EVENT_READ, self)

    def send(self, msg: dict) -> bool:
        """Queue ``msg``, framed, behind what is still unsent.  A message
        too big to frame goes out as an ``oversize`` error and counts as
        not sent."""
        if self.closed:
            return False
        data, whole = _frame(msg)
        return self._write(data) and whole

    def _write(self, data: bytes) -> bool:
        if not self._out:
            try:
                data = data[self._sock.send(data):]
            except BlockingIOError:
                pass
            except OSError:
                self._lost()
                return False
            if not data:
                return True
            self._selector.modify(self._sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                                  self)
        self._out += data
        return True

    def close(self) -> None:
        """Say bye, unless either end already has, and close the socket
        once everything sent has gone out."""
        if self._closing or self._sock.fileno() < 0:
            return
        if not self.closed:
            self.closed = True
            self._write(bye_frame())
        self._closing = True
        if self._out:
            self._selector.modify(self._sock, selectors.EVENT_WRITE, self)
        else:
            self.drop()

    def _lost(self) -> None:
        """The peer is gone: the server sees a bye, unless either end
        already said one."""
        if not self.closed:
            self.closed = True
            self._enqueue(self, {"v": 1, "kind": "bye"})
        self.drop()

    def drop(self) -> None:
        """Close the socket now; what the peer has not taken is lost."""
        if self._sock.fileno() >= 0:
            self._out.clear()
            self._selector.unregister(self._sock)
            self._sock.close()


class TcpListener:
    """Listening socket on the driver's selector: accepts one connection
    each time the selector reports it readable and hands it to
    ``on_accept(sock, addr)``."""

    def __init__(self, host: str, port: int, selector, on_accept):
        self._selector = selector
        self._on_accept = on_accept
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._sock.setblocking(False)
        self.port = self._sock.getsockname()[1]
        selector.register(self._sock, selectors.EVENT_READ, self)

    def on_readable(self) -> None:
        try:
            sock, addr = self._sock.accept()
        except OSError:  # gone before it was accepted, or out of descriptors
            return
        self._on_accept(sock, addr)

    def close(self) -> None:
        self._selector.unregister(self._sock)
        self._sock.close()


class Waker:
    """Wake-up socketpair on the driver's selector: ``wake()``, from any
    thread, makes the driver's ``select`` return."""

    def __init__(self, selector):
        self._selector = selector
        self._r, self._w = socket.socketpair()
        self._r.setblocking(False)
        self._w.setblocking(False)
        # held while writing, so close() cannot free the descriptor under a wake
        self._lock = threading.Lock()
        selector.register(self._r, selectors.EVENT_READ, self)

    def wake(self) -> None:
        with self._lock:
            try:
                self._w.send(b"\0")
            except OSError:  # buffer full: a byte is already pending; or closed
                pass

    def on_readable(self) -> None:
        try:
            self._r.recv(4096)
        except BlockingIOError:
            pass

    def close(self) -> None:
        self._selector.unregister(self._r)
        self._r.close()
        with self._lock:
            self._w.close()


def dial_tcp(host: str, port: int, enqueue, selector, timeout: float = 5.0) -> TcpConn:
    sock = socket.create_connection((host, port), timeout=timeout)
    return TcpConn(f"tcp->{host}:{port}", sock, enqueue, selector)


# ---------------------------------------------------------------------------
# stub resources

class MailStub:
    """Outgoing mail sink; deliveries pile up in ``outbox`` for inspection."""

    def __init__(self, name: str = "mail"):
        self.name = name
        self.outbox: list[dict] = []

    def send_mail(self, to: str, subject: str, body: str) -> None:
        self.outbox.append({"to": to, "subject": subject, "body": body})


class RepoStub:
    """Queryable document store; queries are filter text evaluated against
    each document as if it were freshly inserted."""

    def __init__(self, name: str, entries=()):
        self.name = name
        self.entries = list(entries)
        self.queries: list[str] = []
        self.aborted: list[str] = []

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
