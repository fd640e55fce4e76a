"""Socket gateways: listener shutdown and connection close ownership."""

import socket
import threading

from npckit.gateways import TcpConn
from npckit.server import Server, ServerConfig


def test_stopped_server_leaves_no_listener_thread():
    before = set(threading.enumerate())
    for _ in range(2):
        s = Server(ServerConfig.from_dict({"host": "a", "npc_tcp_port": 0}), real=True)
        s.start()
        s.stop()
        assert not s.listener._thread.is_alive()
    assert set(threading.enumerate()) - before == set()


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


def test_only_the_reader_thread_closes_the_socket():
    # one side hangs up locally, the other sees its peer go first
    for peer_first in (False, True):
        ours, theirs = socket.socketpair()
        sock = RecordingSocket(ours)
        got = []
        conn = TcpConn("pair", sock, lambda c, msg: got.append(msg["kind"]))
        conn.start()
        if peer_first:
            theirs.close()
            conn._thread.join(timeout=5)
            conn.close()
        else:
            conn.close()
            conn._thread.join(timeout=5)
            theirs.close()
        assert not conn._thread.is_alive()
        assert sock.closed_by == [conn._thread]
        assert got == (["bye"] if peer_first else [])
