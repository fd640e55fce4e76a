"""A seeded fuzz of the HTTP facade.

Random request heads go through ``_parse_head`` and whatever it makes of
them through ``http_request``, in the sim, the way ``HttpConn`` hands them
on.  After each request: no fault, the status is one the facade answers
with, no ``req-*`` port is left once the server settled, and the entry
table changed only on a 201 or a 204.  A real-mode smoke test sends a few
of the same requests over at most three sockets and expects the status the
sim answered.
"""

import random
import socket

import pytest

from npckit.httpd import _parse_head, http_request
from npckit.model import PORT
from npckit.server import Server, ServerConfig
from npckit.wire import MAX_BODY

REQUESTS = 300
STATUSES = {200, 201, 204, 400, 404, 405, 413}
METHODS = ["GET"] * 4 + ["PUT"] * 3 + ["DELETE"] * 2 + ["POST", "get", "", "GET /x"]
NAMES = ["page", "other"] * 3 + ["admin", "sub", "ghost", "req-1", "a b", "%2e", "..", "x%2Fy", ""]
PREFIXES = ["/root/"] * 4 + ["/root/sub/", "/nope/", "/", "//root/", "/root/page/", "http://h/root/"]
TYPES = [None, "text/plain", "application/octet-stream", "", "text/é", "a\tb"]
LENGTHS = ["0", "3", "-1", "abc", "1.5", "²", " 2 ", ""]


def config(**extra) -> dict:
    cfg = {"host": "web", "npc_tcp_port": 7070, "root": {"entries": [
        {"name": "admin", "kind": "port", "behavior": "admin"},
        {"name": "page", "kind": "document", "content_text": "original",
         "media_type": "text/plain"},
        {"name": "sub", "kind": "node", "entries": [
            {"name": "inner", "kind": "document", "content_text": "deep"}]},
    ]}}
    cfg.update(extra)
    return cfg


class Fuzz:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, values):
        return self.rng.choice(values)

    def path(self) -> str:
        path = self.pick(PREFIXES) + self.pick(NAMES + ["inner"])
        if self.rng.random() < 0.1:
            path += self.pick(["?q=1", "#frag", "/", "%"])
        return path

    def request(self) -> bytes:
        """A request head and body, mostly well formed."""
        method, path = self.pick(METHODS), self.path()
        version = self.pick(["HTTP/1.0"] * 6 + ["HTTP/1.1", "HTTP", "FTP/1.0", ""])
        fields = []
        body = bytes(self.rng.randrange(256) for _ in range(self.rng.randrange(4)))
        if self.rng.random() < 0.6:
            length = str(len(body)) if self.rng.random() < 0.7 else self.pick(LENGTHS)
            fields.append(f"{self.pick(['Content-Length', 'content-length'])}: {length}")
        ctype = self.pick(TYPES)
        if ctype is not None:
            fields.append(f"Content-Type: {ctype}")
        if self.rng.random() < 0.1:
            fields.append(self.pick(["no colon here", ": empty name", "X-Pad:"]))
        self.rng.shuffle(fields)
        line = " ".join([method, path, version]) if version else f"{method} {path}"
        return "\r\n".join([line, *fields, "", ""]).encode("latin-1") + body


def serve(server, request: bytes) -> int | None:
    """The status of ``request``, as ``HttpConn`` would answer it: a head
    ``_parse_head`` refuses is a 400, a body over ``MAX_BODY`` a 413, and
    the rest goes to ``http_request`` with the body its head announces.
    None while the head announces more body than came."""
    end = request.index(b"\r\n\r\n")
    head = _parse_head(request[:end])
    if head is None:
        return 400
    method, path, content_type, length = head
    if length > MAX_BODY:
        return 413
    body = request[end + 4:end + 4 + length]
    if len(body) < length:
        return None
    return http_request(server, method, path, body, content_type)[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_requests_never_fault_or_leave_a_request_port(seed):
    fuzz = Fuzz(seed)
    server = Server(ServerConfig.from_dict(config()), clock=lambda: 0)
    server.settle()
    table = server.root.entries
    seen = set()
    for i in range(REQUESTS):
        request = fuzz.request()
        before = dict(table)
        status = serve(server, request)
        context = f"request {i}: {request!r} -> {status}"
        seen.add(status)
        assert server.faults == 0, context
        assert status in STATUSES or status is None, context
        assert [n for n, e in table.items() if e.kind == PORT and n.startswith("req-")] == [], \
            context
        if status not in (201, 204):
            assert table == before, context
    # the fuzz reaches reads that hit, reads that miss, writes and refusals
    assert {200, 201, 204, 400, 404} <= seen


def answer_over(sock: socket.socket) -> int:
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    status_line = data.split(b"\r\n", 1)[0].decode("latin-1")
    assert status_line.startswith("HTTP/1.0 "), status_line
    return int(status_line.split(" ")[1])


def test_real_mode_answers_fuzzed_requests_as_the_sim_does():
    # a refused head, a read and a write, in that order, each on its own
    # socket: the write comes last, so every request meets the table the
    # sim answered it on
    fuzz = Fuzz(4)
    kinds = {400: "refused", 200: "read", 404: "read", 201: "write", 204: "write"}
    wanted = {}
    while len(wanted) < 3:
        request = fuzz.request()
        sim = Server(ServerConfig.from_dict(config()), clock=lambda: 0)
        sim.settle()
        status = serve(sim, request)
        if status in kinds:
            wanted.setdefault(kinds[status], (request, status))
    real = Server(ServerConfig.from_dict(config(host="127.0.0.1", npc_tcp_port=0, http_port=0)),
                  real=True)
    real.start()
    try:
        for kind in ("refused", "read", "write"):
            request, status = wanted[kind]
            with socket.create_connection(("127.0.0.1", real.httpd.port), timeout=5) as s:
                s.sendall(request)
                assert answer_over(s) == status, request
        assert real.faults == 0
    finally:
        real.stop()
