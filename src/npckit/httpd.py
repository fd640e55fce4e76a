"""HTTP facade: documents as plain web resources.

GET is not a table lookup; it spawns a request port and hands it the
connection, so an HTTP read goes through exactly the machinery a native
fetch does.  PUT and DELETE translate to Insert and Remove.  Only
documents are visible this way; everything else is a 404.

Requests are read, served and answered on the driving thread, on the same
selector and with the same non-blocking connection code as npc-tcp: one
request per connection, answered with HTTP/1.0 and then closed.
"""

from __future__ import annotations

import base64
from http import HTTPStatus
from urllib.parse import unquote, urlsplit

from . import wire
from .behaviors import request_spec
from .gateways import Conn, TcpConn
from .history import NODE_ORIGIN, insert_event, remove_event
from .model import DOCUMENT, document_entry, port_entry, valid_name
from .ports import admission_fault

MAX_HEAD = 65536  # request line and header fields, in bytes
NOT_FOUND = (404, [], b"not found\n")
NO_ANSWER = (504, [], b"no answer\n")  # the request port retired without one


class Reply(Conn):
    """Where the answer to a request is kept, as (status, headers, body),
    until whoever holds the connection lets go of it."""

    def __init__(self, label: str):
        super().__init__(label)
        self.answer = NO_ANSWER

    def send(self, msg: dict) -> bool:
        """Keep a request port's reply as the answer."""
        if self.closed:
            return False
        if msg.get("kind") == "ack":
            media = " ".join(msg.get("media_type", "application/octet-stream").splitlines())
            self.answer = (200, [("Content-Type", media)], base64.b64decode(msg.get("content_b64", "")))
        else:
            self.answer = NOT_FOUND
        return True

    def respond(self, answer: tuple) -> None:
        self.answer = answer
        self.close()

    def close(self) -> None:
        self.closed = True


def split_resource_path(raw_path: str):
    """/root/sub/name -> (("root", "sub"), "name"), or None if malformed."""
    path = urlsplit(raw_path).path
    parts = [unquote(p) for p in path.split("/") if p]
    if len(parts) < 2 or not all(valid_name(p) for p in parts):
        return None
    return tuple(parts[:-1]), parts[-1]


def http_request(server, method: str, raw_path: str, body: bytes = b"",
                 content_type: str | None = None, conn=None):
    """Serve one request against a server, on its driving thread.

    The socket's ``HttpConn`` and the sim's http stimulus both come here,
    so both go through identical semantics.  The answer goes to ``conn``,
    which sends it when whoever holds it closes it.  Without a ``conn`` the
    answer is collected, the server settled, and (status, headers, body)
    returned.
    """
    reply = Reply(f"http {method} {raw_path}") if conn is None else conn
    answer = _serve(server, method, raw_path, body, content_type, reply)
    if answer is not None:
        reply.respond(answer)
    if conn is None:
        server.settle()
        return reply.answer


def _serve(server, method: str, raw_path: str, body: bytes, content_type, conn):
    """The answer to a request, or None once a request port holds ``conn``
    and answers on it."""
    if method not in ("GET", "PUT", "DELETE"):
        return 405, [("Allow", "GET, PUT, DELETE")], b"method not allowed\n"
    located = split_resource_path(raw_path)
    if located is None:
        return 400, [], b"malformed path\n"
    node_path, name = located
    node = server.nodes.get(node_path)

    if method == "GET":
        if node is None:
            return NOT_FOUND
        pname = server.next_name("req", node)
        node.attachments[pname] = conn
        node.post_event(NODE_ORIGIN, insert_event(port_entry(pname, request_spec(node, name))))
        return None

    if method == "PUT":
        if node is None:
            return 404, [], b"no such node\n"
        current = node.entries.get(name)
        if current is not None and current.kind != DOCUMENT:
            # only documents are visible here: a PUT never replaces a port
            return NOT_FOUND
        entry = document_entry(name, body, content_type or "application/octet-stream")
        fault = admission_fault(entry)
        if fault is not None:  # with no metadata, only its size can be at fault
            return 413, [], f"{fault[2]}\n".encode()
        node.post_event(NODE_ORIGIN, insert_event(entry))
        return 201, [], b"created\n"

    entry = node.entries.get(name) if node is not None else None
    if entry is None or entry.kind != DOCUMENT:
        return NOT_FOUND
    node.post_event(NODE_ORIGIN, remove_event(entry))
    return 204, [], b""


def _parse_head(head: bytes):
    """(method, path, content type, body length) of a request head, or
    None when it is malformed."""
    request_line, *fields = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return None
    headers = {}
    for field in fields:
        name, colon, value = field.partition(":")
        if not colon:
            return None
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        return None
    return parts[0], parts[1], headers.get("content-type"), int(length)


class HttpConn(TcpConn):
    """One HTTP exchange on the driver's selector.

    The request head is buffered up to its blank line and the body up to
    its ``Content-Length``; the whole request then goes to
    ``http_request`` with this connection.  ``send`` keeps the answer and
    ``close`` writes it, then closes without a bye: for a GET, when the
    request port lets go of the connection.  A head over ``MAX_HEAD`` is
    answered 431, a malformed one 400, and one announcing a body over
    ``wire.MAX_BODY`` 413, before any of the body is read."""

    send, respond = Reply.send, Reply.respond  # the answer is kept as a Reply keeps it

    def __init__(self, server, sock, addr):
        super().__init__(f"http:{addr[0]}:{addr[1]}", sock, server.enqueue, server._selector)
        self._server = server
        self._in = bytearray()  # None once the whole request is in
        self._head = None  # what _parse_head made of it
        self.answer = NO_ANSWER

    def _feed(self, data: bytes) -> None:
        if self._in is None:
            return  # the request is whole; the rest is ignored
        self._in += data
        if self._head is None:
            end = self._in.find(b"\r\n\r\n")
            if (len(self._in) if end < 0 else end) > MAX_HEAD:
                self.respond((431, [], b"request head too large\n"))
                return
            if end < 0:
                return
            self._head = _parse_head(bytes(self._in[:end]))
            if self._head is None:
                self.respond((400, [], b"bad request\n"))
                return
            if self._head[3] > wire.MAX_BODY:
                self.respond((413, [], b"body too large\n"))
                return
            del self._in[:end + 4]
        method, path, content_type, length = self._head
        if len(self._in) >= length:
            body, self._in = bytes(self._in[:length]), None
            http_request(self._server, method, path, body, content_type, conn=self)

    def close(self) -> None:
        """Write the answer, unless the client has gone, and close once it
        is out."""
        if not self.closed:
            self.closed = True
            status, headers, body = self.answer
            head = [f"HTTP/1.0 {status} {HTTPStatus(status).phrase}",
                    *(f"{key}: {value}" for key, value in headers),
                    f"Content-Length: {len(body)}", "", ""]
            self._write("\r\n".join(head).encode("latin-1", "replace") + body)
        super().close()
