"""HTTP facade: documents as plain web resources.

GET is not a table lookup; it spawns a request port and waits for that
port's answer, so an HTTP read goes through exactly the machinery a native
fetch does.  PUT and DELETE translate to Insert and Remove.  Only
documents are visible this way; everything else is a 404.

The handler threads never touch node state: work is shipped to the
driving thread and answers come back over an in-process connection.
"""

from __future__ import annotations

import queue
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from .behaviors import request_spec
from .gateways import Conn
from .history import NODE_ORIGIN, insert_event, remove_event
from .model import DOCUMENT, document_entry, port_entry, valid_name


class ReplyConn(Conn):
    """Connection end whose peer is a waiting gateway thread."""

    def __init__(self, label: str = "http"):
        super().__init__(label)
        self.replies: queue.Queue = queue.Queue()

    def send(self, msg: dict) -> bool:
        if self.closed:
            return False
        self.replies.put(msg)
        return True

    def close(self) -> None:
        self.closed = True


def split_resource_path(raw_path: str):
    """/root/sub/name -> (("root", "sub"), "name"), or None if malformed."""
    path = urlsplit(raw_path).path
    parts = [unquote(p) for p in path.split("/") if p]
    if len(parts) < 2 or not all(valid_name(p) for p in parts):
        return None
    return tuple(parts[:-1]), parts[-1]


def _submit(server, task) -> None:
    if server._driver is not None:
        server.run_soon(task)
    else:
        # sim mode: the caller is the driving thread
        task()
        server.settle()


def _wait(conn: ReplyConn, server, timeout: float):
    try:
        return conn.replies.get(timeout=timeout if server._driver is not None else 0.01)
    except queue.Empty:
        return None


def http_request(server, method: str, raw_path: str, body: bytes = b"",
                 content_type: str | None = None, timeout: float = 10.0):
    """Serve one request against a server; returns (status, headers, body).

    Shared by the socket handler and the sim's http stimulus, so both go
    through identical semantics.
    """
    if method not in ("GET", "PUT", "DELETE"):
        return 405, [("Allow", "GET, PUT, DELETE")], b"method not allowed\n"
    located = split_resource_path(raw_path)
    if located is None:
        return 400, [], b"malformed path\n"
    node_path, name = located

    if method == "GET":
        conn = ReplyConn(f"http GET {raw_path}")

        def fetch():
            node = server.nodes.get(node_path)
            if node is None:
                conn.send({"kind": "error", "code": "not-found"})
                return
            pname = server.next_name("req")
            node.attachments[pname] = {"conn": conn}
            node.post_event(NODE_ORIGIN, insert_event(port_entry(pname, request_spec(node, name))))

        _submit(server, fetch)
        reply = _wait(conn, server, timeout)
        if reply is None:
            return 504, [], b"timed out\n"
        if reply.get("kind") == "ack":
            import base64
            content = base64.b64decode(reply.get("content_b64", ""))
            return 200, [("Content-Type", reply.get("media_type", "application/octet-stream"))], content
        return 404, [], b"not found\n"

    done: queue.Queue = queue.Queue()

    if method == "PUT":
        media = content_type or "application/octet-stream"

        def put():
            node = server.nodes.get(node_path)
            if node is None:
                done.put((404, b"no such node\n"))
                return
            current = node.entries.get(name)
            if current is not None and current.kind != DOCUMENT:
                # only documents are visible here: a PUT never replaces a port
                done.put((404, b"not found\n"))
                return
            entry = document_entry(name, body, media)
            node.post_event(NODE_ORIGIN, insert_event(entry))
            done.put((201, b"created\n"))

        _submit(server, put)
    else:

        def delete():
            node = server.nodes.get(node_path)
            entry = node.entries.get(name) if node is not None else None
            if entry is None or entry.kind != DOCUMENT:
                done.put((404, b"not found\n"))
                return
            node.post_event(NODE_ORIGIN, remove_event(entry))
            done.put((204, b""))

        _submit(server, delete)

    try:
        status, payload = done.get(timeout=timeout)
    except queue.Empty:
        return 504, [], b"timed out\n"
    return status, [], payload


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"  # one request per connection

    def _serve(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length > 0 else b""
        status, headers, payload = http_request(
            self.server.npc_server, method, self.path, body,
            self.headers.get("Content-Type"))
        self.send_response(status)
        for key, value in headers:
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload and method != "HEAD":
            self.wfile.write(payload)

    def do_GET(self):
        self._serve("GET")

    def do_PUT(self):
        self._serve("PUT")

    def do_DELETE(self):
        self._serve("DELETE")

    def do_POST(self):
        self._serve("POST")

    def do_HEAD(self):
        self._serve("HEAD")

    def log_message(self, fmt, *args):
        server = self.server.npc_server
        if server.tracer is not None:
            server.tracer.record("http", "request", fmt % args)


class HttpFacade:
    def __init__(self, server, host: str, port: int):
        self.npc_server = server
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.npc_server = server
        self.port = self.httpd.server_address[1]
        self._thread = None

    def start(self) -> None:
        import threading
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2)
