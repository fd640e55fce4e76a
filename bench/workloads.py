"""The benchmark's workloads: fixed, seeded scripts of client operations.

Every workload is a closed loop with one client and one operation in
flight.  A script is built from its seed alone and has a fixed length, so
per-operation cost is always measured over the same growth of history;
each round plays one script on freshly booted servers.

A workload object runs one round:

- ``setup()`` boots the servers, loads the corpus and settles (``setup_s``);
- ``perform(op)`` runs one scripted operation and returns its latency in
  seconds, measured around the part a client waits for;
- ``wire_bytes()`` and ``history()`` read the exact counts: npc frame bytes
  so far, and live events (and live Resumes) over every node;
- ``finish()`` checks the end state against the benchmark's own replay of
  the script;
- ``close()`` releases servers, sockets and threads.

Results are checked against what the benchmark computes itself.  A result
that differs raises ``WrongResult``; an operation that cannot complete
(transport error, no reply) raises ``OpFailed``.
"""

from __future__ import annotations

import base64
import http.client
import os
import random
import string
import struct
import threading
import time

from npckit import gateways, wire
from npckit.apps import DOCS_ONLY, build_preset
from npckit.cli import NpcClient, TransportError
from npckit.gateways import LoopbackNetwork
from npckit.history import RESUME
from npckit.model import DOCUMENT, PORT
from npckit.server import Server, ServerConfig
from npckit.sim import SimClient, VirtualClock

WRITE, READ = "write", "read"

_ALPHABET = string.ascii_letters + string.digits + " "


class WrongResult(Exception):
    """The program answered, but not what the benchmark computed."""


class OpFailed(Exception):
    """The operation did not complete."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongResult(what)


def _text(rng: random.Random, size: int) -> bytes:
    return "".join(rng.choices(_ALPHABET, k=size)).encode("ascii")


def _sizes(rng: random.Random, n: int) -> list[int]:
    """Content sizes from a fixed multiset (64..448 bytes), shuffled, so the
    byte volume of a script does not depend on the seed."""
    sizes = [64 + 32 * (i % 13) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _kinds(rng: random.Random, n: int, shares: list[tuple[str, int]]) -> list[str]:
    """Exactly ``share`` percent of ``n`` of each kind, in seeded order."""
    out: list[str] = []
    for kind, pct in shares:
        out += [kind] * (n * pct // 100)
    out += [shares[0][0]] * (n - len(out))
    rng.shuffle(out)
    return out


def _entry_json(name: str, content: bytes, meta: dict | None = None) -> dict:
    return {"name": name, "kind": DOCUMENT, "meta": meta or {},
            "content_b64": base64.b64encode(content).decode("ascii"),
            "media_type": "text/plain"}


def _config_doc(name: str, content: bytes) -> dict:
    return {"name": name, "kind": DOCUMENT, "content_text": content.decode("ascii")}


def documents(node) -> dict[str, bytes]:
    return {name: e.payload.content for name, e in node.entries.items()
            if e.kind == DOCUMENT}


def live_history(servers) -> tuple[int, int]:
    """(live events, live Resume events) over every node of every server."""
    events = resumes = 0
    for s in servers:
        for node in s.nodes.values():
            events += len(node.history)
            resumes += sum(1 for e in node.history.live if e.kind == RESUME)
    return events, resumes


class FrameCount:
    """Bytes and event frames of npc frames encoded on loopback channels."""

    def __init__(self):
        self.bytes = 0
        self.events = 0

    def wrap(self, encode):
        def counting_encode(msg):
            frame = encode(msg)
            self.bytes += len(frame)
            if msg.get("kind") == wire.EVENT:
                self.events += 1
            return frame
        return counting_encode


# ---------------------------------------------------------------------------
# in-process networks

class InProcess:
    """Servers on one loopback network, driven to quiescence after every
    client operation the way the sim does, with no tracer attached.

    Every loopback message still goes through the frame codec; the frames
    are counted at ``gateways.encode_frame``, which both directions of every
    loopback channel call.
    """

    def __init__(self, script):
        self.script = script
        self.frames = FrameCount()
        self._encode = gateways.encode_frame
        gateways.encode_frame = self.frames.wrap(self._encode)
        self.network = None
        self.servers: list[Server] = []

    def boot(self, configs: list[dict]) -> None:
        self.network = LoopbackNetwork()
        clock = VirtualClock()
        self.servers = [Server(ServerConfig.from_dict(c), network=self.network, clock=clock)
                        for c in configs]
        self.quiesce()

    def quiesce(self) -> None:
        while True:
            moved = 0
            for s in self.servers:
                moved += s.pump()
                moved += s.drain()
                moved += s.step_behaviors()
            if moved == 0:
                return

    def connect(self, host: str, target: str):
        client = SimClient(f"bench-{host}")
        conn = self.network.connect(client, host, 7070)
        if conn is None:
            raise OpFailed(f"nobody at {host}")
        conn.send({"kind": "hello", "target": target})
        self.quiesce()
        replies = self.take(client)
        if [r.get("kind") for r in replies] != ["hello"]:
            raise OpFailed(f"hello to {target} answered {replies}")
        return client, conn

    def take(self, client) -> list[dict]:
        out, client.replies = client.replies, []
        return out

    def ask(self, client, conn, msg: dict) -> list[dict]:
        conn.send(msg)
        self.quiesce()
        return self.take(client)

    def wire_bytes(self) -> int:
        return self.frames.bytes

    def history(self) -> tuple[int, int]:
        return live_history(self.servers)

    def close(self) -> None:
        gateways.encode_frame = self._encode
        self.servers = []
        self.network = None


def _ack(replies: list[dict]) -> dict:
    """The terminal ack or error; a port that retires after answering
    (a query) closes the connection, so a bye may follow it."""
    if replies and replies[-1].get("kind") == "bye":
        replies = replies[:-1]
    if not replies or replies[-1].get("kind") not in ("ack", "error"):
        raise OpFailed(f"no reply: {replies}")
    return replies[-1]


# ---------------------------------------------------------------------------
# mirror-edits

class MirrorEdits(InProcess):
    """The ``mirror`` preset (a, b) with a corpus preloaded on a.

    Edits go through each side's admin port: 40% new inserts, 40% updates
    of live names, 20% removes, spread evenly over both sides.  Every 10th
    op is a reader on b pulling ``history`` from its cursor."""

    name = "mirror-edits"
    CORPUS = 200
    OPS = 2000

    @classmethod
    def make_script(cls, seed: int | str, scale: float = 1.0) -> dict:
        rng = random.Random(seed)
        corpus_n = max(4, int(cls.CORPUS * scale))
        ops_n = max(20, int(cls.OPS * scale))
        corpus = {f"c{i:05d}": _text(rng, size)
                  for i, size in enumerate(_sizes(rng, corpus_n))}
        edits_n = ops_n - ops_n // 10
        kinds = _kinds(rng, edits_n, [("insert", 40), ("update", 40), ("remove", 20)])
        sides = _kinds(rng, edits_n, [("a", 50), ("b", 50)])
        sizes = iter(_sizes(rng, edits_n))
        live = sorted(corpus)
        edits = []
        for i, (kind, side) in enumerate(zip(kinds, sides)):
            if kind == "insert":
                name = f"n{i:05d}"
                live.append(name)
            elif kind == "update":
                name = rng.choice(live)
            else:
                name = live.pop(rng.randrange(len(live)))
            content = _text(rng, next(sizes)) if kind != "remove" else b""
            edits.append((kind, side, name, content))
        ops, it = [], iter(edits)
        for i in range(ops_n):
            ops.append(("pull",) if i % 10 == 9 else next(it))
        return {"corpus": corpus, "ops": ops}

    def setup(self) -> None:
        configs = build_preset("mirror")
        configs[0]["root"]["entries"] += [_config_doc(n, c)
                                          for n, c in self.script["corpus"].items()]
        self.boot(configs)
        self.docs = dict(self.script["corpus"])
        self.admin = {h: self.connect(h, f"npc://{h}:7070/root/admin") for h in "ab"}
        self.reader = self.connect("b", "npc://b:7070/root/admin")
        self.cursor = 0
        self.replica: dict[str, bytes] = {}

    def _pull(self) -> dict:
        client, conn = self.reader
        reply = _ack(self.ask(client, conn, {"kind": "cmd", "op": "history",
                                             "after": self.cursor,
                                             "filter": DOCS_ONLY, "max": 256}))
        _expect(reply.get("kind") == "ack", f"history answered {reply}")
        return reply

    def _apply_pull(self, reply: dict) -> None:
        for ev in reply["events"]:
            entry = ev["entry"]
            if ev["kind"] == "Insert":
                self.replica[entry["name"]] = base64.b64decode(entry["content_b64"])
            else:
                self.replica.pop(entry["name"], None)
        self.cursor = reply["last"]

    def perform(self, op) -> tuple[str, float]:
        if op[0] == "pull":
            t0 = time.perf_counter()
            reply = self._pull()
            lat = time.perf_counter() - t0
            self._apply_pull(reply)
            return READ, lat
        kind, side, name, content = op
        client, conn = self.admin[side]
        msg = ({"kind": "cmd", "op": "remove", "name": name} if kind == "remove" else
               {"kind": "cmd", "op": "insert", "entry": _entry_json(name, content)})
        events_before = self.frames.events
        t0 = time.perf_counter()
        reply = _ack(self.ask(client, conn, msg))
        lat = time.perf_counter() - t0
        _expect(reply.get("kind") == "ack", f"{kind} {name} on {side} answered {reply}")
        _expect(self.frames.events - events_before == 1,
                f"{kind} {name} crossed the mirror channel "
                f"{self.frames.events - events_before} times")
        if kind == "remove":
            del self.docs[name]
        else:
            self.docs[name] = content
        return WRITE, lat

    def finish(self) -> None:
        a, b = (s.root for s in self.servers)
        _expect(documents(a) == self.docs, "side a differs from the replayed script")
        _expect(documents(b) == self.docs, "side b differs from the replayed script")
        while True:
            reply = self._pull()
            self._apply_pull(reply)
            if reply["at_end"]:
                break
        _expect(self.replica == self.docs, "the pull reader's replica differs")


# ---------------------------------------------------------------------------
# classifier-fanout

TOPICS = [f"topic{i:02d}" for i in range(16)]
PARETO_ALPHA = 1.16  # the 80/20 shape


def _pareto_counts(n: int) -> list[int]:
    """How many of ``n`` draws each topic gets: topic k takes the share
    P(k+1 <= X < k+2) of a Pareto X >= 1, and the last topic the tail.
    Fixed counts keep the seed from moving the volume of routed documents
    and query results."""
    cdf = [1 - (k + 1) ** -PARETO_ALPHA for k in range(len(TOPICS))] + [1.0]
    shares = [(cdf[k + 1] - cdf[k]) * n for k in range(len(TOPICS))]
    counts = [int(x) for x in shares]
    for k in sorted(range(len(TOPICS)), key=lambda k: counts[k] - shares[k])[:n - sum(counts)]:
        counts[k] += 1
    return counts


def _pareto_topics(rng: random.Random, n: int) -> list[str]:
    """``n`` topics with Pareto counts, in seeded order."""
    out = [t for t, c in zip(TOPICS, _pareto_counts(n)) for _ in range(c)]
    rng.shuffle(out)
    return out


def _spread_topics(n: int) -> list[str]:
    """``n`` topics with Pareto counts, each topic's turns spread evenly over
    the sequence.  A query's answer grows with the round, so evenly spaced
    queries keep the seed from moving the read volume."""
    slots = [((j + 0.5) / c, k) for k, c in enumerate(_pareto_counts(n)) for j in range(c)]
    return [TOPICS[k] for _, k in sorted(slots)]


class ClassifierFanout(InProcess):
    """The ``classifier`` preset with 16 topic routes on one node.

    Documents are inserted through root's admin port; their topics follow a
    Pareto distribution in seeded order and 10% carry none.  Every 10th op
    is a local ``query`` for one topic on a fresh connection, as ``npc
    query`` opens one; query topics follow the same distribution."""

    name = "classifier-fanout"
    OPS = 1100

    @classmethod
    def make_script(cls, seed: int | str, scale: float = 1.0) -> dict:
        rng = random.Random(seed)
        ops_n = max(20, int(cls.OPS * scale))
        writes_n = ops_n - ops_n // 10
        tagged = _kinds(rng, writes_n, [("tagged", 90), ("untagged", 10)])
        topics = iter(_pareto_topics(rng, tagged.count("tagged")))
        sizes = iter(_sizes(rng, writes_n))
        writes = iter([(f"d{i:05d}", next(topics) if t == "tagged" else None,
                        _text(rng, next(sizes))) for i, t in enumerate(tagged)])
        queries = iter(_spread_topics(ops_n // 10))
        ops = []
        for i in range(ops_n):
            ops.append(("query", next(queries)) if i % 10 == 9
                       else ("insert",) + next(writes))
        return {"ops": ops}

    def setup(self) -> None:
        self.boot(build_preset("classifier", {"topics": TOPICS}))
        self.docs: dict[str, bytes] = {}
        self.by_topic: dict[str, dict[str, bytes]] = {t: {} for t in TOPICS}
        self.admin = self.connect("feed", "npc://feed:7070/root/admin")

    def perform(self, op) -> tuple[str, float]:
        if op[0] == "query":
            topic = op[1]
            t0 = time.perf_counter()
            client, conn = self.connect("feed", "npc://feed:7070/root/admin")
            replies = self.ask(client, conn, {"kind": "cmd", "op": "query",
                                              "query": f'meta.topic == "{topic}"'})
            reply = _ack(replies)
            lat = time.perf_counter() - t0
            got = {r["event"]["entry"]["name"] for r in replies if r.get("kind") == "event"}
            _expect(reply.get("kind") == "ack" and reply.get("count") == len(got)
                    and got == set(self.by_topic[topic]),
                    f"query for {topic} returned {len(got)} documents, "
                    f"tally is {len(self.by_topic[topic])}")
            return READ, lat
        _, name, topic, content = op
        client, conn = self.admin
        meta = {"topic": topic} if topic else {}
        t0 = time.perf_counter()
        reply = _ack(self.ask(client, conn, {"kind": "cmd", "op": "insert",
                                             "entry": _entry_json(name, content, meta)}))
        lat = time.perf_counter() - t0
        _expect(reply.get("kind") == "ack", f"insert {name} answered {reply}")
        self.docs[name] = content
        if topic:
            self.by_topic[topic][name] = content
        return WRITE, lat

    def finish(self) -> None:
        server = self.servers[0]
        _expect(documents(server.root) == self.docs, "root differs from the script")
        for topic in TOPICS:
            _expect(documents(server.nodes[("root", topic)]) == self.by_topic[topic],
                    f"topic node {topic} differs from the script")


# ---------------------------------------------------------------------------
# doc-server-tcp

# The client's own codec, bound when this module is imported, before a
# traced run wraps the wire layer: the per-layer wire figures then cover the
# server's frames only, not the benchmark's client.
_encode_frame, _decode_body = wire.encode_frame, wire.decode_body


class CountingClient(NpcClient):
    """``NpcClient`` that counts the bytes of every frame on its socket,
    both directions, the server's closing bye included: a fetch reads to
    end of stream (see ``DocServerTcp._fetch``)."""

    def __init__(self, target: str, counter: list[int]):
        self.counter = counter
        super().__init__(target)

    def send(self, msg: dict) -> None:
        frame = _encode_frame(msg)
        self.counter[0] += len(frame)
        try:
            self.sock.sendall(frame)
        except OSError as e:
            raise TransportError(f"send failed: {e}")

    def recv_bytes(self, n: int) -> bytes:
        data = self.sock.recv(n)
        self.counter[0] += len(data)
        return data

    def _recv_exact(self, n: int, allow_eof: bool = False) -> bytes | None:
        buf = b""
        while len(buf) < n:
            chunk = self.recv_bytes(n - len(buf))
            if not chunk:
                if allow_eof and not buf:
                    return None
                raise TransportError("recv failed: stream ended mid-frame")
            buf += chunk
        return buf

    def recv(self) -> dict | None:
        """One frame, read as ``wire.read_frame`` reads it but decoded with
        the client's own codec."""
        try:
            header = self._recv_exact(4, allow_eof=True)
            if header is None:
                return None
            msg = _decode_body(self._recv_exact(struct.unpack(">I", header)[0]))
        except (wire.WireError, OSError) as e:
            raise TransportError(f"recv failed: {e}")
        if msg is not None and msg.get("kind") == "bye":
            return None
        return msg

    def close(self) -> None:
        try:
            self.send({"kind": "bye"})
        except TransportError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class DocServerTcp:
    """One real-mode ``Server`` on ephemeral npc-tcp and HTTP ports.

    Writes go over one persistent admin connection: 30% inserts or
    overwrites, 10% removes.  Reads: 30% ``fetch`` of live names and 10% of
    names never written, each on a new connection as ``npc get`` opens one,
    and 20% HTTP GET of live names."""

    name = "doc-server-tcp"
    CORPUS = 200
    OPS = 2000

    @classmethod
    def make_script(cls, seed: int | str, scale: float = 1.0) -> dict:
        rng = random.Random(seed)
        corpus_n = max(4, int(cls.CORPUS * scale))
        ops_n = max(20, int(cls.OPS * scale))
        corpus = {f"c{i:05d}": _text(rng, size)
                  for i, size in enumerate(_sizes(rng, corpus_n))}
        kinds = _kinds(rng, ops_n, [("insert", 15), ("overwrite", 15), ("remove", 10),
                                    ("fetch", 30), ("miss", 10), ("http", 20)])
        sizes = iter(_sizes(rng, ops_n))
        live = sorted(corpus)
        ops = []
        for i, kind in enumerate(kinds):
            if kind == "insert":
                live.append(f"n{i:05d}")
                ops.append(("insert", live[-1], _text(rng, next(sizes))))
            elif kind == "overwrite":
                ops.append(("insert", rng.choice(live), _text(rng, next(sizes))))
            elif kind == "remove":
                ops.append(("remove", live.pop(rng.randrange(len(live)))))
            elif kind == "miss":
                ops.append(("fetch", f"never-{i:05d}"))
            else:
                ops.append((kind, rng.choice(live)))
        return {"corpus": corpus, "ops": ops}

    def __init__(self, script):
        self.script = script
        self.counter = [0]
        self.server = None
        self.admin = None
        self.cpus = None

    def setup(self) -> None:
        # One CPU for the client and every server thread: each op hands off
        # between threads several times, and a wake-up on another, idle
        # vCPU waits for the hypervisor, which made these figures drift
        # twofold with host load.  Threads inherit the mask; close() lifts it.
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        entries = [{"name": "admin", "kind": PORT, "behavior": "admin"}]
        entries += [_config_doc(n, c) for n, c in self.script["corpus"].items()]
        config = {"host": "127.0.0.1", "npc_tcp_port": 0, "http_port": 0,
                  "root": {"entries": entries}}
        self.server = Server(ServerConfig.from_dict(config), real=True)
        self.server.start()
        self.base = f"npc://127.0.0.1:{self.server.advertised_port}/root"
        self.admin = CountingClient(f"{self.base}/admin", self.counter)
        self.threads = threading.active_count()
        self.docs = dict(self.script["corpus"])

    def _settle(self) -> None:
        """Wait until the server's per-connection threads have ended before
        the next op opens a socket.  A reader thread that outlives its
        closed connection can read from, or close, the next socket that
        reuses its descriptor (see CHANGES.md), so ops that open a
        connection never overlap that teardown."""
        deadline = time.perf_counter() + 10
        while threading.active_count() > self.threads:
            if time.perf_counter() > deadline:
                raise OpFailed("server connection threads did not end")
            time.sleep(0.0001)

    def _fetch(self, name: str) -> tuple[dict, float]:
        """The reply and when it arrived.  The request port hangs up once it
        has answered (a bye, then end of stream); the client waits for that
        before closing its own end, so the server has written its last
        frame before its reader thread can close the socket."""
        client = CountingClient(f"{self.base}/admin", self.counter)
        try:
            reply = client.roundtrip({"kind": "cmd", "op": "fetch", "name": name})
            answered = time.perf_counter()
            while client.recv_bytes(4096):
                pass
            return reply, answered
        finally:
            client.close()

    def _http_get(self, name: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.server.httpd.port, timeout=10)
        try:
            conn.request("GET", f"/root/{name}")
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def perform(self, op) -> tuple[str, float]:
        kind, name = op[0], op[1]
        t0 = time.perf_counter()
        try:
            if kind == "insert":
                reply = self.admin.roundtrip({"kind": "cmd", "op": "insert",
                                              "entry": _entry_json(name, op[2])})
            elif kind == "remove":
                reply = self.admin.roundtrip({"kind": "cmd", "op": "remove", "name": name})
            elif kind == "fetch":
                reply, answered = self._fetch(name)
            else:
                status, body = self._http_get(name)
        except (TransportError, OSError, http.client.HTTPException) as e:
            raise OpFailed(f"{kind} {name}: {e!r}")
        lat = (answered if kind == "fetch" else time.perf_counter()) - t0
        if kind in ("fetch", "http"):
            self._settle()
        if kind == "http":
            _expect(status == 200 and body == self.docs[name], f"GET {name} -> {status}")
            return READ, lat
        if kind == "fetch":
            if name in self.docs:
                _expect(reply.get("kind") == "ack"
                        and base64.b64decode(reply["content_b64"]) == self.docs[name],
                        f"fetch {name} answered {reply.get('kind')}")
            else:
                _expect(reply.get("kind") == "error" and reply.get("code") == "not-found",
                        f"fetch of missing {name} answered {reply}")
            return READ, lat
        _expect(reply.get("kind") == "ack", f"{kind} {name} answered {reply}")
        if kind == "remove":
            del self.docs[name]
        else:
            self.docs[name] = op[2]
        return WRITE, lat

    def wire_bytes(self) -> int:
        return self.counter[0]

    def history(self) -> tuple[int, int]:
        return live_history([self.server])

    def finish(self) -> None:
        client = CountingClient(f"{self.base}/admin", [0])
        try:
            reply = client.roundtrip({"kind": "cmd", "op": "list"})
        finally:
            client.close()
        entries = reply.get("entries", [])
        _expect({e["name"] for e in entries if e["kind"] == DOCUMENT} == set(self.docs),
                "list differs from the live names of the script")
        ports = [e["name"] for e in entries if e["kind"] == PORT]
        _expect(ports == ["admin"], f"ports left behind: {ports}")
        removed = [op[1] for op in self.script["ops"]
                   if op[0] == "remove" and op[1] not in self.docs]
        for name in ["never-written"] + removed[:1]:
            status, _ = self._http_get(name)
            _expect(status == 404, f"GET of missing {name} -> {status}")

    def close(self) -> None:
        if self.admin is not None:
            self.admin.close()
            self.admin = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)
            self.cpus = None


WORKLOADS = {w.name: w for w in (MirrorEdits, ClassifierFanout, DocServerTcp)}
