"""A seeded fuzz of the admin port, in the sim and against a real server.

Random ``cmd``, ``pull`` and pushed messages, with random values (and
random types) in every field, go to the doc-server preset's admin port.
After each one: no fault, ``admin`` is still a port, and an error reply
(other than from ``fetch`` or ``query``, which hand their connection to a
port they spawn) left the entry table as it was.  A fresh connection's
``list`` is answered throughout, and the clock ticks every ``TICK``
messages, so the timers of the ports the fuzz inserted fire too.

The differential test sends one seed's messages to a sim server and, over
TCP, to a real one, and requires the same replies on each connection.
"""

import random
import socket

import pytest

from npckit.apps import build_preset
from npckit.model import PORT
from npckit.ports import BEHAVIORS
from npckit.server import Server, ServerConfig
from npckit.sim import SimRun
from npckit.wire import encode_frame, read_frame

MESSAGES = 500
TICK = 25
NAMES = ["admin", "welcome", "d1", "d2", "d3", "p1", "p2", "p3", "query-1", "req-1", "", "a/b"]
GOOD_FILTERS = ["true", "false", 'entry.kind == "document"', 'meta.topic == "x"',
                'event.type == "Insert" and meta.priority > "1"']
FILTERS = GOOD_FILTERS + ["not (", "", "((true)"]
TEXTS = ["1", "0", "-1", "5", "abc", "1.5", "", "npc://web:7070/root/admin",
         "npc://nowhere:7070/root/admin", "npc://web:7070/root", "mail", "x"] + FILTERS
META_KEYS = ["origin-node", "priority", "reply-to", "input-filter", "output-filter",
             "query", "exclusive", "firewall", "topic", "request", "address", "source-name"]
CONFIG_KEYS = ["every", "after", "max", "max_age", "filter", "topic_filter", "flavor",
               "source", "target", "entry", "mode", "query_mode", "accept", "role", "stub",
               "address", "digest", "label", "query", "reply_to"]
OPS = ["list", "get", "insert", "insert", "remove", "history", "fetch", "query", "abort",
       "bogus", 3]


class Fuzz:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, values):
        return self.rng.choice(values)

    def odd(self):
        """Any JSON value, of any type."""
        return self.pick([None, True, 0, -3, 2.5, "x", "", [], ["a"], {}, {"k": "v"}])

    def maybe(self, value):
        return value if self.rng.random() < 0.97 else self.odd()

    def mapping(self, keys: list, values: list) -> dict:
        return {self.pick(keys): self.maybe(self.pick(values))
                for _ in range(self.rng.randrange(4))}

    def entry(self):
        kind = self.pick(["document", "document", "port", "port", "port", "node", "bogus"])
        entry = {"name": self.maybe(self.pick(NAMES)), "kind": self.maybe(kind),
                 "meta": self.maybe(self.mapping(META_KEYS, TEXTS))}
        if kind == "document":
            entry.update(content_b64=self.maybe(self.pick(["", "aGk=", "aGk=", "!!"])),
                         media_type=self.maybe("text/plain"))
        elif kind == "port":
            entry.update(behavior=self.maybe(self.pick(sorted(BEHAVIORS) + ["no-such", ""])),
                         config=self.maybe(self.mapping(CONFIG_KEYS, TEXTS)),
                         input_filter=self.maybe(self.pick(GOOD_FILTERS + ["not ("])),
                         output_filter=self.maybe(self.pick(GOOD_FILTERS + ["not ("])),
                         receive_flag=self.maybe(self.pick([True, False])),
                         cursor=self.maybe(self.pick([1, 2, 0])),
                         priority=self.maybe(self.pick([0, 5, -1])))
        return self.maybe(entry)

    def message(self) -> dict:
        kind = self.pick(["cmd"] * 5 + ["pull"] + ["event"] * 3 + ["hello", "bogus"])
        if kind == "cmd":
            op = self.pick(OPS)
            msg = {"kind": "cmd", "op": op}
            if op == "insert":
                msg["entry"] = self.entry()
            elif op in ("history", "query"):
                msg.update(filter=self.maybe(self.pick(FILTERS)),
                           query=self.maybe(self.pick(FILTERS)), after=self.maybe(0),
                           max=self.maybe(self.pick([0, 1, 5])))
            if op != "insert" and self.rng.random() < 0.8:
                msg["name"] = self.maybe(self.pick(NAMES))
            return msg
        if kind == "pull":
            return {"kind": "pull", "after": self.maybe(self.pick([0, 1, 3])),
                    "filter": self.maybe(self.pick(FILTERS)),
                    "max": self.maybe(self.pick([0, 1, 256]))}
        if kind == "event":
            ev = {"kind": self.maybe(self.pick(["Insert", "Insert", "Remove", "Time", "Bogus"])),
                  "entry": self.entry()}
            return {"kind": "event", "event": self.maybe(ev)}
        return {"kind": kind}


def admin_is_answering(run: SimRun) -> bool:
    """A fresh connection's ``list`` is answered."""
    run.connect("probe", "npc://web:7070/root/admin")
    run.take_replies("probe")
    run.send("probe", {"kind": "cmd", "op": "list"})
    replies = run.take_replies("probe")
    run.close("probe")
    return [r["kind"] for r in replies] == ["ack"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_messages_never_fault_or_take_the_admin_port_away(seed):
    fuzz = Fuzz(seed)
    run = SimRun()
    run.add_server(build_preset("doc-server")[0])
    run.quiesce()
    server = run.server("web")
    table = server.root.entries
    for i in range(MESSAGES):
        conn = run.conns.get("c")
        if conn is None or conn.closed:  # fetch and query take their connection along
            run.connect("c", "npc://web:7070/root/admin")
            run.take_replies("c")
        msg = fuzz.message()
        before = dict(table)
        run.send("c", msg)
        replies = run.take_replies("c")
        context = f"message {i}: {msg!r} -> {replies!r}"
        assert server.faults == 0, context
        assert table["admin"].kind == PORT, context
        if (any(r.get("kind") == "error" for r in replies)
                and msg.get("op") not in ("fetch", "query")):
            assert table == before, context
        if i % TICK == TICK - 1:
            run.tick()
            assert server.faults == 0, f"tick after {context}"
        if i % 100 == 99:
            assert admin_is_answering(run), context
    assert admin_is_answering(run)


# -- the same replies from a sim server and a real one ---------------------------

DIFFERENTIAL = 200
SOCKETS = 3
BARRIER = {"kind": "cmd", "op": "get", "name": "admin"}


def doc_server_at(port: int) -> dict:
    """The doc-server preset on 127.0.0.1, without HTTP, that dials no one:
    the forwarders and pullers the fuzz inserts never reach a name lookup.
    Nothing ticks either clock, so no timer fires."""
    config = build_preset("doc-server", {"host": "127.0.0.1"})[0]
    del config["http_port"]
    return {**config, "npc_tcp_port": port, "firewall": "deny out *:* npc-tcp"}


class Client:
    """One connection to the real server on a socket of the test's own:
    frames go out in random pieces of 1 to 7 bytes, and come in through a
    4 KiB receive buffer and ``wire.read_frame``."""

    def __init__(self, port: int, rng: random.Random):
        self.rng = rng
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(10)
        self.sock.connect(("127.0.0.1", port))

    def send(self, msg: dict) -> None:
        frame, at = encode_frame(msg), 0
        while at < len(frame):
            step = self.rng.randint(1, 7)
            self.sock.sendall(frame[at:at + step])
            at += step

    def recv(self) -> dict | None:
        return read_frame(self.sock.recv)

    def replies(self, barrier: dict | None = None, count: int = 0) -> list:
        """The frames up to the ``count``-th that equals ``barrier``, or
        without a barrier, up to the end of the stream."""
        frames = []
        while (frame := self.recv()) is not None:
            frames.append(frame)
            count -= frame == barrier
            if barrier is not None and count == 0:
                break
        return frames


@pytest.mark.parametrize("seed", [1])
def test_a_sim_server_and_a_real_one_give_the_same_replies(seed):
    rng = random.Random(seed)
    fuzz = Fuzz(seed)
    real = Server(ServerConfig.from_dict(doc_server_at(0)), real=True, clock=lambda: 0)
    real.start()
    clients: dict[int, Client] = {}
    try:
        port = real.advertised_port
        target = f"npc://127.0.0.1:{port}/root/admin"
        run = SimRun()
        run.add_server(doc_server_at(port))
        run.quiesce()
        sim = run.server("127.0.0.1")
        for i in range(DIFFERENTIAL):
            slot = rng.randrange(SOCKETS)
            cid = f"c{slot}"
            if slot not in clients:  # (re)open the slot in both modes
                run.connect(cid, target)
                clients[slot] = Client(port, rng)
                clients[slot].send({"kind": "hello", "target": target})
                assert [clients[slot].recv()] == run.take_replies(cid), i
            msg = fuzz.message()
            client = clients[slot]
            run.send(cid, msg)
            client.send(msg)
            if run.conns[cid].closed:  # a spawned port answered and hung up
                want, got = run.take_replies(cid), client.replies()
                clients.pop(slot).sock.close()
                run.conns.pop(cid)
            else:
                run.send(cid, BARRIER)
                client.send(BARRIER)
                want = run.take_replies(cid)
                got = client.replies(want[-1], want.count(want[-1]))
            assert got == want, f"message {i} on {cid}: {msg!r}"
        assert sim.faults == real.faults == 0
    finally:
        for client in clients.values():
            client.sock.close()
        real.stop()
