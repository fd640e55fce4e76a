"""Deterministic simulation: virtual time, traced actions, scripted runs.

A scenario is data: server configs plus a list of stimuli.  The runner
wires every server to one loopback network, one virtual clock, and one
trace, then applies the stimuli in order, settling the whole network to
quiescence between steps.  Identical scenarios produce identical traces,
which is what the scenario tests pin down.
"""

from __future__ import annotations

from .gateways import LoopbackNetwork
from .httpd import http_request
from .server import Server, ServerConfig
from .wire import WireError, event_from_json

BUDGET = 1_000_000


class SimError(Exception):
    pass


class VirtualClock:
    def __init__(self, t: int = 0):
        self.t = t

    def __call__(self) -> int:
        return self.t

    def advance(self, dt: int) -> int:
        self.t += dt
        return self.t


class Tracer:
    """Collects one line per traced action, stamped with virtual time."""

    def __init__(self, clock):
        self.clock = clock
        self.rows: list[tuple[int, str, str, str]] = []

    def record(self, actor: str, action: str, detail: str) -> None:
        self.rows.append((self.clock(), actor, action, detail))

    def lines(self) -> list[str]:
        return [f"{t}\t{actor}\t{action}\t{detail}"
                for t, actor, action, detail in self.rows]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.rows else "")


def assert_trace(lines: list[str], patterns: list[str]):
    """Ordered subsequence match: every pattern must hit some later line.

    Patterns are shell globs over whole lines.  Returns None on success or
    the index of the first pattern that found no line.
    """
    from .filters import glob_match
    at = 0
    for i, pat in enumerate(patterns):
        while at < len(lines) and not glob_match(pat, lines[at]):
            at += 1
        if at == len(lines):
            return i
        at += 1
    return None


class SimClient:
    """Scripted stand-in for a remote process on the loopback network."""

    host = "client"

    def __init__(self, name: str):
        self.name = name
        self.replies: list[dict] = []

    def describe(self) -> str:
        return self.name

    def enqueue(self, conn, msg) -> None:
        self.replies.append(msg)


class SimRun:
    """Everything a finished (or in-flight) scenario exposes to a test."""

    def __init__(self):
        self.clock = VirtualClock()
        self.tracer = Tracer(self.clock)
        self.network = LoopbackNetwork()
        self.servers: dict[str, Server] = {}
        self.clients: dict[str, SimClient] = {}
        self.conns: dict[str, object] = {}
        self.http: list[tuple[int, bytes]] = []
        self.steps_used = 0

    def server(self, host: str) -> Server:
        try:
            return self.servers[host]
        except KeyError:
            raise SimError(f"no server {host!r} in scenario")

    def add_server(self, config: dict) -> Server:
        cfg = ServerConfig.from_dict(config)
        s = Server(cfg, network=self.network, clock=self.clock, tracer=self.tracer)
        if cfg.host in self.servers:
            raise SimError(f"duplicate server host {cfg.host!r}")
        self.servers[cfg.host] = s
        return s

    def _spend(self, n: int) -> None:
        self.steps_used += n
        if self.steps_used > BUDGET:
            raise SimError(f"step budget exceeded ({BUDGET})")

    def round(self) -> int:
        """One pass of every server, in the order they were added; returns
        how much moved anywhere."""
        moved = sum(s.run_once(BUDGET) for s in self.servers.values())
        self._spend(max(moved, 1))
        return moved

    def quiesce(self) -> None:
        """Run rounds until one moves nothing anywhere."""
        while self.round():
            pass

    def tick(self, dt: int = 1) -> None:
        self.clock.advance(dt)
        for s in self.servers.values():
            s.tick_timers(self.clock())
        self.quiesce()

    def connect(self, conn_id: str, target: str) -> None:
        from .model import parse_url
        url = parse_url(target)
        client = SimClient(f"client-{conn_id}")
        conn = self.network.connect(client, url.host, url.tcp_port)
        if conn is None:
            raise SimError(f"connect {conn_id}: nobody at {url.host}:{url.tcp_port}")
        self.clients[conn_id] = client
        self.conns[conn_id] = conn
        conn.send({"kind": "hello", "target": target})
        self.quiesce()

    def send(self, conn_id: str, msg: dict) -> None:
        conn = self.conns.get(conn_id)
        if conn is None:
            raise SimError(f"send on unknown conn {conn_id!r}")
        conn.send(msg)
        self.quiesce()

    def close(self, conn_id: str) -> None:
        conn = self.conns.pop(conn_id, None)
        if conn is not None:
            conn.close()
        self.quiesce()

    def replies(self, conn_id: str) -> list[dict]:
        client = self.clients.get(conn_id)
        return list(client.replies) if client is not None else []

    def take_replies(self, conn_id: str) -> list[dict]:
        client = self.clients.get(conn_id)
        if client is None:
            return []
        out, client.replies = client.replies, []
        return out


def _field(stim: dict, key: str):
    """``stim[key]``, a field its kind of stimulus needs."""
    try:
        return stim[key]
    except KeyError:
        raise SimError(f"{stim.get('do')} stimulus without {key!r}") from None


def apply_stimulus(run: SimRun, stim: dict) -> None:
    do = stim.get("do")
    if do == "quiesce":
        run.quiesce()
    elif do == "tick":
        run.tick(stim.get("dt", 1))
    elif do == "steps":
        for _ in range(stim.get("n", 1)):
            run.round()
    elif do == "post":
        s = run.server(_field(stim, "server"))
        node = s.nodes.get(tuple(stim.get("node", (s.config.root_name,))))
        if node is None:
            raise SimError(f"post: no node {stim.get('node')}")
        try:
            ev = event_from_json(_field(stim, "event"))
        except WireError as e:
            raise SimError(f"post: bad event: {e}")
        node.post_event(stim.get("port", "@node"), ev)
        run.quiesce()
    elif do == "connect":
        run.connect(_field(stim, "id"), _field(stim, "target"))
    elif do == "send":
        run.send(_field(stim, "conn"), _field(stim, "msg"))
    elif do == "close":
        run.close(_field(stim, "conn"))
    elif do == "http":
        s = run.server(_field(stim, "server"))
        body = stim.get("body_text", "").encode("utf-8") \
            if "body_text" in stim else stim.get("body", b"")
        status, _, payload = http_request(s, stim.get("method", "GET"),
                                          _field(stim, "path"), body,
                                          stim.get("content_type"))
        run.http.append((status, payload))
        run.quiesce()
    else:
        raise SimError(f"unknown stimulus {do!r}")


def run_scenario(scenario: dict) -> SimRun:
    if not isinstance(scenario, dict):
        raise SimError("a scenario is an object of servers and stimuli")
    run = SimRun()
    for config in scenario.get("servers", []):
        run.add_server(config)
    run.quiesce()
    for stim in scenario.get("stimuli", []):
        apply_stimulus(run, stim)
    return run
