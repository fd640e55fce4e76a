"""A server hosts a tree of nodes behind one network identity.

The server owns the boring plumbing: building nodes from configuration,
spawning behaviors when port entries appear, routing inbound channel
messages to the port that owns the connection, dialing out with firewall
checks, and driving delivery.  All of it runs on a single driver thread
(or the sim loop), which also does all socket I/O, npc-tcp and HTTP,
through one selector; other threads only ever call ``run_soon`` or ``stop``.
"""

from __future__ import annotations

import collections
import selectors
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

from .filters import parse_filter  # noqa: F401  (wrapped by name in bench/spans.py)
from .firewall import IN, OUT, FirewallError, check, parse_rules
from .gateways import MailStub, RepoStub, TcpConn, TcpListener, Waker, dial_tcp
from .history import NODE_ORIGIN, SUSPEND, insert_event
from .httpd import HttpConn
from .model import DOCUMENT, Entry, EntryUrl, NODE, UrlError, parse_url, valid_name
from .node import Node, ReadyRing
from .ports import BEHAVIORS, RESERVED_META, PortContext, admission_fault
from .wire import BYE, ERROR, HELLO, WireError, check_text, entry_from_json, get_int
from . import behaviors as _stock_behaviors  # noqa: F401  (fills BEHAVIORS)


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


@dataclass
class ServerConfig:
    host: str
    npc_tcp_port: int = 7070
    http_port: int | None = None
    rules: list = field(default_factory=list)  # the firewall's
    max_history: int | None = None
    root_name: str = "root"
    entries: list = field(default_factory=list)  # (Entry, children) pairs
    stubs: dict = field(default_factory=dict)  # name -> (type, a repo's documents)

    @classmethod
    def from_dict(cls, d: dict, path: str = "config") -> "ServerConfig":
        _require(isinstance(d, dict), path, "must be an object")
        host = d.get("host")
        _require(isinstance(host, str) and host, f"{path}.host", "required string")
        try:
            check_text(d)
            port = get_int(d, "npc_tcp_port", 7070, 0, 65535)
            http_port = get_int(d, "http_port", None, 0, 65535)
            max_history = get_int(d, "max_history", None, 1)
        except WireError as e:
            raise _config_error(path, e) from None
        firewall = d.get("firewall", "")
        _require(isinstance(firewall, str), f"{path}.firewall", "rule text")
        try:
            rules = parse_rules(firewall)
        except FirewallError as e:
            raise ConfigError(f"{path}.firewall", str(e)) from None
        root = d.get("root", {})
        _require(isinstance(root, dict), f"{path}.root", "must be an object")
        root_name = root.get("name", "root")
        _require(valid_name(root_name), f"{path}.root.name", "entry name")
        raw_entries = root.get("entries", [])
        _require(isinstance(raw_entries, list), f"{path}.root.entries", "must be a list")
        entries = [parse_entry_def(e, f"{path}.root.entries[{i}]")
                   for i, e in enumerate(raw_entries)]
        stubs = d.get("stubs", {})
        _require(isinstance(stubs, dict), f"{path}.stubs", "must be an object")
        return cls(host.lower(), port, http_port, rules, max_history, root_name, entries,
                   {name: parse_stub(spec, f"{path}.stubs.{name}")
                    for name, spec in stubs.items()})


def parse_stub(spec, path: str) -> tuple[str, list]:
    """A stub definition as (type, the documents of a ``repo`` stub)."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    _require(kind in ("mail", "repo"), path, f"unknown stub type {kind!r}")
    docs = spec.get("documents", []) if kind == "repo" else []
    _require(isinstance(docs, list), f"{path}.documents", "must be a list")
    return kind, [parse_entry_def(doc, f"{path}.documents[{i}]")[0]
                  for i, doc in enumerate(docs)]


def _config_error(path: str, e: WireError) -> ConfigError:
    return ConfigError(f"{path}.{e.field}" if e.field else path, str(e))


def parse_entry_def(d: dict, path: str):
    """Turn one config entry definition into (Entry, child definitions).

    A definition is an entry as the wire carries it, parsed and checked by
    ``wire.entry_from_json``, with three conveniences: ``kind`` defaults to
    ``document``; a document may give UTF-8 ``content_text`` in place of
    ``content_b64``, and its media type defaults to ``text/plain``; and a
    node lists its children's definitions under ``entries``.  Then the
    entry is admitted as on every path in, by ``ports.admission_fault``."""
    try:
        entry = entry_from_json(d, kind=DOCUMENT, media_type="text/plain",
                                text_field="content_text")
    except WireError as e:
        raise _config_error(path, e) from None
    fault = admission_fault(entry)
    if fault is not None:
        raise ConfigError(f"{path}.{fault[0]}", fault[2])
    if entry.kind == NODE:
        children = d.get("entries", [])
        _require(isinstance(children, list), f"{path}.entries", "must be a list")
        return entry, [parse_entry_def(e, f"{path}.entries[{i}]")
                       for i, e in enumerate(children)]
    return entry, None


class Server:
    def __init__(self, config: ServerConfig, network=None, clock=None,
                 tracer=None, real: bool = False):
        self.config = config
        self.host = config.host
        self.network = network
        self.real = real
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.tracer = tracer
        self.nodes: dict[tuple, Node] = {}
        self.behaviors: dict[tuple, object] = {}
        self._deferred: list[tuple] = []
        self.faults = 0
        self.inbound: collections.deque = collections.deque()
        self._query_counter = 0
        self._ready = ReadyRing()  # of nodes, ticketed in creation order
        self._tickets = 0
        self.listener = None
        self.httpd = None  # the HTTP listener, when HTTP is on
        self._driver: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        self._waker: Waker | None = None  # wakes the real-mode driver; set by start()
        self._stopping = False
        self.advertised_port = config.npc_tcp_port
        self._boot()
        if network is not None:
            network.register(config.host, self.advertised_port, self)

    # -- identity ---------------------------------------------------------------

    def describe(self) -> str:
        return f"{self.config.host}:{self.advertised_port}"

    def next_name(self, prefix: str, node: Node) -> str:
        """A name for a port spawned on ``node``, never one in use there."""
        while True:
            self._query_counter += 1
            name = f"{prefix}-{self._query_counter}"
            if name not in node.entries:
                return name

    def url_for(self, node: Node) -> EntryUrl:
        return EntryUrl(self.config.host, self.advertised_port, node.path)

    def _trace(self, action: str, detail: str, *args) -> None:
        """Trace ``detail``, formatted with ``args`` when there are any.
        Without a tracer nothing is formatted."""
        if self.tracer is not None:
            self.tracer.record(self.describe(), action, detail.format(*args) if args else detail)

    # -- boot ---------------------------------------------------------------------

    def _make_node(self, path: tuple) -> Node:
        node = Node(path=path, clock=self.clock, max_history=self.config.max_history,
                    tracer=self.tracer)
        node.actor_base = self.config.host
        node.on_port_inserted = lambda entry, n=node: self._spawn_port(n, entry)
        node.on_port_removed = lambda name, entry, n=node: self._stop_port(n, name)
        node.on_node_inserted = lambda entry, n=node: self._bind_subnode(n, entry)
        node.on_node_removed = lambda name, n=node: self._retire_subtree(n, name)
        node.slot = (self._ready, self._tickets)
        self._tickets += 1
        self.nodes[path] = node
        return node

    def _boot(self) -> None:
        self.stubs = {name: MailStub(name) if kind == "mail" else RepoStub(name, docs)
                      for name, (kind, docs) in self.config.stubs.items()}
        self.root = self._make_node((self.config.root_name,))
        self._populate(self.root, self.config.entries)

    def _populate(self, node: Node, defs: list) -> None:
        for entry, children in defs:
            node.post_event(NODE_ORIGIN, insert_event(entry))
            if children is not None:
                child = self.nodes[node.path + (entry.name,)]
                self._populate(child, children)

    def _bind_subnode(self, parent: Node, entry: Entry) -> None:
        path = parent.path + (entry.name,)
        if path not in self.nodes:
            self._make_node(path)

    def _retire_subtree(self, parent: Node, name: str) -> None:
        """Retire the subnode ``name`` of ``parent`` and every node below
        it: their ports stop as on a port removal, and the nodes leave the
        tree and the ready ring.  A node entry inserted again under the
        name starts an empty subnode."""
        path = parent.path + (name,)
        for p in [p for p in self.nodes if p[:len(path)] == path]:
            self.nodes.pop(p).retire()
        if self._ready.start > self._last_ticket():
            # nothing left at or after the start: the next turn wraps
            self._ready.start = 0

    def _last_ticket(self) -> int:
        return next(reversed(self.nodes.values())).slot[1]

    # -- behaviors -------------------------------------------------------------------

    def _spawn_port(self, node: Node, entry: Entry) -> None:
        cls = BEHAVIORS.get(entry.payload.behavior)
        if cls is None:
            self._trace("spawn-failed", f"{node.path_text}:{entry.name} "
                                        f"unknown behavior {entry.payload.behavior!r}")
            return
        attachment = node.attachments.pop(entry.name, None)
        ctx = PortContext(self, node, entry.name, attachment)
        try:
            b = cls(ctx)
        except Exception as e:  # as a hook that raises: traced, counted, retired
            self._fault(ctx.trace, "__init__", e)
            ctx.self_remove()
            return
        key = (node.path, entry.name)
        self.behaviors[key] = b
        node.sinks[entry.name] = partial(self._hook, b, "on_event")
        if entry.payload.receive_flag:
            node.create_default_subscription(entry.name, entry.payload)
        if attachment is not None:
            self._hand_over(attachment, key)
        self._hook(b, "on_start")

    def _stop_port(self, node: Node, name: str) -> None:
        """Retire the port's behavior and close the connections it owns."""
        b = self.behaviors.pop((node.path, name), None)
        if b is not None:
            self._hook(b, "on_stop", "removed")
            conns, b.ctx.conns = b.ctx.conns, {}
            for conn in conns.values():
                conn.close()

    def _hook(self, b, hook: str, *args):
        """Run ``b``'s method ``hook``: the one way into behavior code.

        A node-issued Suspend goes no further for classes that set
        ``resume_on_suspend``; the port is resumed instead.  A hook that
        raises is traced as a ``fault`` and its port retired with a
        node-issued Remove, so mirrors see it go, and its traceback goes to
        stderr.  A port that faults in ``on_stop`` is not retired again:
        it is already on its way out."""
        try:
            if hook == "on_event" and b.resume_on_suspend:
                ev, subscription = args
                if ev.kind == SUSPEND and ev.origin_port == NODE_ORIGIN:
                    b.ctx.resume(subscription)
                    return False
            return getattr(b, hook)(*args)
        except Exception as e:
            self._fault(b.ctx.trace, hook, e)
            if hook != "on_stop":
                b.ctx.self_remove()
            return None

    def _guard(self, where: str, fn) -> None:
        """Run ``fn``, a task or socket callback of the driver, which a
        raise must not stop."""
        try:
            fn()
        except Exception as e:
            self._fault(self._trace, where, e)

    def _fault(self, trace, where: str, e: Exception) -> None:
        self.faults += 1
        trace("fault", f"{where}: {type(e).__name__}: {e}")
        traceback.print_exc()

    def defer(self, key: tuple, method: str) -> None:
        self._deferred.append((key, self.behaviors[key], method))

    def behavior_at(self, path: tuple, name: str):
        return self.behaviors.get((path, name))

    # -- connections --------------------------------------------------------------------

    def enqueue(self, conn, msg: dict) -> None:
        """Queue ``msg`` from ``conn``; called on the driving thread."""
        self.inbound.append((conn, msg))

    def accept_conn(self, conn, peer_host: str | None = None) -> bool:
        if peer_host is not None and not self.admits(IN, peer_host, self.advertised_port,
                                                     "npc-tcp"):
            conn.close()
            return False
        self._trace("accept", conn.label)
        return True

    def _accept(self, protocol: str, make_conn, sock, addr) -> None:
        """Admit a socket a listener accepted, npc-tcp and HTTP alike: the
        inbound rules see its peer, the local port it came in on and the
        listener's ``protocol``."""
        if not self.admits(IN, addr[0], sock.getsockname()[1], protocol):
            sock.close()
            return
        make_conn(sock, addr)

    def _npc_conn(self, sock, addr) -> None:
        self.accept_conn(TcpConn(f"tcp:{addr[0]}:{addr[1]}", sock, self.enqueue, self._selector))

    def admits(self, direction: str, host: str, port: int, protocol: str,
               own_rules: list | None = None) -> bool:
        """The one firewall decision, traced when it refuses: the server's
        rules, then those of the port that dials, the first match deciding."""
        rules = self.config.rules + own_rules if own_rules else self.config.rules
        if check(rules, direction, host, port, protocol):
            return True
        self._trace("refuse", f"{direction} {host}:{port} {protocol}")
        return False

    def dial(self, url_text: str, owner: tuple | None = None):
        try:
            url = parse_url(url_text)
        except UrlError:
            self._trace("dial-failed", f"bad url {url_text!r}")
            return None
        node = self.nodes.get(owner[0]) if owner is not None else None
        entry = node.entries.get(owner[1]) if node is not None else None
        own_rules = RESERVED_META["firewall"](entry.meta.get("firewall", "")) if entry else None
        if not self.admits(OUT, url.host, url.tcp_port, "npc-tcp", own_rules):
            return None
        conn = None
        if self.network is not None:
            conn = self.network.connect(self, url.host, url.tcp_port)
        if conn is None and self.real:
            try:
                conn = dial_tcp(url.host, url.tcp_port, self.enqueue, self._selector)
            except OSError:
                conn = None
        if conn is None:
            self._trace("dial-failed", f"{url.host}:{url.tcp_port} unreachable")
            return None
        self._hand_over(conn, owner)
        conn.send({"kind": HELLO, "target": url.text()})
        self._trace("send", f"hello -> {url.text()}")
        return conn

    def _hand_over(self, conn, key: tuple | None) -> None:
        """Make the port at ``key`` the owner of ``conn``: the one way a
        connection changes hands.  Its messages then go to that port, and
        the port's retirement closes it."""
        self._disown(conn)
        conn.owner = key
        b = self.behaviors.get(key)
        if b is not None:
            b.ctx.conns[conn.id] = conn

    def _disown(self, conn) -> None:
        """Take ``conn`` out of its owner's record, but not from its owner."""
        b = self.behaviors.get(conn.owner)
        if b is not None:
            b.ctx.conns.pop(conn.id, None)

    def release_conn(self, conn) -> None:
        self._disown(conn)
        conn.close()

    def stub(self, name: str):
        s = self.stubs.get(name)
        return s if s is not None and self.admits(OUT, name, 1, "stub") else None

    # -- inbound dispatch ---------------------------------------------------------------

    def run_soon(self, fn) -> None:
        """Run ``fn`` on the driving thread, from any thread, so node state
        is only ever touched from one place."""
        self.inbound.append((None, fn))
        if self._waker is not None:
            self._waker.wake()

    def _dispatch(self, item) -> None:
        conn, msg = item
        if conn is None and callable(msg):
            self._guard("run_soon", msg)
        else:
            self.handle_message(conn, msg)

    def pump(self) -> int:
        """Handle every queued inbound message; returns how many."""
        handled = 0
        inbound = self.inbound
        while inbound:
            self._dispatch(inbound.popleft())
            handled += 1
        return handled

    def handle_message(self, conn, msg: dict) -> None:
        kind = msg.get("kind")
        self._trace("recv", "{} on {}", kind, conn.label)
        if kind == BYE:
            self._handle_bye(conn)
            return
        if conn.owner is None:
            if kind == HELLO:
                self._handle_hello(conn, msg)
            else:
                self._refuse(conn, "no-hello", "first frame must be hello")
            return
        b = self.behaviors.get(conn.owner)
        if b is None:
            conn.send({"kind": ERROR, "code": "not-found",
                       "message": "owning port is gone"})
            return
        self._hook(b, "on_external", conn, msg)

    def _handle_hello(self, conn, msg: dict) -> None:
        target = msg.get("target")
        try:
            url = parse_url(target if isinstance(target, str) else "")
        except UrlError:
            self._refuse(conn, "not-found", f"bad target {target!r}")
            return
        if len(url.path) < 2:
            self._refuse(conn, "not-found", "hello target must be a port")
            return
        key = (url.path[:-1], url.name)
        if key not in self.behaviors:
            self._refuse(conn, "not-found", f"no port at {target}")
            return
        self._hand_over(conn, key)
        conn.send({"kind": HELLO, "node": self.url_for(self.nodes[key[0]]).text()})

    def _refuse(self, conn, code: str, message: str) -> None:
        conn.send({"kind": ERROR, "code": code, "message": message})
        self.release_conn(conn)

    def _handle_bye(self, conn) -> None:
        conn.closed = True
        b = self.behaviors.get(conn.owner)
        if b is not None:
            self._hook(b, "on_external", conn, {"kind": BYE})
        self._disown(conn)
        conn.close()  # a peer that said bye but stays connected holds nothing

    # -- driving ------------------------------------------------------------------------

    def deliver_step(self) -> bool:
        """One delivery somewhere in the tree, fair across nodes: the next
        node in ring order that has a subscription ready.  A node is in
        the ready ring exactly while it has one."""
        ring = self._ready
        # read before the turn: a subnode that the delivery builds takes
        # its first turn after the ring wraps
        last = self._last_ticket()
        pos = ring.start
        while ring.ready:
            ticket, node = ring.first_ready(pos)
            if node.deliver_step() is not None:
                ring.start = ticket + 1 if ticket < last else 0
                return True
            pos = ticket + 1
        return False

    def drain(self, limit: int = 100000) -> int:
        steps = 0
        while steps < limit and self.deliver_step():
            steps += 1
        return steps

    def step_behaviors(self) -> int:
        """Run the work ports deferred, in the order they deferred it, and
        return how much ran; work of a port retired since is dropped."""
        work, self._deferred = self._deferred, []
        ran = 0
        for key, b, method in work:
            if self.behaviors.get(key) is b:
                self._hook(b, method)
                ran += 1
        return ran

    def tick_timers(self, now: int | None = None) -> int:
        t = self.clock() if now is None else now
        return sum(len(node.tick(t)) for node in list(self.nodes.values()))

    def run_once(self, limit: int = 100000) -> int:
        """One pass of the driving loop, the only one there is: handle the
        inbound queue, deliver what is due, run deferred work.  Returns how
        much moved; 0 means the server is idle until something arrives or
        a timer fires."""
        return self.pump() + self.drain(limit) + self.step_behaviors()

    def settle(self, limit: int = 100000) -> int:
        """Run passes until nothing moves. Single-server only;
        multi-server setups settle through the sim loop."""
        total = 0
        while did := self.run_once(limit):
            total += did
            if total > limit:
                raise RuntimeError("server did not settle within limit")
        return total

    def _next_deadline(self) -> int | None:
        """When the earliest timer of any node fires; None without timers."""
        return min((t.next_fire for node in self.nodes.values()
                    for t in node.timers.values()), default=None)

    # -- real mode ----------------------------------------------------------------------

    def start(self) -> None:
        """Bind sockets and run the driver loop on a background thread."""
        self._selector = selectors.DefaultSelector()
        self.listener = TcpListener("0.0.0.0", self.config.npc_tcp_port, self._selector,
                                    partial(self._accept, "npc-tcp", self._npc_conn))
        self.advertised_port = self.listener.port  # the one bound, when asked for 0
        self._waker = Waker(self._selector)
        if self.config.http_port is not None:
            self.httpd = TcpListener("0.0.0.0", self.config.http_port, self._selector,
                                     partial(self._accept, "http", partial(HttpConn, self)))
        self._driver = threading.Thread(target=self._drive, daemon=True)
        self._driver.start()

    def _drive(self) -> None:
        """Fire due timers and run passes.  After a pass that moved
        something, poll the selector, so sockets are served however busy
        the driver is; after one that moved nothing, wait on it until a
        socket is ready or the next timer is due.  Every socket is read,
        written and closed here."""
        select = self._selector.select
        try:
            while not self._stopping:
                self.tick_timers()
                if self.run_once():
                    timeout = 0
                else:
                    deadline = self._next_deadline()
                    timeout = None if deadline is None else max(0, deadline - self.clock()) / 1000
                for key, mask in select(timeout):
                    if mask & selectors.EVENT_WRITE:
                        self._guard("socket", key.data.on_writable)
                    if mask & selectors.EVENT_READ:
                        self._guard("socket", key.data.on_readable)
        finally:
            # the listeners, every connection (with a bye or its HTTP answer)
            # and the waker; output a peer has not taken by now is dropped
            for key in list(self._selector.get_map().values()):
                key.data.close()
            for key in list(self._selector.get_map().values()):
                key.data.drop()
            self._selector.close()

    def stop(self) -> None:
        self._stopping = True
        if self._driver is not None:
            self._waker.wake()
            self._driver.join(timeout=2)
