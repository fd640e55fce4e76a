"""Nodes: entry tables, event posting, and fair delivery to subscriptions.

A node is a single sequential process.  Ports post events to it; accepted
entry events land in the history and are then delivered, one per step, to
the subscriptions whose effective filter matches.  A filter index routes
each appended event to the queue of every subscription it matches, and
delivery serves the ready subscriptions round-robin so that no consumer
starves.

A subscription's cursor moves only when that subscription is served: past
each event it takes from its queue, delivered or passed over, and to the
end of the history when the node sends it its end-of-history Suspend.
Serving other subscriptions never moves it.  A Receive rescans the history
from the cursor with the new filter.

Flow control follows the port protocol: a Receive arms a subscription, a
Suspend from the port pauses it, a Resume rearms it, and when a subscription
has seen everything the node emits a Suspend to the port.  A Resume posted
at the end of the history is recorded so that pull-side ports can notice
fresh demand; a Close ends the subscription and cancels those Resumes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .filters import And, FilterExpr, TRUE, FilterIndex, ValueMap, entry_field, eval_filter
from .history import (Event, EventHistory, INSERT, KINDS, NODE_ORIGIN, REMOVE,
                      SUSPEND, TIME, is_exclusive)
from .model import Entry, NODE, PORT, PortSpec


class NodeError(Exception):
    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


@dataclass
class TimerSpec:
    """Periodic source of Time events, one every ``every`` clock units."""

    label: str
    every: int
    next_fire: int = 0
    port: str | None = None  # the owner; its timers retire with it


@dataclass
class Subscription:
    port: str
    name: str
    dyn_filter: FilterExpr
    flag: bool = False
    cursor: int = 1
    at_end_notified: bool = False
    pending: deque = field(default_factory=deque)
    offered: set = field(default_factory=set)
    ticket: int = 0  # place in the delivery ring
    ready: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.port, self.name)


@dataclass
class Holdings:
    """What one port owns on its node, released as one when it retires."""

    subs: dict = field(default_factory=dict)  # name -> Subscription
    timers: set = field(default_factory=set)  # labels


class ReadyRing:
    """Round-robin over ticketed members, visiting only the ready ones.

    Tickets only grow, so ticket order is ring order.  The next turn goes
    to the first ready member whose ticket is at least ``start``, wrapping
    around.
    """

    def __init__(self):
        self.ready: list[tuple] = []  # (ticket, member), ascending
        self.start = 0

    def add(self, ticket: int, member) -> None:
        insort(self.ready, (ticket, member))

    def discard(self, ticket: int) -> None:
        del self.ready[bisect_left(self.ready, (ticket,))]

    def first_ready(self, pos: int) -> tuple:
        """The first ready member at or after ticket ``pos``, wrapping."""
        i = bisect_left(self.ready, (pos,))
        return self.ready[i if i < len(self.ready) else 0]


@dataclass
class Delivered:
    port: str
    subscription: str
    event: Event


class Node:
    """Entry table plus event history plus delivery state.

    ``sinks`` maps a port name to a callable ``(event, subscription) ->
    consumed`` invoked for each delivery; the port runtime installs one per
    spawned behavior and tests may install plain functions.  The insert and
    remove hooks let the surrounding server spawn behaviors and build and
    retire subnodes without the node knowing about either.
    """

    def __init__(self, path: tuple[str, ...] = (), clock=None, max_history: int | None = None,
                 tracer=None):
        self.path = path
        self.actor_base = ""
        self.clock = clock or (lambda: 0)
        self.history = EventHistory(max_events=max_history, clock=self.clock)
        self.entries: dict[str, Entry] = {}
        self.subs: dict[tuple[str, str], Subscription] = {}
        self.sinks: dict[str, object] = {}
        self.timers: dict[str, TimerSpec] = {}
        self.held: dict[str, Holdings] = {}  # port name -> what it owns
        self.attachments: dict[str, object] = {}  # port name -> the connection it is spawned with
        self.index = FilterIndex()
        self.tracer = tracer
        self.on_port_inserted = None
        self.on_port_removed = None
        self.on_node_inserted = None
        self.on_node_removed = None
        # (ring, ticket) of this node in the ready ring of the server that
        # drives it
        self.slot = None
        self._ring = ReadyRing()
        self._tickets = 0
        self._table = ValueMap()  # entry field -> value -> names, as looked up

    # -- naming ------------------------------------------------------------

    @property
    def path_text(self) -> str:
        return self.actor_base + "/" + "/".join(self.path)

    def _trace(self, action: str, port: str, detail: str, *args) -> None:
        """Trace ``detail.format(*args)`` as the action of ``port``, or of
        the node itself for ``@node``.  Without a tracer nothing is
        formatted."""
        if self.tracer is not None:
            self.tracer.record(self._port_actor(port), action, detail.format(*args))

    # -- spec access ---------------------------------------------------------

    def port_spec(self, port: str) -> PortSpec | None:
        e = self.entries.get(port)
        if e is not None and e.kind == PORT and isinstance(e.payload, PortSpec):
            return e.payload
        return None

    def _effective(self, sub: Subscription) -> FilterExpr:
        spec = self.port_spec(sub.port)
        if spec is None:
            return sub.dyn_filter
        return And(spec.input_filter, sub.dyn_filter)

    # -- posting -------------------------------------------------------------

    def post_event(self, from_port: str, ev: Event) -> Event | None:
        """Accept an event from a port (or from the node itself as
        ``@node``), returning the stamped event if it was recorded.

        Entry and Time events from ports must pass the port's output filter.
        Subscription control events bypass it: they only affect the posting
        port's own delivery and a port with data-only filters could never
        subscribe otherwise.  A port never inserts or removes its own entry,
        so nothing arriving on its connections can replace or retire it.
        """
        if ev.seq != 0:
            raise NodeError("already-stamped", f"seq {ev.seq}")
        if ev.kind not in KINDS:
            raise NodeError("bad-kind", ev.kind)
        if from_port != NODE_ORIGIN and self.port_spec(from_port) is None:
            raise NodeError("unknown-port", from_port)
        entry = ev.entry
        if ev.kind == REMOVE and entry is not None:
            # the Remove carries the last state of the entry it removes,
            # and output filters judge that state, not the caller's stub
            entry = self.entries.get(entry.name, entry)
        if ev.origin_port != from_port or entry is not ev.entry:
            ev = ev._replace(origin_port=from_port, entry=entry)

        if ev.kind in (INSERT, REMOVE, TIME) and from_port != NODE_ORIGIN:
            spec = self.port_spec(from_port)
            if not eval_filter(spec.output_filter, ev):
                raise NodeError("rejected-filter", f"{ev.kind} from {from_port}")
            if entry is not None and entry.name == from_port:
                raise NodeError("not-allowed", f"port {from_port!r} cannot {ev.kind} itself")

        # each kind of event has its handler, _post_<kind>
        stamped = getattr(self, "_post_" + ev.kind.lower())(from_port, ev)
        if ev.kind in (INSERT, REMOVE, TIME) and stamped is not None and is_exclusive(stamped):
            # offered once the event's other effects (spawns, drops) are done
            self.deliver_exclusive(stamped)
        return stamped

    def _sub_for(self, from_port: str, ev: Event) -> tuple[Subscription, bool]:
        if from_port == NODE_ORIGIN:
            raise NodeError("bad-kind", "the node does not subscribe to itself")
        name = ev.subscription or "default"
        key = (from_port, name)
        sub = self.subs.get(key)
        if sub is not None:
            return sub, False
        spec = self.port_spec(from_port)
        sub = Subscription(from_port, name, TRUE, cursor=spec.cursor if spec is not None else 1)
        self._add_sub(sub)
        return sub, True

    def _post_receive(self, from_port: str, ev: Event) -> None:
        sub, _created = self._sub_for(from_port, ev)
        sub.dyn_filter = ev.filter if ev.filter is not None else TRUE
        sub.flag = True
        sub.at_end_notified = False
        self._index(sub)
        self._refresh(sub)
        self._trace("post", from_port, "Receive {}", sub.name)

    def _post_suspend(self, from_port: str, ev: Event) -> None:
        key = (from_port, ev.subscription or "default")
        sub = self.subs.get(key)
        if sub is not None:
            sub.flag = False
            self._refresh(sub)
        self._trace("post", from_port, "Suspend {}", key[1])

    def _post_resume(self, from_port: str, ev: Event) -> Event | None:
        sub, created = self._sub_for(from_port, ev)
        if created:
            self._index(sub)
        sub.flag = True
        self._refresh(sub)
        self._trace("post", from_port, "Resume {}", sub.name)
        if self._peek(sub) is None:
            # nothing left to deliver: record the Resume so interested
            # in-ports can react to fresh demand
            return self._append(ev._replace(subscription=sub.name))
        return None

    def _post_close(self, from_port: str, ev: Event) -> Event:
        name = ev.subscription or "default"
        key = (from_port, name)
        if key in self.subs:
            self._remove_sub(key)
        self._trace("post", from_port, "Close {}", name)
        return self._append(ev._replace(subscription=name))

    def _post_insert(self, from_port: str, ev: Event) -> Event:
        if ev.entry is None:
            raise NodeError("missing-entry", "Insert without entry")
        name = ev.entry.name
        old = self.entries.get(name)
        self.entries[name] = ev.entry
        self._file_entry(name, old, ev.entry)
        self._trace("post", from_port, "Insert {}", name)
        stamped = self._append(ev)
        if old is not None:
            self._retired(name, old, ev.entry)
        if ev.entry.kind == PORT and self.on_port_inserted is not None:
            self.on_port_inserted(ev.entry)
        if ev.entry.kind == NODE and self.on_node_inserted is not None:
            self.on_node_inserted(ev.entry)
        return stamped

    def _post_remove(self, from_port: str, ev: Event) -> Event | None:
        if ev.entry is None:
            raise NodeError("missing-entry", "Remove without entry")
        name = ev.entry.name
        current = self.entries.pop(name, None)
        if current is not None:
            self._file_entry(name, current, None)
        else:
            # removing what is not there is a no-op, not an error, and
            # leaves no trace in the history
            self._trace("post", from_port, "Remove {} (absent)", name)
            return None
        self._trace("post", from_port, "Remove {}", name)
        stamped = self._append(ev)
        self._retired(name, current, None)
        return stamped

    def _post_time(self, from_port: str, ev: Event) -> Event:
        return self._append(ev)

    def _port_actor(self, port: str) -> str:
        if port == NODE_ORIGIN:
            return self.path_text
        return f"{self.path_text}:{port}"

    def _append(self, ev: Event) -> Event:
        stamped = self.history.append(ev)
        subject = (stamped.entry.name if stamped.entry is not None
                   else stamped.label or stamped.subscription or "").rstrip()
        self._trace("append", NODE_ORIGIN,
                    "{0.kind}#{0.seq} {1}" if subject else "{0.kind}#{0.seq}", stamped, subject)
        for key in self.index.match(stamped):
            sub = self.subs[key]
            sub.pending.append(stamped.seq)
            if len(sub.pending) > 2 * len(self.history):
                # more than half of the queue is dead: cancelled, aged out
                sub.pending = deque(seq for seq in sub.pending if self.history.is_live(seq))
            self._refresh(sub)
        return stamped

    # -- the entry table, looked up by field -----------------------------------

    def entries_with(self, field: str, value: str) -> set[str]:
        """Names of the entries whose ``field`` (``entry.name``,
        ``entry.kind`` or ``meta.<key>``) reads ``value``; callers must not
        change the set.  A field's map is built on its first lookup and
        kept up to date from then on."""
        values = self._table.fields.get(field)
        if values is None:
            for name, entry in self.entries.items():
                self._table.add(field, entry_field(entry, field), name)
            values = self._table.fields.get(field, {})
        return values.get(value, set())

    def _file_entry(self, name: str, old: Entry | None, new: Entry | None) -> None:
        if not self._table.fields:
            return
        for f in list(self._table.fields):
            if old is not None:
                self._table.discard(f, entry_field(old, f), name)
            if new is not None:
                self._table.add(f, entry_field(new, f), name)

    # -- port lifecycle ------------------------------------------------------

    def _holdings(self, port: str) -> Holdings:
        return self.held.setdefault(port, Holdings())

    def _retired(self, name: str, old: Entry, new: Entry | None) -> None:
        """``old`` left the table, removed or replaced by ``new``: a port
        releases what it holds, and a node entry that no node entry
        replaces takes its subnode and everything below with it."""
        if old.kind == PORT:
            self._drop_port(name, old)
        elif (old.kind == NODE and (new is None or new.kind != NODE)
              and self.on_node_removed is not None):
            self.on_node_removed(name)

    def retire(self) -> None:
        """Stop every port as on its removal: the node is leaving the tree.
        Every subscription goes with its port, so the node also leaves the
        server's ready ring."""
        for name, entry in list(self.entries.items()):
            if entry.kind == PORT:
                self._drop_port(name, entry)

    def _drop_port(self, name: str, entry: Entry | None) -> None:
        """Release what the port holds, and nothing else."""
        for sub in list(self._holdings(name).subs.values()):
            self._remove_sub(sub.key)
        for label in self.held.pop(name).timers:
            del self.timers[label]
        self.sinks.pop(name, None)
        self.attachments.pop(name, None)
        if self.on_port_removed is not None:
            self.on_port_removed(name, entry)

    def create_default_subscription(self, port: str, spec: PortSpec) -> Subscription:
        """Ports that never send a named Receive still have a ``default``
        subscription whose dynamic filter is true; its starting flag and
        cursor come from the port spec."""
        key = (port, "default")
        sub = self.subs.get(key)
        if sub is None:
            sub = Subscription(port, "default", TRUE, flag=spec.receive_flag, cursor=spec.cursor)
            self._add_sub(sub)
            self._index(sub)
            self._refresh(sub)
        return sub

    def _add_sub(self, sub: Subscription) -> None:
        self._tickets += 1
        sub.ticket = self._tickets
        self.subs[sub.key] = sub
        self._holdings(sub.port).subs[sub.name] = sub

    def _remove_sub(self, key: tuple[str, str]) -> None:
        sub = self.subs.pop(key)
        del self.held[sub.port].subs[sub.name]
        self.index.unregister(key)
        if sub.ready:
            self._file_ready(sub, False)
        if not self.subs or self._ring.start > self._last_ticket():
            # nothing left at or after the start: the next turn wraps
            self._ring.start = 0

    def _last_ticket(self) -> int:
        return next(reversed(self.subs.values())).ticket

    def _index(self, sub: Subscription) -> None:
        """(Re)register a subscription's effective filter and queue its
        backlog from the cursor on: the one scan of the history a
        subscription makes.  Later events reach the queue through the
        index as they are appended."""
        filt = self._effective(sub)
        if sub.key in self.index:
            self.index.unregister(sub.key)
        self.index.register(sub.key, filt)
        sub.pending = deque(e.seq for e in self.history.since(sub.cursor)
                            if eval_filter(filt, e))

    # -- delivery -------------------------------------------------------------

    def _skippable(self, sub: Subscription, ev: Event) -> bool:
        return (ev.origin_port == sub.port
                or self.history.is_consumed(ev.seq)
                or ev.seq in sub.offered)

    def _peek(self, sub: Subscription) -> Event | None:
        """Next deliverable event for a subscription, without moving state."""
        for seq in sub.pending:
            ev = self.history.get(seq)
            if ev is not None and seq >= sub.cursor and not self._skippable(sub, ev):
                return ev
        return None

    def _take_next(self, sub: Subscription) -> Event | None:
        """Like _peek but pops the queue up to the event it returns, moving
        the cursor past each event it skips; the caller then moves it past
        the event returned.  With the queue empty, the cursor moves to the
        end of the history only if the end-of-history Suspend is due."""
        while sub.pending:
            seq = sub.pending.popleft()
            ev = self.history.get(seq)
            if ev is None or seq < sub.cursor:
                continue
            if self._skippable(sub, ev):
                sub.offered.discard(seq)
                sub.cursor = seq + 1
                continue
            return ev
        if not sub.at_end_notified:
            sub.cursor = max(sub.cursor, self.history.last_seq + 1)
        return None

    def _refresh(self, sub: Subscription) -> None:
        """File ``sub`` in the ready ring, or take it out, after its state
        changed.  It is ready while armed with queued events or an unsent
        end-of-history Suspend."""
        ready = sub.flag and (bool(sub.pending) or not sub.at_end_notified)
        if ready != sub.ready:
            self._file_ready(sub, ready)

    def _file_ready(self, sub: Subscription, ready: bool) -> None:
        sub.ready = ready
        if ready:
            self._ring.add(sub.ticket, sub)
        else:
            self._ring.discard(sub.ticket)
        if self.slot is not None and len(self._ring.ready) == (1 if ready else 0):
            # the node itself became ready, or has nothing left
            ring, ticket = self.slot
            if ready:
                ring.add(ticket, self)
            else:
                ring.discard(ticket)

    def has_ready(self) -> bool:
        """Whether some subscription has a delivery due."""
        return bool(self._ring.ready)

    def deliver_step(self) -> Delivered | None:
        """Deliver at most one event to the next ready subscription in ring
        order; returns None when no subscription is ready.

        A ready subscription that has caught up with the history is told so
        with a node-issued Suspend (its receive flag drops until it posts
        Resume); the notification is not repeated until something new was
        actually delivered, so an idle pair of ports cannot ping-pong
        Suspend and Resume forever.  Serving a subscription moves only its
        own cursor (see the module docstring).
        """
        ring = self._ring
        pos = ring.start
        while ring.ready:
            ticket, sub = ring.first_ready(pos)
            ev = self._take_next(sub)
            if ev is None and sub.at_end_notified:
                # nothing for it after all: it leaves the ring, the next is served
                self._refresh(sub)
                pos = ticket + 1
                continue
            ring.start = ticket + 1 if ticket < self._last_ticket() else 0
            if ev is not None:
                sub.cursor = ev.seq + 1
                if ev.kind in (INSERT, REMOVE, TIME):
                    sub.at_end_notified = False
                self._refresh(sub)
                self._trace("deliver", sub.port, "{0.kind}#{0.seq} -> {1}", ev, sub.name)
                consumed = self._sink(sub.port, ev, sub.name)
                if consumed and is_exclusive(ev):
                    self.history.mark_consumed(ev.seq)
                return Delivered(sub.port, sub.name, ev)
            sub.flag = False
            sub.at_end_notified = True
            self._refresh(sub)
            notice = Event(SUSPEND, origin_port=NODE_ORIGIN, subscription=sub.name)
            self._trace("deliver", sub.port, "Suspend@node -> {}", sub.name)
            self._sink(sub.port, notice, sub.name)
            return Delivered(sub.port, sub.name, notice)
        return None

    def _sink(self, port: str, ev: Event, sub_name: str):
        sink = self.sinks.get(port)
        if sink is None:
            return None
        return sink(ev, sub_name)

    def deliver_exclusive(self, ev: Event) -> str | None:
        """Offer an exclusive event to matching armed ports, highest
        priority first (ties broken by port name), until one consumes it.

        Returns the consuming port, or None when nobody took it; in that
        case the event stays in the history for later subscribers.
        """
        if not is_exclusive(ev):
            raise NodeError("not-exclusive", f"event #{ev.seq}")
        matching: dict[str, list[Subscription]] = {}
        for sub in sorted((self.subs[k] for k in self.index.match(ev)), key=lambda s: s.ticket):
            if sub.flag and sub.port != ev.origin_port:
                matching.setdefault(sub.port, []).append(sub)

        def prio(port: str) -> int:
            spec = self.port_spec(port)
            return spec.priority if spec is not None else 0

        for port in sorted(matching, key=lambda p: (-prio(p), p)):
            for sub in matching[port]:
                sub.offered.add(ev.seq)
            first = matching[port][0]
            self._trace("offer", port, "{0.kind}#{0.seq} -> {1}", ev, port)
            consumed = self._sink(port, ev, first.name)
            if consumed:
                self.history.mark_consumed(ev.seq)
                self._trace("consume", NODE_ORIGIN, "{0.kind}#{0.seq} by {1}", ev, port)
                return port
        return None

    # -- timers ----------------------------------------------------------------

    def schedule(self, timer: TimerSpec, now: int | None = None) -> None:
        if timer.label in self.timers:
            raise NodeError("duplicate-label", timer.label)
        if timer.every <= 0:
            raise NodeError("bad-timer", "period must be positive")
        timer.next_fire = (now if now is not None else self.clock()) + timer.every
        self.timers[timer.label] = timer
        if timer.port is not None:
            self._holdings(timer.port).timers.add(timer.label)

    def tick(self, now: int) -> list[Event]:
        """Post a Time event for every firing due at ``now``.  Timers rearm
        at a fixed rate so late ticks catch up."""
        fired: list[Event] = []
        for label in list(self.timers):
            timer = self.timers.get(label)
            while timer is not None and timer.next_fire <= now:
                fired.append(self.post_event(NODE_ORIGIN, Event(TIME, label=label)))
                timer.next_fire += timer.every
        return fired

    # -- reads for channels ------------------------------------------------------

    def read_for_pull(self, after: int, filt: FilterExpr) -> Iterator[Event]:
        """Serve a pull: live events with seq > after matching the filter,
        oldest first, skipping consumed exclusives, each read from the
        history only when the caller takes it."""
        pos = after + 1
        while True:
            ev, pos = self.history.read_after(pos, filt)
            if ev is None:
                return
            if not self.history.is_consumed(ev.seq):
                yield ev
