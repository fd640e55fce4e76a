"""Events and the append-only event history of a node.

Appending can cancel earlier events: a Remove deletes any earlier live
Insert of the same entry name, and a Close deletes any earlier live Resume
of the same port and subscription.  The cancelling event itself stays.
Receive events are never recorded; they only arm a subscription.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .filters import FilterExpr, eval_filter
from .model import Entry

INSERT = "Insert"
REMOVE = "Remove"
RECEIVE = "Receive"
SUSPEND = "Suspend"
RESUME = "Resume"
CLOSE = "Close"
TIME = "Time"

KINDS = frozenset([INSERT, REMOVE, RECEIVE, SUSPEND, RESUME, CLOSE, TIME])

NODE_ORIGIN = "@node"


class Event(NamedTuple):
    """Immutable record of something that happened at a node.

    ``seq`` is 0 until the history stamps the event; ``created_at`` is a
    logical timestamp (virtual clock ticks in sim mode, wall clock
    milliseconds otherwise).  ``entry`` is a snapshot: for a Remove it holds
    the removed entry's last state.  A copy with other fields is made with
    ``_replace`` or the constructor.
    """

    kind: str
    origin_port: str = NODE_ORIGIN
    entry: Entry | None = None
    subscription: str | None = None
    filter: FilterExpr | None = None
    label: str | None = None
    seq: int = 0
    created_at: int = 0


def insert_event(entry: Entry, origin: str = NODE_ORIGIN) -> Event:
    return Event(INSERT, origin, entry)


def remove_event(entry: Entry, origin: str = NODE_ORIGIN) -> Event:
    """A Remove names its target through ``entry``; the node swaps in the
    live entry's snapshot when it processes the post."""
    return Event(REMOVE, origin_port=origin, entry=entry)


def receive_event(subscription: str = "default", filt: FilterExpr | None = None) -> Event:
    return Event(RECEIVE, subscription=subscription, filter=filt)


def suspend_event(subscription: str = "default") -> Event:
    return Event(SUSPEND, subscription=subscription)


def resume_event(subscription: str = "default") -> Event:
    return Event(RESUME, subscription=subscription)


def close_event(subscription: str = "default") -> Event:
    return Event(CLOSE, subscription=subscription)


def time_event(label: str) -> Event:
    return Event(TIME, label=label)


def is_exclusive(ev: Event) -> bool:
    """Events offered to exactly one consumer are marked by metadata
    ``exclusive=true`` on the carried entry or by an ``exclusive`` label."""
    if ev.label == "exclusive":
        return True
    return ev.entry is not None and ev.entry.meta.get("exclusive") == "true"


class HistoryError(Exception):
    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


def _cancel_key(ev: Event) -> tuple | None:
    """The key shared by a Remove and the Inserts it cancels, and by a
    Close and the Resumes it cancels; None for events outside both pairs."""
    if ev.kind in (INSERT, REMOVE):
        return None if ev.entry is None else (INSERT, ev.entry.name)
    if ev.kind in (RESUME, CLOSE):
        return (RESUME, ev.origin_port, ev.subscription)
    return None


class EventHistory:
    """Ordered log of stamped events with cancellation and bounded retention.

    ``max_events`` limits the number of live events; the oldest are dropped
    first.  ``dropped`` counts everything that left the log, whether
    cancelled or aged out.

    No operation walks the log from its head: a Remove or Close finds what
    it cancels under its cancel key, and reads bisect to their cursor in
    the ascending list of stamped seqs.  Dead seqs stay in that list until
    they outnumber the live ones.
    """

    def __init__(self, max_events: int | None = None, clock=None):
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive or None")
        self.max_events = max_events
        self._clock = clock or (lambda: 0)
        self.dropped = 0
        self._last_seq = 0
        self._by_seq: dict[int, Event] = {}  # the live events, in seq order
        self._seqs: list[int] = []  # ascending; dead seqs until compaction
        self._head = 0  # every seq before this position is dead
        self._cancellable: dict[tuple, set[int]] = {}
        self._consumed: set[int] = set()

    def __len__(self) -> int:
        return len(self._by_seq)

    @property
    def live(self) -> list[Event]:
        return list(self._by_seq.values())

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def append(self, ev: Event) -> Event:
        """Stamp and record an event, applying cancellation and retention.

        Returns the stamped event. Receive events are rejected; they are
        subscription control, not history.
        """
        if ev.kind == RECEIVE:
            raise HistoryError("rejected-receive", "Receive events are never recorded")
        if ev.kind not in KINDS:
            raise HistoryError("bad-kind", ev.kind)
        if ev.seq != 0:
            raise HistoryError("already-stamped", f"seq {ev.seq}")
        self._last_seq += 1
        # the event with its last two fields, seq and created_at, stamped
        stamped = Event._make(ev[:6] + (self._last_seq, self._clock()))
        key = _cancel_key(stamped)
        if key is not None:
            if stamped.kind in (REMOVE, CLOSE):
                for seq in self._cancellable.pop(key, ()):
                    self._forget(seq)
            else:
                self._cancellable.setdefault(key, set()).add(stamped.seq)
        self._by_seq[stamped.seq] = stamped
        self._seqs.append(stamped.seq)
        if self.max_events is not None:
            while len(self._by_seq) > self.max_events:
                while self._seqs[self._head] not in self._by_seq:
                    self._head += 1
                self._forget(self._seqs[self._head])
        if len(self._seqs) > 2 * len(self._by_seq):
            self._seqs = [s for s in self._seqs[self._head:] if s in self._by_seq]
            self._head = 0
        return stamped

    def _forget(self, seq: int) -> None:
        key = _cancel_key(self._by_seq.pop(seq))
        seqs = self._cancellable.get(key)
        if seqs is not None:
            seqs.discard(seq)
            if not seqs:
                del self._cancellable[key]
        self._consumed.discard(seq)
        self.dropped += 1

    def is_live(self, seq: int) -> bool:
        return seq in self._by_seq

    def get(self, seq: int) -> Event | None:
        return self._by_seq.get(seq)

    def mark_consumed(self, seq: int) -> None:
        if seq in self._by_seq:
            self._consumed.add(seq)

    def is_consumed(self, seq: int) -> bool:
        return seq in self._consumed

    def since(self, first: int):
        """Live events from seq ``first`` on, oldest first."""
        seqs, by_seq = self._seqs, self._by_seq
        for i in range(bisect_left(seqs, first, self._head), len(seqs)):
            ev = by_seq.get(seqs[i])
            if ev is not None:
                yield ev

    def read_after(self, next_seq: int, filt: FilterExpr) -> tuple[Event | None, int]:
        """Earliest live event with ``seq >= next_seq`` matching the filter.

        Returns ``(event, event.seq + 1)`` on a hit and ``(None, end)`` at
        the end of history, where ``end`` is past every stamped event.
        Cursors only ever move forward.
        """
        for e in self.since(next_seq):
            if eval_filter(filt, e):
                return e, e.seq + 1
        return None, max(next_seq, self._last_seq + 1)
