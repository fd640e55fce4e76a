"""Reference behaviors: everything the stock applications are built from.

Each behavior is small on purpose; the applications differ mostly in how
ports are wired and filtered, not in code.  Conventions shared by all of
them:

- a node-issued Suspend means "you are caught up"; long-lived consumers set
  ``resume_on_suspend`` and the port runtime answers it with Resume for
  them, so they keep receiving,
- events leaving a node over a channel are tagged with the node's URL in
  ``origin-node`` metadata unless already tagged, so replicas can tell
  copies from originals,
- events arriving over a channel are posted through the receiving port's
  output filter, the only policy, once ``ports.admission_fault`` admits them.
"""

from __future__ import annotations

import re

from .filters import (TRUE, And, Cmp, FilterError, FilterExpr, Not, Or, access_predicate,
                      eval_filter, glob_match, parse_filter, print_filter)
from .history import (Event, INSERT, NODE_ORIGIN, REMOVE, SUSPEND, TIME,
                      insert_event, remove_event)
from .model import (DOCUMENT, PORT, PortSpec, UrlError, document_entry, parse_url, port_entry,
                    valid_name)
from .ports import (BEHAVIORS, Behavior, admission_fault, behavior, choice, optional_filter,
                    positive)
from .wire import (ACK, BYE, CMD, ERROR, EVENT, HELLO, PULL, WireError, content_b64,
                   entry_from_json, event_bytes, event_from_json, get_int, room_in, with_meta)


def _type_is(kind: str) -> Cmp:
    return Cmp("event.type", "==", kind)


def _kind_is(kind: str) -> Cmp:
    return Cmp("entry.kind", "==", kind)


FLAVORS = {
    "document": And(_type_is(INSERT), _kind_is(DOCUMENT)),
    "entry": _type_is(INSERT),
    "event": Or(_type_is(INSERT), _type_is(REMOVE)),
}
flavors = choice(*FLAVORS)  # the parser of a replicating port's ``flavor``
modes = choice("local", "mediated")  # and of a query's mode


def flavor_filter(b: Behavior) -> FilterExpr:
    """What a replicating port carries: the events of its ``flavor``
    (documents by default), narrowed by its optional ``filter``."""
    f = FLAVORS[b.setting("flavor", "document")]
    extra = b.setting("filter", None)
    return f if extra is None else And(f, extra)


def tagged_with_origin(ev: Event, node_url: str) -> Event:
    """Copy of the event whose entry carries origin-node, unless it already
    names where it came from.  The copy's bytes are the original's with
    the tag spliced in."""
    if ev.entry is None or ev.entry.meta.get("origin-node"):
        return ev
    e = ev.entry
    return ev._replace(entry=with_meta(e, {**e.meta, "origin-node": node_url}))


def _err(conn, code: str, message: str = "") -> None:
    conn.send({"kind": ERROR, "code": code, "message": message})


def _post(ctx, conn, ev):
    """Post ``ev`` through the port and return the stamped event.  None
    means nothing was recorded; if the node refused the event, ``conn`` has
    been told why."""
    try:
        return ctx.node.post_event(ctx.name, ev)
    except Exception as e:
        _err(conn, getattr(e, "code", "rejected"), str(e))
        return None


def replica(raw) -> tuple[Event | None, tuple[str, str] | None]:
    """A pushed or pulled event ``raw`` as a node takes it in, and the
    refusal, if any, as (code, message).  Only an Insert or Remove is taken,
    without the sender's stamps (the node assigns its own), and only once
    its entry is admitted.  The event is None when ``raw`` holds no Insert
    or Remove; one whose entry is refused comes with the refusal."""
    try:
        ev = event_from_json(raw)
    except WireError as e:
        return None, (e.code, str(e))
    if ev.kind not in (INSERT, REMOVE):
        return None, ("bad-kind", f"cannot push {ev.kind} events")
    ev = ev._replace(seq=0, created_at=0)
    fault = admission_fault(ev.entry) if ev.entry is not None else None
    return ev, (None if fault is None else fault[1:])


def admit_push(ctx, conn, msg: dict) -> None:
    """Post a pushed Insert or Remove through the port, whose output filter
    decides what gets in, once its entry is admitted.  Only a refusal is
    answered."""
    ev, refusal = replica(msg.get("event"))
    if refusal is not None:
        _err(conn, *refusal)
    else:
        _post(ctx, conn, ev)


def serve_pull(ctx, conn, msg: dict, tag: bool = True) -> None:
    """Answer a pull with the live events after ``after`` that pass both the
    port's input filter and the pull's own filter.  Pulled events are
    tagged with this node's URL unless ``tag`` is false.

    The ack holds as many events as one frame can carry, and at most
    ``max`` when that is positive; when the history holds more, it answers
    ``at_end`` false with ``last`` at the last event it holds.  Events are
    read only as far as the ack goes.  An event too big for any frame is
    passed over and traced as a ``drop``, so that the puller moves past
    it."""
    text = msg.get("filter", "true")
    if not isinstance(text, str):
        _err(conn, "malformed", "filter must be a string")
        return
    try:
        after = get_int(msg, "after", 0)
        max_events = get_int(msg, "max", 256)
        filt = parse_filter(text)
    except (WireError, FilterError) as e:
        _err(conn, e.code, str(e))
        return
    spec = ctx.spec
    effective = And(spec.input_filter, filt) if spec is not None else filt
    url = ctx.node_url().text() if tag else None
    history = ctx.node.history
    # the room for events once ``last`` is as long as it can get; n events
    # take n - 1 commas, so each counts one and one is given back here
    room = 1 + room_in({"kind": ACK, "events": [], "at_end": False,
                        "last": max(after, history.last_seq, key=lambda v: len(str(v)))})
    limit = max_events if max_events > 0 else None  # else what one frame holds
    packed, left, taken, last, at_end = [], room, 0, after, False
    for ev in ctx.node.read_for_pull(after, effective):
        if taken == limit:
            break
        # the event's bytes, sized here, are what the ack carries
        out = event_bytes(tagged_with_origin(ev, url) if tag else ev)
        size = len(out) + 1
        if size > room:
            ctx.trace("drop", f"{ev.kind} {ev.entry.name if ev.entry else ''} "
                              f"too big to pull")
        elif size > left:
            break
        else:
            packed.append(out)
            left -= size
        taken += 1
        last = ev.seq
    else:  # the walk ran out
        last, at_end = max(after, history.last_seq), True
    conn.send({"kind": ACK, "events": packed, "last": last, "at_end": at_end})


# ---------------------------------------------------------------------------
# admin: the general-purpose channel endpoint

@behavior("admin")
class AdminBehavior(Behavior):
    """Channel endpoint for pushes, pulls, and management commands.

    What a remote can actually do through an admin port is decided by the
    port's filters: with true/true it is full management, with document-only
    filters it is a plain replication endpoint.
    """

    config_keys = {"query_mode": modes}

    def on_external(self, conn, msg: dict) -> None:
        kind = msg.get("kind")
        if kind == EVENT:
            admit_push(self.ctx, conn, msg)
        elif kind == PULL:
            serve_pull(self.ctx, conn, msg)
        elif kind == CMD:
            self._on_cmd(conn, msg)
        elif kind in (HELLO, ACK, ERROR, BYE):
            pass
        else:
            _err(conn, "bad-kind", f"unexpected frame kind {kind!r}")

    # commands

    def _on_cmd(self, conn, msg: dict) -> None:
        op = msg.get("op")
        if not isinstance(op, str):
            _err(conn, "malformed", "op must be a string")
            return
        handler = {
            "list": self._op_list, "get": self._op_get, "insert": self._op_insert,
            "remove": self._op_remove, "history": self._op_history,
            "fetch": self._op_fetch, "query": self._op_query, "abort": self._op_abort,
        }.get(op)
        if handler is None:
            _err(conn, "bad-op", f"unknown op {op!r}")
            return
        if op in ("get", "remove", "fetch", "abort") and not isinstance(msg.get("name", ""), str):
            _err(conn, "malformed", "name must be a string")
            return
        handler(conn, msg)

    def _op_list(self, conn, msg: dict) -> None:
        entries = [e for _, e in sorted(self.ctx.node.entries.items())]
        conn.send({"kind": ACK, "entries": entries})

    def _op_get(self, conn, msg: dict) -> None:
        entry = self.ctx.node.entries.get(msg.get("name", ""))
        if entry is None:
            _err(conn, "not-found", f"no entry {msg.get('name')!r}")
            return
        conn.send({"kind": ACK, "entry": entry})

    def _op_insert(self, conn, msg: dict) -> None:
        try:
            entry = entry_from_json(msg.get("entry"))
        except WireError as e:
            _err(conn, e.code, str(e))
            return
        fault = admission_fault(entry)
        if fault is not None:
            _err(conn, fault[1], fault[2])
            return
        server = self.ctx.server
        faults = server.faults
        stamped = _post(self.ctx, conn, insert_event(entry))
        if stamped is None:
            return
        if server.faults != faults and entry.name not in self.ctx.node.entries:
            # the new port faulted and the runtime retired it again
            _err(conn, "behavior-failed", f"port {entry.name!r} failed and was removed")
            return
        conn.send({"kind": ACK, "seq": stamped.seq})

    def _op_remove(self, conn, msg: dict) -> None:
        name = msg.get("name", "")
        entry = self.ctx.node.entries.get(name)
        if entry is None:
            _err(conn, "not-found", f"no entry {name!r}")
            return
        stamped = _post(self.ctx, conn, remove_event(entry))
        if stamped is not None:
            conn.send({"kind": ACK, "seq": stamped.seq})

    def _op_history(self, conn, msg: dict) -> None:
        serve_pull(self.ctx, conn, msg, tag=False)

    def _hand_over(self, conn, port) -> None:
        """Insert ``port`` with ``conn`` attached.  The port owns the
        connection from then on and ends it with bye when it retires."""
        self.ctx.node.attachments[port.name] = conn
        if _post(self.ctx, conn, insert_event(port)) is None:
            self.ctx.node.attachments.pop(port.name, None)

    def _op_fetch(self, conn, msg: dict) -> None:
        """Spawn a request port for the document and hand it this
        connection: it answers, retires, and closes the connection."""
        name = self.ctx.server.next_name("req", self.ctx.node)
        self._hand_over(conn, port_entry(name, request_spec(self.ctx.node,
                                                            msg.get("name", ""))))

    def _op_query(self, conn, msg: dict) -> None:
        """Spawn a query port and hand it this connection: it streams the
        results, answers done, retires, and closes the connection."""
        text = msg.get("query")
        if not isinstance(text, str) or not text.strip():
            _err(conn, "bad-query", "query text required")
            return
        mode = self.setting("query_mode", "local")
        name = msg.get("name")
        if name in (None, ""):
            name = self.ctx.server.next_name("query", self.ctx.node)
        elif not valid_name(name):
            _err(conn, "malformed", "name must be an entry name")
            return
        elif name in self.ctx.node.entries:
            # a client-chosen name never replaces an entry
            _err(conn, "name-taken", f"entry {name!r} exists")
            return
        # every result and wrapper it waits for is posted after the port
        # exists, so its subscriptions start at the end of the history
        spec = PortSpec("query", {"mode": mode}, cursor=self.ctx.node.history.last_seq + 1)
        self._hand_over(conn, port_entry(name, spec, meta={"query": text}))

    def _op_abort(self, conn, msg: dict) -> None:
        name = msg.get("name", "")
        entry = self.ctx.node.entries.get(name)
        if entry is None or entry.kind != PORT:
            _err(conn, "not-found", f"no port {name!r}")
            return
        if _post(self.ctx, conn, remove_event(entry)) is not None:
            conn.send({"kind": ACK, "aborted": name})


# ---------------------------------------------------------------------------
# forwarder: push matching events to a remote port, or serve pulls

@behavior("forwarder")
class ForwarderBehavior(Behavior):
    resume_on_suspend = True
    config_keys = {"flavor": flavors, "filter": optional_filter}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.conn = None
        self.target = self.ctx.config.get("target", "")
        try:
            self.target_node = parse_url(self.target).parent().text()
        except UrlError:
            self.target_node = None

    def on_start(self) -> None:
        if self.target:
            self.ctx.receive("default", flavor_filter(self))

    def _ensure_conn(self):
        if self.conn is not None and not self.conn.closed:
            return self.conn
        self.conn = self.ctx.dial(self.target)
        return self.conn

    def on_event(self, ev, subscription: str) -> bool:
        if ev.kind not in (INSERT, REMOVE) or not self.target:
            return False
        if (ev.kind == INSERT and self.target_node and ev.entry is not None
                and ev.entry.meta.get("origin-node") == self.target_node):
            # the copy came from the very node this port feeds: forwarding
            # it back would bounce forever
            self.ctx.trace("skip", f"echo of {ev.entry.name}")
            return False
        conn = self._ensure_conn()
        if conn is None:
            self.ctx.trace("drop", f"no channel to {self.target}")
            return False
        out = tagged_with_origin(ev, self.ctx.node_url().text())
        if not self.ctx.send(conn, {"kind": EVENT, "event": out}):
            # too big to frame, or the channel broke: the target misses it
            self.ctx.trace("drop", f"{ev.kind} {ev.entry.name if ev.entry else ''} "
                                   f"not sent to {self.target}")
        return False

    def on_external(self, conn, msg: dict) -> None:
        kind = msg.get("kind")
        if kind == PULL:
            serve_pull(self.ctx, conn, msg)
        elif kind == BYE:
            if conn is self.conn:
                self.conn = None
        elif kind == ERROR:
            self.ctx.trace("peer-error", f"{msg.get('code')}: {msg.get('message', '')}")


# a classifier is a forwarder whose input filter routes one class of
# documents, used to fan a feed out into per-topic subnodes
BEHAVIORS["classifier"] = ForwarderBehavior


# ---------------------------------------------------------------------------
# puller: periodic pull replication

@behavior("puller")
class PullerBehavior(Behavior):
    resume_on_suspend = True
    config_keys = {"after": int, "max": int, "every": positive, "flavor": flavors,
                   "filter": optional_filter}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.conn = None

    def on_start(self) -> None:
        self.cursor = self.setting("after", 0)
        self.max_events = self.setting("max", 256)
        self.filter_text = print_filter(flavor_filter(self))
        self.ctx.every(f"pull-{self.ctx.name}", self.setting("every", 1), "default")

    def on_event(self, ev, subscription: str) -> bool:
        if ev.kind == TIME:
            self._pull()
        return False

    def _pull(self) -> None:
        if self.conn is None or self.conn.closed:
            self.conn = self.ctx.dial(self.ctx.config.get("source", ""))
        if self.conn is None:
            self.ctx.trace("drop", "source unreachable")
            return
        self.ctx.send(self.conn, {"kind": PULL, "after": self.cursor,
                                  "filter": self.filter_text, "max": self.max_events})

    def on_external(self, conn, msg: dict) -> None:
        kind = msg.get("kind")
        if kind == ACK and "events" in msg:
            own = self.ctx.node_url().text()
            for raw in msg["events"]:
                ev, refusal = replica(raw)
                if ev is None or ev.entry is None:
                    continue
                if ev.kind == INSERT and ev.entry.meta.get("origin-node") == own:
                    continue  # our own document coming home
                if refusal is not None:
                    self.ctx.trace("rejected", "{} {}: {}", ev.kind, ev.entry.name, refusal[1])
                else:
                    self.ctx.post(ev)
            if isinstance(msg.get("last"), int):
                self.cursor = max(self.cursor, msg["last"])
            if not msg.get("at_end", True):
                self._pull()


# ---------------------------------------------------------------------------
# answering ports: spawned for one caller, they answer once and retire

class Answering(Behavior):
    """A port that answers the connection attached at spawn: it sends one
    final reply, at most once, and retires.  The caller's frames carry
    nothing it reads; a bye retires the port with no reply."""

    unexpected = ""  # the bad-kind message for a frame the caller should not send

    def __init__(self, ctx):
        super().__init__(ctx)
        self.conn = self.ctx.attachment
        self.finished = False

    def answer(self, reply: dict) -> None:
        """Send ``reply``, unless an answer went already or there is no
        connection, and retire."""
        if self.finished:
            return
        self.finished = True
        if self.conn is not None:
            self.conn.send(reply)
        self.ctx.self_remove()

    def on_external(self, conn, msg: dict) -> None:
        kind = msg.get("kind")
        if kind == BYE:
            self.ctx.self_remove()
        elif kind not in (HELLO, ACK, ERROR):
            _err(conn, "bad-kind", self.unexpected)


# request: fetch one document and answer whoever asked

def request_spec(node, wanted: str) -> PortSpec:
    """Spec of a port that fetches ``wanted`` from ``node``.  Its
    subscription starts at the end of history: the port subscribes only
    when ``wanted`` is missing from the table, and then the backlog holds
    no live Insert of it, since a Remove cancels them all."""
    return PortSpec("request", {"entry": wanted}, cursor=node.history.last_seq + 1)


@behavior("request")
class RequestBehavior(Answering):
    """Retrieves a named document for the connection attached at spawn.

    Answers immediately when the document is present; otherwise the
    subscription scan settles it: a live Insert answers, the end-of-history
    Suspend means the document does not exist.  Either way the port
    removes itself afterwards."""

    unexpected = "this connection only carries the answer"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.wanted = self.ctx.config.get("entry", "")

    def on_start(self) -> None:
        entry = self.ctx.node.entries.get(self.wanted)
        if entry is not None:
            self._answer_with(entry)
            return
        self.ctx.receive("default", And(_type_is(INSERT),
                                        Cmp("entry.name", "==", self.wanted)))

    def _answer_with(self, entry) -> None:
        if entry.kind != DOCUMENT:
            self.answer({"kind": ERROR, "code": "not-a-document",
                         "message": f"{entry.name} is a {entry.kind}"})
            return
        self.answer({"kind": ACK, "name": entry.name, "content_b64": content_b64(entry.payload),
                     "media_type": entry.payload.media_type, "meta": dict(entry.meta)})

    def on_event(self, ev, subscription: str) -> bool:
        if ev.kind == INSERT and ev.entry is not None and ev.entry.name == self.wanted:
            self._answer_with(self.ctx.node.entries.get(self.wanted) or ev.entry)
        elif ev.kind == SUSPEND and ev.origin_port == NODE_ORIGIN:
            self.answer({"kind": ERROR, "code": "not-found",
                         "message": f"no document {self.wanted!r}"})
        return False


# ---------------------------------------------------------------------------
# query: local table scans and mediated fan-out

@behavior("query")
class QueryBehavior(Answering):
    """Answers the query in this port's own metadata over the attached
    connection.

    Local mode scans the node's current documents.  Mediated mode relies on
    translator ports watching for query ports: each relevant translator
    spawns a wrapper port, wrappers post result documents tagged reply-to,
    and this port streams them out, cleaning up as it goes.  The query is
    complete when every wrapper has retired, or, when no translator took
    it up, once every translator has seen it.  A query that retires before
    then, aborted or hung up on, removes its wrappers and unsent results."""

    resume_on_suspend = True
    unexpected = "this connection only streams query results"
    config_keys = {"mode": modes}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.count = 0
        self.live_wrappers: set[str] = set()
        self.sent: set[str] = set()

    def on_start(self) -> None:
        if self.setting("mode", "local") == "local":
            self._run_local()
            return
        mine = Cmp("meta.reply-to", "==", self.ctx.name)
        self.ctx.receive("results", And(_type_is(INSERT), And(_kind_is(DOCUMENT), mine)))
        self.ctx.receive("wrappers", And(Or(_type_is(INSERT), _type_is(REMOVE)),
                                         And(_kind_is(PORT), mine)))
        self.ctx.defer("_seen_by_translators")

    def _seen_by_translators(self) -> None:
        # deferred work runs after the pass's deliveries, so every translator
        # has been offered this port and every wrapper it spawned has been
        # seen, unless the pass stopped at its step limit with deliveries
        # still due on this node
        if self.ctx.node.has_ready():
            self.ctx.defer("_seen_by_translators")
        else:
            self._maybe_finish()

    def _run_local(self) -> None:
        entry = self.ctx.entry
        try:
            f = parse_filter(entry.meta.get("query", "") if entry is not None else "")
        except FilterError as e:
            self.answer({"kind": ERROR, "code": e.code, "message": str(e)})
            return
        entries = self.ctx.node.entries
        # a required equality on a field of the entry narrows the candidates
        # to the entries that have that value; a filter that is nothing but
        # that equality is decided by the lookup, which reads the same field
        atom = access_predicate(f, ("meta.", "entry.name", "entry.kind"))
        names = entries if atom is None else self.ctx.node.entries_with(atom.field, atom.literal)
        for name in sorted(names):
            entry = entries[name]
            if entry.kind != DOCUMENT:
                continue
            ev = insert_event(entry)
            if f is atom or eval_filter(f, ev):
                self.count += 1
                if self.conn is not None:
                    self.conn.send({"kind": EVENT, "event": ev})
        self._complete()

    def _complete(self) -> None:
        self.answer({"kind": ACK, "done": True, "count": self.count})

    def _results(self):
        """Names of the result documents posted for this query and not yet
        streamed out, in no order."""
        node = self.ctx.node
        return (name for name in node.entries_with("meta.reply-to", self.ctx.name)
                if node.entries[name].kind == DOCUMENT)

    def _maybe_finish(self) -> None:
        # done only when every wrapper retired AND every result it posted
        # has been streamed out, which come on separate subscriptions in no
        # set order; one result still pending is enough to keep waiting
        if not self.live_wrappers and next(self._results(), None) is None:
            self._complete()

    def on_event(self, ev, subscription: str) -> bool:
        if subscription == "results" and ev.kind == INSERT and ev.entry is not None:
            # two sources can hold the same document; the caller sees it once
            ident = ev.entry.meta.get("source-name", ev.entry.name)
            if ident not in self.sent:
                self.sent.add(ident)
                self.count += 1
                if self.conn is not None:
                    self.conn.send({"kind": EVENT, "event": ev})
            # result delivered: drop the document so nothing piles up
            self.ctx.remove(ev.entry.name)
            self._maybe_finish()
        elif subscription == "wrappers" and ev.entry is not None:
            if ev.kind == INSERT:
                self.live_wrappers.add(ev.entry.name)
            elif ev.kind == REMOVE:
                self.live_wrappers.discard(ev.entry.name)
                self._maybe_finish()
        return False

    def on_stop(self, reason: str) -> None:
        # a finished query has nothing left to remove, and looking its
        # results up would file meta.reply-to for every later write
        if self.finished:
            return
        # not through answer(): the entry under this name, if any, is now
        # another port's
        self.finished = True
        if self.conn is not None:
            _err(self.conn, "aborted", "query was aborted")
        node = self.ctx.node
        for name in sorted(self.live_wrappers):
            entry = node.entries.get(name)
            if entry is not None:
                self.ctx.post_as_node(remove_event(entry))
        self.live_wrappers.clear()
        for name in sorted(self._results()):
            entry = node.entries.get(name)
            if (entry is not None and entry.kind == DOCUMENT
                    and entry.meta.get("reply-to") == self.ctx.name):
                self.ctx.post_as_node(remove_event(entry))


@behavior("translator")
class TranslatorBehavior(Behavior):
    """Watches for query ports it understands and spawns a wrapper per hit.

    ``accept`` is a glob over the raw query text; a translator that does
    not match stays silent and some other translator may still serve it."""

    resume_on_suspend = True

    def on_start(self) -> None:
        has_query = Not(Cmp("meta.query", "==", ""))
        self.ctx.receive("default", And(_type_is(INSERT),
                                        And(_kind_is(PORT), has_query)))

    def on_event(self, ev, subscription: str) -> bool:
        if ev.kind != INSERT or ev.entry is None:
            return False
        query = ev.entry.meta.get("query", "")
        accept = self.ctx.config.get("accept", "*")
        if not glob_match(accept, query):
            self.ctx.trace("decline", f"{ev.entry.name}: {query!r}")
            return False
        source = self.ctx.config.get("source", "")
        wrapper = f"wrap-{self.ctx.name}-{ev.entry.name}"
        spec = PortSpec("wrapper", {"source": source, "query": query,
                                    "reply_to": ev.entry.name})
        self.ctx.post(insert_event(port_entry(wrapper, spec, meta={"reply-to": ev.entry.name})))
        return False


@behavior("wrapper")
class WrapperBehavior(Behavior):
    """One-shot bridge to an external source: fetch, post, retire."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.done = False
        # captured now: by the time on_stop runs the port entry is gone
        # and the config with it
        self.source = self.ctx.config.get("source", "")
        self.query = self.ctx.config.get("query", "true")
        self.reply_to = self.ctx.config.get("reply_to", "")

    def on_start(self) -> None:
        self.ctx.defer("run")

    def run(self) -> None:
        self.done = True
        stub = self.ctx.stub(self.source)
        results = []
        if stub is not None:
            try:
                results = stub.query(self.query)
            except FilterError:
                self.ctx.trace("bad-query", self.query)
        for i, entry in enumerate(results):
            meta = dict(entry.meta)
            meta.update({"reply-to": self.reply_to, "rank": str(i),
                         "source": self.source, "source-name": entry.name})
            doc = document_entry(f"{self.ctx.name}-r{i}", entry.payload.content,
                                 entry.payload.media_type, meta=meta)
            self.ctx.post(insert_event(doc))
        self.ctx.self_remove()

    def on_stop(self, reason: str) -> None:
        if not self.done:
            # torn down before it ran: let the source cancel server-side work
            stub = self.ctx.stub(self.source)
            if stub is not None and hasattr(stub, "abort"):
                stub.abort(self.ctx.name)
            self.done = True


# ---------------------------------------------------------------------------
# alerting and mailing list

@behavior("subscriber")
class SubscriberBehavior(Behavior):
    """Mails matching documents to one address, immediately or as a digest.

    What "matching" means is entirely the port's input filter; this code
    only turns deliveries into mail.  With ``digest``, a period in clock
    units, the names of the documents that matched in a period go out in
    one mail at its end, on the port's own timer ``digest-<name>``."""

    resume_on_suspend = True
    config_keys = {"digest": positive}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.buffer: list[str] = []

    def on_start(self) -> None:
        self.ctx.receive("docs", And(_type_is(INSERT), _kind_is(DOCUMENT)))
        self.digest = self.setting("digest", None)
        if self.digest is not None:
            self.ctx.every(f"digest-{self.ctx.name}", self.digest, "ticks")

    def _mail(self, subject: str, body: str) -> None:
        stub = self.ctx.stub(self.ctx.config.get("stub", "mail"))
        if stub is None:
            self.ctx.trace("drop", "no mail stub")
            return
        stub.send_mail(self.ctx.config.get("address", ""), subject, body)

    def on_event(self, ev, subscription: str) -> bool:
        if subscription == "docs" and ev.kind == INSERT and ev.entry is not None:
            body = ev.entry.payload.content.decode("utf-8", errors="replace")
            if self.digest is not None:
                self.buffer.append(ev.entry.name)
            else:
                self._mail(ev.entry.name, body)
        elif subscription == "ticks" and ev.kind == TIME:
            if self.buffer:
                names = ", ".join(self.buffer)
                self._mail(f"digest of {len(self.buffer)}", names)
                self.buffer.clear()
        return False


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", text)[:64] or "member"


@behavior("subscriber-manager")
class SubscriberManagerBehavior(Behavior):
    """Mailing list plumbing.

    Role ``manage`` turns request documents (meta ``request`` of subscribe
    or unsubscribe, plus ``address``) into subscriber ports and back.  Role
    ``submit`` is a channel endpoint that only lets document events in."""

    resume_on_suspend = True
    config_keys = {"topic_filter": optional_filter, "digest": positive,
                   "role": choice("manage", "submit")}

    def on_start(self) -> None:
        if self.setting("role", "manage") == "manage":
            has_request = Not(Cmp("meta.request", "==", ""))
            self.ctx.receive("default", And(_type_is(INSERT),
                                            And(_kind_is(DOCUMENT), has_request)))

    def _member_port(self, address: str) -> str:
        return "member-" + _safe_name(address)

    def on_event(self, ev, subscription: str) -> bool:
        if ev.kind != INSERT or ev.entry is None:
            return False
        request = ev.entry.meta.get("request", "")
        address = ev.entry.meta.get("address", "")
        name = self._member_port(address)
        if request == "subscribe" and address:
            config = {"address": address, "stub": self.ctx.config.get("stub", "mail")}
            digest = self.ctx.config.get("digest", "")
            if digest:
                config["digest"] = digest
            spec = PortSpec("subscriber", config,
                            input_filter=self.setting("topic_filter", None) or TRUE,
                            # membership starts now, not at the backlog
                            cursor=self.ctx.node.history.last_seq + 1)
            if name not in self.ctx.node.entries:
                self.ctx.post(insert_event(port_entry(name, spec)))
        elif request == "unsubscribe":
            self.ctx.remove(name)
        # the request document is processed: clear it away
        self.ctx.remove(ev.entry.name)
        return False

    def on_external(self, conn, msg: dict) -> None:
        if self.setting("role", "manage") != "submit":
            return
        kind = msg.get("kind")
        if kind == EVENT:
            admit_push(self.ctx, conn, msg)
        elif kind in (HELLO, ACK, ERROR, BYE):
            pass
        else:
            _err(conn, "not-allowed", "submission endpoint only accepts events")


@behavior("gc")
class GcBehavior(Behavior):
    """Removes documents that have outlived ``max_age`` clock units."""

    resume_on_suspend = True
    config_keys = {"every": positive, "max_age": int}

    def __init__(self, ctx):
        super().__init__(ctx)
        self.ages: dict[str, int] = {}

    def on_start(self) -> None:
        self.ctx.receive("watch", And(_type_is(INSERT), _kind_is(DOCUMENT)))
        self.ctx.every(f"gc-{self.ctx.name}", self.setting("every", 10), "ticks")

    def on_event(self, ev, subscription: str) -> bool:
        if subscription == "watch" and ev.kind == INSERT and ev.entry is not None:
            self.ages[ev.entry.name] = ev.created_at
        elif subscription == "ticks" and ev.kind == TIME:
            max_age = self.setting("max_age", 100)
            now = self.ctx.now()
            for name in sorted(self.ages):
                if now - self.ages[name] >= max_age:
                    del self.ages[name]
                    entry = self.ctx.node.entries.get(name)
                    if entry is not None and entry.kind == DOCUMENT:
                        self.ctx.post(remove_event(entry))
        return False
