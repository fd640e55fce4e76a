"""Port runtime: the context handed to behaviors, the behavior registry,
and the one admission rule for entries that come in from outside.

A behavior is the code of a port.  It talks to its node through a
PortContext and never touches other ports or nodes directly; anything
remote goes through a dialed connection, anything local through posted
events.  Behaviors are registered under the identifier used in port specs,
so a port entry fully describes how to run the port.

The server enters behavior code at one place, ``Server._hook``: every
hook and every piece of deferred work runs there.  A hook that raises is
traced as a ``fault`` and its port retired, so a buggy behavior cannot
stop the server.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from . import wire
from .filters import And, Cmp, FilterError, FilterExpr, parse_filter
from .firewall import FirewallError, parse_rules
from .history import NODE_ORIGIN, TIME, receive_event, remove_event, resume_event
from .model import DOCUMENT, PORT, EntryUrl, parse_url, valid_name
from .node import NodeError, TimerSpec


class PortContext:
    """Everything a behavior may do, bound to one port on one node."""

    def __init__(self, server, node, name: str, attachment=None):
        self.server = server
        self.node = node
        self.name = name
        self.attachment = attachment  # the caller's connection, handed over at spawn
        self.conns: dict = {}  # id -> the connections this port owns

    # -- introspection -------------------------------------------------------

    @property
    def spec(self):
        return self.node.port_spec(self.name)

    @property
    def config(self) -> dict:
        spec = self.spec
        return spec.config if spec is not None else {}

    @property
    def entry(self):
        return self.node.entries.get(self.name)

    def node_url(self) -> EntryUrl:
        return self.server.url_for(self.node)

    def now(self) -> int:
        return self.server.clock()

    # -- posting to the node ---------------------------------------------------

    def post(self, ev):
        """Post ``ev`` through this port; the stamped event, or None when
        nothing was recorded.  A refusal (say, by the port's own output
        filter) is traced as ``rejected``, not raised."""
        try:
            return self.node.post_event(self.name, ev)
        except NodeError as e:
            self.trace("rejected", "{} {}: {}", ev.kind, ev.entry.name if ev.entry else "", e)
            return None

    def receive(self, subscription: str = "default", filt: FilterExpr | None = None):
        return self.post(receive_event(subscription, filt))

    def resume(self, subscription: str = "default"):
        return self.post(resume_event(subscription))

    def remove(self, name: str):
        """Post a Remove of ``name`` if the node holds it: the stamped event, or None."""
        entry = self.node.entries.get(name)
        return None if entry is None else self.post(remove_event(entry))

    def self_remove(self) -> None:
        """Retire this port.  Issued by the node rather than through the
        port's own output filter, so restricted ports can still clean up
        after themselves."""
        entry = self.entry
        if entry is not None:
            self.node.post_event(NODE_ORIGIN, remove_event(entry))

    def post_as_node(self, ev):
        """Node-issued post for teardown paths that outlive the port entry."""
        return self.node.post_event(NODE_ORIGIN, ev)

    def schedule(self, label: str, every: int) -> None:
        self.node.schedule(TimerSpec(label, every=every, port=self.name), now=self.now())

    def every(self, label: str, period: int, subscription: str):
        """Fire timer ``label`` every ``period``, its ticks delivered on ``subscription``."""
        self.schedule(label, every=period)
        return self.receive(subscription, And(Cmp("event.type", "==", TIME),
                                              Cmp("event.label", "==", label)))

    def defer(self, method: str) -> None:
        """Run this port's ``method`` once from the driving loop, after the
        deliveries that are due, unless the port is retired by then."""
        self.server.defer((self.node.path, self.name), method)

    # -- the outside world -------------------------------------------------------

    def dial(self, url_text: str):
        """Open a channel to a remote port; None when refused or unreachable."""
        return self.server.dial(url_text, owner=(self.node.path, self.name))

    def send(self, conn, msg: dict) -> bool:
        ok = conn.send(msg)
        self.trace("send", "{} -> {}", msg.get("kind"), conn.label)
        return ok

    def stub(self, name: str):
        return self.server.stub(name)

    def trace(self, action: str, detail: str, *args) -> None:
        """Trace ``detail``, formatted with ``args`` when there are any, as
        this port's action.  Without a tracer nothing is formatted."""
        if self.node.tracer is not None:
            self.node.tracer.record(self.node._port_actor(self.name), action,
                                    detail.format(*args) if args else detail)


class Behavior:
    """Base class: a port that never reacts to anything.

    The constructor only stores; reading the config and anything else that
    can fail belongs in ``on_start``.  A constructor or hook that raises
    retires the port."""

    # A node-issued Suspend means "caught up".  When true, the runtime
    # answers it with a Resume of that subscription instead of delivering
    # it, so a long-lived consumer keeps receiving.
    resume_on_suspend = False

    # The config keys the behavior reads, each with the parser it reads the
    # key's text with (see ``setting``).  A port entry whose config one of
    # them cannot read is refused before it is posted (``admission_fault``).
    config_keys: dict[str, Callable[[str], object]] = {}

    def __init__(self, ctx: PortContext):
        self.ctx = ctx

    def setting(self, key: str, default):
        """Config ``key`` as ``config_keys`` parses it, or ``default``."""
        text = self.ctx.config.get(key)
        return default if text is None else self.config_keys[key](text)

    def on_start(self) -> None:
        pass

    def on_event(self, ev, subscription: str) -> bool:
        """A delivery from the node.  Return True to consume an exclusive
        event; the return value is ignored otherwise."""
        return False

    def on_external(self, conn, msg: dict) -> None:
        """A message on a connection this port owns."""

    def on_stop(self, reason: str) -> None:
        pass


BEHAVIORS: dict[str, type] = {}


def positive(text: str) -> int:
    """Parser of a period config value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError("below 1")
    return value


def choice(*values: str) -> Callable[[str], str]:
    """Parser of a config value from a closed set: one of ``values``."""
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(f"not one of {', '.join(values)}")
        return text
    return parse


def optional_filter(text: str) -> FilterExpr | None:
    """Parser of a filter-valued config key; empty text is no filter."""
    return parse_filter(text) if text else None


def _entry_name(text: str) -> str:
    if not valid_name(text):
        raise ValueError("not an entry name")
    return text


# the metadata keys the kit reads, each with the parser it reads them with;
# not here: query (a query port answers a bad one), exclusive (any text)
RESERVED_META: dict[str, Callable[[str], object]] = {
    # the URL of the node a replica came from; a node's replicas all name it
    "origin-node": lru_cache(maxsize=1024)(parse_url),
    "reply-to": _entry_name,  # the port a result entry is for
    # a port's own firewall rules, after the server's (a shared list: never extend it)
    "firewall": lru_cache(maxsize=1024)(parse_rules),
}


def admission_fault(entry) -> tuple[str, str, str] | None:
    """The first rule ``entry`` breaks, as (field, code, message), or None:
    a document fits in the frame of a query result that returns it (which
    holds more around it than a ``get`` reply), each reserved
    metadata key parses, a port's behavior is registered, and each config
    key its behavior declares parses.  Every path into a node (a command,
    a push, a pull, a config file, an HTTP PUT) asks this, and only this;
    ``wire.entry_from_json`` checked the rest of the shape."""
    if entry.kind == DOCUMENT:
        size = wire.result_frame_bound(entry)
        if size > wire.MAX_BODY:
            return ("content_b64", "oversize",
                    f"content_b64 too big: a query result of {entry.name!r} could take "
                    f"{size} bytes, over the {wire.MAX_BODY} a frame holds")
    fields = [("meta." + key, RESERVED_META[key], text)
              for key, text in entry.meta.items() if key in RESERVED_META]
    if entry.kind == PORT:
        spec = entry.payload
        cls = BEHAVIORS.get(spec.behavior)
        if cls is None:
            return "behavior", "unknown-behavior", f"unknown behavior {spec.behavior!r}"
        fields += [("config." + key, parse, spec.config[key])
                   for key, parse in cls.config_keys.items() if key in spec.config]
    for field, parse, text in fields:
        try:
            parse(text)
        except (ValueError, FilterError, FirewallError) as e:
            return field, "invalid-entry", f"{field} does not parse: {text!r} ({e})"
    return None


def behavior(name: str):
    def register(cls):
        if name in BEHAVIORS:
            raise ValueError(f"behavior already registered: {name}")
        BEHAVIORS[name] = cls
        return cls
    return register


@behavior("manual")
class ManualBehavior(Behavior):
    """Inert port driven entirely from outside (tests and sim stimuli)."""
