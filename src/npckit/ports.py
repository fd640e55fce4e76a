"""Port runtime: the context handed to behaviors and the behavior registry.

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

from .filters import FilterExpr
from .history import NODE_ORIGIN, receive_event, remove_event, resume_event
from .model import PORT, EntryUrl


class PortContext:
    """Everything a behavior may do, bound to one port on one node."""

    def __init__(self, server, node, name: str, attachment: dict | None = None):
        self.server = server
        self.node = node
        self.name = name
        self.attachment = attachment or {}
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
        return self.node.post_event(self.name, ev)

    def receive(self, subscription: str = "default", filt: FilterExpr | None = None):
        return self.post(receive_event(subscription, filt))

    def resume(self, subscription: str = "default"):
        return self.post(resume_event(subscription))

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

    def schedule(self, label: str, every: int | None = None, at: int | None = None) -> None:
        from .node import TimerSpec
        self.node.schedule(TimerSpec(label, every=every, at=at, port=self.name), now=self.now())

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
        return self.server.stub(name, requester=self.name)

    def trace(self, action: str, detail: str, *args) -> None:
        """Trace ``detail``, formatted with ``args`` when there are any, as
        this port's action.  Without a tracer nothing is formatted."""
        if self.node.tracer is not None:
            self.node.tracer.record(self.node._port_actor(self.name), action,
                                    detail.format(*args) if args else detail)


class Behavior:
    """Base class: a port that never reacts to anything.

    The constructor only stores; reading the config and anything else that
    can fail belongs in ``on_start``, where a failure retires the port."""

    # A node-issued Suspend means "caught up".  When true, the runtime
    # answers it with a Resume of that subscription instead of delivering
    # it, so a long-lived consumer keeps receiving.
    resume_on_suspend = False

    # The config keys the behavior reads as integers, each with the least
    # value it can run with (None: any).  A port entry whose config breaks
    # one is refused before it is posted (see ``config_fault``).
    int_config: dict[str, int | None] = {}

    def __init__(self, ctx: PortContext):
        self.ctx = ctx

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


def config_fault(entry) -> tuple[str, str] | None:
    """For a port entry, the first integer config key its behavior could
    not run with, and why; None when there is none, or for another entry."""
    if entry.kind != PORT:
        return None
    spec = entry.payload
    for key, low in getattr(BEHAVIORS.get(spec.behavior), "int_config", {}).items():
        text = spec.config.get(key)
        if text is None:
            continue
        try:
            value = int(text)
        except (TypeError, ValueError):
            return key, f"config {key} is not an integer: {text!r}"
        if low is not None and value < low:
            return key, f"config {key} is below {low}: {text!r}"
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
