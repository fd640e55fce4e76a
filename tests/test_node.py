"""Node delivery protocol: posting, subscriptions, fairness, exclusivity."""

import pytest

from npckit.filters import FALSE, TRUE, And, Cmp, parse_filter
from npckit.history import (CLOSE, Event, INSERT, NODE_ORIGIN, REMOVE, RESUME,
                            SUSPEND, TIME, close_event, insert_event,
                            receive_event, remove_event, resume_event,
                            suspend_event)
from npckit.model import PortSpec, document_entry, port_entry
from npckit.node import Node, NodeError, TimerSpec

from conftest import ScanNode, lines_run, rand_filter


class Collector:
    """Sink that records deliveries; ``consume`` is returned to the node.

    With ``rearm`` set the collector answers every end-of-history Suspend
    with a Resume, the way long-lived consumer behaviors do."""

    def __init__(self, consume=False):
        self.got = []
        self.subscriptions = []
        self.consume = consume
        self.rearm = None

    def __call__(self, ev, sub):
        self.got.append(ev)
        self.subscriptions.append(sub)
        if (self.rearm is not None and ev.kind == SUSPEND
                and ev.origin_port == NODE_ORIGIN):
            node, port = self.rearm
            node.post_event(port, resume_event(sub))
        return self.consume

    def kinds(self):
        return [e.kind for e in self.got]


def add_port(node, name, input_filter=TRUE, output_filter=TRUE, consume=False,
             auto_resume=False, **kw):
    spec = PortSpec("manual", input_filter=input_filter,
                    output_filter=output_filter, **kw)
    node.post_event(NODE_ORIGIN, insert_event(port_entry(name, spec)))
    sink = Collector(consume)
    if auto_resume:
        sink.rearm = (node, name)
    node.sinks[name] = sink
    return sink


def doc(name, meta=None, body=b"x"):
    return document_entry(name, body, meta=meta)


DOCS = parse_filter('entry.kind == "document"')
NEWS = parse_filter('meta.topic == "news"')
SPORTS = parse_filter('meta.topic == "sports"')


def drain(node, limit=1000):
    out = []
    for _ in range(limit):
        d = node.deliver_step()
        if d is None:
            return out
        out.append(d)
    raise AssertionError("delivery did not quiesce")


# ---------------------------------------------------------------------------
# posting

def test_insert_updates_table_and_history():
    n = Node()
    add_port(n, "in")
    ev = n.post_event("in", insert_event(doc("d1")))
    assert ev.seq == 2  # the port entry insert was seq 1
    assert n.entries["d1"].payload.content == b"x"
    assert n.history.last_seq == 2


def test_posts_from_unknown_ports_are_rejected():
    n = Node()
    with pytest.raises(NodeError) as exc:
        n.post_event("ghost", insert_event(doc("d")))
    assert exc.value.code == "unknown-port"


def test_output_filter_gates_entry_events():
    n = Node()
    add_port(n, "in", output_filter=parse_filter('meta.topic == "news"'))
    n.post_event("in", insert_event(doc("ok", meta={"topic": "news"})))
    with pytest.raises(NodeError) as exc:
        n.post_event("in", insert_event(doc("nope", meta={"topic": "sports"})))
    assert exc.value.code == "rejected-filter"
    assert "nope" not in n.entries


def test_flow_posts_bypass_output_filter():
    # a port that may only emit document inserts can still manage its
    # subscription, or it could never read anything
    n = Node()
    add_port(n, "p", output_filter=FALSE)
    n.post_event("p", receive_event("s"))
    n.post_event("p", suspend_event("s"))
    n.post_event("p", resume_event("s"))
    n.post_event("p", close_event("s"))
    kinds = [e.kind for e in n.history.live]
    assert CLOSE in kinds


def test_remove_carries_live_snapshot_for_filtering():
    n = Node()
    add_port(n, "in")
    add_port(n, "cleaner", output_filter=parse_filter('meta.topic == "news"'))
    n.post_event("in", insert_event(doc("d1", meta={"topic": "news"})))
    # the Remove post names the entry with a bare stub; the node judges the
    # output filter against the live entry, which carries the metadata
    removed = n.post_event("cleaner", remove_event(doc("d1")))
    assert removed.entry.meta["topic"] == "news"


def test_remove_snapshot_blocks_kind_laundering():
    # a document-only port cannot remove a port entry by posting a stub
    # that claims to be a document
    n = Node()
    add_port(n, "victim")
    add_port(n, "plain", output_filter=parse_filter('entry.kind == "document"'))
    with pytest.raises(NodeError) as exc:
        n.post_event("plain", remove_event(doc("victim")))
    assert exc.value.code == "rejected-filter"
    assert "victim" in n.entries


def test_remove_of_absent_entry_is_not_appended():
    n = Node()
    add_port(n, "in")
    before = n.history.last_seq
    assert n.post_event("in", remove_event(doc("ghost"))) is None
    assert n.history.last_seq == before


def test_time_posts_only_from_node():
    n = Node()
    n.schedule(TimerSpec("tick", every=5), now=0)
    fired = n.tick(5)
    assert [e.kind for e in fired] == [TIME]
    assert fired[0].origin_port == NODE_ORIGIN
    assert fired[0].label == "tick"


# ---------------------------------------------------------------------------
# the subscription protocol

def test_receive_arms_subscription_and_is_not_appended():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out", input_filter=DOCS)
    n.post_event("in", insert_event(doc("d1")))
    n.post_event("in", insert_event(doc("d2")))
    before = n.history.last_seq
    n.post_event("out", receive_event("default"))
    assert n.history.last_seq == before  # Receive never lands in history
    served = drain(n)
    # two documents, then the node tells the port it has caught up
    assert sink.kinds() == [INSERT, INSERT, SUSPEND]
    assert [d.event.entry.name for d in served[:2] if d.event.entry] == ["d1", "d2"]
    assert served[-1].event.origin_port == NODE_ORIGIN


def test_receive_filter_narrows_delivery():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out")
    n.post_event("in", insert_event(doc("a", meta={"topic": "news"})))
    n.post_event("in", insert_event(doc("b", meta={"topic": "sports"})))
    n.post_event("out", receive_event("default", parse_filter('meta.topic == "news"')))
    drain(n)
    names = [e.entry.name for e in sink.got if e.entry is not None]
    assert names == ["a"]


def test_input_filter_composes_with_receive_filter():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out", input_filter=parse_filter('meta.topic == "news"'))
    n.post_event("in", insert_event(doc("a", meta={"topic": "news", "lang": "en"})))
    n.post_event("in", insert_event(doc("b", meta={"topic": "news", "lang": "de"})))
    n.post_event("out", receive_event("default", parse_filter('meta.lang == "de"')))
    drain(n)
    names = [e.entry.name for e in sink.got if e.entry is not None]
    assert names == ["b"]


def test_port_suspend_pauses_delivery_without_append():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out", input_filter=DOCS)
    n.post_event("out", receive_event())
    n.post_event("in", insert_event(doc("d1")))
    n.post_event("in", insert_event(doc("d2")))
    assert n.deliver_step() is not None  # d1
    before = n.history.last_seq
    n.post_event("out", suspend_event())
    assert n.history.last_seq == before
    assert n.deliver_step() is None  # paused, nothing else armed
    n.post_event("out", resume_event())
    assert n.history.last_seq == before  # d2 still pending: no Resume record
    assert n.deliver_step().event.entry.name == "d2"


@pytest.mark.parametrize("event", [receive_event("x"), resume_event("x")],
                         ids=["receive", "resume"])
def test_the_node_never_subscribes_to_itself(event):
    n = Node()
    with pytest.raises(NodeError) as exc:
        n.post_event(NODE_ORIGIN, event)
    assert exc.value.code == "bad-kind"
    assert n.subs == {} and n.history.last_seq == 0


def test_resume_at_end_of_history_is_appended():
    n = Node()
    add_port(n, "in")
    add_port(n, "out", input_filter=DOCS)
    n.post_event("out", receive_event())
    drain(n)  # nothing to read: the node suspends the subscription
    stamped = n.post_event("out", resume_event())
    assert stamped is not None and stamped.kind == RESUME
    assert stamped.seq == n.history.last_seq


def test_close_is_appended_and_cancels_pending_resume():
    n = Node()
    add_port(n, "in")
    add_port(n, "out", input_filter=DOCS)
    n.post_event("out", receive_event())
    drain(n)
    n.post_event("out", resume_event())  # at end: recorded
    n.post_event("out", close_event())
    kinds = [e.kind for e in n.history.live]
    assert RESUME not in kinds
    assert kinds.count(CLOSE) == 1
    assert ("out", "default") not in n.subs


def test_node_suspend_fires_once_until_new_data():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out", input_filter=DOCS)
    n.post_event("out", receive_event())
    drain(n)
    assert sink.kinds() == [SUSPEND]
    # re-arm at the end: the node must not repeat the notification
    n.post_event("out", resume_event())
    assert drain(n) == []
    assert sink.kinds() == [SUSPEND]
    # new data resets the notification
    n.post_event("in", insert_event(doc("d1")))
    drain(n)
    assert sink.kinds() == [SUSPEND, INSERT, SUSPEND]


def test_two_armed_ports_at_end_do_not_livelock():
    # both sinks re-arm on every node Suspend, the pathological case
    n = Node()
    add_port(n, "a", auto_resume=True)
    add_port(n, "b", auto_resume=True)
    n.post_event("a", receive_event())
    n.post_event("b", receive_event())
    drain(n, limit=200)  # raises if the pair ping-pongs forever


def test_deliveries_skip_the_posting_port():
    n = Node()
    sink_a = add_port(n, "a")
    sink_b = add_port(n, "b")
    n.post_event("a", receive_event("default", DOCS))
    n.post_event("b", receive_event("default", DOCS))
    n.post_event("a", insert_event(doc("mine")))
    drain(n)
    assert [e.entry.name for e in sink_b.got if e.entry] == ["mine"]
    assert all(e.entry.name != "mine" for e in sink_a.got if e.entry)


def test_flow_records_are_delivered_to_matching_subscribers():
    n = Node()
    add_port(n, "worker")
    watcher = add_port(n, "watcher", auto_resume=True)
    n.post_event("watcher", receive_event("default", parse_filter(
        'event.type == "Resume" or event.type == "Close"')))
    n.post_event("worker", receive_event())
    drain(n)
    n.post_event("worker", resume_event())  # at end: appended
    n.post_event("worker", close_event())
    drain(n)
    from_worker = [e.kind for e in watcher.got if e.origin_port == "worker"]
    assert from_worker == [CLOSE]  # the Close cancelled the Resume


def test_receive_replaces_filter_but_keeps_cursor():
    n = Node()
    add_port(n, "in")
    sink = add_port(n, "out", auto_resume=True)
    n.post_event("in", insert_event(doc("a", meta={"topic": "news"})))
    n.post_event("in", insert_event(doc("b", meta={"topic": "sports"})))
    n.post_event("out", receive_event("default", parse_filter('meta.topic == "news"')))
    drain(n)
    # rewiden the filter: already-passed events are not replayed
    n.post_event("out", receive_event("default", DOCS))
    drain(n)
    names = [e.entry.name for e in sink.got if e.entry is not None]
    assert names == ["a"]
    n.post_event("in", insert_event(doc("c", meta={"topic": "sports"})))
    drain(n)
    names = [e.entry.name for e in sink.got if e.entry is not None]
    assert names == ["a", "c"]


def test_subscriptions_start_at_the_spec_cursor():
    n = Node()
    add_port(n, "in")
    n.post_event("in", insert_event(doc("old")))
    sink = add_port(n, "late", cursor=4, input_filter=DOCS)
    n.post_event("in", insert_event(doc("new")))
    n.post_event("late", receive_event())
    drain(n)
    names = [e.entry.name for e in sink.got if e.entry is not None]
    assert names == ["new"]
    # a cursor past the end of history also holds back what is appended
    # before the history reaches it
    ahead = add_port(n, "ahead", cursor=n.history.last_seq + 4, input_filter=DOCS)
    n.post_event("ahead", receive_event())
    for name in ["early", "early2", "due"]:
        n.post_event("in", insert_event(doc(name)))
    drain(n)
    assert [e.entry.name for e in ahead.got if e.entry is not None] == ["due"]


def test_close_of_unknown_subscription_still_appends():
    n = Node()
    add_port(n, "p")
    stamped = n.post_event("p", close_event("never-opened"))
    assert stamped.kind == CLOSE


# ---------------------------------------------------------------------------
# fairness

def test_ring_serves_subscriptions_round_robin():
    n = Node()
    sinks = {name: add_port(n, name, input_filter=DOCS) for name in ["c1", "c2", "c3"]}
    for name in sinks:
        n.post_event(name, receive_event())
    for i in range(10):
        n.post_event(NODE_ORIGIN, insert_event(doc(f"d{i}")))
    order = []
    for _ in range(30):
        d = n.deliver_step()
        assert d is not None and d.event.kind == INSERT
        order.append(d.port)
    # exactly 30 steps for 3 consumers x 10 events, in strict rotation
    assert order == ["c1", "c2", "c3"] * 10
    for sink in sinks.values():
        assert len(sink.got) == 10


@pytest.mark.parametrize("reference", [True, False])
def test_ring_wraps_when_its_start_leaves(reference):
    n = ScanNode() if reference else Node()
    add_port(n, "in")
    for name in ["a", "b", "c"]:
        add_port(n, name)
    n.post_event("a", receive_event("default", DOCS))
    n.post_event("b", receive_event("default", DOCS))
    n.post_event("in", insert_event(doc("d1")))
    assert n.deliver_step().port == "a"  # b is next...
    n.post_event("b", close_event())  # ...until it goes: the ring wraps to a
    n.post_event("c", receive_event("default", DOCS))
    assert [d.port for d in drain(n)] == ["a", "c", "c"]


def test_slow_consumer_does_not_stall_others():
    n = Node()
    fast = add_port(n, "fast", input_filter=DOCS)
    add_port(n, "slow", input_filter=DOCS)
    n.post_event("fast", receive_event())
    n.post_event("slow", receive_event())
    n.post_event(NODE_ORIGIN, insert_event(doc("d1")))
    n.post_event(NODE_ORIGIN, insert_event(doc("d2")))
    n.post_event("slow", suspend_event())  # slow opts out mid-stream
    drain(n)
    assert [e.entry.name for e in fast.got if e.entry] == ["d1", "d2"]


# ---------------------------------------------------------------------------
# exclusive consumption

def test_exclusive_goes_to_highest_priority_port():
    n = Node()
    low = add_port(n, "low", consume=True, priority=1)
    high = add_port(n, "high", consume=True, priority=5)
    n.post_event("low", receive_event("default", DOCS))
    n.post_event("high", receive_event("default", DOCS))
    ev = n.post_event(NODE_ORIGIN, insert_event(doc("job", meta={"exclusive": "true"})))
    assert [e.entry.name for e in high.got if e.entry] == ["job"]
    assert not [e for e in low.got if e.kind == INSERT]
    assert n.history.is_consumed(ev.seq)
    # nobody else sees a consumed event
    drain(n)
    assert not [e for e in low.got if e.kind == INSERT]


def test_exclusive_ties_break_by_port_name():
    n = Node()
    b = add_port(n, "b-worker", consume=True, priority=2)
    a = add_port(n, "a-worker", consume=True, priority=2)
    n.post_event("b-worker", receive_event("default", DOCS))
    n.post_event("a-worker", receive_event("default", DOCS))
    n.post_event(NODE_ORIGIN, insert_event(doc("job", meta={"exclusive": "true"})))
    assert [e.entry.name for e in a.got if e.entry] == ["job"]
    assert b.got == []


def test_exclusive_falls_through_declining_ports():
    n = Node()
    first = add_port(n, "first", consume=False, priority=9)
    second = add_port(n, "second", consume=True, priority=1)
    n.post_event("first", receive_event("default", DOCS))
    n.post_event("second", receive_event("default", DOCS))
    n.post_event(NODE_ORIGIN, insert_event(doc("job", meta={"exclusive": "true"})))
    assert [e.kind for e in first.got] == [INSERT]  # offered first, declined
    assert [e.entry.name for e in second.got if e.entry] == ["job"]


def test_exclusive_unconsumed_waits_for_a_later_subscriber():
    n = Node()
    add_port(n, "in")
    ev = n.post_event("in", insert_event(doc("job", meta={"exclusive": "true"})))
    assert not n.history.is_consumed(ev.seq)
    taker = add_port(n, "taker", consume=True, input_filter=DOCS)
    n.post_event("taker", receive_event())
    drain(n)
    assert [e.entry.name for e in taker.got if e.entry] == ["job"]
    assert n.history.is_consumed(ev.seq)


def test_exclusive_offer_names_the_ports_oldest_matching_subscription():
    n = Node()
    worker = add_port(n, "w", consume=True)
    for sub in ["second", "first", "other"]:
        n.post_event("w", receive_event(sub, parse_filter('meta.topic != "x"')))
    n.post_event("w", suspend_event("second"))
    n.post_event(NODE_ORIGIN, insert_event(doc("job", meta={"exclusive": "true"})))
    assert worker.subscriptions == ["first"]


def test_exclusive_never_offered_to_its_origin():
    n = Node()
    poster = add_port(n, "poster", consume=True)
    n.post_event("poster", receive_event("default", DOCS))
    n.post_event("poster", insert_event(doc("job", meta={"exclusive": "true"})))
    assert poster.got == []


def test_declined_offer_is_not_redelivered_by_the_scan():
    n = Node()
    first = add_port(n, "first", consume=False)
    n.post_event("first", receive_event("default", DOCS))
    n.post_event(NODE_ORIGIN, insert_event(doc("job", meta={"exclusive": "true"})))
    assert len(first.got) == 1
    drain(n)
    entry_deliveries = [e for e in first.got if e.kind == INSERT]
    assert len(entry_deliveries) == 1


# ---------------------------------------------------------------------------
# timers

def test_periodic_timer_catches_up_missed_periods():
    now = [0]
    n = Node(clock=lambda: now[0])
    n.schedule(TimerSpec("t", every=10))
    now[0] = 35
    fired = n.tick(35)
    assert len(fired) == 3  # due at 10, 20, 30
    assert n.timers["t"].next_fire == 40


def test_duplicate_timer_label_rejected():
    n = Node()
    n.schedule(TimerSpec("t", every=1))
    with pytest.raises(NodeError) as exc:
        n.schedule(TimerSpec("t", every=9))
    assert exc.value.code == "duplicate-label"
    with pytest.raises(NodeError):
        n.schedule(TimerSpec("bad", every=0))


def test_time_events_reach_label_subscribers():
    n = Node()
    sink = add_port(n, "cron")
    n.post_event("cron", receive_event("default", parse_filter('event.label == "digest"')))
    n.schedule(TimerSpec("digest", every=2), now=0)
    n.schedule(TimerSpec("other", every=2), now=0)
    n.tick(2)
    drain(n)
    assert [e.label for e in sink.got if e.kind == TIME] == ["digest"]


# ---------------------------------------------------------------------------
# port lifecycle

def test_replacing_a_port_entry_drops_its_subscriptions():
    n = Node()
    add_port(n, "p", input_filter=DOCS)
    n.post_event("p", receive_event())
    assert ("p", "default") in n.subs
    n.post_event(NODE_ORIGIN, insert_event(port_entry("p", PortSpec("manual"))))
    assert ("p", "default") not in n.subs
    assert n.sinks.get("p") is None


def test_removing_a_port_entry_drops_subscriptions_and_sink():
    n = Node()
    add_port(n, "p")
    n.post_event("p", receive_event())
    removed_names = []
    n.on_port_removed = lambda name, entry: removed_names.append(name)
    n.post_event(NODE_ORIGIN, remove_event(port_entry("p", PortSpec("manual"))))
    assert removed_names == ["p"]
    assert ("p", "default") not in n.subs


def test_default_subscription_honors_receive_flag():
    n = Node()
    spec = PortSpec("manual", receive_flag=True, input_filter=DOCS)
    n.post_event(NODE_ORIGIN, insert_event(port_entry("eager", spec)))
    sink = Collector()
    n.sinks["eager"] = sink
    n.create_default_subscription("eager", spec)
    n.post_event(NODE_ORIGIN, insert_event(doc("d1")))
    drain(n)
    assert [e.entry.name for e in sink.got if e.entry] == ["d1"]


# ---------------------------------------------------------------------------
# indexed, queue-fed delivery stays observably identical to polling every
# subscription and scanning the history

def rand_access_filter(r):
    """A random filter, half the time behind a required equality on a field
    the filter index files subscriptions under."""
    f = rand_filter(r, depth=2)
    if r.random() < 0.5:
        return f
    field, value = r.choice([
        ("meta.topic", r.choice(["news", "sports"])),
        ("entry.name", f"d{r.randrange(6)}"),
        ("event.port", f"p{r.randrange(4)}"),
        ("event.label", "tick"),
    ])
    atom = Cmp(field, "==", value)
    return And(atom, f) if r.random() < 0.5 else And(f, atom)


def build_random_node(rng, node_cls, max_history):
    n = node_cls(max_history=max_history)
    for i in range(4):
        name = f"p{i}"
        spec = PortSpec("manual", input_filter=rand_access_filter(rng),
                        priority=rng.randrange(3))
        n.post_event(NODE_ORIGIN, insert_event(port_entry(name, spec)))
        n.sinks[name] = Collector(consume=rng.random() < 0.5)
    return n


def post_random(n, r):
    port = f"p{r.randrange(4)}"
    sub = r.choice(["default", "s"])
    roll = r.random()
    if roll < 0.35:
        meta = {"topic": r.choice(["news", "sports"])}
        if r.random() < 0.25:
            meta["exclusive"] = "true"
        n.post_event(port, insert_event(doc(f"d{r.randrange(6)}", meta=meta)))
    elif roll < 0.45:
        n.post_event(port, remove_event(doc(f"d{r.randrange(6)}")))
    elif roll < 0.7:
        n.post_event(port, receive_event(sub, rand_access_filter(r)))
    elif roll < 0.8:
        n.post_event(port, suspend_event(sub))
    elif roll < 0.9:
        n.post_event(port, resume_event(sub))
    else:
        n.post_event(port, close_event(sub))


@pytest.mark.parametrize("max_history", [None, 6])
def test_delivery_agrees_with_scan_reference(rng, max_history):
    for round_no in range(30):
        seed = rng.randrange(1 << 30)
        import random as _random
        logs = []
        for node_cls in (ScanNode, Node):
            r = _random.Random(seed)
            n = build_random_node(r, node_cls, max_history)
            log = []
            for _ in range(25):
                # half the time a burst of posts lands between two drains,
                # so a re-Receive can follow appends no poll has seen
                for _ in range(1 if r.random() < 0.5 else r.randint(2, 4)):
                    try:
                        post_random(n, r)
                    except NodeError as err:
                        log.append(("error", err.code))
                while True:
                    d = n.deliver_step()
                    if d is None:
                        break
                    log.append((d.port, d.subscription, d.event.kind, d.event.seq))
            # exclusive offers reach the sinks outside the delivery steps
            log.append([(name, [(e.kind, e.seq) for e in sink.got], sink.subscriptions)
                        for name, sink in sorted(n.sinks.items())])
            logs.append(log)
        assert logs[0] == logs[1], f"round {round_no} seed {seed}"


@pytest.mark.parametrize("reference", [True, False])
def test_a_re_receive_starts_where_its_own_suspend_left_the_cursor(reference):
    # a cursor moves only through its subscription's own walk: the walk to
    # c that passes b, armed and caught up, after x was appended leaves b's
    # cursor where b's end-of-history Suspend put it, so a wider re-Receive
    # of b gets x
    n = ScanNode() if reference else Node()
    add_port(n, "in")
    b = add_port(n, "b", auto_resume=True)
    c = add_port(n, "c")
    n.post_event("b", receive_event("default", NEWS))
    n.post_event("c", receive_event("default", SPORTS))
    drain(n)  # both caught up; b re-armed itself, c waits
    n.post_event("c", resume_event())
    n.post_event("in", insert_event(doc("x", meta={"topic": "sports"})))
    assert n.deliver_step().event.entry.name == "x"
    n.post_event("b", receive_event("default", DOCS))
    drain(n)
    assert [e.entry.name if e.entry else e.kind for e in b.got] == [SUSPEND, "x", SUSPEND]
    assert [e.entry.name for e in c.got if e.entry is not None] == ["x"]


@pytest.mark.parametrize("reference", [True, False])
def test_passing_over_an_event_moves_the_cursor_past_it_and_no_further(reference):
    # b's turn passes over y, its own event, and ends there: b was sent its
    # Suspend before, so x, appended after y, stays ahead of the cursor
    n = ScanNode() if reference else Node()
    add_port(n, "in")
    b = add_port(n, "b", auto_resume=True)
    n.post_event("b", receive_event("default", NEWS))
    drain(n)
    n.post_event("b", insert_event(doc("y", meta={"topic": "news"})))
    n.post_event("in", insert_event(doc("x", meta={"topic": "sports"})))
    assert drain(n) == []
    n.post_event("b", receive_event("default", DOCS))
    drain(n)
    assert [e.entry.name if e.entry else e.kind for e in b.got] == [SUSPEND, "x", SUSPEND]


@pytest.mark.parametrize("reference", [True, False])
def test_an_exclusive_event_passed_over_is_not_delivered_again(reference):
    # b declined e when it was offered; its turn then passes over e, so a
    # re-Receive does not bring e back
    n = ScanNode() if reference else Node()
    add_port(n, "in")
    b = add_port(n, "b", auto_resume=True)
    n.post_event("b", receive_event("default", NEWS))
    drain(n)
    n.post_event("in", insert_event(doc("e", meta={"topic": "news", "exclusive": "true"})))
    assert drain(n) == []
    n.post_event("b", receive_event("default", DOCS))
    drain(n)
    assert [e.entry.name if e.entry else e.kind for e in b.got] == [SUSPEND, "e", SUSPEND]


def some_filter(r):
    return r.choice([NEWS, SPORTS, DOCS, rand_access_filter(r)])


@pytest.mark.parametrize("node_cls", [ScanNode, Node])
def test_what_a_re_receive_gets_does_not_depend_on_other_walks(rng, node_cls):
    # the same script twice; the second time, unrelated subscriptions are
    # armed and delivered to between its steps whenever r has nothing ready
    import random as _random
    for round_no in range(30):
        seed = rng.randrange(1 << 30)
        script = _random.Random(seed)
        steps = []
        for _ in range(20):
            roll = script.random()
            if roll < 0.5:
                meta = {"topic": script.choice(["news", "sports"])}
                steps.append(("in", insert_event(doc(f"d{script.randrange(6)}", meta=meta))))
            elif roll < 0.65:
                steps.append(("in", remove_event(doc(f"d{script.randrange(6)}"))))
            else:
                # r narrows or widens its filter, and delivery catches up
                steps.append(("r", receive_event("default", some_filter(script))))
        between = [script.random() < 0.5 for _ in steps]
        extras = [some_filter(script) for _ in range(3)]
        runs = []
        for others in (False, True):
            n = node_cls()
            add_port(n, "in")
            r = add_port(n, "r", auto_resume=True)
            for i in range(len(extras)):
                add_port(n, f"x{i}")
            n.post_event("r", receive_event("default", DOCS))
            drain(n)
            for (port, ev), interleave in zip(steps, between):
                n.post_event(port, ev)
                if port == "r":
                    drain(n)
                if others and interleave and not n.subs[("r", "default")].ready:
                    for i, filt in enumerate(extras):
                        n.post_event(f"x{i}", receive_event("default", filt))
                    drain(n)
            drain(n)
            runs.append([(e.kind, e.seq) for e in r.got])
        assert runs[0] == runs[1], f"round {round_no} seed {seed}"


def test_queue_of_a_paused_subscription_stays_bounded():
    n = Node(max_history=20)
    add_port(n, "in")
    sink = add_port(n, "out")
    n.post_event("out", receive_event("s", DOCS))
    n.post_event("out", suspend_event("s"))
    for i in range(1000):
        n.post_event("in", insert_event(doc(f"d{i}")))
    assert len(n.subs[("out", "s")].pending) <= 2 * len(n.history)
    # resuming delivers exactly the backlog still in the history
    n.post_event("out", resume_event("s"))
    drain(n)
    assert [e.seq for e in sink.got if e.kind == INSERT] == [e.seq for e in n.history.live]


# ---------------------------------------------------------------------------
# cost independent of the history's length

def node_with_history(size):
    """A node whose history holds ``size`` document Inserts, three of them
    of ``target``, and one armed subscription that wants Inserts only."""
    n = Node()
    add_port(n, "in")
    add_port(n, "out")
    n.post_event("out", receive_event("inserts", parse_filter('event.type == "Insert"')))
    for i in range(size - 3):
        n.post_event("in", insert_event(doc(f"d{i}")))
    for _ in range(3):
        n.post_event("in", insert_event(doc("target")))
    return n


def test_cancel_read_and_subscribe_work_does_not_grow_with_the_history(monkeypatch):
    from npckit import filters, history, node as node_module
    evaluated = []
    real_eval = filters.eval_filter
    doc_inserts = parse_filter('event.type == "Insert" and entry.kind == "document"')

    def counting(f, ev):
        evaluated.append(ev.seq)
        return real_eval(f, ev)

    costs = {}
    for size in (1_000, 10_000):
        n = node_with_history(size)
        h = n.history
        # a new subscription evaluates each live event of its backlog once
        live = [e.seq for e in h.live]
        with monkeypatch.context() as m:
            m.setattr(node_module, "eval_filter", counting)
            n.post_event("out", receive_event("late", doc_inserts))
        assert evaluated == live
        evaluated.clear()

        # a Remove evaluates no filter and cancels only that name's Inserts
        dropped = h.dropped
        with monkeypatch.context() as m:
            for module in (filters, history, node_module):
                m.setattr(module, "eval_filter", counting)
            remove_cost = lines_run([history, node_module], lambda: n.post_event(
                NODE_ORIGIN, remove_event(doc("target"))))
        assert evaluated == []
        assert h.dropped - dropped == 3
        assert [e.seq for e in h.live] == [s for s in live if s < live[-3]] + [h.last_seq]

        read_cost = lines_run([history], lambda: h.read_after(h.last_seq - 10, TRUE))
        costs[size] = (remove_cost, read_cost)
    assert costs[1_000] == costs[10_000]


def topic_node(ports):
    """A node with ``ports`` topic-filtered ports, all caught up and
    re-arming themselves the way classifier ports do, and an ``in`` port."""
    n = Node()
    add_port(n, "in")
    sinks = []
    for i in range(ports):
        sinks.append(add_port(n, f"route-{i}", auto_resume=True,
                              input_filter=parse_filter(f'meta.topic == "t{i}"')))
        n.post_event(f"route-{i}", receive_event("default", DOCS))
    drain(n, limit=3 * ports + 10)
    return n, sinks


def test_post_and_drain_work_does_not_grow_with_the_subscriptions(monkeypatch):
    from npckit import filters, node as node_module
    real_eval = filters.eval_filter
    calls = []

    def counting(f, ev):
        calls.append(ev.seq)
        return real_eval(f, ev)

    costs = {}
    for ports in (10, 1000):
        n, sinks = topic_node(ports)
        work = []
        with monkeypatch.context() as m:
            for module in (filters, node_module):
                m.setattr(module, "eval_filter", counting)
            for i in range(5):
                calls.clear()
                topic = f"t{(3 * i) % 10}"
                lines = lines_run([node_module], lambda: (
                    n.post_event("in", insert_event(doc(f"d{i}", meta={"topic": topic}))),
                    drain(n)))
                work.append((len(calls), lines))
        got = {i: [e.entry.name for e in sink.got if e.kind == INSERT]
               for i, sink in enumerate(sinks) if len(sink.got) > 1}
        assert got == {0: ["d0"], 3: ["d1"], 6: ["d2"], 9: ["d3"], 2: ["d4"]}
        costs[ports] = work
    assert costs[10] == costs[1000]
    # an idle node answers a delivery step in the same few lines
    idle = {ports: lines_run([node_module], topic_node(ports)[0].deliver_step)
            for ports in (10, 1000)}
    assert idle[10] == idle[1000]


# ---------------------------------------------------------------------------
# pull reads

def test_read_for_pull_pages_through_matching_events(monkeypatch):
    n = Node()
    add_port(n, "in")
    for i in range(5):
        n.post_event("in", insert_event(doc(f"d{i}")))
    reads = []
    read_after = n.history.read_after
    monkeypatch.setattr(n.history, "read_after",
                        lambda pos, filt: reads.append(pos) or read_after(pos, filt))
    pull = n.read_for_pull(0, DOCS)
    assert reads == []  # nothing is read before the caller takes it
    batch = [next(pull) for _ in range(3)]
    assert [e.entry.name for e in batch] == ["d0", "d1", "d2"]
    assert len(reads) == 3
    rest = list(n.read_for_pull(batch[-1].seq, DOCS))
    assert [e.entry.name for e in rest] == ["d3", "d4"]
    assert len(reads) == 3 + 3  # two events, then the end of the history


def test_read_for_pull_skips_consumed_exclusives():
    n = Node()
    add_port(n, "in")
    kept = n.post_event("in", insert_event(doc("keep")))
    job = n.post_event("in", insert_event(doc("job", meta={"exclusive": "true"})))
    n.history.mark_consumed(job.seq)
    seqs = [e.seq for e in n.read_for_pull(0, TRUE)]
    assert kept.seq in seqs and job.seq not in seqs
