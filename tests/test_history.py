"""Event history: stamping, cancellation, retention, filtered reads."""

import pytest

from conftest import replay_live
from npckit.filters import TRUE, parse_filter
from npckit.history import (CLOSE, Event, EventHistory, HistoryError, INSERT,
                            REMOVE, RESUME, SUSPEND, TIME, close_event,
                            insert_event, is_exclusive, remove_event,
                            resume_event, time_event)
from npckit.model import document_entry


def ins(name, origin="in", meta=None):
    return insert_event(document_entry(name, b"x", meta=meta), origin)


def rem(name, origin="in"):
    return remove_event(document_entry(name, b""), origin)


def test_an_event_is_immutable():
    ev = ins("a")
    for name in Event._fields:
        with pytest.raises(AttributeError):
            setattr(ev, name, getattr(ev, name))
    assert ev._replace(seq=3) == Event(INSERT, "in", ev.entry, seq=3)
    assert ev.seq == 0


def test_append_returns_a_stamped_copy_and_leaves_the_posted_event_alone():
    h = EventHistory(clock=lambda: 9)
    posted = ins("a")
    stamped = h.append(posted)
    assert stamped is not posted
    assert (posted.seq, posted.created_at) == (0, 0)
    assert (stamped.seq, stamped.created_at) == (1, 9)
    assert stamped._replace(seq=0, created_at=0) == posted
    assert h.get(1) is stamped


def test_append_stamps_monotonic_seq_and_time():
    t = [0]
    h = EventHistory(clock=lambda: t[0])
    a = h.append(ins("a"))
    t[0] = 5
    b = h.append(ins("b"))
    assert (a.seq, b.seq) == (1, 2)
    assert (a.created_at, b.created_at) == (0, 5)
    assert h.last_seq == 2


def test_append_rejects_receive_and_stamped_events():
    h = EventHistory()
    with pytest.raises(HistoryError) as exc:
        h.append(Event("Receive", subscription="s"))
    assert exc.value.code == "rejected-receive"
    stamped = h.append(ins("a"))
    with pytest.raises(HistoryError) as exc:
        h.append(stamped)
    assert exc.value.code == "already-stamped"
    with pytest.raises(HistoryError) as exc:
        h.append(Event("Explode"))
    assert exc.value.code == "bad-kind"


def test_remove_cancels_every_earlier_insert_of_that_name():
    h = EventHistory()
    h.append(ins("a"))
    h.append(ins("b"))
    h.append(ins("a"))  # update: both inserts of a are still live
    assert [e.seq for e in h.live] == [1, 2, 3]
    removed = h.append(rem("a"))
    assert [e.seq for e in h.live] == [2, removed.seq]
    assert not h.is_live(1) and not h.is_live(3)
    assert h.is_live(2)
    # the Remove itself stays: a late subscriber learns a was removed
    assert h.live[-1].kind == REMOVE


def test_close_cancels_matching_resumes_only():
    h = EventHistory()
    r1 = h.append(Event(RESUME, origin_port="p1", subscription="s"))
    r2 = h.append(Event(RESUME, origin_port="p1", subscription="other"))
    r3 = h.append(Event(RESUME, origin_port="p2", subscription="s"))
    c = h.append(Event(CLOSE, origin_port="p1", subscription="s"))
    live = [e.seq for e in h.live]
    assert r1.seq not in live
    assert r2.seq in live and r3.seq in live and c.seq in live


def test_suspend_and_time_are_never_cancelled():
    h = EventHistory()
    h.append(Event(SUSPEND, origin_port="p1", subscription="s"))
    h.append(time_event("tick"))
    h.append(Event(CLOSE, origin_port="p1", subscription="s"))
    h.append(rem("tick"))
    assert [e.kind for e in h.live] == [SUSPEND, TIME, CLOSE, REMOVE]


def rand_stream_event(rng):
    names = ["a", "b", "c"]
    ports = ["p1", "p2"]
    subs = ["s1", "s2"]
    roll = rng.random()
    if roll < 0.4:
        return ins(rng.choice(names), rng.choice(ports))
    if roll < 0.6:
        return rem(rng.choice(names), rng.choice(ports))
    if roll < 0.75:
        return Event(RESUME, origin_port=rng.choice(ports), subscription=rng.choice(subs))
    if roll < 0.9:
        return Event(CLOSE, origin_port=rng.choice(ports), subscription=rng.choice(subs))
    return time_event("t")


def test_cancellation_matches_naive_replay(rng):
    # random append streams, checked against the reference replay
    for _ in range(300):
        h = EventHistory()
        appended = []
        for _ in range(rng.randrange(1, 25)):
            appended.append(h.append(rand_stream_event(rng)))
        expected = [e.seq for e in replay_live(appended)]
        assert [e.seq for e in h.live] == expected
    # a long stream through a short log: retention, and dead seqs
    # compacted away many times over
    h = EventHistory(max_events=50)
    appended = []
    for i in range(5000):
        appended.append(h.append(rand_stream_event(rng)))
        if i % 100 == 0 or i == 4999:
            expected = replay_live(appended, max_events=50)
            assert h.live == expected
            assert h.dropped == len(appended) - len(expected)
            cursor = rng.randrange(1, h.last_seq + 2)
            after = [e for e in expected if e.seq >= cursor]
            assert h.read_after(cursor, TRUE)[0] == (after[0] if after else None)


def test_retention_drops_oldest_live_events():
    h = EventHistory(max_events=3)
    for name in ["a", "b", "c", "d", "e"]:
        h.append(ins(name))
    assert [e.entry.name for e in h.live] == ["c", "d", "e"]
    assert h.dropped == 2
    # seqs keep counting past dropped events
    assert h.last_seq == 5


def test_retention_counts_cancelled_events_as_dropped():
    h = EventHistory()
    h.append(ins("a"))
    h.append(rem("a"))
    assert h.dropped == 1
    assert len(h) == 1


def test_read_after_scans_live_events_through_a_filter():
    h = EventHistory()
    h.append(ins("a"))
    h.append(ins("b", meta={"topic": "news"}))
    h.append(ins("c"))
    f = parse_filter('meta.topic == "news"')
    ev, nxt = h.read_after(1, f)
    assert ev.seq == 2 and nxt == 3
    ev, nxt = h.read_after(nxt, f)
    assert ev is None and nxt == 4
    # unfiltered read walks every live event
    ev, nxt = h.read_after(1, TRUE)
    assert ev.seq == 1 and nxt == 2


def test_read_after_skips_cancelled_seqs():
    h = EventHistory()
    h.append(ins("a"))
    h.append(ins("b"))
    h.append(rem("a"))
    ev, nxt = h.read_after(1, TRUE)
    assert ev.seq == 2  # seq 1 was cancelled by the Remove
    ev, nxt = h.read_after(nxt, TRUE)
    assert ev.kind == REMOVE and ev.seq == 3


def test_read_after_end_cursor_never_goes_backward():
    h = EventHistory()
    h.append(ins("a"))
    ev, nxt = h.read_after(10, TRUE)
    assert ev is None and nxt == 10


def test_consumed_marking_requires_liveness():
    h = EventHistory()
    a = h.append(ins("a", meta={"exclusive": "true"}))
    assert is_exclusive(a)
    h.mark_consumed(a.seq)
    assert h.is_consumed(a.seq)
    h.append(rem("a"))
    assert not h.is_consumed(a.seq)
    h.mark_consumed(a.seq)  # no longer live: stays unmarked
    assert not h.is_consumed(a.seq)


def test_exclusive_by_label_or_meta():
    assert is_exclusive(Event(TIME, label="exclusive"))
    assert not is_exclusive(Event(TIME, label="tick"))
    assert is_exclusive(ins("a", meta={"exclusive": "true"}))
    assert not is_exclusive(ins("a", meta={"exclusive": "yes"}))


def test_constructor_helpers_shape():
    assert insert_event(document_entry("d", b""), "p").kind == INSERT
    assert remove_event(document_entry("d", b""), "p").kind == REMOVE
    assert resume_event("s").subscription == "s"
    assert close_event().subscription == "default"
    assert time_event("t").label == "t"
