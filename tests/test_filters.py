"""Filter language: parsing, printing, evaluation, indexing."""

import pytest

from conftest import (LABELS, META_VALUES, NAMES, PORTS, glob_oracle, loose_text,
                      rand_event, rand_filter)
from npckit.filters import (ACCESS_FIELDS, And, BoolLit, Cmp, FALSE, FilterError,
                            FilterIndex, FilterIndexError, Not, Or, TRUE,
                            access_predicate, eval_filter,
                            MAX_DEPTH, glob_match, parse_filter, print_filter)
from npckit.history import Event, INSERT, REMOVE, TIME
from npckit.model import document_entry


def ev_insert(name="doc1", kind_override=None, meta=None, origin="in"):
    entry = document_entry(name, b"x", meta=meta)
    if kind_override:
        entry = type(entry)(entry.name, entry.meta, kind_override, entry.payload)
    return Event(INSERT, origin_port=origin, entry=entry)


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_simple_atoms():
    assert parse_filter("true") is TRUE
    assert parse_filter("false") is FALSE
    e = parse_filter('event.type == "Insert"')
    assert e == Cmp("event.type", "==", "Insert")


def test_parse_precedence_and_binds_tighter_than_or():
    e = parse_filter('true or false and event.type == "Time"')
    assert isinstance(e, Or)
    assert e.left is TRUE
    assert isinstance(e.right, And)


def test_parse_not_and_parens():
    e = parse_filter('not (true or false)')
    assert e == Not(Or(TRUE, FALSE))
    e = parse_filter('not not true')
    assert e == Not(Not(TRUE))


def test_parse_escapes_in_literals():
    e = parse_filter(r'entry.name == "he said \"hi\" and left"')
    assert e.literal == 'he said "hi" and left'
    e = parse_filter(r'entry.name == "a\\b"')
    assert e.literal == "a\\b"


def test_parse_meta_fields():
    e = parse_filter('meta.reply-to == "query9"')
    assert e == Cmp("meta.reply-to", "==", "query9")


def test_print_fully_parenthesized():
    e = parse_filter('true or false and not true')
    assert print_filter(e) == "true or (false and (not true))"
    e = parse_filter('event.type == "a" and entry.kind == "b"')
    assert print_filter(e) == 'event.type == "a" and entry.kind == "b"'


def test_parse_print_identity_random(rng):
    for _ in range(400):
        ast = rand_filter(rng)
        assert parse_filter(print_filter(ast)) == ast


def test_parse_loose_text_random(rng):
    # the same tree survives arbitrary spacing and redundant parentheses
    for _ in range(400):
        ast = rand_filter(rng)
        assert parse_filter(loose_text(rng, ast)) == ast


# errors carry a machine-readable code and the byte offset of the problem

@pytest.mark.parametrize("src,code,offset", [
    ('event.type = "x"', "unknown-operator", 11),
    ('event.type ! "x"', "unknown-operator", 11),
    ('event.type equals "x"', "unknown-operator", 11),
    ('event.bogus == "x"', "unknown-field", 0),
    ('meta. == "x"', "unknown-field", 0),
    ('event.type == x', "syntax-error", 14),
    ('(event.type == "x"', "syntax-error", 18),
    ('"abc', "syntax-error", 0),
    ('event.type == "a\\x"', "syntax-error", 16),
    ('event.type == "x" garbage', "syntax-error", 18),
    ('', "syntax-error", 0),
    ('and true', "unknown-field", 0),
    ('true or', "syntax-error", 7),
])
def test_parse_errors(src, code, offset):
    with pytest.raises(FilterError) as exc:
        parse_filter(src)
    assert exc.value.code == code
    assert exc.value.offset == offset


@pytest.mark.parametrize("shape", [
    lambda n: "(" * n + "true" + ")" * n,
    lambda n: " and ".join(["true"] * (n + 1)),
    lambda n: " or ".join(["false"] * n + ["true"]),
    lambda n: "not " * n + "true",
    lambda n: "not (" * n + "true" + ")" * n,
], ids=["parentheses", "and-chain", "or-chain", "nots", "not-parentheses"])
def test_parse_bounds_nesting_and_reprints_what_it_accepts(shape):
    e = parse_filter(shape(MAX_DEPTH))
    assert eval_filter(e, ev_insert()) is True
    assert parse_filter(print_filter(e)) == e
    with pytest.raises(FilterError) as exc:
        parse_filter(shape(MAX_DEPTH + 1))
    assert exc.value.code == "too-deep"


# ---------------------------------------------------------------------------
# evaluation

def test_eval_basic_fields():
    ev = ev_insert("report-1", meta={"topic": "news"})
    assert eval_filter(parse_filter('event.type == "Insert"'), ev)
    assert not eval_filter(parse_filter('event.type == "Remove"'), ev)
    assert eval_filter(parse_filter('event.port == "in"'), ev)
    assert eval_filter(parse_filter('entry.name == "report-1"'), ev)
    assert eval_filter(parse_filter('entry.kind == "document"'), ev)
    assert eval_filter(parse_filter('meta.topic == "news"'), ev)


def test_eval_missing_fields_read_empty():
    ev = Event(TIME, label="tick")
    # Time events carry no entry: every entry and meta field reads ""
    assert eval_filter(parse_filter('entry.name == ""'), ev)
    assert eval_filter(parse_filter('meta.topic == ""'), ev)
    assert not eval_filter(parse_filter('entry.kind == "document"'), ev)
    ev2 = ev_insert("a")
    assert eval_filter(parse_filter('meta.absent == ""'), ev2)
    assert eval_filter(parse_filter('event.label == ""'), ev2)
    assert eval_filter(parse_filter('event.subscription == ""'), ev2)


def test_eval_glob():
    ev = ev_insert("report-2024", meta={"topic": "news-sports"})
    assert eval_filter(parse_filter('entry.name matches "report-*"'), ev)
    assert eval_filter(parse_filter('entry.name matches "report-?0?4"'), ev)
    assert not eval_filter(parse_filter('entry.name matches "report-"'), ev)
    assert eval_filter(parse_filter('meta.topic matches "*sports"'), ev)


def test_eval_ordering_numeric_when_both_integers():
    ev = ev_insert("a", meta={"rank": "3"})
    # 3 < 12 numerically even though "3" > "12" as bytes
    assert eval_filter(parse_filter('meta.rank < "12"'), ev)
    assert eval_filter(parse_filter('meta.rank >= "-7"'), ev)
    ev2 = ev_insert("a", meta={"rank": "007"})
    # leading zeros still parse as the same number for ordering
    assert eval_filter(parse_filter('meta.rank <= "7"'), ev2)
    assert eval_filter(parse_filter('meta.rank >= "7"'), ev2)
    # but equality stays textual
    assert not eval_filter(parse_filter('meta.rank == "7"'), ev2)


def test_eval_ordering_lexicographic_otherwise():
    ev = ev_insert("a10")
    # "a10" < "a9" by byte order because "1" < "9"
    assert eval_filter(parse_filter('entry.name < "a9"'), ev)
    ev2 = ev_insert("b", meta={"rank": "3x"})
    # "3x" is not an integer, so "3x" < "12" is byte order: false
    assert not eval_filter(parse_filter('meta.rank < "12"'), ev2)


def test_eval_boolean_connectives():
    ev = ev_insert("d", meta={"topic": "news"})
    f = parse_filter('event.type == "Insert" and not meta.topic == "sports"')
    assert eval_filter(f, ev)
    f = parse_filter('false or entry.kind == "document"')
    assert eval_filter(f, ev)
    f = parse_filter('false and true or false')
    assert not eval_filter(f, ev)


def test_eval_total_on_random_inputs(rng):
    # no filter and event combination may raise
    for _ in range(500):
        f = rand_filter(rng)
        e = rand_event(rng)
        assert eval_filter(f, e) in (True, False)


def test_glob_against_oracle(rng):
    alphabet = "ab-*?"
    for _ in range(800):
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 7)))
        text = "".join(rng.choice("ab-") for _ in range(rng.randrange(0, 7)))
        assert glob_match(pattern, text) == glob_oracle(pattern, text), (pattern, text)


def test_glob_star_crosses_anything():
    assert glob_match("*", "")
    assert glob_match("*", "a.b/c\nd")
    assert not glob_match("?", "")
    assert glob_match("??", "ab")


# ---------------------------------------------------------------------------
# access predicates, event type extraction and the index

def test_access_predicate_cases():
    def pred(text, fields=ACCESS_FIELDS):
        atom = access_predicate(parse_filter(text), fields)
        return None if atom is None else (atom.field, atom.literal)

    assert pred('meta.topic == "news"') == ("meta.topic", "news")
    # any top-level conjunct, the earliest listed field first
    assert pred('event.type == "Insert" and (entry.kind == "document" and event.port == "in")'
                ' and entry.name == "a"') == ("entry.name", "a")
    assert pred('event.label == "t" and meta.reply-to == "q"') == ("meta.reply-to", "q")
    # an atom that need not hold is no access predicate
    assert pred('meta.topic != "news"') is None
    assert pred('not meta.topic == "news"') is None
    assert pred('meta.topic == "a" or meta.topic == "b"') is None
    assert pred('meta.topic matches "n*"') is None
    # event.type is the last access field; entry.kind is none
    assert pred('event.type == "Insert" and entry.kind == "document"') == ("event.type", "Insert")
    assert pred('entry.kind == "document"', ("meta.", "entry.name", "entry.kind")) \
        == ("entry.kind", "document")

def test_index_matches_exactly_like_a_scan(rng):
    index = FilterIndex()
    filters = {}
    for i in range(60):
        key = (f"p{i}", "default")
        f = rand_filter(rng)
        if rng.random() < 0.5:
            # behind an equality the events below can satisfy
            field, values = rng.choice([("meta.topic", META_VALUES), ("entry.name", NAMES),
                                        ("event.label", LABELS[1:]), ("event.port", PORTS)])
            f = And(Cmp(field, "==", rng.choice(values)), f)
        filters[key] = f
        index.register(key, f)
    for _ in range(400):
        ev = rand_event(rng)
        expected = {k for k, f in filters.items() if eval_filter(f, ev)}
        assert index.match(ev) == expected


def test_index_candidates_prune_by_event_type():
    index = FilterIndex()
    index.register("ins", parse_filter('event.type == "Insert"'))
    index.register("any", TRUE)
    time_ev = Event(TIME, label="t")
    assert "ins" not in index.candidates(time_ev)
    assert "any" in index.candidates(time_ev)
    ins_ev = ev_insert("d")
    assert index.match(ins_ev) == {"ins", "any"}


def test_an_or_of_types_is_a_candidate_for_every_event():
    index = FilterIndex()
    index.register("either", parse_filter('event.type == "Insert" or event.type == "Remove"'))
    index.register("time", parse_filter('event.type == "Time" and event.port != "x"'))
    assert index._filters["either"][1] is None
    assert index._filters["time"][1] == Cmp("event.type", "==", "Time")
    for ev in [ev_insert("d"), Event(TIME, label="t"),
               Event(REMOVE, entry=document_entry("d", b"x"))]:
        assert "either" in index.candidates(ev)
    assert "time" not in index.candidates(ev_insert("d"))
    assert index.candidates(Event(TIME, label="t")) == {"either", "time"}
    assert index.match(ev_insert("d")) == {"either"}


def test_index_candidates_are_filed_under_one_access_predicate():
    index = FilterIndex()
    index.register("news", parse_filter('event.type == "Insert" and meta.topic == "news"'))
    index.register("a", parse_filter('entry.name == "a" and meta.topic == "sports"'))
    index.register("tick", parse_filter('event.label == "tick"'))
    index.register("ins", parse_filter('event.type == "Insert"'))
    index.register("any", parse_filter('meta.topic != "news"'))
    index.register("never", FALSE)
    assert index.candidates(ev_insert("a", meta={"topic": "sports"})) == {"a", "ins", "any",
                                                                          "never"}
    assert index.candidates(ev_insert("b", meta={"topic": "news"})) == {"news", "ins", "any",
                                                                        "never"}
    assert index.candidates(Event(TIME, label="tick")) == {"tick", "any", "never"}
    for key in ["news", "a", "tick", "ins", "any", "never"]:
        index.unregister(key)
    assert index.candidates(ev_insert("a", meta={"topic": "news"})) == set()


def test_index_register_errors():
    index = FilterIndex()
    index.register("a", TRUE)
    with pytest.raises(FilterIndexError) as exc:
        index.register("a", FALSE)
    assert exc.value.code == "duplicate-registration"
    with pytest.raises(FilterIndexError) as exc:
        index.unregister("b")
    assert exc.value.code == "unknown-port"
    index.unregister("a")
    assert len(index) == 0 and "a" not in index


def test_index_unregister_stops_matching():
    index = FilterIndex()
    index.register("a", parse_filter('event.type == "Insert"'))
    ev = ev_insert("d")
    assert index.match(ev) == {"a"}
    index.unregister("a")
    assert index.match(ev) == set()
