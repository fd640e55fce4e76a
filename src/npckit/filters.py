"""Boolean filter expressions over events and the entries they carry.

Filters are the access control and routing language of the kit: every port
owns an input and an output filter, subscriptions add dynamic filters, and
pull requests ship a filter to the far side of a channel.

Grammar (whitespace insignificant, keywords lowercase and case sensitive)::

    expr  := or
    or    := and ("or" and)*
    and   := unary ("and" unary)*
    unary := "not" unary | "(" expr ")" | atom
    atom  := "true" | "false" | FIELD OP STRING

``FIELD`` is one of ``event.type``, ``event.port``, ``event.subscription``,
``event.label``, ``entry.name``, ``entry.kind``, or ``meta.<key>`` which
reads the metadata of the entry the event carries.  ``OP`` is ``==``, ``!=``,
``matches`` (glob with ``*`` and ``?`` wildcards only), or one of the ordered
comparisons ``<``, ``<=``, ``>``, ``>=``.  Ordered comparisons are numeric
when both sides parse as decimal integers and bytewise lexicographic
otherwise.  String literals are double quoted; ``\\"`` and ``\\\\`` are the
only escapes.

A field that is missing on the evaluated event (no entry, no such metadata
key, no label) reads as the empty string, so evaluation is total: any filter
can be evaluated against any event without errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class FilterError(Exception):
    """Raised for unparseable filter text.

    ``code`` is one of ``syntax-error``, ``unknown-field``,
    ``unknown-operator``, ``too-deep``; ``offset`` is the byte offset of
    the offending token in the source text.
    """

    def __init__(self, code: str, offset: int, message: str):
        super().__init__(f"{code} at {offset}: {message}")
        self.code = code
        self.offset = offset


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    field: str
    op: str
    literal: str


@dataclass(frozen=True)
class Not:
    operand: "FilterExpr"


@dataclass(frozen=True)
class And:
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True)
class Or:
    left: "FilterExpr"
    right: "FilterExpr"


FilterExpr = BoolLit | Cmp | Not | And | Or

TRUE = BoolLit(True)
FALSE = BoolLit(False)

EVENT_FIELDS = frozenset(
    ["event.type", "event.port", "event.subscription", "event.label", "entry.name", "entry.kind"]
)
OPS = frozenset(["==", "!=", "matches", "<", "<=", ">", ">="])

_WORD_RE = re.compile(r"[A-Za-z0-9._-]+")
_INT_RE = re.compile(r"-?[0-9]+")


# ---------------------------------------------------------------------------
# tokenizer

_T_WORD = "word"
_T_OP = "op"
_T_STR = "str"
_T_LPAREN = "("
_T_RPAREN = ")"
_T_EOF = "eof"


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "(":
            toks.append(_Token(_T_LPAREN, c, i))
            i += 1
        elif c == ")":
            toks.append(_Token(_T_RPAREN, c, i))
            i += 1
        elif c == '"':
            j = i + 1
            out = []
            while True:
                if j >= n:
                    raise FilterError("syntax-error", i, "unterminated string literal")
                ch = src[j]
                if ch == "\\":
                    if j + 1 >= n or src[j + 1] not in ('"', "\\"):
                        raise FilterError("syntax-error", j, "invalid escape")
                    out.append(src[j + 1])
                    j += 2
                elif ch == '"':
                    j += 1
                    break
                else:
                    out.append(ch)
                    j += 1
            toks.append(_Token(_T_STR, "".join(out), i))
            i = j
        elif c == "=":
            if src.startswith("==", i):
                toks.append(_Token(_T_OP, "==", i))
                i += 2
            else:
                raise FilterError("unknown-operator", i, "expected ==")
        elif c == "!":
            if src.startswith("!=", i):
                toks.append(_Token(_T_OP, "!=", i))
                i += 2
            else:
                raise FilterError("unknown-operator", i, "expected !=")
        elif c in "<>":
            if i + 1 < n and src[i + 1] == "=":
                toks.append(_Token(_T_OP, src[i : i + 2], i))
                i += 2
            else:
                toks.append(_Token(_T_OP, c, i))
                i += 1
        else:
            m = _WORD_RE.match(src, i)
            if not m:
                raise FilterError("syntax-error", i, f"unexpected character {c!r}")
            toks.append(_Token(_T_WORD, m.group(), i))
            i = m.end()
    toks.append(_Token(_T_EOF, "", n))
    return toks


# ---------------------------------------------------------------------------
# parser

MAX_DEPTH = 200  # deepest tree and parenthesis nesting parsed; far inside the recursion limit


class _Parser:
    """Recursive descent parser.  Each parse method returns the tree it
    read and that tree's height in operators, and refuses one higher than
    ``MAX_DEPTH``, as it refuses parentheses nested deeper: evaluating,
    printing and parsing recurse once or more per level."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.parens = 0  # parentheses open where the parser is

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def _bounded(self, height: int) -> int:
        if height > MAX_DEPTH:
            raise FilterError("too-deep", self.peek().pos,
                              f"filter nests deeper than {MAX_DEPTH} levels")
        return height

    def parse(self) -> FilterExpr:
        e, _ = self.parse_or()
        t = self.peek()
        if t.kind != _T_EOF:
            raise FilterError("syntax-error", t.pos, f"unexpected {t.text!r}")
        return e

    def parse_or(self) -> tuple[FilterExpr, int]:
        e, h = self.parse_and()
        while self.peek().kind == _T_WORD and self.peek().text == "or":
            self.take()
            right, rh = self.parse_and()
            e, h = Or(e, right), self._bounded(max(h, rh) + 1)
        return e, h

    def parse_and(self) -> tuple[FilterExpr, int]:
        e, h = self.parse_unary()
        while self.peek().kind == _T_WORD and self.peek().text == "and":
            self.take()
            right, rh = self.parse_unary()
            e, h = And(e, right), self._bounded(max(h, rh) + 1)
        return e, h

    def parse_unary(self) -> tuple[FilterExpr, int]:
        nots = 0
        while self.peek().kind == _T_WORD and self.peek().text == "not":
            self.take()
            nots = self._bounded(nots + 1)
        t = self.peek()
        if t.kind == _T_LPAREN:
            self.take()
            self.parens = self._bounded(self.parens + 1)
            e, h = self.parse_or()
            closing = self.take()
            if closing.kind != _T_RPAREN:
                raise FilterError("syntax-error", closing.pos, "expected )")
            self.parens -= 1
        else:
            e, h = self.parse_atom(), 0
        for _ in range(nots):
            e = Not(e)
        return e, self._bounded(h + nots)

    def parse_atom(self) -> FilterExpr:
        t = self.take()
        if t.kind != _T_WORD:
            raise FilterError("syntax-error", t.pos, f"expected atom, got {t.text!r}")
        if t.text == "true":
            return TRUE
        if t.text == "false":
            return FALSE
        field = t.text
        if field not in EVENT_FIELDS and not (field.startswith("meta.") and len(field) > 5):
            raise FilterError("unknown-field", t.pos, field)
        op = self.take()
        if op.kind == _T_WORD:
            if op.text != "matches":
                raise FilterError("unknown-operator", op.pos, op.text)
            opname = "matches"
        elif op.kind == _T_OP:
            opname = op.text
        else:
            raise FilterError("syntax-error", op.pos, "expected operator")
        lit = self.take()
        if lit.kind != _T_STR:
            raise FilterError("syntax-error", lit.pos, "expected string literal")
        return Cmp(field, opname, lit.text)


def parse_filter(src: str) -> FilterExpr:
    """Parse filter text into an expression tree."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# printer

def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _wrap(e: FilterExpr) -> str:
    if isinstance(e, (BoolLit, Cmp)):
        return print_filter(e)
    return "(" + print_filter(e) + ")"


def print_filter(e: FilterExpr) -> str:
    """Render an expression tree as fully parenthesized filter text.

    ``parse_filter(print_filter(e)) == e`` holds for every tree.
    """
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Cmp):
        return f'{e.field} {e.op} "{_escape(e.literal)}"'
    if isinstance(e, Not):
        return "not " + _wrap(e.operand)
    if isinstance(e, And):
        return _wrap(e.left) + " and " + _wrap(e.right)
    if isinstance(e, Or):
        return _wrap(e.left) + " or " + _wrap(e.right)
    raise TypeError(f"not a filter expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

@lru_cache(maxsize=4096)
def _glob_re(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def glob_match(pattern: str, text: str) -> bool:
    """Glob match where ``*`` spans any run and ``?`` any single character."""
    return _glob_re(pattern).fullmatch(text) is not None


def entry_field(entry, field: str) -> str:
    """An entry's value of ``entry.name``, ``entry.kind`` or ``meta.<key>``;
    "" for a missing piece, as in evaluation."""
    if field == "entry.name":
        return entry.name or ""
    if field == "entry.kind":
        return entry.kind or ""
    if field.startswith("meta."):
        return entry.meta.get(field[5:], "")
    return ""


def _field_value(ev, field: str) -> str:
    # Missing pieces read as "" so that evaluation is total.
    if field == "event.type":
        return ev.kind or ""
    if field == "event.port":
        return ev.origin_port or ""
    if field == "event.subscription":
        return ev.subscription or ""
    if field == "event.label":
        return ev.label or ""
    entry = getattr(ev, "entry", None)
    if entry is None:
        return ""
    return entry_field(entry, field)


def _compare(op: str, left: str, right: str) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "matches":
        return glob_match(right, left)
    if _INT_RE.fullmatch(left) and _INT_RE.fullmatch(right):
        a, b = int(left), int(right)
    else:
        a, b = left, right  # type: ignore[assignment]
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown operator {op!r}")


def eval_filter(e: FilterExpr, ev) -> bool:
    """Evaluate a filter against an event-shaped object.

    The object needs ``kind``, ``origin_port``, ``subscription``, ``label``
    and an optional ``entry`` with ``name``, ``kind``, ``meta``.
    """
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Cmp):
        return _compare(e.op, _field_value(ev, e.field), e.literal)
    if isinstance(e, Not):
        return not eval_filter(e.operand, ev)
    if isinstance(e, And):
        return eval_filter(e.left, ev) and eval_filter(e.right, ev)
    if isinstance(e, Or):
        return eval_filter(e.left, ev) or eval_filter(e.right, ev)
    raise TypeError(f"not a filter expression: {e!r}")


# ---------------------------------------------------------------------------
# filter index

def access_predicate(e: FilterExpr, fields: tuple[str, ...]) -> Cmp | None:
    """A ``field == "literal"`` atom among the top-level conjuncts of ``e``,
    so one that holds wherever ``e`` holds, on the earliest of ``fields``
    that has one; ``"meta."`` in ``fields`` stands for every metadata key.
    None when no conjunct qualifies."""
    best, rank = None, len(fields)
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, And):
            todo += [x.right, x.left]
        elif isinstance(x, Cmp) and x.op == "==":
            group = "meta." if x.field.startswith("meta.") else x.field
            if group in fields and fields.index(group) < rank:
                best, rank = x, fields.index(group)
    return best


class ValueMap:
    """field -> value -> keys: what the filter index files filters under and
    how a node finds the entries with a given field value."""

    def __init__(self):
        self.fields: dict[str, dict[str, set]] = {}

    def add(self, field: str, value: str, key) -> None:
        self.fields.setdefault(field, {}).setdefault(value, set()).add(key)

    def discard(self, field: str, value: str, key) -> None:
        values = self.fields[field]
        keys = values[value]
        keys.discard(key)
        if not keys:
            del values[value]
            if not values:
                del self.fields[field]


# the fields a subscription is filed under, most selective first
ACCESS_FIELDS = ("meta.", "entry.name", "event.label", "event.port", "event.type")


class FilterIndexError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class FilterIndex:
    """Routes events to the registered filters that match them.

    Each filter is filed under one access predicate, a required equality
    atom on one of ``ACCESS_FIELDS``, or under nothing, which makes it a
    candidate for every event.  An event looks up its own value of each
    field filters are filed under, and every candidate is confirmed with a
    full evaluation, so the result is identical to scanning every
    registered filter.
    """

    def __init__(self):
        self._filters: dict = {}  # key -> (expr, access predicate or None)
        self._by_value = ValueMap()
        self._any: set = set()

    def register(self, key, expr: FilterExpr) -> None:
        if key in self._filters:
            raise FilterIndexError("duplicate-registration", repr(key))
        atom = access_predicate(expr, ACCESS_FIELDS)
        self._filters[key] = (expr, atom)
        if atom is None:
            self._any.add(key)
        else:
            self._by_value.add(atom.field, atom.literal, key)

    def unregister(self, key) -> None:
        if key not in self._filters:
            raise FilterIndexError("unknown-port", repr(key))
        _, atom = self._filters.pop(key)
        if atom is None:
            self._any.discard(key)
        else:
            self._by_value.discard(atom.field, atom.literal, key)

    def __contains__(self, key) -> bool:
        return key in self._filters

    def __len__(self) -> int:
        return len(self._filters)

    def candidates(self, ev) -> set:
        out = set(self._any)
        for field, values in self._by_value.fields.items():
            keys = values.get(_field_value(ev, field))
            if keys:
                out |= keys
        return out

    def match(self, ev) -> set:
        """Keys of all registered filters the event satisfies."""
        return {k for k in self.candidates(ev) if eval_filter(self._filters[k][0], ev)}
