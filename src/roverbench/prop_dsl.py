"""Temporal property language over trace events.

Syntax (one property per ``prop name: formula`` stanza, ``#`` comments)::

    formula  := until
    until    := implies ("until" implies)?          # non-associative
    implies  := or ("=>" implies)?                  # right-associative
    or       := and ("||" and)*
    and      := unary ("&&" unary)*
    unary    := "!" unary | "always" "(" formula ")" | "never" "(" formula ")"
              | "eventually" ("[" "<=" INT "]")? "(" formula ")"
              | "(" formula ")" | atom
    atom     := topic(STRING) | belief(STRING) | holds(STRING)
              | action(STRING) | path cmp value   # topic/action: paths too
    path     := IDENT ("." IDENT)*
    cmp      := == | != | <= | >= | < | >
    value    := NUMBER | STRING | "[" values "]" | path

``topic`` matches successful publish events on a topic - a publish stopped by
an enforcement gate is recorded as a ``block`` event and deliberately does
not match, so a blocked violation leaves the trace clean under the same
properties that flagged it; ``belief`` matches the moment an atom is added to
the belief base; ``holds`` is a state predicate over the reconstructed belief
base; ``action`` matches agent action events (``"*"`` and ``"name(*)"``
wildcards).  Comparisons address event fields (``payload.status ==
"Aborted"``, ``server != target``); field names are checked against the
payload registry at parse time.

Verdicts are three-valued over a finite, completed trace: Violated means the
trace itself refutes the property; Satisfied means it holds with no pending
obligation; Undetermined means the trace ends with an obligation still open
(or is empty).  Bounded windows (``eventually[<=k]``) compare event
timestamps, not positions, and expire to Violated only once the trace has
advanced past the window.

``evaluate_suite`` computes every verdict of a suite in one pass over one
shared view of the trace.  A verdict is an int, 0/1/2 for
Violated/Undetermined/Satisfied, and each formula node gets one column of
them, a ``bytearray`` holding its verdict at every start position; equal
sub-formulas share a column.  In that order And, Or, Not and Implies are
``min``, ``max``, ``2 - v`` and ``max(2 - a, b)``, applied to whole columns
through byte translation tables.  An atom column is Violated except at the
positions where the atom can hold, found from an index of event positions
by key, so an atom is never tested at an event of another key.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

from .messages import PAYLOAD_FIELDS

SATISFIED = "Satisfied"
VIOLATED = "Violated"
UNDETERMINED = "Undetermined"

# Event fields addressable in comparisons, beyond payload.*.
EVENT_FIELDS = {
    "t", "kind", "seq", "topic", "sender", "node", "phase", "server",
    "target", "goal_id", "status", "atom", "op", "action", "module", "payload",
}

class PropertyError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line} col {col}: {msg}" if line else msg)
        self.line = line
        self.col = col


class ParseError(PropertyError):
    pass


class UnknownFieldError(ParseError):
    pass


class NonPositiveBoundError(ParseError):
    pass


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    parts: tuple[str, ...]

    def text(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class TopicAtom:
    name: str


@dataclass(frozen=True)
class BeliefAtom:
    atom: str


@dataclass(frozen=True)
class HoldsAtom:
    atom: str


@dataclass(frozen=True)
class ActionAtom:
    pattern: str


@dataclass(frozen=True)
class Compare:
    path: Path
    op: str
    value: object  # number | str | tuple | Path


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Always:
    sub: object


@dataclass(frozen=True)
class Never:
    sub: object


@dataclass(frozen=True)
class Eventually:
    sub: object
    bound: int | None = None


@dataclass(frozen=True)
class Until:
    left: object
    right: object


# -- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||=>|==|!=|<=|>=|[!<>()\[\]:,.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    type: str  # name / string / number / op / end
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        col = pos - line_start + 1
        pos = m.end()
        if kind == "nl":
            line += 1
            line_start = pos
            continue
        if kind in ("ws", "comment"):
            continue
        raw = m.group()
        if kind == "string":
            value = raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif kind == "number":
            value = float(raw) if "." in raw else int(raw)
        else:
            value = raw
        tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, msg: str, token: _Token | None = None) -> None:
        token = token or self.here
        raise ParseError(msg, token.line, token.col)

    def peek_op(self, op: str, ahead: int = 0) -> bool:
        token = self.tokens[self.pos + ahead]
        return token.type == "op" and token.value == op

    def peek_word(self, word: str) -> bool:
        return self.here.type == "name" and self.here.value == word

    def take(self) -> _Token:
        token = self.here
        self.pos += 1
        return token

    def expect_op(self, op: str) -> _Token:
        if not self.peek_op(op):
            self._fail(f"expected {op!r}")
        return self.take()

    def formula(self):
        left = self.implies()
        if self.peek_word("until"):
            self.take()
            right = self.implies()
            if self.peek_word("until"):
                self._fail("'until' does not chain; parenthesize")
            return Until(left, right)
        return left

    def implies(self):
        left = self.or_()
        if self.peek_op("=>"):
            self.take()
            return Implies(left, self.implies())
        return left

    def or_(self):
        left = self.and_()
        while self.peek_op("||"):
            self.take()
            left = Or(left, self.and_())
        return left

    def and_(self):
        left = self.unary()
        while self.peek_op("&&"):
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self):
        if self.peek_op("!"):
            self.take()
            return Not(self.unary())
        if self.here.type == "name" and self.here.value in ("always", "never", "eventually"):
            word = self.take()
            bound = None
            if word.value == "eventually" and self.peek_op("["):
                self.take()
                self.expect_op("<=")
                number = self.here
                if number.type != "number" or not isinstance(number.value, int):
                    self._fail("window bound must be an integer")
                if number.value <= 0:
                    raise NonPositiveBoundError(
                        f"window bound must be positive, got {number.value}",
                        number.line, number.col)
                bound = self.take().value
                self.expect_op("]")
            self.expect_op("(")
            sub = self.formula()
            self.expect_op(")")
            if word.value == "always":
                return Always(sub)
            if word.value == "never":
                return Never(sub)
            return Eventually(sub, bound)
        if self.peek_op("("):
            self.take()
            sub = self.formula()
            self.expect_op(")")
            return sub
        return self.atom()

    def atom(self):
        token = self.here
        # ``topic`` and ``action`` are event fields too: an atom only when
        # called, a comparison path otherwise.
        if (token.type == "name" and token.value in ("topic", "belief", "holds", "action")
                and self.peek_op("(", 1)):
            word = self.take()
            self.expect_op("(")
            arg = self.here
            if arg.type != "string":
                self._fail(f"{word.value}(...) takes a quoted string")
            self.take()
            self.expect_op(")")
            return {
                "topic": TopicAtom,
                "belief": BeliefAtom,
                "holds": HoldsAtom,
                "action": ActionAtom,
            }[word.value](arg.value)
        if token.type == "name":
            path = self.path()
            op_token = self.here
            if op_token.type != "op" or op_token.value not in ("==", "!=", "<", ">", "<=", ">="):
                self._fail("expected a comparison operator after field path")
            op = self.take().value
            return Compare(path, op, self.value())
        self._fail("expected an atom or formula")

    def path(self) -> Path:
        parts = []
        token = self.here
        while self.here.type == "name":
            parts.append(self.take().value)
            if self.peek_op("."):
                self.take()
                if self.here.type != "name":
                    self._fail("expected field name after '.'")
            else:
                break
        self._check_path(Path(tuple(parts)), token)
        return Path(tuple(parts))

    def _check_path(self, path: Path, token: _Token) -> None:
        head = path.parts[0]
        if head not in EVENT_FIELDS:
            raise UnknownFieldError(f"unknown event field {head!r}",
                                    token.line, token.col)
        if head == "payload":
            if len(path.parts) != 2:
                raise UnknownFieldError(
                    f"payload path must name one field, got {path.text()!r}",
                    token.line, token.col)
            if path.parts[1] not in PAYLOAD_FIELDS:
                raise UnknownFieldError(
                    f"unknown payload field {path.parts[1]!r}",
                    token.line, token.col)
        elif len(path.parts) != 1:
            raise UnknownFieldError(f"field {head!r} has no sub-fields",
                                    token.line, token.col)

    def value(self):
        token = self.here
        if token.type in ("number", "string"):
            return self.take().value
        if self.peek_op("["):
            self.take()
            items = []
            if not self.peek_op("]"):
                while True:
                    item = self.here
                    if item.type != "number":
                        self._fail("list literals hold numbers")
                    items.append(self.take().value)
                    if self.peek_op(","):
                        self.take()
                        continue
                    break
            self.expect_op("]")
            return tuple(items)
        if token.type == "name":
            return self.path()
        self._fail("expected a literal or field path")


def parse_formula(text: str):
    parser = _Parser(_tokenize(text))
    ast = parser.formula()
    if parser.here.type != "end":
        parser._fail("trailing input after formula")
    return ast


def parse_suite(text: str) -> dict:
    """Parse ``prop name: formula`` stanzas into an ordered name->AST map."""
    parser = _Parser(_tokenize(text))
    suite: dict = {}
    while parser.here.type != "end":
        if not parser.peek_word("prop"):
            parser._fail("expected 'prop'")
        parser.take()
        name_token = parser.here
        if name_token.type != "name":
            parser._fail("expected property name")
        name = parser.take().value
        if name in suite:
            raise ParseError(f"duplicate property name {name!r}",
                             name_token.line, name_token.col)
        parser.expect_op(":")
        suite[name] = parser.formula()
    return suite


# -- pretty printer ----------------------------------------------------------

_PREC = {Until: 1, Implies: 2, Or: 3, And: 4}


def _prec(node) -> int:
    return _PREC.get(type(node), 5)


def to_text(node) -> str:
    def wrap(child, minimum: int) -> str:
        text = to_text(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(node, TopicAtom):
        return f'topic("{node.name}")'
    if isinstance(node, BeliefAtom):
        return f'belief("{node.atom}")'
    if isinstance(node, HoldsAtom):
        return f'holds("{node.atom}")'
    if isinstance(node, ActionAtom):
        return f'action("{node.pattern}")'
    if isinstance(node, Compare):
        if isinstance(node.value, Path):
            value = node.value.text()
        elif isinstance(node.value, str):
            value = f'"{node.value}"'
        elif isinstance(node.value, tuple):
            value = "[" + ",".join(str(v) for v in node.value) + "]"
        else:
            value = str(node.value)
        return f"{node.path.text()} {node.op} {value}"
    if isinstance(node, Not):
        return f"!{wrap(node.sub, 5)}"
    if isinstance(node, And):
        return f"{wrap(node.left, 4)} && {wrap(node.right, 5)}"
    if isinstance(node, Or):
        return f"{wrap(node.left, 3)} || {wrap(node.right, 4)}"
    if isinstance(node, Implies):
        return f"{wrap(node.left, 3)} => {wrap(node.right, 2)}"
    if isinstance(node, Always):
        return f"always({to_text(node.sub)})"
    if isinstance(node, Never):
        return f"never({to_text(node.sub)})"
    if isinstance(node, Eventually):
        window = f"[<={node.bound}]" if node.bound is not None else ""
        return f"eventually{window}({to_text(node.sub)})"
    if isinstance(node, Until):
        return f"{wrap(node.left, 2)} until {wrap(node.right, 2)}"
    raise TypeError(f"not a formula node: {node!r}")


# -- event predicates --------------------------------------------------------

_MISSING = object()


def _resolve(event: dict, path: Path):
    value = event
    for part in path.parts:
        if isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return _MISSING
    return value


_ORDER = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compare(op: str, left, right) -> bool:
    if left is _MISSING or right is _MISSING:
        return False
    if isinstance(right, tuple):
        right = list(right)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        return False
    return _ORDER[op](left, right)


def atom_holds(node, event: dict, state: frozenset) -> bool:
    """Truth of an atomic predicate at one event.  ``state`` is the belief
    base after the event has been applied."""
    if isinstance(node, TopicAtom):
        return event.get("kind") == "publish" and event.get("topic") == node.name
    if isinstance(node, BeliefAtom):
        return (event.get("kind") == "belief" and event.get("op") == "add"
                and event.get("atom") == node.atom)
    if isinstance(node, HoldsAtom):
        return node.atom in state
    if isinstance(node, ActionAtom):
        if event.get("kind") != "action":
            return False
        action = event["action"]
        if node.pattern == "*":
            return True
        if node.pattern.endswith("(*)"):
            return action.startswith(node.pattern[:-2])
        return action == node.pattern
    if isinstance(node, Compare):
        left = _resolve(event, node.path)
        right = _resolve(event, node.value) if isinstance(node.value, Path) else node.value
        return _compare(node.op, left, right)
    raise TypeError(f"not an atomic predicate: {node!r}")


def compile_event_predicate(node):
    """Compile a temporal-operator-free formula to ``fn(event, state) -> bool``.
    Raises ValueError if the formula contains a temporal operator."""
    if isinstance(node, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
        return lambda event, state: atom_holds(node, event, state)
    if isinstance(node, Not):
        sub = compile_event_predicate(node.sub)
        return lambda event, state: not sub(event, state)
    if isinstance(node, And):
        left, right = compile_event_predicate(node.left), compile_event_predicate(node.right)
        return lambda event, state: left(event, state) and right(event, state)
    if isinstance(node, Or):
        left, right = compile_event_predicate(node.left), compile_event_predicate(node.right)
        return lambda event, state: left(event, state) or right(event, state)
    if isinstance(node, Implies):
        left, right = compile_event_predicate(node.left), compile_event_predicate(node.right)
        return lambda event, state: (not left(event, state)) or right(event, state)
    raise ValueError(f"temporal operator {type(node).__name__} is not an event predicate")


def fold_belief(beliefs: set, event: dict) -> None:
    """Apply a belief add/del event to a belief base; other events leave it."""
    if event.get("kind") == "belief":
        if event["op"] == "add":
            beliefs.add(event["atom"])
        else:
            beliefs.discard(event["atom"])


def belief_states(trace: list[dict]) -> list[frozenset]:
    """Belief base after each event, reconstructed from belief add/del events.
    The events between two belief events share one frozenset."""
    states: list[frozenset] = []
    current: set = set()
    state = frozenset()
    for event in trace:
        if event.get("kind") == "belief":
            fold_belief(current, event)
            state = frozenset(current)
        states.append(state)
    return states


# -- evaluation --------------------------------------------------------------

_VERDICTS = (VIOLATED, UNDETERMINED, SATISFIED)


def _pair_table(fn) -> bytes:
    """Translation table from a verdict pair packed as 3*a + b to fn(a, b)."""
    return bytes(fn(v // 3, v % 3) for v in range(9)) + bytes(247)


_AND = _pair_table(min)
_OR = _pair_table(max)
_IMPLIES = _pair_table(lambda a, b: max(2 - a, b))
_NOT = bytes((2, 1, 0)) + bytes(253)
# An until decides at a position where its right side holds (2) or, failing
# that, where its left side fails: refuted (0) if the right side is
# Violated there, else open (1).  Any other position (3) takes the verdict
# of the next deciding position.
_UNTIL = _pair_table(lambda a, b: 2 if b == 2 else (b if a == 0 else 3))
_UNTIL_STEP = re.compile(rb"\x03*([\x00-\x02])")


def _pack(a: bytearray, b: bytearray) -> bytes:
    """Byte i is 3*a[i] + b[i]: read as big-endian integers, no byte of
    3*a + b carries into the next, since each is at most 8."""
    return (3 * int.from_bytes(a, "big") + int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _suffix(col: bytearray, found: tuple, default: int) -> bytearray:
    """``out[i]`` is the verdict of the first ``(value, verdict)`` pair of
    ``found`` whose value occurs in ``col[i:]``, else ``default``."""
    out = bytearray((default,)) * len(col)
    for value, verdict in reversed(found):
        last = col.rfind(value) + 1
        out[:last] = bytes((verdict,)) * last
    return out


class _TraceView:
    """One trace as every column of an evaluation reads it: belief states
    built in one pass, event positions by key (an event ``kind``, and
    ``("publish", topic)`` for a publish), and the positions and values of
    each compared field path, built on first use.  ``column`` memoises one
    verdict column per formula node, so equal sub-formulas of different
    properties share it."""

    def __init__(self, trace: list[dict]):
        self.trace = trace
        self.n = len(trace)
        self.states = belief_states(trace)
        self.keys: dict = {}
        for i, event in enumerate(trace):
            kind = event.get("kind")
            self.keys.setdefault(kind, []).append(i)
            if kind == "publish":
                self.keys.setdefault((kind, event.get("topic")), []).append(i)
        self._fields: dict = {}
        self._times: list | None = None
        self._columns: dict = {}

    def at(self, key) -> list[int]:
        return self.keys.get(key, [])

    def field(self, path: Path) -> tuple[list[int], list]:
        """Positions where ``path`` resolves, and the values it resolves to."""
        hit = self._fields.get(path)
        if hit is None:
            positions, values = [], []
            head = path.parts[0]
            for i, event in enumerate(self.trace):
                if head in event:
                    value = _resolve(event, path)
                    if value is not _MISSING:
                        positions.append(i)
                        values.append(value)
            hit = self._fields[path] = (positions, values)
        return hit

    def times(self) -> list:
        if self._times is None:
            self._times = [event["t"] for event in self.trace]
        return self._times

    def column(self, node) -> bytearray:
        """Verdict of ``node`` at every start position, 0/1/2 for
        Violated/Undetermined/Satisfied."""
        out = self._columns.get(node)
        if out is None:
            out = self._columns[node] = self._build(node)
        return out

    def _atom(self, node) -> bytearray:
        """An atom column: Violated except where the atom can hold."""
        out = bytearray(self.n)
        trace, states = self.trace, self.states
        if isinstance(node, TopicAtom):
            for i in self.at(("publish", node.name)):
                out[i] = 2
        elif isinstance(node, (BeliefAtom, ActionAtom)):
            for i in self.at("belief" if isinstance(node, BeliefAtom) else "action"):
                if atom_holds(node, trace[i], states[i]):
                    out[i] = 2
        elif isinstance(node, HoldsAtom):
            starts = [0] + self.at("belief")
            for start, end in zip(starts, starts[1:] + [self.n]):
                if node.atom in states[start]:
                    out[start:end] = b"\x02" * (end - start)
        elif node.path.parts == ("kind",) and node.op == "==" and isinstance(node.value, str):
            for i in self.at(node.value):
                out[i] = 2
        else:
            positions, lefts = self.field(node.path)
            if isinstance(node.value, Path):
                rights = [_resolve(trace[i], node.value) for i in positions]
            else:
                rights = itertools.repeat(node.value)
            for i, left, right in zip(positions, lefts, rights):
                if _compare(node.op, left, right):
                    out[i] = 2
        return out

    def _build(self, node) -> bytearray:
        if isinstance(node, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
            return self._atom(node)
        if isinstance(node, Not):
            return self.column(node.sub).translate(_NOT)
        if isinstance(node, (And, Or, Implies)):
            table = _AND if isinstance(node, And) else _OR if isinstance(node, Or) else _IMPLIES
            return bytearray(_pack(self.column(node.left), self.column(node.right)).translate(table))
        if isinstance(node, Always):
            return _suffix(self.column(node.sub), ((0, 0), (1, 1)), 2)
        if isinstance(node, Never):
            return _suffix(self.column(node.sub), ((2, 0), (1, 1)), 2)
        if isinstance(node, Eventually) and node.bound is None:
            # Never refutable on a finite trace.
            return _suffix(self.column(node.sub), ((2, 2),), 1)
        if isinstance(node, Eventually):
            sub, times = self.column(node.sub), self.times()
            last_t = times[-1]
            out = bytearray(self.n)
            hit = float("inf")  # time of the first Satisfied position >= i
            for i in range(self.n - 1, -1, -1):
                if sub[i] == 2:
                    hit = times[i]
                deadline = times[i] + node.bound
                if hit <= deadline:
                    out[i] = 2
                elif last_t <= deadline:
                    out[i] = 1
            return out
        if isinstance(node, Until):
            steps = _pack(self.column(node.left), self.column(node.right)).translate(_UNTIL)
            # Past the last step the obligation is still open.
            out = bytearray(b"\x01") * self.n
            for m in _UNTIL_STEP.finditer(steps):
                out[m.start():m.end()] = m.group(1) * (m.end() - m.start())
            return out
        raise TypeError(f"not a formula node: {node!r}")


def evaluate_suite(suite: dict, trace: list[dict]) -> dict:
    """Three-valued verdict of every formula of a name->AST map over a
    finite, completed trace, in one pass over one shared view of it."""
    if not trace:
        return {name: UNDETERMINED for name in suite}
    view = _TraceView(trace)
    return {name: _VERDICTS[view.column(node)[0]] for name, node in suite.items()}


def evaluate(node, trace: list[dict]) -> str:
    """Three-valued verdict of ``node`` over a finite, completed trace."""
    return evaluate_suite({None: node}, trace)[None]
