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
              | action(STRING) | path cmp value
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
"""

from __future__ import annotations

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

_KEYWORDS = {"prop", "until", "always", "never", "eventually",
             "topic", "belief", "holds", "action"}


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

    def peek_op(self, op: str) -> bool:
        return self.here.type == "op" and self.here.value == op

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
        if token.type == "name" and token.value in ("topic", "belief", "holds", "action"):
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
    return {"<": left < right, ">": left > right,
            "<=": left <= right, ">=": left >= right}[op]


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
    """Belief base after each event, reconstructed from belief add/del events."""
    states: list[frozenset] = []
    current: set = set()
    for event in trace:
        fold_belief(current, event)
        states.append(frozenset(current))
    return states


# -- reference semantics -----------------------------------------------------

def _merge_and(a: str, b: str) -> str:
    if VIOLATED in (a, b):
        return VIOLATED
    if UNDETERMINED in (a, b):
        return UNDETERMINED
    return SATISFIED


def _merge_or(a: str, b: str) -> str:
    if SATISFIED in (a, b):
        return SATISFIED
    if UNDETERMINED in (a, b):
        return UNDETERMINED
    return VIOLATED


def _negate(a: str) -> str:
    if a == SATISFIED:
        return VIOLATED
    if a == VIOLATED:
        return SATISFIED
    return UNDETERMINED


def _columns(node, trace: list[dict], states: list[frozenset], memo: dict) -> list[str]:
    """Verdict of ``node`` at every start position, computed bottom-up."""
    if node in memo:
        return memo[node]
    n = len(trace)
    if isinstance(node, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
        out = [SATISFIED if atom_holds(node, trace[i], states[i]) else VIOLATED
               for i in range(n)]
    elif isinstance(node, Not):
        out = [_negate(v) for v in _columns(node.sub, trace, states, memo)]
    elif isinstance(node, And):
        left = _columns(node.left, trace, states, memo)
        right = _columns(node.right, trace, states, memo)
        out = [_merge_and(a, b) for a, b in zip(left, right)]
    elif isinstance(node, Or):
        left = _columns(node.left, trace, states, memo)
        right = _columns(node.right, trace, states, memo)
        out = [_merge_or(a, b) for a, b in zip(left, right)]
    elif isinstance(node, Implies):
        left = _columns(node.left, trace, states, memo)
        right = _columns(node.right, trace, states, memo)
        out = [_merge_or(_negate(a), b) for a, b in zip(left, right)]
    elif isinstance(node, (Always, Never)):
        sub = _columns(node.sub, trace, states, memo)
        if isinstance(node, Never):
            sub = [_negate(v) for v in sub]
        out = [SATISFIED] * n
        tail = SATISFIED
        for i in range(n - 1, -1, -1):
            tail = _merge_and(sub[i], tail)
            out[i] = tail
    elif isinstance(node, Eventually) and node.bound is None:
        sub = _columns(node.sub, trace, states, memo)
        out = [UNDETERMINED] * n
        tail = UNDETERMINED  # never refutable on a finite trace
        for i in range(n - 1, -1, -1):
            tail = SATISFIED if sub[i] == SATISFIED else tail
            out[i] = tail
    elif isinstance(node, Eventually):
        sub = _columns(node.sub, trace, states, memo)
        # next_hit[i]: first position >= i where the subformula is Satisfied.
        next_hit = [n] * (n + 1)
        for i in range(n - 1, -1, -1):
            next_hit[i] = i if sub[i] == SATISFIED else next_hit[i + 1]
        last_t = trace[-1]["t"] if n else 0
        out = []
        for i in range(n):
            deadline = trace[i]["t"] + node.bound
            j = next_hit[i]
            if j < n and trace[j]["t"] <= deadline:
                out.append(SATISFIED)
            elif last_t > deadline:
                out.append(VIOLATED)
            else:
                out.append(UNDETERMINED)
    elif isinstance(node, Until):
        left = _columns(node.left, trace, states, memo)
        right = _columns(node.right, trace, states, memo)
        out = [UNDETERMINED] * n
        tail = UNDETERMINED  # obligation still open past the end
        for i in range(n - 1, -1, -1):
            if right[i] == SATISFIED:
                tail = SATISFIED
            elif left[i] == VIOLATED:
                tail = VIOLATED if right[i] == VIOLATED else UNDETERMINED
            out[i] = tail
    else:
        raise TypeError(f"not a formula node: {node!r}")
    memo[node] = out
    return out


def evaluate(node, trace: list[dict]) -> str:
    """Three-valued verdict of ``node`` over a finite, completed trace."""
    if not trace:
        return UNDETERMINED
    states = belief_states(trace)
    return _columns(node, trace, states, {})[0]


def evaluate_naive(node, trace: list[dict]) -> str:
    """Direct recursive restatement of the semantics; cross-checks ``evaluate``."""
    if not trace:
        return UNDETERMINED
    states = belief_states(trace)
    n = len(trace)

    def ev(f, i: int) -> str:
        if isinstance(f, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
            return SATISFIED if atom_holds(f, trace[i], states[i]) else VIOLATED
        if isinstance(f, Not):
            return _negate(ev(f.sub, i))
        if isinstance(f, And):
            return _merge_and(ev(f.left, i), ev(f.right, i))
        if isinstance(f, Or):
            return _merge_or(ev(f.left, i), ev(f.right, i))
        if isinstance(f, Implies):
            return _merge_or(_negate(ev(f.left, i)), ev(f.right, i))
        if isinstance(f, Always):
            verdict = SATISFIED
            for j in range(i, n):
                verdict = _merge_and(verdict, ev(f.sub, j))
                if verdict == VIOLATED:
                    return VIOLATED
            return verdict
        if isinstance(f, Never):
            return ev(Always(Not(f.sub)), i)
        if isinstance(f, Eventually) and f.bound is None:
            for j in range(i, n):
                if ev(f.sub, j) == SATISFIED:
                    return SATISFIED
            return UNDETERMINED
        if isinstance(f, Eventually):
            deadline = trace[i]["t"] + f.bound
            for j in range(i, n):
                if trace[j]["t"] > deadline:
                    return VIOLATED
                if ev(f.sub, j) == SATISFIED:
                    return SATISFIED
            return VIOLATED if trace[-1]["t"] > deadline else UNDETERMINED
        if isinstance(f, Until):
            for j in range(i, n):
                right = ev(f.right, j)
                if right == SATISFIED:
                    return SATISFIED
                if ev(f.left, j) == VIOLATED:
                    return VIOLATED if right == VIOLATED else UNDETERMINED
            return UNDETERMINED
        raise TypeError(f"not a formula node: {f!r}")

    return ev(node, 0)
