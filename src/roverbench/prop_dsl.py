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
payload registry at parse time.  A comparison with a missing side is false,
and an ordering holds only between two numbers.

Verdicts are three-valued over a finite, completed trace: Violated means the
trace itself refutes the property; Satisfied means it holds with no pending
obligation; Undetermined means the trace ends with an obligation still open
(or is empty).  Bounded windows (``eventually[<=k]``) compare event
timestamps, not positions, and expire to Violated only once the trace has
advanced past the window.

``evaluate_suite`` computes every verdict of a suite over one columnar
``tracing.Trace``, in the manner of stream evaluation over columns (Lola;
D'Angelo et al., TIME 2005): no event dict is walked.  A verdict is an
int, 0/1/2 for Violated/Undetermined/Satisfied, and each formula node gets
one column of them, a ``bytearray`` holding its verdict at every start
position; equal sub-formulas share a column.  In that order And, Or, Not
and Implies are ``min``, ``max``, ``2 - v`` and ``max(2 - a, b)``, applied
to whole columns through byte translation tables.  An atom column is
Violated except at the positions where the atom holds: the positions of
its event key, the positions of its field path's values that compare true,
or the belief stretches that hold it.
A bounded window is decided per run of Satisfied positions, against the
runs of equal ``t``.

``compile_event_predicate`` turns a temporal-operator-free formula into one
generated function ``fn(event, state)``, built once per distinct formula
per process, for the online monitors.  Atoms become inline expressions with
the semantics stated above; the operators become ``not``, ``and`` and
``or``.  The property's constants reach that code only through its globals,
so no text of a property is ever compiled.
A chain such as ``a && b && c`` or ``a => b => c`` nests as deep as it is
long, so everything that walks a formula folds chains and runs of ``!`` in
a loop, and recurses only into groups, which nest at most ``MAX_NESTING``
deep.  Equal formulas are one node, so equality and hashing walk nothing.
No formula is printed back to text: a report names its property.
"""

from __future__ import annotations

import bisect
import operator
import re
from dataclasses import dataclass

from .messages import PAYLOAD_FIELDS
from .tracing import EVENT_FIELDS, InputError, Trace

SATISFIED = "Satisfied"
VIOLATED = "Violated"
UNDETERMINED = "Undetermined"

class PropertyError(InputError):
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


_NODES: dict = {}  # (node type, field keys) -> the one node with those fields


class _Formula:
    """Base of the formula nodes, which are hash-consed (Filliatre and
    Conchon, "Type-Safe Modular Hash-Consing", 2006): the constructor files
    each node in ``_NODES``, so equal formulas are one object, and equality
    and hashing are identity, which never walk a formula.  A sub-formula is
    keyed by itself, a leaf by its type and ``repr``, so ``1`` and ``1.0``,
    or ``0.0`` and ``-0.0``, stay apart."""

    def __new__(cls, *fields):
        fields += tuple(getattr(cls, name) for name in cls.__match_args__[len(fields):])
        key = (cls, *(f if isinstance(f, _Formula) else (type(f), repr(f)) for f in fields))
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls.__match_args__, fields, strict=True))
            _NODES[key] = node
        return node

    def __reduce__(self):
        # Rebuilt through the constructor: a copied or serialized node comes
        # back as the filed one.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class TopicAtom(_Formula):
    name: str


@dataclass(frozen=True, eq=False, init=False)
class BeliefAtom(_Formula):
    atom: str


@dataclass(frozen=True, eq=False, init=False)
class HoldsAtom(_Formula):
    atom: str


@dataclass(frozen=True, eq=False, init=False)
class ActionAtom(_Formula):
    pattern: str


@dataclass(frozen=True, eq=False, init=False)
class Compare(_Formula):
    path: Path
    op: str
    value: object  # number | str | tuple | Path


@dataclass(frozen=True, eq=False, init=False)
class Not(_Formula):
    sub: object


@dataclass(frozen=True, eq=False, init=False)
class And(_Formula):
    left: object
    right: object


@dataclass(frozen=True, eq=False, init=False)
class Or(_Formula):
    left: object
    right: object


@dataclass(frozen=True, eq=False, init=False)
class Implies(_Formula):
    left: object
    right: object


_CONNECTIVES = (And, Or, Implies)


def chain(node) -> tuple[list, object]:
    """The links of the chain of binary connectives from ``node`` down,
    root first, each with its side not followed, and the node below them:
    ``&&`` and ``||`` are followed down their left side and ``=>`` down its
    right, the side each nests along, so that a chain of any length folds
    in a loop and only the sides not followed are recursed into."""
    links = []
    while type(node) in _CONNECTIVES:
        other, below = (node.left, node.right) if type(node) is Implies else (node.right, node.left)
        links.append((node, other))
        node = below
    return links, node


def strip_not(node) -> tuple[object, int]:
    """The node below a run of ``!`` from ``node`` down, and the run's
    length: what folds the run by parity, in a loop."""
    bangs = 0
    while type(node) is Not:
        node, bangs = node.sub, bangs + 1
    return node, bangs


@dataclass(frozen=True, eq=False, init=False)
class Always(_Formula):
    sub: object


@dataclass(frozen=True, eq=False, init=False)
class Never(_Formula):
    sub: object


@dataclass(frozen=True, eq=False, init=False)
class Eventually(_Formula):
    sub: object
    bound: int | None = None


@dataclass(frozen=True, eq=False, init=False)
class Until(_Formula):
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
        if kind == "string" and "\n" in raw:  # a literal may span lines
            line += raw.count("\n")
            line_start = m.start() + raw.rindex("\n") + 1
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


# -- parser ------------------------------------------------------------------

# Every walker of a formula recurses once per group (``(``, ``always(``,
# ``never(``, ``eventually(``), and only per group, so this bound keeps them
# all within Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # groups open at ``pos``

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
        terms = [self.or_()]
        while self.peek_op("=>"):
            self.take()
            terms.append(self.or_())
        node = terms.pop()
        while terms:  # ``=>`` nests to the right
            node = Implies(terms.pop(), node)
        return node

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
        bangs = 0
        while self.peek_op("!"):  # a run of ``!`` in a loop, not a frame each
            self.take()
            bangs += 1
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
            sub = self.group(word)
            node = (Always(sub) if word.value == "always" else
                    Never(sub) if word.value == "never" else Eventually(sub, bound))
        elif self.peek_op("("):
            node = self.group(self.here)
        else:
            node = self.atom()
        for _ in range(bangs):
            node = Not(node)
        return node

    def group(self, opening: _Token):
        """The formula between ``(`` and ``)``, in a group opened by
        ``opening`` that may nest no deeper than ``MAX_NESTING``."""
        if self.depth == MAX_NESTING:
            self._fail(f"groups nest deeper than {MAX_NESTING}", opening)
        self.depth += 1
        self.expect_op("(")
        sub = self.formula()
        self.expect_op(")")
        self.depth -= 1
        return sub

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


# -- event predicates --------------------------------------------------------

_MISSING = object()


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


def _matches(op: str, positions, values, constant) -> list[int]:
    """The positions whose value compares true against ``constant``, as
    ``_compare`` decides each, with the operator and constant resolved once."""
    if isinstance(constant, tuple):
        constant = list(constant)
    if op == "==":
        return [i for i, value in zip(positions, values) if value == constant]
    if op == "!=":
        return [i for i, value in zip(positions, values) if value != constant]
    if not isinstance(constant, (int, float)):
        return []
    order = _ORDER[op]
    return [i for i, value in zip(positions, values)
            if isinstance(value, (int, float)) and order(value, constant)]


# Python's parser refuses source nested about 200 parentheses deep: a
# subformula whose source nests this deep becomes a function of its own.
_SPLIT_DEPTH = 50

# The ordering operators as source text: an operator reaches the source only
# from this table, never from the formula.
_ORDER_TEXT = {"<": "<", ">": ">", "<=": "<=", ">=": ">="}


class _Codegen:
    """Python source for one event predicate: a function per formula, plus
    one per subformula nested past ``_SPLIT_DEPTH``.  Atoms are inline
    expressions over ``event`` and ``state``, comparisons by ``_compare``'s
    rules; ``!``, ``&&``, ``||`` and ``=>`` are ``not``, ``and`` and
    ``or``, chains flattened.  Every constant of the formula (topic
    names, atoms, patterns, field names, compared values) reaches the code
    through the functions' globals under a generated name, so no text of a
    property is ever part of the source."""

    def __init__(self):
        self.names: dict = {
            "__builtins__": {}, "isinstance": isinstance, "dict": dict,
            "_M": _MISSING, "_num": (int, float), "_compare": _compare,
        }
        self.defs: list[str] = []

    def const(self, value) -> str:
        name = f"_k{len(self.names)}"
        self.names[name] = value
        return name

    def define(self, text: str) -> str:
        name = f"_f{len(self.defs)}"
        self.defs.append(f"def {name}(event, state):\n    return {text}\n")
        return name

    def term(self, node) -> tuple[str, int]:
        """``node`` as one parenthesized expression, and its nesting depth."""
        text, depth = self.expr(node)
        if depth < _SPLIT_DEPTH:
            return text, depth
        return f"{self.define(text)}(event, state)", 1

    def expr(self, node) -> tuple[str, int]:
        kind = type(node)
        if kind is Not:
            node, bangs = strip_not(node)  # every term is a bool: ``not not x`` is x
            text, depth = self.term(node)
            return (f"(not {text})", depth + 1) if bangs % 2 else (text, depth)
        if kind in _CONNECTIVES:
            terms = [self.term(t) for t in _flat(node)]
            joiner = " and " if kind is And else " or "
            return "(" + joiner.join(t for t, _ in terms) + ")", max(d for _, d in terms) + 1
        return self.atom(node), 1

    def atom(self, node) -> str:
        if isinstance(node, TopicAtom):
            return (f'(event.get("kind") == "publish" '
                    f'and event.get("topic") == {self.const(node.name)})')
        if isinstance(node, BeliefAtom):
            return (f'(event.get("kind") == "belief" and event.get("op") == "add" '
                    f'and event.get("atom") == {self.const(node.atom)})')
        if isinstance(node, HoldsAtom):
            return f"({self.const(node.atom)} in state)"
        if isinstance(node, ActionAtom):
            # The field is read for every pattern, ``*`` included.
            if node.pattern == "*":
                test = 'event["action"] is not _M'
            elif node.pattern.endswith("(*)"):
                test = f'event["action"].startswith({self.const(node.pattern[:-2])})'
            else:
                test = f'event["action"] == {self.const(node.pattern)}'
            return f'(event.get("kind") == "action" and {test})'
        if isinstance(node, Compare):
            left = self.path(node.path)
            value = node.value
            if isinstance(value, Path):
                return f"_compare({self.const(node.op)}, {left}, {self.path(value)})"
            if isinstance(value, tuple):
                value = list(value)
            if node.op == "==":  # a missing field (_M) equals no constant
                return f"({left} == {self.const(value)})"
            if node.op == "!=":
                return f"((w := {left}) is not _M and w != {self.const(value)})"
            order = _ORDER_TEXT.get(node.op)
            if order is None:
                raise TypeError(f"unknown comparison operator {node.op!r}")
            if not isinstance(value, (int, float)):
                return "False"
            return f"(isinstance(w := {left}, _num) and w {order} {self.const(value)})"
        raise ValueError(f"temporal operator {type(node).__name__} is not an event predicate")

    def path(self, path: Path) -> str:
        """An expression for the value at ``path`` in the event, or _M: the
        parser admits a field of the event or one of its payload."""
        parts = path.parts
        if len(parts) == 1:
            return f"event.get({self.const(parts[0])}, _M)"
        return (f"(v.get({self.const(parts[1])}, _M) "
                f"if isinstance(v := event.get({self.const(parts[0])}), dict) else _M)")


def _flat(node) -> list:
    """The terms of a chain of one connective, left to right: ``a && b``
    and ``a || b`` nested in either side, and ``a => b`` as ``!a || b``."""
    kind = And if type(node) is And else Or
    terms, stack = [], [node]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack += (node.right, node.left)
        elif kind is Or and type(node) is Implies:
            stack += (node.right, Not(node.left))
        else:
            terms.append(node)
    return terms


def _predicate_source(node) -> tuple[str, dict, str]:
    """The generated source of ``node``'s predicate, its globals, and the
    name of its entry function."""
    code = _Codegen()
    entry = code.define(code.expr(node)[0])
    return "\n".join(code.defs), code.names, entry


_COMPILED: dict = {}  # formula node -> its predicate, built once per process


def compile_event_predicate(node):
    """Compile a temporal-operator-free formula to ``fn(event, state) -> bool``,
    one generated function, the same object for equal formulas.  Raises
    ValueError if the formula contains a temporal operator."""
    fn = _COMPILED.get(node)
    if fn is None:
        source, names, entry = _predicate_source(node)
        exec(compile(source, "<event predicate>", "exec"), names)
        fn = _COMPILED[node] = names[entry]
    return fn


# -- evaluation --------------------------------------------------------------

_VERDICTS = (VIOLATED, UNDETERMINED, SATISFIED)


def _pair_table(fn) -> bytes:
    """Translation table from a verdict pair packed as 3*a + b to fn(a, b)."""
    return bytes(fn(v // 3, v % 3) for v in range(9)) + bytes(247)


_NOT = bytes((2, 1, 0)) + bytes(253)
# Per connective, over (the side its chain follows, the other side).
_TABLES = {And: _pair_table(min), Or: _pair_table(max),
           Implies: _pair_table(lambda right, left: max(2 - left, right))}
# An until decides at a position where its right side holds (2) or, failing
# that, where its left side fails: refuted (0) if the right side is
# Violated there, else open (1).  Any other position (3) takes the verdict
# of the next deciding position.
_UNTIL = _pair_table(lambda a, b: 2 if b == 2 else (b if a == 0 else 3))
_UNTIL_STEP = re.compile(rb"\x03*([\x00-\x02])")
_SATISFIED_RUN = re.compile(rb"\x02+")


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
    """One columnar trace as every column of an evaluation reads it: the
    ``Trace`` columns, read without walking an event.  An atom is decided
    over the positions of its key (``topic``, ``belief``, ``action``,
    ``kind == "..."``), of its field path (comparisons) or over the belief
    stretches (``holds``).  A comparison with a constant runs down its
    path's column with the operator and constant resolved once; a
    path-to-path comparison pairs the two columns by position.  ``column`` memoises one verdict column per formula
    node, so equal sub-formulas of different properties share it."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.n = trace.size
        self._fields: dict = {}
        self._columns: dict = {}

    def at(self, key):
        return self.trace.keys.get(key, ())

    def field(self, path: Path):
        """Positions where ``path`` resolves, and the values it resolves to."""
        hit = self._fields.get(path)
        if hit is None:
            hit = self._fields[path] = self.trace.column(path.parts)
        return hit

    def values_at(self, positions, path: Path) -> list:
        """The values of ``path`` at ``positions``, _MISSING where it does
        not resolve."""
        have, values = self.field(path)
        if have == positions:
            return values
        found = dict(zip(have, values))
        return [found.get(i, _MISSING) for i in positions]

    def column(self, node) -> bytearray:
        """Verdict of ``node`` at every start position, 0/1/2 for
        Violated/Undetermined/Satisfied."""
        out = self._columns.get(node)
        if out is None:
            out = self._columns[node] = self._build(node)
        return out

    def _atom(self, node) -> bytearray:
        """An atom column: Violated except where the atom holds."""
        out = bytearray(self.n)
        if isinstance(node, TopicAtom):
            hits = self.at(("publish", node.name))
        elif isinstance(node, BeliefAtom):
            at = self.at("belief")
            hits = [i for i, op, atom in zip(at, self.values_at(at, Path(("op",))),
                                             self.values_at(at, Path(("atom",))))
                    if op == "add" and atom == node.atom]
        elif isinstance(node, ActionAtom):
            at, pattern = self.at("action"), node.pattern
            actions = self.values_at(at, Path(("action",)))
            if pattern == "*":
                hits = at
            elif pattern.endswith("(*)"):
                prefix = pattern[:-2]
                hits = [i for i, action in zip(at, actions) if action.startswith(prefix)]
            else:
                hits = [i for i, action in zip(at, actions) if action == pattern]
        elif isinstance(node, HoldsAtom):
            starts = [0, *self.at("belief")]
            for start, end, state in zip(starts, starts[1:] + [self.n],
                                         [frozenset(), *self.trace.states]):
                if node.atom in state:
                    out[start:end] = b"\x02" * (end - start)
            return out
        elif node.path.parts == ("kind",) and node.op == "==" and isinstance(node.value, str):
            hits = self.at(node.value)
        elif isinstance(node.value, Path):
            positions, lefts = self.field(node.path)
            hits = [i for i, left, right in zip(positions, lefts,
                                                self.values_at(positions, node.value))
                    if _compare(node.op, left, right)]
        else:
            hits = _matches(node.op, *self.field(node.path), node.value)
        for i in hits:
            out[i] = 2
        return out

    def _build(self, node) -> bytearray:
        if isinstance(node, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
            return self._atom(node)
        if isinstance(node, Not):
            node, bangs = strip_not(node)
            return self.column(node).translate(_NOT if bangs % 2 else None)  # None: a copy
        if isinstance(node, _CONNECTIVES):
            links, below = chain(node)
            out = self.column(below)
            for link, other in reversed(links):
                out = bytearray(_pack(out, self.column(other)).translate(_TABLES[type(link)]))
            return out
        if isinstance(node, Always):
            return _suffix(self.column(node.sub), ((0, 0), (1, 1)), 2)
        if isinstance(node, Never):
            return _suffix(self.column(node.sub), ((2, 0), (1, 1)), 2)
        if isinstance(node, Eventually) and node.bound is None:
            # Never refutable on a finite trace.
            return _suffix(self.column(node.sub), ((2, 2),), 1)
        if isinstance(node, Eventually):
            # A position holds when a Satisfied one at or after it comes by
            # its deadline: the positions of a run of Satisfied ones, and
            # those before it, back to the previous run, whose ``t`` is at
            # least the run's ``t`` minus the bound.  After the last run, a
            # position whose deadline the trace has not passed stays open.
            times, starts = self.trace.tick_times, self.trace.tick_starts
            out, end = bytearray(self.n), 0
            for run in _SATISFIED_RUN.finditer(self.column(node.sub)):
                first, last = run.span()
                due = times[bisect.bisect_right(starts, first) - 1] - node.bound
                begin = max(end, starts[bisect.bisect_left(times, due)])
                out[begin:last] = b"\x02" * (last - begin)
                end = last
            begin = max(end, starts[bisect.bisect_left(times, times[-1] - node.bound)])
            out[begin:] = b"\x01" * (self.n - begin)
            return out
        if isinstance(node, Until):
            steps = _pack(self.column(node.left), self.column(node.right)).translate(_UNTIL)
            # Past the last step the obligation is still open.
            out = bytearray(b"\x01") * self.n
            for m in _UNTIL_STEP.finditer(steps):
                out[m.start():m.end()] = m.group(1) * (m.end() - m.start())
            return out
        raise TypeError(f"not a formula node: {node!r}")


def evaluate_suite(suite: dict, trace) -> dict:
    """Three-valued verdict of every formula of a name->AST map over a
    finite, completed trace, in one pass over one shared view of it: a
    ``Trace``, or a list of event dicts, which the same column builder
    checks and files first, numbering them from 1 for its errors.  Verdict
    events are monitor output, not model events: a trace of none is
    Undetermined for every formula."""
    if not isinstance(trace, Trace):
        trace = Trace(enumerate(trace, start=1))
    if not trace.size:
        return {name: UNDETERMINED for name in suite}
    view = _TraceView(trace)
    return {name: _VERDICTS[view.column(node)[0]] for name, node in suite.items()}


def evaluate(node, trace) -> str:
    """Three-valued verdict of ``node`` over a finite, completed trace."""
    return evaluate_suite({None: node}, trace)[None]
