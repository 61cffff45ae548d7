"""Reference semantics of the property language, for cross-checking
``prop_dsl.evaluate``: a direct recursive restatement that evaluates each
formula at each position from scratch, over string verdicts and a list of
event dicts, with the belief base folded here from the belief events and
every atom decided here by ``atom_holds``.  It shares no code with the
evaluators under test, only the formula's node classes."""

from __future__ import annotations

import operator

from roverbench.prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    ActionAtom,
    Always,
    And,
    BeliefAtom,
    Compare,
    Eventually,
    HoldsAtom,
    Implies,
    Never,
    Not,
    Or,
    Path,
    TopicAtom,
    Until,
)


_MISSING = object()


def field(event: dict, parts: tuple):
    """The value at a field path of an event, or ``_MISSING``."""
    value = event
    for part in parts:
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


def compare(op: str, left, right) -> bool:
    """A comparison as the property language defines it: false when a side
    is missing, a tuple constant is a JSON list, and an ordering holds only
    between two numbers."""
    if left is _MISSING or right is _MISSING:
        return False
    right = list(right) if isinstance(right, tuple) else right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    numbers = (int, float)
    if not (isinstance(left, numbers) and isinstance(right, numbers)):
        return False
    return {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}[op](
        left, right)


def atom_holds(node, event: dict, state: frozenset) -> bool:
    """Truth of an atomic predicate at one event.  ``state`` is the belief
    base after the event has been applied."""
    kind = event.get("kind")
    if isinstance(node, TopicAtom):
        return kind == "publish" and event.get("topic") == node.name
    if isinstance(node, BeliefAtom):
        return kind == "belief" and event.get("op") == "add" and event.get("atom") == node.atom
    if isinstance(node, HoldsAtom):
        return node.atom in state
    if isinstance(node, ActionAtom):
        if kind != "action":
            return False
        action = event["action"]
        if node.pattern == "*":
            return True
        if node.pattern.endswith("(*)"):
            return action.startswith(node.pattern[:-2])
        return action == node.pattern
    if isinstance(node, Compare):
        value = node.value
        right = field(event, value.parts) if isinstance(value, Path) else value
        return compare(node.op, field(event, node.path.parts), right)
    raise TypeError(f"not an atomic predicate: {node!r}")


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
