"""Reference semantics of the property language, for cross-checking
``prop_dsl.evaluate``: a direct recursive restatement that evaluates each
formula at each position from scratch, over string verdicts.  It shares
only ``atom_holds`` and ``belief_states`` with the evaluator under test."""

from __future__ import annotations

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
    TopicAtom,
    Until,
    atom_holds,
    belief_states,
)


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
