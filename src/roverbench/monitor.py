"""Runtime monitors synthesized from temporal properties.

``synthesize`` compiles a property into an incremental monitor when its shape
admits one: per-event safety checks, until obligations, and bounded
windows.  One window monitor serves every ``eventually[<=k]`` shape: bounded
response, recurrence (a window opened at every event) and a bare deadline (a
window opened at the first event).  Unbounded liveness (``eventually`` with
no window, ``always(eventually(...))``, unbounded response) cannot be
falsified by a running system and is rejected for runtime use, with its
shape attached for the state-space explorer, which decides it.

A monitor's running verdict starts Undetermined and can only harden to
Violated while the run is live; Satisfied is issued at ``finalize`` when the
run ends with no violation and no open obligation.  ``check_trace`` is the
independent reference path: it re-evaluates the property over the recorded
trace with the declarative semantics, and must agree with the online verdict.

Modes: a ``log`` monitor records violations; a ``block`` monitor additionally
vetoes the violating bus publish, so the message is never delivered (the
trace keeps a ``block`` event as the tombstone).  Only per-event safety
monitors may block - a deadline expiry has no message to veto.

Dispatch is indexed by event (as in JavaMOP; Chen and Rosu, OOPSLA 2007): an
event's key is its ``kind``, or ``("publish", topic)`` for a publish, and
each monitor's ``keys`` are the events whose step can change its state,
found at synthesis by partially evaluating its compiled predicates.  The
engine hands an event only to the monitors its key can match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    ActionAtom,
    Always,
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
    compile_event_predicate,
    evaluate_suite,
    fold_belief,
    to_text,
)


class MonitorShapeError(ValueError):
    """The formula's shape has no incremental monitor."""


@dataclass(frozen=True)
class Liveness:
    """An unbounded shape, which only the explorer decides: ``kind`` is
    "eventually", "recurrence" or "response", ``goal`` the awaited-event
    predicate, and ``trigger`` the predicate that opens a response."""

    kind: str
    goal: object
    trigger: object = None


class IllegalOperatorForRuntime(MonitorShapeError):
    """Unbounded liveness cannot be monitored online; the explorer decides
    the shape named by ``liveness``."""

    def __init__(self, message: str, liveness: Liveness):
        super().__init__(message)
        self.liveness = liveness


class MonitorConfigError(ValueError):
    pass


MODES = ("log", "block")


class OnlineMonitor:
    """Base incremental monitor.  Subclasses implement ``_observe`` (and
    optionally ``on_tick``); the verdict latches once Violated."""

    shape = "safety"  # "deadline" on monitors whose violations are expiries

    def __init__(self, name: str, ast, mode: str):
        self.name = name
        self.ast = ast
        self.mode = mode
        self.verdict = UNDETERMINED
        self.reason = ""
        self.blocked = 0

    @property
    def keys(self) -> frozenset | None:
        """Event keys whose step can change this monitor; None for every
        event, which is all a monitor whose no-op is not proven gets."""
        return None

    def observe(self, event: dict, state: frozenset) -> None:
        if self.verdict != VIOLATED:
            self._observe(event, state)

    def _observe(self, event: dict, state: frozenset) -> None:
        raise NotImplementedError

    def on_tick(self, t: int) -> None:
        pass

    def would_violate(self, event: dict, state: frozenset) -> bool:
        """True if observing ``event`` would flip the verdict to Violated.
        Must be side-effect free; only safety monitors can say yes."""
        return False

    def note_block(self, event: dict) -> None:
        self.blocked += 1

    def finalize(self) -> str:
        raise NotImplementedError

    def _violate(self, reason: str) -> None:
        self.verdict = VIOLATED
        self.reason = reason

    def to_state(self, now: int = 0) -> dict:
        """Canonical monitor state; deadlines are reported relative to ``now``
        so snapshots taken at different absolute ticks compare equal."""
        return {"verdict": self.verdict}


class SafetyMonitor(OnlineMonitor):
    """always(P) / never(P) for a per-event predicate P."""

    def __init__(self, name, ast, mode, violates):
        super().__init__(name, ast, mode)
        self._violates = violates  # fn(event, state) -> bool

    @property
    def keys(self):
        # Over the belief state alone the verdict can flip only where this
        # monitor may not have seen the current state yet: at a belief event;
        # at a verdict event, which the engine emits while still handing out
        # the event before it; or at the first event, against the empty
        # state, which the engine and the explorer hand to every monitor.
        if self._violates.outside == STATE_ONLY:
            return frozenset(["belief", "verdict"])
        return _quiet_keys((self._violates, False))

    def _observe(self, event, state):
        if self._violates(event, state):
            self._violate(f"event at t={event.get('t')} violates {to_text(self.ast)}")

    def would_violate(self, event, state):
        return self.verdict != VIOLATED and self._violates(event, state)

    def finalize(self):
        return self.verdict if self.verdict == VIOLATED else SATISFIED


class WindowMonitor(OnlineMonitor):
    """always(T => eventually[<=k](G)).  Recurrence, always(eventually[<=k](G)),
    has T = every event (``trigger`` None); a bare eventually[<=k](G) has T =
    the first event only (``once``).  Keeps only the earliest open deadline:
    a G-event stamped no later than it discharges every open window at once,
    so if the earliest has not expired, none has.  A G-event stamped after it
    discharges nothing, as in ``check``; the tick then reports the expiry."""

    shape = "deadline"

    def __init__(self, name, ast, mode, goal, bound, trigger=None, once=False):
        super().__init__(name, ast, mode)
        self._goal = goal
        self._trigger = trigger
        self.bound = bound
        self.once = once
        self.armed = True  # a trigger may still open a window
        self.deadline: int | None = None

    @property
    def keys(self):
        if self._trigger is None:
            return None  # every event may open a window
        return _quiet_keys((self._trigger, False), (self._goal, False))

    def _observe(self, event, state):
        if self._goal(event, state):
            if self.deadline is not None and event["t"] <= self.deadline:
                self.deadline = None
        elif self.armed and self.deadline is None and (
                self._trigger is None or self._trigger(event, state)):
            self.deadline = event["t"] + self.bound
        self.armed = not self.once

    def on_tick(self, t):
        if self.verdict != VIOLATED and self.deadline is not None and t > self.deadline:
            self._violate(f"no response by t={self.deadline} (window {self.bound})")

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        # Open: a window not yet discharged, or a bare one before any event.
        return UNDETERMINED if self.deadline is not None or self.once and self.armed else SATISFIED

    def to_state(self, now: int = 0):
        due = None if self.deadline is None else self.deadline - now
        if self.once:
            return {"verdict": self.verdict, "due": due, "armed": self.armed}
        return {"verdict": self.verdict, "due": due}


class UntilMonitor(OnlineMonitor):
    """L until R at the top level: L must hold at every event until some
    event satisfies R; an event failing both refutes the property."""

    def __init__(self, name, ast, mode, left, right):
        super().__init__(name, ast, mode)
        self._left = left
        self._right = right
        self.done = False

    @property
    def keys(self):
        return _quiet_keys((self._left, True), (self._right, False))

    def _observe(self, event, state):
        if self.done:
            return
        if self._right(event, state):
            self.done = True
        elif not self._left(event, state):
            self._violate(f"event at t={event.get('t')} breaks the until guard")

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        return SATISFIED if self.done else UNDETERMINED

    def to_state(self, now: int = 0):
        return {"verdict": self.verdict, "done": self.done}


class TriggeredUntilMonitor(OnlineMonitor):
    """always(T => (L until R)): every trigger opens an obligation that some
    later (or simultaneous) R-event discharges; all open obligations share the
    same L/R, so one flag tracks them."""

    def __init__(self, name, ast, mode, trigger, left, right):
        super().__init__(name, ast, mode)
        self._trigger = trigger
        self._left = left
        self._right = right
        self.open = False

    @property
    def keys(self):
        return _quiet_keys((self._trigger, False), (self._left, True), (self._right, False))

    def _observe(self, event, state):
        right = self._right(event, state)
        if self.open:
            if right:
                self.open = False
            elif not self._left(event, state):
                self._violate(f"event at t={event.get('t')} breaks an open until guard")
                return
        if self._trigger(event, state) and not right:
            if not self._left(event, state):
                self._violate(f"until guard already false at its trigger (t={event.get('t')})")
            else:
                self.open = True

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        return UNDETERMINED if self.open else SATISFIED

    def to_state(self, now: int = 0):
        return {"verdict": self.verdict, "open": self.open}


# -- dispatch keys -----------------------------------------------------------

STATE_ONLY = "state"  # partial value of a predicate over holds atoms alone


def _partial(node) -> tuple[frozenset, object]:
    """Partial evaluation of an event predicate: (keys, value), where keys
    are the event keys its atoms can match and value is its truth on every
    event outside them: True or False, STATE_ONLY when it reads nothing but
    the belief state, or None when it depends on the event."""
    if isinstance(node, TopicAtom):
        return frozenset([("publish", node.name)]), False
    if isinstance(node, BeliefAtom):
        return frozenset(["belief"]), False
    if isinstance(node, ActionAtom):
        return frozenset(["action"]), False
    if isinstance(node, HoldsAtom):
        return frozenset(), STATE_ONLY
    if isinstance(node, Compare):
        if node.path.parts == ("kind",) and node.op == "==" and isinstance(node.value, str):
            return frozenset([node.value]), False
        return frozenset(), None
    if isinstance(node, Not):
        keys, value = _partial(node.sub)
        return keys, (not value) if isinstance(value, bool) else value
    left_keys, left = _partial(node.left)
    right_keys, right = _partial(node.right)
    if isinstance(node, Implies):
        left = (not left) if isinstance(left, bool) else left
    absorbing = isinstance(node, (Or, Implies))  # the value that decides the node alone
    if left is absorbing or right is absorbing:
        value = absorbing
    else:
        value = left if left == right else None
    return left_keys | right_keys, value


def _quiet_keys(*wanted) -> frozenset | None:
    """Keys of a monitor whose step is a no-op while each (predicate, value)
    pair holds: the union of the predicates' keys, or None (every event) if
    some predicate is not fixed to its value outside its keys."""
    keys = frozenset()
    for pred, value in wanted:
        if pred.outside is not value:
            return None
        keys |= pred.keys
    return keys


class DispatchIndex:
    """Event -> the entries whose keys its key can match, memoised per key.
    ``entries`` are (item, keys) pairs, keys None for every event; each
    looked-up list keeps entry order, so verdict events keep their order."""

    def __init__(self, entries: list[tuple[object, frozenset | None]]):
        self.every = [item for item, _keys in entries]
        self._entries = entries
        self._memo: dict = {}

    def targets(self, event: dict) -> list:
        kind = event.get("kind")
        key = (kind, event.get("topic")) if kind == "publish" else kind
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = [item for item, keys in self._entries
                                     if keys is None or key in keys or kind in keys]
        return hit


# -- synthesis ---------------------------------------------------------------

def _try_pure(node):
    """The compiled event predicate of ``node``, labelled with its partial
    evaluation (``keys`` and ``outside``); None if ``node`` is temporal.
    The labels sit on the predicate, which explorer snapshots write as a
    reference, so a stored state does not grow by them."""
    try:
        pred = compile_event_predicate(node)
    except ValueError:
        return None
    pred.keys, pred.outside = _partial(node)
    return pred


def synthesize(name: str, ast, mode: str = "log") -> OnlineMonitor:
    """Build the incremental monitor for a property, or raise
    MonitorShapeError / IllegalOperatorForRuntime.  This is the one match of
    a formula's shape: the explorer reads its unbounded shapes from here."""
    if mode not in MODES:
        raise MonitorConfigError(f"unknown monitor mode {mode!r}")

    body = ast
    if isinstance(body, Never):
        pred = _try_pure(body.sub)
        if pred is not None:
            return SafetyMonitor(name, ast, mode, pred)
        body = Always(Not(body.sub))  # fall through for temporal sub-shapes

    if isinstance(body, Always):
        sub = body.sub
        pred = _try_pure(Not(sub))
        if pred is not None:
            return SafetyMonitor(name, ast, mode, pred)
        if isinstance(sub, Implies):
            trigger = _try_pure(sub.left)
            if trigger is not None:
                rhs = sub.right
                if isinstance(rhs, Eventually):
                    goal = _try_pure(rhs.sub)
                    if goal is not None:
                        return _window(name, ast, mode, "response", goal, rhs.bound, trigger)
                elif isinstance(rhs, Until):
                    left, right = _try_pure(rhs.left), _try_pure(rhs.right)
                    if left is not None and right is not None:
                        return TriggeredUntilMonitor(name, ast, mode, trigger, left, right)
        elif isinstance(sub, Eventually):
            goal = _try_pure(sub.sub)
            if goal is not None:
                return _window(name, ast, mode, "recurrence", goal, sub.bound)

    if isinstance(ast, Until):
        left, right = _try_pure(ast.left), _try_pure(ast.right)
        if left is not None and right is not None:
            return UntilMonitor(name, ast, mode, left, right)

    if isinstance(ast, Eventually):
        goal = _try_pure(ast.sub)
        if goal is not None:
            return _window(name, ast, mode, "eventually", goal, ast.bound)

    raise MonitorShapeError(
        f"{name}: no incremental monitor for shape {to_text(ast)} (the monitored "
        "shapes apply always, never, eventually and until to event predicates)")


def _window(name, ast, mode, kind, goal, bound, trigger=None) -> WindowMonitor:
    if bound is None:
        raise IllegalOperatorForRuntime(
            f"{name}: unbounded {kind} cannot be monitored online; "
            "check it with the explorer", Liveness(kind, goal, trigger))
    return WindowMonitor(name, ast, mode, goal, bound, trigger, once=kind == "eventually")


# -- engine ------------------------------------------------------------------

class MonitorEngine:
    """Feeds the live event stream to a set of monitors, emits verdict events
    into the same trace, and gates bus publishes for block-mode monitors."""

    def __init__(self, monitors: list[OnlineMonitor]):
        for m in monitors:
            if m.mode == "block" and not isinstance(m, SafetyMonitor):
                raise MonitorConfigError(
                    f"{m.name}: only per-event safety monitors may block "
                    "(a deadline expiry has no message to veto)")
        self.monitors = monitors
        self.index = DispatchIndex([(m, m.keys) for m in monitors])
        self.beliefs: set[str] = set()
        self.state = frozenset()  # ``beliefs`` as of the last belief event
        self.tracer = None
        self.last_tick = 0
        self._fresh = True  # events go to every monitor until one lacks "prop"
        self._closed = False

    def attach(self, tracer, bus) -> None:
        self.tracer = tracer
        tracer.add_observer(self.observe)
        if any(m.mode == "block" for m in self.monitors):
            bus.gate = self.gate

    # The bus consults the gate before a publish event is enqueued.
    def gate(self, event: dict) -> bool:
        blocked = False
        for m in self.monitors:
            if m.mode == "block" and m.would_violate(event, self.state):
                m.note_block(event)
                blocked = True
                self.tracer.emit(
                    {
                        "t": event["t"],
                        "kind": "verdict",
                        "prop": m.name,
                        "outcome": "blocked",
                        "verdict": m.verdict,
                        "mode": m.mode,
                        "topic": event.get("topic"),
                    }
                )
        return blocked

    def observe(self, event: dict) -> None:
        if self._closed:
            return
        if event.get("kind") == "belief":
            fold_belief(self.beliefs, event)
            self.state = frozenset(self.beliefs)
        state = self.state
        if self._fresh:
            # Every monitor sees the first event that none of them skips (only
            # verdict events carry a "prop"), so a monitor keyed on the
            # belief state alone is checked against the empty state too.
            monitors = self.index.every
            self._fresh = "prop" in event
        else:
            monitors = self.index.targets(event)
        for m in monitors:
            if m.verdict == VIOLATED or event.get("prop") == m.name:
                continue  # sticky verdicts; monitors skip their own verdict events
            before = m.verdict
            m.observe(event, state)
            if m.verdict == VIOLATED and before != VIOLATED:
                self._emit_violation(m, event.get("t", self.last_tick))

    def on_tick(self, t: int) -> None:
        self.last_tick = t
        for m in self.monitors:
            if m.verdict == VIOLATED:
                continue
            m.on_tick(t)
            if m.verdict == VIOLATED:
                self._emit_violation(m, t)

    def _emit_violation(self, m: OnlineMonitor, t: int) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                {
                    "t": t,
                    "kind": "verdict",
                    "prop": m.name,
                    "outcome": "violation",
                    "verdict": VIOLATED,
                    "mode": m.mode,
                    "reason": m.reason,
                }
            )

    def finalize(self) -> dict:
        # Close the loop first: the verdict events emitted below must not feed
        # back into monitors that are still waiting to be finalized.
        self._closed = True
        verdicts = {}
        for m in self.monitors:
            verdicts[m.name] = m.finalize()
            if self.tracer is not None:
                self.tracer.emit(
                    {
                        "t": self.last_tick,
                        "kind": "verdict",
                        "prop": m.name,
                        "outcome": "final",
                        "verdict": verdicts[m.name],
                        "mode": m.mode,
                        "blocked": m.blocked,
                    }
                )
        return verdicts


# -- configuration and the offline reference path ----------------------------

def build_engine(suite: dict, selection: list[dict]) -> MonitorEngine:
    """``selection`` rows: {"prop": name, "mode": "log"|"block"}."""
    monitors = []
    seen = set()
    for row in selection:
        if not isinstance(row, dict) or "prop" not in row:
            raise MonitorConfigError(f"monitor row must name a prop: {row!r}")
        name = row["prop"]
        if name not in suite:
            raise MonitorConfigError(f"monitor refers to unknown property {name!r}")
        if name in seen:
            raise MonitorConfigError(f"property {name!r} selected twice")
        seen.add(name)
        mode = row.get("mode", "log")
        monitors.append(synthesize(name, suite[name], mode))
    return MonitorEngine(monitors)


def check_trace(suite: dict, events: list[dict],
                names: list[str] | None = None) -> dict:
    """Offline verdicts via the declarative reference semantics, all picked
    properties in one pass over the trace."""
    picked = names if names is not None else list(suite)
    for name in picked:
        if name not in suite:
            raise MonitorConfigError(f"unknown property {name!r}")
    return evaluate_suite({name: suite[name] for name in picked}, events)
