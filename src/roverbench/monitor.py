"""Runtime monitors synthesized from temporal properties.

``synthesize`` compiles a property into an incremental monitor when its shape
admits one: per-event safety checks, bounded response windows, until
obligations, and bounded recurrence.  Unbounded liveness (``eventually`` with
no window, ``always(eventually(...))``) cannot be falsified by a running
system and is rejected for runtime use; the state-space explorer handles it.

A monitor's running verdict starts Undetermined and can only harden to
Violated while the run is live; Satisfied is issued at ``finalize`` when the
run ends with no violation and no open obligation.  ``check_trace`` is the
independent reference path: it re-evaluates the property over the recorded
trace with the declarative semantics, and must agree with the online verdict.

Modes: a ``log`` monitor records violations; a ``block`` monitor additionally
vetoes the violating bus publish, so the message is never delivered (the
trace keeps a ``block`` event as the tombstone).  Only per-event safety
monitors may block - a deadline expiry has no message to veto.
"""

from __future__ import annotations

from .prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    Always,
    Eventually,
    Implies,
    Never,
    Not,
    Until,
    compile_event_predicate,
    evaluate,
    fold_belief,
    to_text,
)


class MonitorShapeError(ValueError):
    """The formula's shape has no incremental monitor."""


class IllegalOperatorForRuntime(MonitorShapeError):
    """Unbounded liveness cannot be monitored online; use the explorer."""


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

    def _observe(self, event, state):
        if self._violates(event, state):
            self._violate(f"event at t={event.get('t')} violates {to_text(self.ast)}")

    def would_violate(self, event, state):
        return self.verdict != VIOLATED and self._violates(event, state)

    def finalize(self):
        return self.verdict if self.verdict == VIOLATED else SATISFIED


class BoundedResponseMonitor(OnlineMonitor):
    """always(T => eventually[<=k](G)).  Keeps only the earliest open
    deadline: any G-event discharges every open obligation at once, so if the
    earliest has not expired, none has."""

    shape = "deadline"

    def __init__(self, name, ast, mode, trigger, goal, bound):
        super().__init__(name, ast, mode)
        self._trigger = trigger
        self._goal = goal
        self.bound = bound
        self.deadline: int | None = None

    def _observe(self, event, state):
        if self._goal(event, state):
            self.deadline = None
            return
        if self._trigger(event, state) and self.deadline is None:
            self.deadline = event["t"] + self.bound

    def on_tick(self, t):
        if self.verdict != VIOLATED and self.deadline is not None and t > self.deadline:
            self._violate(f"no response by t={self.deadline} (window {self.bound})")

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        return UNDETERMINED if self.deadline is not None else SATISFIED

    def to_state(self, now: int = 0):
        due = None if self.deadline is None else self.deadline - now
        return {"verdict": self.verdict, "due": due}


class BoundedRecurrenceMonitor(OnlineMonitor):
    """always(eventually[<=k](P)): every stretch without P is at most k ticks."""

    shape = "deadline"

    def __init__(self, name, ast, mode, pred, bound):
        super().__init__(name, ast, mode)
        self._pred = pred
        self.bound = bound
        self.deadline: int | None = None

    def _observe(self, event, state):
        if self._pred(event, state):
            self.deadline = None
        elif self.deadline is None:
            self.deadline = event["t"] + self.bound

    def on_tick(self, t):
        if self.verdict != VIOLATED and self.deadline is not None and t > self.deadline:
            self._violate(f"recurrence gap exceeded {self.bound} ticks")

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        return UNDETERMINED if self.deadline is not None else SATISFIED

    def to_state(self, now: int = 0):
        due = None if self.deadline is None else self.deadline - now
        return {"verdict": self.verdict, "due": due}


class DeadlineMonitor(OnlineMonitor):
    """Bare eventually[<=k](G): G must show up within k ticks of the start."""

    shape = "deadline"

    def __init__(self, name, ast, mode, goal, bound):
        super().__init__(name, ast, mode)
        self._goal = goal
        self.bound = bound
        self.deadline: int | None = None
        self.done = False

    def _observe(self, event, state):
        if self.deadline is None:
            self.deadline = event["t"] + self.bound
        if not self.done and self._goal(event, state) and event["t"] <= self.deadline:
            self.done = True

    def on_tick(self, t):
        if self.verdict != VIOLATED and not self.done:
            if self.deadline is not None and t > self.deadline:
                self._violate(f"nothing matched within {self.bound} ticks of the start")

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        return SATISFIED if self.done else UNDETERMINED

    def to_state(self, now: int = 0):
        due = None if self.deadline is None else self.deadline - now
        return {"verdict": self.verdict, "due": due, "done": self.done}


class UntilMonitor(OnlineMonitor):
    """L until R at the top level: L must hold at every event until some
    event satisfies R; an event failing both refutes the property."""

    def __init__(self, name, ast, mode, left, right):
        super().__init__(name, ast, mode)
        self._left = left
        self._right = right
        self.done = False

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


# -- synthesis ---------------------------------------------------------------

def _try_pure(node):
    try:
        return compile_event_predicate(node)
    except ValueError:
        return None


def synthesize(name: str, ast, mode: str = "log") -> OnlineMonitor:
    """Build the incremental monitor for a property, or raise
    MonitorShapeError / IllegalOperatorForRuntime."""
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
        pred = _try_pure(sub)
        if pred is not None:
            return SafetyMonitor(name, ast, mode,
                                 lambda e, s, _p=pred: not _p(e, s))
        if isinstance(sub, Implies):
            trigger = _try_pure(sub.left)
            if trigger is not None:
                rhs = sub.right
                if isinstance(rhs, Eventually):
                    goal = _try_pure(rhs.sub)
                    if goal is not None:
                        if rhs.bound is None:
                            raise IllegalOperatorForRuntime(
                                f"{name}: unbounded response cannot be monitored "
                                "online; check it with the explorer")
                        return BoundedResponseMonitor(name, ast, mode, trigger, goal, rhs.bound)
                elif isinstance(rhs, Until):
                    left, right = _try_pure(rhs.left), _try_pure(rhs.right)
                    if left is not None and right is not None:
                        return TriggeredUntilMonitor(name, ast, mode, trigger, left, right)
        elif isinstance(sub, Eventually):
            goal = _try_pure(sub.sub)
            if goal is not None:
                if sub.bound is None:
                    raise IllegalOperatorForRuntime(
                        f"{name}: unbounded recurrence cannot be monitored online; "
                        "check it with the explorer")
                return BoundedRecurrenceMonitor(name, ast, mode, goal, sub.bound)

    if isinstance(ast, Until):
        left, right = _try_pure(ast.left), _try_pure(ast.right)
        if left is not None and right is not None:
            return UntilMonitor(name, ast, mode, left, right)

    if isinstance(ast, Eventually):
        goal = _try_pure(ast.sub)
        if goal is not None:
            if ast.bound is None:
                raise IllegalOperatorForRuntime(
                    f"{name}: bare unbounded eventually cannot be monitored online")
            return DeadlineMonitor(name, ast, mode, goal, ast.bound)

    raise MonitorShapeError(f"{name}: no incremental monitor for shape {to_text(ast)}")


def synthesizable(ast) -> bool:
    try:
        synthesize("probe", ast)
        return True
    except MonitorShapeError:
        return False


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
        self.beliefs: set[str] = set()
        self.tracer = None
        self.last_tick = 0
        self._closed = False

    def attach(self, tracer, bus) -> None:
        self.tracer = tracer
        tracer.add_observer(self.observe)
        if any(m.mode == "block" for m in self.monitors):
            bus.gate = self.gate

    # The bus consults the gate before a publish event is enqueued.
    def gate(self, event: dict) -> bool:
        state = frozenset(self.beliefs)
        blocked = False
        for m in self.monitors:
            if m.mode == "block" and m.would_violate(event, state):
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
        fold_belief(self.beliefs, event)
        state = frozenset(self.beliefs)
        for m in self.monitors:
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

    def summary(self) -> dict:
        return {
            m.name: {"verdict": m.verdict, "mode": m.mode, "blocked": m.blocked}
            for m in self.monitors
        }


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
    """Offline verdicts via the declarative reference semantics."""
    picked = names if names is not None else list(suite)
    out = {}
    for name in picked:
        if name not in suite:
            raise MonitorConfigError(f"unknown property {name!r}")
        out[name] = evaluate(suite[name], events)
    return out
