"""Runtime monitors synthesized from temporal properties.

``synthesize`` compiles a property into an incremental monitor when its shape
admits one: per-event safety checks, until obligations, and bounded
windows.  One window monitor serves every ``eventually[<=k]`` shape: bounded
response, recurrence (a window opened at every event) and a bare deadline (a
window opened at the first event).  Unbounded liveness (``eventually`` with
no window, ``always(eventually(...))``, unbounded response) cannot be
falsified by a running system and is rejected for runtime use, with a
``LivenessMonitor`` attached: the state-space explorer carries it in its
engine, where it labels the awaited events and keeps a response's
obligation bit, and decides the shape on the finished graph.

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

``MonitorEngine`` is the one driver of monitors: ``simulate`` attaches one
to the run's tracer, and the explorer carries one, built afresh for each
root, in every branch of its walk.  Both expire windows on the same clock.
"""

from __future__ import annotations

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
    left_spine,
    to_text,
)
from .tracing import next_beliefs


class MonitorShapeError(ValueError):
    """The formula's shape has no incremental monitor."""


class IllegalOperatorForRuntime(MonitorShapeError):
    """Unbounded liveness cannot be monitored online; the explorer rides
    the attached ``monitor`` and decides the shape on its graph."""

    def __init__(self, message: str, monitor: LivenessMonitor):
        super().__init__(message)
        self.monitor = monitor


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
        self._observe(event, state)  # the engine skips a Violated monitor

    def _observe(self, event: dict, state: frozenset) -> None:
        raise NotImplementedError

    def on_tick(self, t: int) -> bool:
        return False  # True only when this call makes the monitor Violated

    def would_violate(self, event: dict, state: frozenset) -> bool:
        """True if observing ``event`` would flip the verdict to Violated.
        Must be side-effect free; only safety monitors can say yes."""
        return False

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
        # Over the belief state alone the verdict can flip only where the
        # state is new to this monitor: at a belief event, or at the first
        # event, against the empty state, which the engine hands to every
        # monitor.
        if self._violates.outside == STATE_ONLY:
            return frozenset(["belief"])
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
            return True
        return False

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


class LivenessMonitor(OnlineMonitor):
    """An unbounded shape, which only the explorer decides: ``kind`` is
    "eventually", "recurrence" or "response", ``goal`` the awaited-event
    predicate, and ``trigger`` the predicate that opens a response.  Never
    Violated: it sets ``fired`` at the awaited event (the explorer clears it
    at each step) and keeps a response's obligation bit ``open``."""

    def __init__(self, name, ast, mode, kind, goal, trigger=None):
        super().__init__(name, ast, mode)
        self.kind = kind
        self.goal = goal
        self.trigger = trigger
        self.fired = False
        self.open = False  # only a trigger sets it

    @property
    def keys(self):
        return _quiet_keys(*((pred, False) for pred in (self.goal, self.trigger) if pred))

    def _observe(self, event, state):
        if self.goal(event, state):
            self.fired, self.open = True, False
        elif self.trigger is not None and self.trigger(event, state):
            self.open = True

    def to_state(self, now: int = 0):
        return {"open": self.open}


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
    spine, below = left_spine(node)
    if not spine:
        raise TypeError(f"not an event predicate: {node!r}")
    keys, left = _partial(below)
    for link in reversed(spine):
        right_keys, right = _partial(link.right)
        if isinstance(link, Implies):
            left = (not left) if isinstance(left, bool) else left
        absorbing = isinstance(link, (Or, Implies))  # the value that decides the link alone
        if left is absorbing or right is absorbing:
            left = absorbing
        else:
            left = left if left == right else None
        keys |= right_keys
    return keys, left


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
    """Event -> the entries whose keys its key can match, memoised per key
    beside the number of events looked up under it.  ``entries`` are (item,
    keys) pairs, keys None for every event; each looked-up list keeps entry
    order.  The first model event of a run or root reaches every entry, so a
    monitor keyed on the belief state alone meets the empty state too."""

    def __init__(self, entries: list[tuple[object, frozenset | None]]):
        self._entries = entries
        self._memo: dict = {}  # event key, () at a first event -> [targets, events]

    def targets(self, event: dict, first: bool = False) -> list:
        kind = event.get("kind")
        key = () if first else (kind, event.get("topic")) if kind == "publish" else kind
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = [[item for item, keys in self._entries if first
                                      or keys is None or key in keys or kind in keys], 0]
        hit[1] += 1
        return hit[0]

    def handed(self) -> dict:
        """Events looked up for each entry, from the counts of its keys."""
        counts = {item: 0 for item, _keys in self._entries}
        for items, events in self._memo.values():
            for item in items:
                counts[item] += events
        return counts


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
            f"{name}: unbounded {kind} cannot be monitored online; check it with "
            "the explorer", LivenessMonitor(name, ast, mode, kind, goal, trigger))
    return WindowMonitor(name, ast, mode, goal, bound, trigger, once=kind == "eventually")


# -- engine ------------------------------------------------------------------

class MonitorEngine:
    """Hands model events to a set of monitors, live in ``simulate`` and on
    each branch of the explorer: folds belief events into the belief state,
    lets each undecided monitor the index picks observe the event, and at
    the end of a tick expires windows on the clock of the model events.
    When attached to a run it also emits verdict events into the same trace
    and gates bus publishes for block-mode monitors.  Verdict events are
    monitor output, which no monitor observes."""

    def __init__(self, monitors: list[OnlineMonitor]):
        for m in monitors:
            if m.mode == "block" and not isinstance(m, SafetyMonitor):
                raise MonitorConfigError(
                    f"{m.name}: only per-event safety monitors may block "
                    "(a deadline expiry has no message to veto)")
        self.monitors = {m.name: m for m in monitors}  # the explorer drops Violated ones
        self.index = DispatchIndex([(m.name, m.keys) for m in monitors])
        self.state = frozenset()  # the belief base as of the last belief event
        self.tracer = None
        self.last_tick = 0
        # The time of the last model event: windows expire on the clock the
        # trace shows, so ``check`` sees the event past each missed deadline.
        self.clock = 0
        self.first = True  # until the first model event

    def attach(self, tracer, bus) -> None:
        self.tracer = tracer
        tracer.add_observer(self.observe)
        if any(m.mode == "block" for m in self.monitors.values()):
            bus.gate = self.gate

    # The bus consults the gate before a publish event is enqueued.
    def gate(self, event: dict) -> bool:
        blocked = False
        for m in self.monitors.values():
            if m.mode == "block" and m.would_violate(event, self.state):
                m.blocked += 1
                blocked = True
                self._emit(event["t"], m, "blocked", m.verdict, topic=event.get("topic"))
        return blocked

    def observe(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "verdict":
            return
        self.clock = t = event["t"]
        if kind == "belief":
            self.state = next_beliefs(self.state, event["op"], event["atom"])
        monitors, state = self.monitors, self.state
        for name in self.index.targets(event, self.first):
            m = monitors.get(name)
            if m is not None and m.verdict != VIOLATED:
                m.observe(event, state)
                if m.verdict == VIOLATED:
                    self._emit(t, m, "violation", VIOLATED, reason=m.reason)
        self.first = False

    def on_tick(self, t: int) -> None:
        """End of tick ``t``: expire the windows due before the last model
        event, stamping each violation ``t``."""
        self.last_tick = t
        for m in self.monitors.values():
            if m.on_tick(self.clock):
                self._emit(t, m, "violation", VIOLATED, reason=m.reason)

    def _emit(self, t: int, m: OnlineMonitor, outcome: str, verdict: str, **extra) -> None:
        if self.tracer is not None:
            self.tracer.emit({"t": t, "kind": "verdict", "prop": m.name, "outcome": outcome,
                              "verdict": verdict, "mode": m.mode, **extra})

    def finalize(self) -> dict:
        self.on_tick(self.last_tick)  # for model events after the last tick's end
        verdicts = {}
        for m in self.monitors.values():
            verdicts[m.name] = m.finalize()
            self._emit(self.last_tick, m, "final", verdicts[m.name], blocked=m.blocked)
        return verdicts


# -- configuration and the offline reference path ----------------------------

def build_engine(suite: dict, selection: list[dict]) -> MonitorEngine:
    """``selection`` rows: {"prop": name, "mode": "log"|"block"}."""
    monitors = []
    seen = set()
    for row in selection:
        if not isinstance(row, dict) or not isinstance(row.get("prop"), str):
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


def check_trace(suite: dict, events, names: list[str] | None = None) -> dict:
    """Offline verdicts via the declarative reference semantics, all picked
    properties in one pass over the model events of ``events``, a ``Trace``
    from ``read_trace`` or a list of event dicts: verdict lines are monitor
    output.  No model events leave every property Undetermined."""
    picked = names if names is not None else list(suite)
    for name in picked:
        if name not in suite:
            raise MonitorConfigError(f"unknown property {name!r}")
    return evaluate_suite({name: suite[name] for name in picked}, events)
