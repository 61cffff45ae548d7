"""Runtime monitors synthesized from temporal properties.

``synthesize`` compiles a property into an incremental monitor when its shape
admits one: a per-event safety check, or an obligation.  One obligation
monitor serves the five shapes where a trigger opens an obligation that a
goal event discharges, and a guard (``until``) or a deadline
(``eventually[<=k]``) refutes it while it is open: bounded response,
recurrence (a window opened at every event), a bare deadline (a window
opened at the first event), a triggered until, and a top-level until (an
obligation opened at the first event).  Unbounded liveness (``eventually``
with no window, ``always(eventually(...))``, unbounded response) cannot be
falsified by a running system.  ``synthesize`` gives it a
``LivenessMonitor``, which ``build_engine`` refuses for a run; the
state-space explorer carries it in its engine, where it labels the awaited
events and keeps a response's obligation bit, and decides the shape on the
finished graph.  Monitors hold compiled predicates, not formulas, so a
violation's reason names the property, not its text.

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
to the run's tracer, and the explorer carries one in every branch of its
walk, built for each root and rebuilt from a state's key with the root's
dispatch index.  Both expire windows on the same clock.
"""

from __future__ import annotations

import math

from .prop_dsl import (
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
    TopicAtom,
    Until,
    chain,
    compile_event_predicate,
    evaluate_suite,
    strip_not,
)
from .tracing import InputError, next_beliefs


class MonitorShapeError(InputError):
    """The formula's shape has no incremental monitor."""


class IllegalOperatorForRuntime(MonitorShapeError):
    """Unbounded liveness cannot be monitored online; only the explorer
    decides it."""


class MonitorConfigError(InputError):
    pass


MODES = ("log", "block")


class OnlineMonitor:
    """Base incremental monitor.  Subclasses implement ``_observe`` (and
    optionally ``on_tick``); the verdict latches once Violated."""

    shape = "safety"  # "deadline" on monitors whose violations are expiries

    def __init__(self, name: str, mode: str):
        self.name = name
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

    def to_state(self, now: int = 0):
        """Canonical monitor state; deadlines are reported relative to ``now``
        so states reached at different absolute ticks compare equal.  A
        safety monitor's is its verdict alone."""
        return self.verdict

    def from_state(self, state, now: int = 0) -> None:
        """Set this monitor to the state ``to_state(now)`` gave."""
        self.verdict = state


class SafetyMonitor(OnlineMonitor):
    """always(P) / never(P) for a per-event predicate P."""

    def __init__(self, name, mode, violates):
        super().__init__(name, mode)
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
            self._violate(f"event at t={event.get('t')} violates {self.name}")

    def would_violate(self, event, state):
        return self.verdict != VIOLATED and self._violates(event, state)

    def finalize(self):
        return self.verdict if self.verdict == VIOLATED else SATISFIED


class ObligationMonitor(OnlineMonitor):
    """A trigger T opens an obligation that a goal event G discharges; a
    guard L, if any, must hold at each event from the trigger until a
    G-event, and a bound k, if any, is its deadline.  T None is every event,
    or with ``once`` the first event only:
    - always(T => eventually[<=k](G)), a bounded response;
    - always(eventually[<=k](G)), a recurrence (T every event);
    - eventually[<=k](G), a bare window (T the first event);
    - always(T => (L until G)), a triggered until;
    - L until G at the top level (T the first event).
    Keeps only the earliest open deadline, infinite without a bound: a
    G-event stamped no later than it discharges every open obligation at
    once, so if the earliest has not expired, none has.  A G-event stamped
    after it discharges nothing, as in ``check``; the tick then reports the
    expiry."""

    def __init__(self, name, mode, goal, trigger=None, once=False, guard=None, bound=None):
        super().__init__(name, mode)
        self._goal = goal
        self._trigger = trigger
        self._guard = guard
        self.once = once
        self.bound = bound
        self.shape = "safety" if bound is None else "deadline"
        self._span = math.inf if bound is None else bound
        self.armed = True  # a trigger may still open an obligation
        self.deadline: float | None = None  # the earliest open obligation's last tick

    @property
    def keys(self):
        if self._trigger is None and not self.once:
            return None  # a recurrence arms at every event
        return _quiet_keys(*((pred, value) for pred, value in (
            (self._trigger, False), (self._guard, True), (self._goal, False)) if pred is not None))

    def _observe(self, event, state):
        if self.deadline is None and not self.armed:
            return  # a first-event obligation, discharged: nothing is left to change
        goal, guard = self._goal(event, state), self._guard
        if self.deadline is not None:
            if goal:
                if event["t"] <= self.deadline:
                    self.deadline = None
            elif guard is not None and not guard(event, state):
                self._violate(f"event at t={event.get('t')} breaks "
                              f"{'the' if self.once else 'an open'} until guard")
                return
        elif self.armed and not goal and (self._trigger is None or self._trigger(event, state)):
            if guard is not None and not guard(event, state):
                t = event.get("t")
                self._violate(f"event at t={t} breaks the until guard" if self.once
                              else f"until guard already false at its trigger (t={t})")
                return  # still armed: a top-level until is not done
            self.deadline = event["t"] + self._span
        self.armed = not self.once

    def on_tick(self, t):
        if self.verdict != VIOLATED and self.deadline is not None and t > self.deadline:
            self._violate(f"no response by t={self.deadline} (window {self.bound})")
            return True
        return False

    def finalize(self):
        if self.verdict == VIOLATED:
            return VIOLATED
        # Open: an obligation not yet discharged, or a first event still due.
        return UNDETERMINED if self.deadline is not None or self.once and self.armed else SATISFIED

    def to_state(self, now: int = 0):
        if self.bound is None:
            if self.once:  # (verdict, done)
                return (self.verdict, not self.armed and self.deadline is None)
            return (self.verdict, self.deadline is not None)  # (verdict, open)
        due = None if self.deadline is None else self.deadline - now
        if self.once:
            return (self.verdict, due, self.armed)
        return (self.verdict, due)

    def from_state(self, state, now: int = 0) -> None:
        # Only ``once`` disarms, at the first event, which the first step has.
        self.verdict, self.armed = state[0], not self.once or now == 0
        if self.bound is not None:
            self.deadline = None if state[1] is None else state[1] + now
        else:  # state[1] is "open", or "done" with ``once``
            self.deadline = math.inf if now and state[1] != self.once else None


class LivenessMonitor(OnlineMonitor):
    """An unbounded shape, which only the explorer decides: ``kind`` is
    "eventually", "recurrence" or "response", ``goal`` the awaited-event
    predicate, and ``trigger`` the predicate that opens a response.  Never
    Violated: it sets ``fired`` at the awaited event (the explorer clears it
    at each step) and keeps a response's obligation bit ``open``."""

    def __init__(self, name, mode, kind, goal, trigger=None):
        super().__init__(name, mode)
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
        return self.open

    def from_state(self, state, now: int = 0) -> None:
        self.open = state


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
        node, bangs = strip_not(node)
        keys, value = _partial(node)
        return keys, (not value) if bangs % 2 and isinstance(value, bool) else value
    links, below = chain(node)
    if not links:
        raise TypeError(f"not an event predicate: {node!r}")
    keys, value = _partial(below)
    for link, other in reversed(links):  # ``a => b`` as ``!a || b``
        other_keys, other = _partial(Not(other) if isinstance(link, Implies) else other)
        absorbing = not isinstance(link, And)  # the value that decides the link alone
        if value is absorbing or other is absorbing:
            value = absorbing
        else:
            value = value if value == other else None
        keys |= other_keys
    return keys, value


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

    def reaches(self, key) -> bool:
        """Whether an event of key ``key``, past a first event, has a
        target; a probe that counts no event."""
        return any(keys is None or key in keys for _item, keys in self._entries)

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
    The labels sit on the predicate, which every copy of its monitor
    shares."""
    try:
        pred = compile_event_predicate(node)
    except ValueError:
        return None
    pred.keys, pred.outside = _partial(node)
    return pred


def synthesize(name: str, ast, mode: str = "log") -> OnlineMonitor:
    """Build the incremental monitor for a property: a ``LivenessMonitor``
    for an unbounded shape, which only the explorer runs; raise
    MonitorShapeError for a shape with no monitor.  This is the one match of
    a formula's shape."""
    if mode not in MODES:
        raise MonitorConfigError(f"unknown monitor mode {mode!r}")

    if isinstance(ast, Never):
        pred = _try_pure(ast.sub)
        if pred is not None:
            return SafetyMonitor(name, mode, pred)

    if isinstance(ast, Always):
        sub = ast.sub
        pred = _try_pure(Not(sub))
        if pred is not None:
            return SafetyMonitor(name, mode, pred)
        if isinstance(sub, Implies):
            trigger = _try_pure(sub.left)
            if trigger is not None:
                rhs = sub.right
                if isinstance(rhs, Eventually):
                    goal = _try_pure(rhs.sub)
                    if goal is not None:
                        return _window(name, mode, "response", goal, rhs.bound, trigger)
                elif isinstance(rhs, Until):
                    left, right = _try_pure(rhs.left), _try_pure(rhs.right)
                    if left is not None and right is not None:
                        return ObligationMonitor(name, mode, right, trigger, guard=left)
        elif isinstance(sub, Eventually):
            goal = _try_pure(sub.sub)
            if goal is not None:
                return _window(name, mode, "recurrence", goal, sub.bound)

    if isinstance(ast, Until):
        left, right = _try_pure(ast.left), _try_pure(ast.right)
        if left is not None and right is not None:
            return ObligationMonitor(name, mode, right, once=True, guard=left)

    if isinstance(ast, Eventually):
        goal = _try_pure(ast.sub)
        if goal is not None:
            return _window(name, mode, "eventually", goal, ast.bound)

    raise MonitorShapeError(
        f"{name}: no incremental monitor for its shape (the monitored "
        "shapes apply always, never, eventually and until to event predicates)")


def _window(name, mode, kind, goal, bound, trigger=None) -> OnlineMonitor:
    if bound is None:
        return LivenessMonitor(name, mode, kind, goal, trigger)
    return ObligationMonitor(name, mode, goal, trigger, once=kind == "eventually", bound=bound)


# -- engine ------------------------------------------------------------------

class MonitorEngine:
    """Hands model events to a set of monitors, live in ``simulate`` and on
    each branch of the explorer: folds belief events into the belief state,
    lets each undecided monitor the index picks observe the event, and at
    the end of a tick expires windows on the clock of the model events.
    When attached to a run it also emits verdict events into the same trace
    and gates bus publishes for block-mode monitors.  Verdict events are
    monitor output, which no monitor observes."""

    def __init__(self, monitors: list[OnlineMonitor], index: DispatchIndex | None = None):
        for m in monitors:
            if m.mode == "block" and not isinstance(m, SafetyMonitor):
                raise MonitorConfigError(
                    f"{m.name}: only per-event safety monitors may block "
                    "(a deadline expiry has no message to veto)")
        self.monitors = {m.name: m for m in monitors}  # the explorer drops Violated ones
        # Only a deadline expires on the clock; a dropped monitor is Violated
        # and expires no more.
        self._timed = [m for m in monitors if m.shape == "deadline"]
        # A given index is shared: that of an engine over the same monitors.
        self.index = index or DispatchIndex([(m.name, m.keys) for m in monitors])
        self.state = frozenset()  # the belief base as of the last belief event
        self.tracer = None
        self.last_tick = 0
        # The time of the last model event: windows expire on the clock the
        # trace shows, so ``check`` sees the event past each missed deadline.
        self.clock = 0
        self.first = True  # until the first model event

    def attach(self, tracer, bus) -> None:
        """Observe ``tracer``'s events; deliver events only if some monitor
        can read one, else a tick's deliveries just move the clock."""
        self.tracer = tracer
        tracer.add_observer(self.observe, clock=None if self.index.reaches("deliver")
                            else self._set_clock)
        if any(m.mode == "block" for m in self.monitors.values()):
            bus.gate = self.gate

    def _set_clock(self, t: int) -> None:
        self.clock = t

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
        for m in self._timed:
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
        monitor = synthesize(name, suite[name], row.get("mode", "log"))
        if isinstance(monitor, LivenessMonitor):
            raise IllegalOperatorForRuntime(
                f"{name}: unbounded {monitor.kind} cannot be monitored online; check it "
                "with the explorer")
        monitors.append(monitor)
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
