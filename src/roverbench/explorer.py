"""Explicit-state exploration of the closed agent/environment system.

The explorer enumerates every nondeterministic choice the model can make -
initial radiation levels, wind re-rolls on arrival, effector fault outcomes,
and (optionally) node scheduling order - and walks the induced state graph
breadth-first.  States are canonical JSON snapshots with every absolute-tick
quantity replaced by a relative counter, so the graph is finite whenever the
mission is cyclic.

Safety and bounded-response properties ride along as monitor states inside
the product; a violation is reported with the shortest choice path that
reaches it.  Unbounded liveness (plain ``eventually``, ``always(eventually)``
and unbounded response) is decided on the finished graph by one lasso search:
a depth-first search on an explicit stack, so graph depth is never bounded by
the recursion limit, over the states each shape allows (those reached before
the awaited event, all states, or those with the response obligation open).
The step labels every edge with the awaited events it produced; a cycle of
unlabelled edges is a lasso-shaped counterexample.

Counterexamples embed the scenario config plus the per-tick choice vectors
and can be replayed later; a replay that no longer produces the recorded
behavior reports divergence instead of guessing.
"""

from __future__ import annotations

import io
import json
import pickle
import re
import time
import types
from dataclasses import dataclass, is_dataclass
from itertools import groupby

from . import prop_dsl
from .agent import PlanRule
from .config import ConfigError, ScenarioConfig, make_config
from .messages import Topology
from .monitor import (
    IllegalOperatorForRuntime,
    MonitorShapeError,
    OnlineMonitor,
    synthesize,
)
from .prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    Always,
    Eventually,
    Implies,
    compile_event_predicate,
    fold_belief,
    parse_formula,
)
from .simulator import Model
from .tracing import EventTracer

DEFAULT_BUDGET_STATES = 1_000_000
DEFAULT_BUDGET_SECS = 60.0


class ExplorationError(ValueError):
    pass


class StateSpaceBudgetExceeded(Exception):
    def __init__(self, states: int, seconds: float, limit: str):
        super().__init__(
            f"exploration stopped: {limit} budget exhausted "
            f"({states} states, {seconds:.1f}s)")
        self.states = states
        self.seconds = seconds
        self.limit = limit


class ReplayDivergenceError(Exception):
    """A recorded counterexample no longer matches the model's behavior."""


# -- choice sinks ------------------------------------------------------------

class ChoiceSink:
    """Feeds scripted choice indices, recording every choice point it serves.

    With an empty (or exhausted) script the first option is taken, which makes
    a bare sink record the choice-point signature of a step.  In strict mode
    the script must cover every call and match the recorded keys - used for
    counterexample replay, where any mismatch is divergence, not an error to
    smooth over.
    """

    def __init__(self, script: list | None = None, strict: bool = False):
        self.script = list(script or [])
        self.strict = strict
        self.index = 0
        self.log: list[list] = []  # [key parts, option count, picked index]

    def choose(self, key: tuple, options):
        options = list(options)
        position = self.index
        self.index += 1
        if position < len(self.script):
            entry = self.script[position]
            want_key, want_count, pick = list(entry[0]), entry[1], entry[2]
            if self.strict and (want_key != list(key) or want_count != len(options)):
                raise ReplayDivergenceError(
                    f"choice point {position} is {list(key)}/{len(options)} options, "
                    f"recorded as {want_key}/{want_count}")
            if pick >= len(options):
                raise ReplayDivergenceError(
                    f"choice point {position} offers {len(options)} options, "
                    f"recorded pick was {pick}")
        elif self.strict:
            raise ReplayDivergenceError(
                f"model asked for an unrecorded choice {list(key)} "
                f"(point {position})")
        else:
            pick = 0
        self.log.append([list(key), len(options), pick])
        return options[pick]

    def finished(self) -> bool:
        return self.index == len(self.script)


def _variants(signature: list[list]) -> list[list[list]]:
    """All choice scripts over a recorded signature (odometer order)."""
    scripts: list[list[list]] = [[]]
    for key, count, _pick in signature:
        scripts = [s + [[key, count, i]] for s in scripts for i in range(count)]
    return scripts


# -- product bundle ----------------------------------------------------------

class _Bundle:
    """One exploration branch: the model plus all riding monitor states."""

    def __init__(self, model: Model, monitors: dict, trackers: dict, awaited: dict):
        self.model = model
        self.monitors = monitors  # name -> OnlineMonitor (log mode)
        self.trackers = trackers  # name -> _ResponseTracker
        self.awaited = awaited  # liveness name -> awaited-event predicate
        self.fired: set[str] = set()  # names whose awaited event the last step produced
        self.beliefs: set[str] = set()

    @staticmethod
    def clone(snapshot: bytes) -> "_Bundle":
        """A live bundle restored from a snapshot of the running walk."""
        return pickle.loads(snapshot)

    def step(self, script: list | None, strict: bool = False) -> tuple[list[dict], list]:
        """Advance one tick under a choice script; returns (events, choice log).
        The tick's events are handed over and its explanations dropped, so a
        snapshot taken between steps carries neither."""
        sink = ChoiceSink(script, strict=strict)
        self.model.step_tick(sink)
        tracer = self.model.tracer
        events, tracer.events = tracer.events, []
        self.model.host.agent.explanations.clear()
        now = self.model.tick
        self.fired = fired = set()
        for event in events:
            fold_belief(self.beliefs, event)
            state = frozenset(self.beliefs)
            for m in self.monitors.values():
                m.observe(event, state)
            for tr in self.trackers.values():
                tr.observe(event, state)
            for name, pred in self.awaited.items():
                if name not in fired and pred(event, state):
                    fired.add(name)
        for m in self.monitors.values():
            m.on_tick(now)
        return events, sink.log

    def violations(self) -> list[tuple[str, OnlineMonitor]]:
        return [(name, m) for name, m in self.monitors.items() if m.verdict == VIOLATED]

    def canonical(self) -> str:
        now = self.model.tick
        raw = {
            "model": self.model.to_state(),
            "monitors": {n: m.to_state(now) for n, m in sorted(self.monitors.items())},
            "trackers": {n: t.to_state() for n, t in sorted(self.trackers.items())},
        }
        return _rank_goal_ids(json.dumps(raw, sort_keys=True, separators=(",", ":")))


# A goal id ("wheelsClient:12") as a whole JSON string: an unescaped quote
# follows only a structural character, never string content.
_GOAL_ID = re.compile(r'(?<=[\[{,:])"(wheelsClient|armClient|mastClient):(\d+)"')


def _rank_goal_ids(text: str) -> str:
    """Rename the goal ids in canonical JSON by their rank per client node, so
    that states differing only in how many goals came before compare equal.
    No ``to_state`` puts a goal id in a dict key, so renaming after the keys
    were sorted leaves them sorted."""
    parts = _GOAL_ID.split(text)
    ids = list(zip(parts[1::3], map(int, parts[2::3])))
    names = {}
    for node, same_node in groupby(sorted(set(ids)), key=lambda gid: gid[0]):
        names.update((gid, f'"{node}#{rank}"') for rank, gid in enumerate(same_node))
    parts[1::3] = [names[gid] for gid in ids]
    parts[2::3] = [""] * len(ids)
    return "".join(parts)


# -- state snapshots ---------------------------------------------------------

# Never mutated once built, so every bundle of a walk shares one of each:
# closures and compiled predicates, the config, the bus topology, plan rules
# and the formula AST (the dataclasses of prop_dsl).
_SHARED_TYPES = frozenset(
    [types.FunctionType, ScenarioConfig, Topology, PlanRule]
    + [c for c in vars(prop_dsl).values() if isinstance(c, type) and is_dataclass(c)])

# The shared objects of the running walks, which nest but never run in
# parallel threads; a snapshot holds their positions.
_SHARED: list = []


def _shared(position: int):
    return _SHARED[position]


class _Snapshots(pickle.Pickler):
    """Freezes the bundles of one walk to ``bytes`` (SPIN-style state-vector
    storage; Holzmann, *The SPIN Model Checker*, ch. 8-9).  Shared objects
    are written as references into ``_SHARED`` and stay there until the
    ``with`` block ends."""

    def __init__(self):
        self.buffer = io.BytesIO()
        super().__init__(self.buffer, pickle.HIGHEST_PROTOCOL)
        self.base = len(_SHARED)
        self.positions: dict[int, int] = {}  # id(obj) -> position in _SHARED

    def __enter__(self) -> "_Snapshots":
        return self

    def __exit__(self, *exc) -> None:
        del _SHARED[self.base:]

    def freeze(self, bundle: _Bundle) -> bytes:
        self.buffer.seek(0)
        self.buffer.truncate()
        self.clear_memo()
        self.dump(bundle)
        return self.buffer.getvalue()

    def reducer_override(self, obj):
        if type(obj) not in _SHARED_TYPES or obj is _shared:
            return NotImplemented
        position = self.positions.get(id(obj))
        if position is None:
            position = self.positions[id(obj)] = len(_SHARED)
            _SHARED.append(obj)
        return _shared, (position,)


# -- liveness helpers --------------------------------------------------------

class _ResponseTracker:
    """Obligation bit for ``always(T => eventually(G))`` (unbounded): set by a
    trigger, cleared by the goal event, carried in the product state."""

    def __init__(self, trigger, goal):
        self._trigger = trigger
        self._goal = goal
        self.open = False

    def observe(self, event: dict, state: frozenset) -> None:
        if self._goal(event, state):
            self.open = False
        elif self._trigger(event, state):
            self.open = True

    def to_state(self) -> dict:
        return {"open": self.open}


@dataclass
class _Liveness:
    name: str
    kind: str  # "recurrence" | "eventually" | "response"
    pred: object  # awaited-event predicate (edge label)


def _classify_liveness(name: str, ast) -> _Liveness | None:
    if isinstance(ast, Eventually) and ast.bound is None:
        return _Liveness(name, "eventually", compile_event_predicate(ast.sub))
    if isinstance(ast, Always):
        sub = ast.sub
        if isinstance(sub, Eventually) and sub.bound is None:
            return _Liveness(name, "recurrence", compile_event_predicate(sub.sub))
        if (isinstance(sub, Implies) and isinstance(sub.right, Eventually)
                and sub.right.bound is None):
            return _Liveness(name, "response", compile_event_predicate(sub.right.sub))
    return None


# -- exploration -------------------------------------------------------------

@dataclass
class Counterexample:
    prop: str
    kind: str  # "safety" | "deadline" | "liveness"
    reason: str
    config: dict
    init: list
    ticks: list
    loop_from: int | None = None

    def to_json(self) -> dict:
        data = {
            "prop": self.prop,
            "kind": self.kind,
            "reason": self.reason,
            "config": self.config,
            "init": self.init,
            "ticks": self.ticks,
        }
        if self.loop_from is not None:
            data["loop_from"] = self.loop_from
        return data


@dataclass
class ExplorationReport:
    states: int
    transitions: int
    verdicts: dict
    counterexamples: dict
    complete: bool
    seconds: float
    schedule_invariant: bool | None = None

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "verdicts": self.verdicts,
            "counterexamples": {n: c.to_json() for n, c in self.counterexamples.items()},
            "complete": self.complete,
            "seconds": round(self.seconds, 3),
            "schedule_invariant": self.schedule_invariant,
        }


@dataclass
class _Node:
    snapshot: bytes  # the frozen bundle, restored once per successor
    parent: str | None
    picks: list  # choice log of the edge that discovered this node
    depth: int
    open: frozenset = frozenset()  # response trackers with an open obligation


@dataclass
class _Edge:
    src: str
    dst: str
    picks: list
    awaited: set  # liveness names whose awaited event the edge produces


def _reject_scripted(config: ScenarioConfig) -> None:
    if config.env_faults or config.scripted_faults:
        raise ExplorationError(
            "scripted faults and environment fault injection are single-run "
            "features; exploration covers nondeterminism through the choice "
            "sets (wind_choices, radiation_choices, fault_exploration)")


class Explorer:
    def __init__(self, config: ScenarioConfig, suite: dict,
                 names: list[str] | None = None,
                 budget_states: int = DEFAULT_BUDGET_STATES,
                 budget_secs: float = DEFAULT_BUDGET_SECS,
                 extra_monitors: dict | None = None):
        _reject_scripted(config)
        self.config = config
        picked = names if names is not None else list(suite)
        unknown = [n for n in picked if n not in suite]
        if unknown:
            raise ExplorationError(f"unknown properties: {', '.join(unknown)}")
        self.suite = {n: suite[n] for n in picked}
        self.budget_states = budget_states
        self.budget_secs = budget_secs
        self.extra_monitors = dict(extra_monitors or {})  # name -> factory
        self.monitored: dict = {}
        self.liveness: dict[str, _Liveness] = {}
        for name, ast in self.suite.items():
            live = _classify_liveness(name, ast)
            if live is not None:
                self.liveness[name] = live
                continue
            try:
                synthesize(name, ast, "log")
            except IllegalOperatorForRuntime:
                raise ExplorationError(
                    f"{name}: unbounded liveness in a shape the explorer does "
                    "not decide; restructure as response or recurrence")
            except MonitorShapeError as exc:
                raise ExplorationError(str(exc)) from exc
            self.monitored[name] = ast  # synthesized afresh per root bundle

    # -- bundle construction -------------------------------------------------

    def _build_bundle(self, init_script: list | None, strict: bool = False) -> tuple[_Bundle, list]:
        tracer = EventTracer()
        sink = ChoiceSink(init_script, strict=strict)
        model = Model(self.config, tracer, explore=True, sink=sink)
        monitors = {n: synthesize(n, ast, "log") for n, ast in self.monitored.items()}
        for name, factory in self.extra_monitors.items():
            monitors[name] = factory()
        trackers = {}
        for name, live in self.liveness.items():
            if live.kind == "response":
                trigger = compile_event_predicate(self.suite[name].sub.left)
                trackers[name] = _ResponseTracker(trigger, live.pred)
        awaited = {name: live.pred for name, live in self.liveness.items()}
        return _Bundle(model, monitors, trackers, awaited), sink.log

    def _roots(self) -> list[tuple[_Bundle, list]]:
        base, signature = self._build_bundle(None)
        # The first script takes every first option: that is the base bundle.
        return [(base, signature)] + [self._build_bundle(script)
                                      for script in _variants(signature)[1:]]

    # -- main walk -----------------------------------------------------------

    def explore(self, invariant=None) -> ExplorationReport:
        """Breadth-first walk over every reachable state.  States are keyed by
        ``canonical()`` and stored as snapshots; every successor is restored
        from its source's snapshot.  ``invariant(model) -> bool``, if given,
        is checked on every new state: the walk stops at the first state
        where it is false, reporting that state's trail as the ``invariant``
        counterexample of an incomplete report."""
        started = time.monotonic()
        states: dict[str, _Node] = {}
        edges: list[_Edge] = []
        queue: list[str] = []
        verdicts: dict[str, str] = {n: UNDETERMINED for n in self.suite}
        verdicts.update({n: UNDETERMINED for n in self.extra_monitors})
        counterexamples: dict[str, Counterexample] = {}

        def check_budget() -> None:
            elapsed = time.monotonic() - started
            if len(states) > self.budget_states:
                raise StateSpaceBudgetExceeded(len(states), elapsed, "state")
            if elapsed > self.budget_secs:
                raise StateSpaceBudgetExceeded(len(states), elapsed, "time")

        def add_state(bundle: _Bundle, key: str, node: _Node) -> bool:
            """Store a new state; False if it breaks the invariant."""
            states[key] = node
            queue.append(key)
            for name, monitor in bundle.violations():
                if name not in counterexamples:
                    ce = self._trail(states, key, monitor.shape, monitor.reason)
                    ce.prop = name
                    counterexamples[name] = ce
                    verdicts[name] = VIOLATED
                del bundle.monitors[name]
            node.snapshot = snapshots.freeze(bundle)
            node.open = frozenset(n for n, t in bundle.trackers.items() if t.open)
            if invariant is None or invariant(bundle.model):
                return True
            ce = self._trail(states, key, "safety", "invariant predicate is false")
            ce.prop = "invariant"
            counterexamples["invariant"] = ce
            return False

        def walk() -> bool:
            for bundle, init_log in self._roots():
                key = bundle.canonical()
                if key in states:
                    continue
                if not add_state(bundle, key, _Node(b"", None, init_log, 0)):
                    return False
                check_budget()

            head = 0
            while head < len(queue):
                key = queue[head]
                head += 1
                node = states[key]
                # Called through the class, which instrumentation may patch.
                probe = _Bundle.clone(node.snapshot)
                _, signature = probe.step(None)
                successors = [(probe, signature)]
                for script in _variants(signature)[1:]:  # [0] is the probe's
                    branch = _Bundle.clone(node.snapshot)
                    successors.append((branch, branch.step(script)[1]))
                for succ, picks in successors:
                    succ_key = succ.canonical()
                    edges.append(_Edge(key, succ_key, picks, succ.fired))
                    if succ_key not in states and not add_state(
                            succ, succ_key, _Node(b"", key, picks, node.depth + 1)):
                        return False
                    check_budget()
            return True

        with _Snapshots() as snapshots:
            complete = walk()
        elapsed = time.monotonic() - started

        if complete:
            # Monitored properties that never violated anywhere: on an
            # exhaustive finite graph every infinite run keeps satisfying them.
            for name in list(self.monitored) + list(self.extra_monitors):
                if verdicts[name] == UNDETERMINED:
                    verdicts[name] = SATISFIED
            self._decide_liveness(states, edges, verdicts, counterexamples)

        return ExplorationReport(
            states=len(states),
            transitions=len(edges),
            verdicts=verdicts,
            counterexamples=counterexamples,
            complete=complete,
            seconds=elapsed,
            schedule_invariant=(self._schedule_invariant(edges) if complete
                                and self.config.schedule_sensitivity else None),
        )

    def _trail(self, states: dict, key: str, kind: str, reason: str) -> Counterexample:
        picks: list[list] = []
        cursor = key
        init: list = []
        while cursor is not None:
            node = states[cursor]
            if node.parent is None:
                init = node.picks
                break
            picks.append(node.picks)
            cursor = node.parent
        picks.reverse()
        return Counterexample(
            prop="", kind=kind, reason=reason,
            config=self.config.to_json(), init=init, ticks=picks,
        )

    # -- liveness decisions --------------------------------------------------

    def _decide_liveness(self, states, edges, verdicts, counterexamples) -> None:
        """Every unbounded shape is a lasso search over its own state set:
        plain ``eventually`` over the states reachable before the awaited
        event, recurrence over all states, response over the states whose
        obligation is open."""
        if not self.liveness:
            return
        out: dict[str, list[_Edge]] = {}
        for edge in edges:
            out.setdefault(edge.src, []).append(edge)

        for name, live in self.liveness.items():
            if live.kind == "eventually":
                allowed = self._reach_without(states, out, name)
            elif live.kind == "recurrence":
                allowed = states.keys()
            else:  # response
                allowed = {key for key, node in states.items() if name in node.open}
            cycle = self._find_lasso(allowed, out, name)
            if cycle is None:
                verdicts[name] = SATISFIED
                continue
            verdicts[name] = VIOLATED
            entry, loop_edges = cycle
            ce = self._trail(states, entry, "liveness",
                             "a reachable cycle never produces the awaited event")
            ce.prop = name
            ce.loop_from = len(ce.ticks)
            ce.ticks = ce.ticks + [e.picks for e in loop_edges]
            counterexamples.setdefault(name, ce)

    def _reach_without(self, states, out, name: str) -> set:
        """States reachable from the roots along edges lacking the awaited event."""
        roots = [k for k, node in states.items() if node.parent is None]
        seen = set(roots)
        stack = list(roots)
        while stack:
            key = stack.pop()
            for edge in out.get(key, ()):
                if name not in edge.awaited and edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return seen

    @staticmethod
    def _find_lasso(allowed, out, name: str):
        """A cycle through ``allowed`` states whose edges never produce the
        awaited event, found by a depth-first search on an explicit stack
        (so graph depth is not bounded by the recursion limit).  Start keys
        are tried in sorted order and out-edges in insertion order, so the
        reported lasso does not depend on set hashing.  Returns (entry key,
        [edges around the cycle]) or None."""
        done: set[str] = set()
        for start in sorted(allowed):
            if start in done:
                continue
            on_path = {start: 0}  # key -> position on the DFS path
            trail: list[_Edge] = []  # trail[i] leads out of the i-th path key
            pending = [iter(out.get(start, ()))]
            while pending:
                for edge in pending[-1]:
                    dst = edge.dst
                    if name in edge.awaited or dst not in allowed or dst in done:
                        continue
                    if dst in on_path:
                        return dst, trail[on_path[dst]:] + [edge]
                    on_path[dst] = len(on_path)
                    trail.append(edge)
                    pending.append(iter(out.get(dst, ())))
                    break
                else:
                    done.add(on_path.popitem()[0])
                    pending.pop()
                    if trail:
                        trail.pop()
        return None

    def _schedule_invariant(self, edges) -> bool:
        """With schedule permutations enabled, the successor of a state must
        not depend on the schedule pick: group edges by (src, non-schedule
        picks) and check each group lands on a single destination."""
        groups: dict[tuple, set] = {}
        for edge in edges:
            rest = tuple(
                (tuple(k), n, p) for k, n, p in edge.picks if k[0] != "schedule"
            )
            groups.setdefault((edge.src, rest), set()).add(edge.dst)
        return all(len(dsts) == 1 for dsts in groups.values())


# -- public entry points -----------------------------------------------------

def explore_properties(config: ScenarioConfig, suite: dict,
                       names: list[str] | None = None,
                       budget_states: int = DEFAULT_BUDGET_STATES,
                       budget_secs: float = DEFAULT_BUDGET_SECS) -> ExplorationReport:
    return Explorer(config, suite, names, budget_states, budget_secs).explore()


def check_invariant(config: ScenarioConfig, predicate,
                    budget_states: int = DEFAULT_BUDGET_STATES,
                    budget_secs: float = DEFAULT_BUDGET_SECS):
    """BFS over all reachable states; ``predicate(model) -> bool`` must hold
    in every one.  Returns (True, report) or (False, counterexample)."""
    report = Explorer(config, suite={}, names=[], budget_states=budget_states,
                      budget_secs=budget_secs).explore(invariant=predicate)
    ce = report.counterexamples.get("invariant")
    return (False, ce) if ce else (True, {"states": report.states})


def check_response(config: ScenarioConfig, trigger: str, goal: str,
                   bound: int | None = None,
                   budget_states: int = DEFAULT_BUDGET_STATES,
                   budget_secs: float = DEFAULT_BUDGET_SECS) -> ExplorationReport:
    """Explore ``always(trigger => eventually[<=bound](goal))`` for event
    predicates given as property-language text."""
    window = f"[<={bound}]" if bound is not None else ""
    formula = parse_formula(f"always(({trigger}) => eventually{window}(({goal})))")
    return explore_properties(config, {"response": formula},
                              budget_states=budget_states, budget_secs=budget_secs)


class _SequenceMonitor(OnlineMonitor):
    """First occurrences of the listed predicates must appear in order; any
    forbidden event is an immediate violation."""

    def __init__(self, name, steps, forbidden):
        super().__init__(name, None, "log")
        self.steps = steps
        self.forbidden = forbidden
        self.reached = 0

    def _observe(self, event, state):
        for i, pred in enumerate(self.forbidden):
            if pred(event, state):
                self._violate(f"forbidden event #{i} occurred at t={event.get('t')}")
                return
        for i in range(len(self.steps) - 1, self.reached - 1, -1):
            if self.steps[i](event, state):
                if i > self.reached:
                    self._violate(
                        f"step {i} occurred before step {self.reached} at t={event.get('t')}")
                else:
                    self.reached += 1
                return

    def finalize(self):
        return self.verdict if self.verdict == VIOLATED else SATISFIED

    def to_state(self, now: int = 0):
        return {"verdict": self.verdict, "reached": self.reached}


def check_sequence(config: ScenarioConfig, steps: list[str],
                   forbidden: list[str] | None = None,
                   budget_states: int = DEFAULT_BUDGET_STATES,
                   budget_secs: float = DEFAULT_BUDGET_SECS):
    """Explore requiring the first occurrences of ``steps`` (property-language
    event predicates) to appear in the given order on every path."""
    step_preds = [compile_event_predicate(parse_formula(s)) for s in steps]
    forb_preds = [compile_event_predicate(parse_formula(s)) for s in (forbidden or [])]
    explorer = Explorer(
        config, suite={}, names=[],
        budget_states=budget_states, budget_secs=budget_secs,
        extra_monitors={
            "sequence": lambda: _SequenceMonitor("sequence", step_preds, forb_preds),
        })
    return explorer.explore()


# -- counterexample replay ---------------------------------------------------

def write_counterexample(ce: Counterexample, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ce.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_counterexample(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for field_name in ("config", "init", "ticks", "prop", "kind"):
        if field_name not in data:
            raise ExplorationError(f"counterexample file lacks {field_name!r}")
    return data


def replay_counterexample(data: dict, suite: dict) -> dict:
    """Re-run a recorded counterexample; returns a report with
    ``reproduced`` set, or raises ReplayDivergenceError."""
    try:
        config = make_config(data["config"])
    except ConfigError as exc:
        raise ExplorationError(f"embedded config invalid: {exc}") from exc
    prop = data["prop"]
    tracer = EventTracer()
    sink = ChoiceSink(data["init"], strict=True)
    model = Model(config, tracer, explore=True, sink=sink)
    if not sink.finished():
        raise ReplayDivergenceError("initial choices were not all consumed")

    monitors = {}
    if data["kind"] in ("safety", "deadline"):
        if prop not in suite:
            raise ExplorationError(f"property {prop!r} not in the suite")
        monitors[prop] = synthesize(prop, suite[prop], "log")
    bundle = _Bundle(model, monitors, {}, {})

    loop_from = data.get("loop_from")
    snapshots = []
    for index, script in enumerate(data["ticks"]):
        if loop_from is not None and index == loop_from:
            snapshots.append(bundle.canonical())
        bundle.step(script, strict=True)

    if data["kind"] in ("safety", "deadline"):
        verdict = bundle.monitors.get(prop)
        reproduced = verdict is not None and verdict.verdict == VIOLATED
        if not reproduced:
            raise ReplayDivergenceError(
                f"replay did not reproduce the {data['kind']} violation of {prop}")
        return {"reproduced": True, "prop": prop, "kind": data["kind"],
                "ticks": len(data["ticks"])}

    # Liveness lasso: the state at the loop entry must recur at the end.
    if loop_from is None:
        raise ExplorationError("liveness counterexample lacks loop_from")
    final = bundle.canonical()
    if not snapshots or snapshots[0] != final:
        raise ReplayDivergenceError("replayed loop does not return to its entry state")
    return {"reproduced": True, "prop": prop, "kind": "liveness",
            "ticks": len(data["ticks"]), "loop_from": loop_from}
