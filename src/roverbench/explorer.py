"""Explicit-state exploration of the closed agent/environment system.

The explorer enumerates every nondeterministic choice the model can make -
initial radiation levels, wind re-rolls on arrival, effector fault outcomes,
and (optionally) node scheduling order - and walks the induced state graph
breadth-first.  A state's key is the ``to_state`` view of the model and its
riding monitors, with every absolute-tick quantity replaced by a relative
counter and goal ids renamed by rank, so the graph is finite whenever the
mission is cyclic.  The key is that view in ``marshal`` bytes, exact and
cheap to compare.  A new state keeps its live bundle, and its first
successor is stepped on it (at most ``_LIVE_LIMIT`` are held).  Other
successors are restored from a pickled snapshot, but only checkpoints (every
``_CHECKPOINT``-th depth, roots included), states past the live limit and
states made by a branching step are frozen when added.  Any other state
whose step branches has its pre-step bundle rebuilt once from its checkpoint
by replaying the tree's picks (stateless search; Godefroid, POPL 1997), and
steps the second choice script itself, frozen first only if more scripts
follow.  That is exact: a step is a deterministic function of the bundle and
its choices, and strict replay fails on any choice point that differs from
the recorded one.  A snapshot is freed once its state's successors are made,
a checkpoint once the walk is ``_CHECKPOINT`` depths below it.

With schedule permutations, a stage (an effector server or the agent host)
steps through a ``bus.StagePort``, which enforces the stage contract: it reads
only its own state, its own inboxes and the tick, and acts only by publishing,
emitting and choosing through the port.  A stage that does not act changes
nothing another stage sees, so a step's events, state and choices, bar the
schedule pick, depend only on the relative order of the stages that act
(partial-order reduction; Godefroid, LNCS 1032, 1996).  The schedule-0 step
of each combination of the other picks reports its acting stages, and an
order that runs them in the same relative order as an earlier order gets a
copy of that order's edge with no restore, step or key.  No edge is dropped.

A walk that lasts longer than ``_PROGRESS_EVERY`` seconds writes a progress
line to stderr that often; stdout and counterexample files do not change.

Every property's shape comes from ``monitor.synthesize``.  Safety, until
and bounded-window properties ride along inside the product in a
``MonitorEngine``, one per root, as in ``simulate``; a violation is reported
with the shortest choice path that reaches it.  Keys count deadlines from
``model.tick`` and the engine expires windows at the last model event's
time, so a step that ends before ``model.tick`` is an internal error.
Unbounded liveness (plain ``eventually``, ``always(eventually)`` and
unbounded response), which ``synthesize`` refuses with its shape attached,
is decided on the finished graph by one lasso search: a depth-first search
on an explicit stack, so graph depth is never bounded by the recursion
limit, over the states each shape allows (those reached before the awaited
event, all states, or those with the response obligation open).  The step
labels every edge with the awaited events it produced; a cycle of
unlabelled edges is a lasso-shaped counterexample.  Whether a cycle exists
does not depend on where the search starts, so it first runs in discovery
order; only when it finds a lasso are the states' sorted JSON texts built,
from their keys, and the search rerun from start states in text order, so
the reported lasso depends neither on hashing nor on the key's encoding.

Counterexamples embed the scenario config plus the per-tick choice vectors
and can be replayed later; a replay that no longer produces the recorded
behavior reports divergence instead of guessing.
"""

from __future__ import annotations

import io
import json
import marshal
import math
import pickle
import sys
import time
import types
from collections import deque
from dataclasses import dataclass, field, is_dataclass
from itertools import groupby

from . import prop_dsl
from .agent import PlanRule
from .config import ConfigError, ScenarioConfig, make_config
from .messages import Topology
from .monitor import (
    DispatchIndex,
    IllegalOperatorForRuntime,
    Liveness,
    MonitorEngine,
    MonitorShapeError,
    OnlineMonitor,
    synthesize,
)
from .prop_dsl import SATISFIED, UNDETERMINED, VIOLATED
from .simulator import ALL_STAGES, SAME_ORDER, Model
from .tracing import EventTracer, json_encoder

DEFAULT_BUDGET_STATES = 1_000_000
DEFAULT_BUDGET_SECS = 60.0

# Live bundles a walk holds at once for its states' first successors: 25-40
# KB each, against a snapshot's 6-7 KB.  The frontier of every packaged
# scenario and benchmark workload, at most 14 states, fits inside it.
_LIVE_LIMIT = 64

# Depths at which every new state is frozen, so that rebuilding a state
# that kept only its live bundle replays fewer than this many steps.
_CHECKPOINT = 16

# Seconds between the progress lines a walk writes to stderr.
_PROGRESS_EVERY = 2.0


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
            if not 0 <= pick < len(options):
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


def _variants(signature: list[list]) -> list[list[list]]:
    """All choice scripts over a recorded signature (odometer order)."""
    scripts: list[list[list]] = [[]]
    for key, count, _pick in signature:
        scripts = [s + [[key, count, i]] for s in scripts for i in range(count)]
    return scripts


# -- product bundle ----------------------------------------------------------

@dataclass(frozen=True)
class _Dispatch:
    """The awaited-event predicate of each liveness property, the same for
    every bundle of a walk."""

    awaited: dict  # liveness name -> awaited-event predicate


class _Bundle:
    """One exploration branch: the model plus all riding monitor states."""

    def __init__(self, model: Model, engine: MonitorEngine, trackers: dict, dispatch: _Dispatch):
        self.model = model
        self.engine = engine  # log-mode monitors; a walk drops each once Violated
        self.trackers = trackers  # name -> _ResponseTracker
        self.dispatch = dispatch
        self.fired: set[str] = set()  # names whose awaited event the last step produced

    @staticmethod
    def clone(snapshot: bytes) -> "_Bundle":
        """A live bundle restored from a snapshot of the running walk."""
        return pickle.loads(snapshot)

    def step(self, script: list | None, strict: bool = False) -> tuple[list[dict], list]:
        """Advance one tick under a choice script; returns (events, choice log).
        The tick's events are handed over and its explanations dropped, so a
        snapshot taken between steps carries neither."""
        sink = ChoiceSink(script, strict=strict)
        self.acting = self.model.step_tick(sink)  # mask of the stages that acted
        tracer = self.model.tracer
        events, tracer.events = tracer.events, []
        self.model.host.agent.explanations.clear()
        engine, observe, now = self.engine, self.engine.observe, self.model.tick
        trackers, awaited = self.trackers.values(), self.dispatch.awaited.items()
        self.fired = fired = set()
        for event in events:
            observe(event)
            state = engine.state
            for tr in trackers:
                tr.observe(event, state)
            for name, pred in awaited:
                if name not in fired and pred(event, state):
                    fired.add(name)
        if engine.clock != now:
            raise RuntimeError(f"tick {now} ended at event time {engine.clock}: the "
                               "key's deadlines, relative to the tick, would be unsound")
        engine.on_tick(now)
        return events, sink.log

    def violations(self) -> list[tuple[str, OnlineMonitor]]:
        return [(name, m) for name, m in self.engine.monitors.items() if m.verdict == VIOLATED]

    def canonical(self) -> bytes:
        """The dedupe key: the ranked ``to_state`` view in ``marshal`` bytes.

        ``marshal`` protocol 2 writes every value with its exact type and no
        references, so equal views give equal bytes as long as their dicts
        are built in the same order, which every ``to_state`` does."""
        now = self.model.tick
        return marshal.dumps({
            "model": _rank_goals(self.model.to_state()),
            "monitors": {n: m.to_state(now) for n, m in sorted(self.engine.monitors.items())},
            "trackers": {n: t.to_state() for n, t in sorted(self.trackers.items())},
        }, 2)


# The sorted JSON text of a ranked view, read back from its key: what orders
# the lasso search.
_sorted_text = json_encoder(separators=(",", ":"), sort_keys=True)


def _rank_goals(model: dict) -> dict:
    """Rename the goal ids ("wheelsClient:12") of a ``Model.to_state`` view
    by their rank per client node, so that states differing only in how many
    goals came before compare equal.  Ids occur only as the first item of a
    host ``goal_actions`` pair and as the ``goal_id`` of a live goal or of a
    queued message's payload, which is copied first: it is the message's own."""
    host = model["host"]
    pairs = host["goal_actions"]
    entries = [g for c in host["clients"].values() for g in c["live"]]
    entries += [g for s in model["servers"].values() for g in s["live"]]
    for messages in model["inboxes"].values():
        for message in messages:
            if "goal_id" in message["payload"]:
                message["payload"] = payload = dict(message["payload"])
                entries.append(payload)
    ids = {pair[0] for pair in pairs}
    ids.update(entry["goal_id"] for entry in entries)
    if not ids:
        return model
    numbered = sorted((node, int(num), gid)
                      for gid in ids for node, _, num in [gid.rpartition(":")])
    names = {}
    for node, same_node in groupby(numbered, key=lambda parts: parts[0]):
        names.update((gid, f"{node}#{rank}") for rank, (_, _, gid) in enumerate(same_node))
    for pair in pairs:
        pair[0] = names[pair[0]]
    for entry in entries:
        entry["goal_id"] = names[entry["goal_id"]]
    return model


# -- state snapshots ---------------------------------------------------------

# Never changed once built, so every bundle of a walk shares one of each:
# classes (a table lookup restores faster than an import by name), closures
# and compiled predicates, the config, the bus topology, plan rules, the
# formula AST (the dataclasses of prop_dsl), the awaited predicates, and
# each root's monitor index (whose memo and counts only grow).
_SHARED_TYPES = frozenset(
    [type, types.FunctionType, ScenarioConfig, Topology, PlanRule, _Dispatch, DispatchIndex]
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
    seconds: float
    # Only a finished walk builds a report: one that runs out of budget raises.
    complete: bool = True
    schedule_invariant: bool | None = None
    stats: dict = field(default_factory=dict)  # dedupe, phases, BFS shape

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "verdicts": self.verdicts,
            "counterexamples": {n: c.to_json() for n, c in self.counterexamples.items()},
            "complete": self.complete,
            "schedule_invariant": self.schedule_invariant,
            # The only wall-clock figures, kept apart from the verdicts.
            "stats": {"seconds": round(self.seconds, 3), **self.stats},
        }


@dataclass
class _Node:
    key: bytes  # the one copy every edge into this state holds
    parent: bytes | None
    picks: list  # choice log of the edge that discovered this node
    depth: int
    # The frozen bundle, if the state was frozen: a checkpoint's until the
    # walk expands states _CHECKPOINT depths below it, any other's until
    # its successors are made.
    snapshot: bytes | None = None
    bundle: _Bundle | None = None  # the live bundle, until its first successor is stepped
    open: frozenset = frozenset()  # response trackers with an open obligation


@dataclass
class _Edge:
    src: bytes
    dst: bytes
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
                 budget_secs: float = DEFAULT_BUDGET_SECS):
        _reject_scripted(config)
        self.config = config
        picked = names if names is not None else list(suite)
        unknown = [n for n in picked if n not in suite]
        if unknown:
            raise ExplorationError(f"unknown properties: {', '.join(unknown)}")
        self.suite = {n: suite[n] for n in picked}
        self.budget_states = budget_states
        self.budget_secs = budget_secs
        self.monitored: dict = {}
        self.liveness: dict[str, Liveness] = {}
        for name, ast in self.suite.items():
            try:
                synthesize(name, ast, "log")
                self.monitored[name] = ast  # synthesized afresh per root bundle
            except IllegalOperatorForRuntime as exc:
                self.liveness[name] = exc.liveness
            except MonitorShapeError as exc:
                raise ExplorationError(str(exc)) from exc
        self.dispatch = _Dispatch({name: live.goal for name, live in self.liveness.items()})

    # -- bundle construction -------------------------------------------------

    def _build_bundle(self, init_script: list | None, strict: bool = False) -> tuple[_Bundle, list]:
        tracer = EventTracer()
        sink = ChoiceSink(init_script, strict=strict)
        model = Model(self.config, tracer, sink=sink)
        engine = MonitorEngine([synthesize(n, ast, "log") for n, ast in self.monitored.items()])
        trackers = {name: _ResponseTracker(live.trigger, live.goal)
                    for name, live in self.liveness.items() if live.kind == "response"}
        return _Bundle(model, engine, trackers, self.dispatch), sink.log

    def _roots(self) -> list[tuple[_Bundle, list]]:
        base, signature = self._build_bundle(None)
        # The first script takes every first option: that is the base bundle.
        return [(base, signature)] + [self._build_bundle(script)
                                      for script in _variants(signature)[1:]]

    # -- main walk -----------------------------------------------------------

    def explore(self) -> ExplorationReport:
        """Breadth-first walk over every reachable state.  States are keyed by
        ``canonical()``.  A state's first successor is stepped on its live
        bundle, if it kept one, and every other one is restored from its
        snapshot, rebuilt by replay if the state was not frozen when added."""
        started = time.monotonic()
        states: dict[bytes, _Node] = {}
        edges: list[_Edge] = []
        queue: list[_Node] = []  # breadth-first frontier, expanded from ``head`` on
        head = 0
        verdicts: dict[str, str] = {n: UNDETERMINED for n in self.suite}
        counterexamples: dict[str, Counterexample] = {}
        phase_s = dict.fromkeys(("restore", "step", "key", "freeze", "liveness"), 0.0)
        live = 0  # states holding their live bundle
        held: deque[_Node] = deque()  # checkpoints holding their snapshot, by depth
        frontier_max = 0  # most states waiting to be expanded at once
        unstepped = 0  # edges copied from an earlier order's, with no step of their own
        frozen = rebuilt = 0  # snapshots written; pre-step bundles replayed
        reported = started  # when the last progress line went to stderr

        def timed(phase: str, call, *args):
            mark = time.perf_counter()
            result = call(*args)
            phase_s[phase] += time.perf_counter() - mark
            return result

        def check_budget() -> None:
            nonlocal reported
            now = time.monotonic()
            elapsed = now - started
            if len(states) > self.budget_states:
                raise StateSpaceBudgetExceeded(len(states), elapsed, "state")
            if elapsed > self.budget_secs:
                raise StateSpaceBudgetExceeded(len(states), elapsed, "time")
            if now - reported >= _PROGRESS_EVERY:
                reported = now
                print(f"verify: {len(states)} states, depth {queue[-1].depth}, "
                      f"frontier {len(queue) - head}, "
                      f"{len(edges) / elapsed:.0f} transitions/s", file=sys.stderr)

        def add_state(bundle: _Bundle, key: bytes, node: _Node, branched: bool) -> None:
            """Store a new state, made by a step that offered more than one
            choice script if ``branched``."""
            nonlocal live, frozen
            states[key] = node
            queue.append(node)
            for name, monitor in bundle.violations():
                if name not in counterexamples:
                    ce = self._trail(states, key, monitor.shape, monitor.reason)
                    ce.prop = name
                    counterexamples[name] = ce
                    verdicts[name] = VIOLATED
                del bundle.engine.monitors[name]
            keep = live < _LIVE_LIMIT
            checkpoint = node.depth % _CHECKPOINT == 0
            if checkpoint or branched or not keep:
                node.snapshot = timed("freeze", snapshots.freeze, bundle)
                frozen += 1
                if checkpoint:
                    held.append(node)
            node.open = frozenset(n for n, t in bundle.trackers.items() if t.open)
            if keep:
                node.bundle = bundle
                live += 1

        def rebuild(node: _Node) -> _Bundle:
            """The pre-step bundle of a state that kept only its live bundle:
            replay the picks down from the nearest ancestor holding a
            snapshot, dropping violated monitors as ``add_state`` does."""
            nonlocal rebuilt
            path = []
            while node.snapshot is None:
                path.append(node)
                node = states[node.parent]
            bundle = timed("restore", _Bundle.clone, node.snapshot)
            for below in reversed(path):
                timed("step", bundle.step, below.picks, True)
                for name, _ in bundle.violations():
                    del bundle.engine.monitors[name]
            rebuilt += 1
            return bundle

        def visit(source: _Node, succ: _Bundle, picks: list, branched: bool) -> None:
            """Key one successor, record its edge and store it if it is new."""
            key = timed("key", succ.canonical)
            known = states.get(key)
            # Edges share the stored key and the one empty label set: on a
            # walk of mostly duplicates, copies of either would fill memory.
            edges.append(_Edge(source.key, key if known is None else known.key, picks,
                               succ.fired or frozenset()))
            if known is None:
                add_state(succ, key, _Node(key, source.key, picks, source.depth + 1), branched)
            check_budget()

        def walk() -> None:
            nonlocal head, live, frontier_max, unstepped, frozen
            for bundle, init_log in self._roots():
                key = timed("key", bundle.canonical)
                if key in states:
                    continue
                add_state(bundle, key, _Node(key, None, init_log, 0), True)
                check_budget()

            while head < len(queue):
                frontier_max = max(frontier_max, len(queue) - head)
                node = queue[head]
                head += 1
                # Every state left to expand has a checkpoint nearer than one
                # _CHECKPOINT depths above the head: free those.
                while held and held[0].depth + _CHECKPOINT <= node.depth:
                    held.popleft().snapshot = None
                # Breadth-first order expands a state once, so its snapshot,
                # bar a checkpoint's, and its live bundle are dropped now and
                # each successor is keyed as it is made.
                snapshot = node.snapshot
                if node.depth % _CHECKPOINT:
                    node.snapshot = None
                probe, node.bundle = node.bundle, None
                if probe is None:
                    # Called through the class, which instrumentation may patch.
                    probe = timed("restore", _Bundle.clone, snapshot)
                else:
                    live -= 1
                _, signature = timed("step", probe.step, None)
                scripts = _variants(signature)
                branched = len(scripts) > 1
                replayed = None  # a rebuilt bundle, which steps the next script itself
                if branched and snapshot is None:
                    replayed = rebuild(node)
                    if len(scripts) > 2:
                        snapshot = timed("freeze", snapshots.freeze, replayed)
                        frozen += 1
                # Variant n's schedule pick has weight ``stride`` in the
                # odometer order, so n - pick * stride is its schedule-0
                # sibling, stepped before it.  The orders that run the stages
                # that acted in that step (taken only with the schedule as a
                # choice) in the same relative order end alike: each copies
                # the edge of the first of them.
                at = next((i for i, (k, _, _) in enumerate(signature) if k == ["schedule"]), -1)
                stride = math.prod(count for _, count, _ in signature[at + 1:])
                masks: dict[int, int] = {}  # schedule-0 variant -> its acting stages
                base = len(edges)  # variant n's edge is edges[base + n]
                branch, picks = probe, signature  # [0] is the probe's
                for n, script in enumerate(scripts):
                    if n:
                        pick = script[at][2] if at >= 0 else 0
                        same = SAME_ORDER[masks.get(n - pick * stride, ALL_STAGES)][pick]
                        if same < pick:
                            edge = edges[base + n - (pick - same) * stride]
                            picks = [*edge.picks[:at], script[at], *edge.picks[at + 1:]]
                            edges.append(_Edge(node.key, edge.dst, picks, edge.awaited))
                            unstepped += 1
                            continue
                        if replayed is None:
                            branch = timed("restore", _Bundle.clone, snapshot)
                        else:
                            branch, replayed = replayed, None
                        picks = timed("step", branch.step, script)[1]
                    visit(node, branch, picks, branched)
                    if at >= 0 and picks[at] == signature[at]:
                        masks[n] = branch.acting

        with _Snapshots() as snapshots:
            walk()
        for node in held:  # the last checkpoints, which no head passed
            node.snapshot = None
        elapsed = time.monotonic() - started

        # Monitored properties that never violated anywhere: on an exhaustive
        # finite graph every infinite run keeps satisfying them.
        for name in self.monitored:
            if verdicts[name] == UNDETERMINED:
                verdicts[name] = SATISFIED
        timed("liveness", self._decide_liveness, states, edges, verdicts, counterexamples)

        reached = sum(node.parent is not None for node in states.values())  # not as roots
        return ExplorationReport(
            states=len(states),
            transitions=len(edges),
            verdicts=verdicts,
            counterexamples=counterexamples,
            seconds=elapsed,
            schedule_invariant=(self._schedule_invariant(edges)
                                if self.config.schedule_sensitivity else None),
            stats={
                # The share of successors that were known states.
                "dedupe_hit_rate": round(1 - reached / len(edges), 4) if edges else 0.0,
                "phase_s": {phase: round(spent, 6) for phase, spent in phase_s.items()},
                # States per breadth-first depth: the queue holds every state
                # in order of depth.
                "states_per_depth": [sum(1 for _ in same)
                                     for _, same in groupby(node.depth for node in queue)],
                "frontier_max": frontier_max,
                "unstepped_transitions": unstepped,
                "frozen": frozen,
                "rebuilt": rebuilt,
            },
        )

    def _trail(self, states: dict, key: bytes, kind: str, reason: str) -> Counterexample:
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
        out: dict[bytes, list[_Edge]] = {}
        for edge in edges:
            out.setdefault(edge.src, []).append(edge)
        order = None  # every state, by sorted JSON text, once a lasso exists

        for name, live in self.liveness.items():
            if live.kind == "eventually":
                reach = self._reach_without(states, out, name)
                allowed = dict.fromkeys(key for key in states if key in reach)
            elif live.kind == "recurrence":
                allowed = dict.fromkeys(states)
            else:  # response
                allowed = dict.fromkeys(key for key in states if name in states[key].open)
            # Whether a cycle exists does not depend on the start order.
            if self._find_lasso(allowed, out, name) is None:
                verdicts[name] = SATISFIED
                continue
            if order is None:
                # Start states in the order of their sorted JSON text, so the
                # reported lasso depends neither on set hashing nor on the
                # key's encoding.
                order = sorted(states, key=lambda key: _sorted_text(marshal.loads(key)))
            verdicts[name] = VIOLATED
            entry, loop_edges = self._find_lasso(
                dict.fromkeys(key for key in order if key in allowed), out, name)
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
        are tried in the iteration order of ``allowed`` and out-edges in
        insertion order.  Returns (entry key, [edges around the cycle]) or
        None."""
        done: set[bytes] = set()
        for start in allowed:
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
        picks) and check each group lands on a single destination.  Copied
        edges agree by construction, so the check bites on one order per
        relative order of the stages that acted in the group's schedule-0
        step."""
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


# -- counterexample replay ---------------------------------------------------

def write_counterexample(ce: Counterexample, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ce.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_choice(entry) -> bool:
    """A recorded choice: [key parts, option count, pick below the count]."""
    return (isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], list) and all(isinstance(p, str) for p in entry[0])
            and type(entry[1]) is int and type(entry[2]) is int  # bool is no count
            and 0 <= entry[2] < entry[1])


def load_counterexample(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for field_name in ("config", "init", "ticks", "prop", "kind"):
        if field_name not in data:
            raise ExplorationError(f"counterexample file lacks {field_name!r}")
    init, ticks = data["init"], data["ticks"]
    if not (isinstance(init, list) and isinstance(ticks, list)
            and all(isinstance(script, list) for script in ticks)):
        raise ExplorationError("counterexample init and ticks must be lists of choices")
    for where, script in [("init", init), *((f"tick {i}", s) for i, s in enumerate(ticks))]:
        for entry in script:
            if not _is_choice(entry):
                raise ExplorationError(f"malformed choice {entry!r} in {where}")
    loop_from = data.get("loop_from")
    if "loop_from" in data and not (type(loop_from) is int and 0 <= loop_from <= len(ticks)):
        raise ExplorationError(f"loop_from {loop_from!r} is not a tick in 0..{len(ticks)}")
    return data


def replay_counterexample(data: dict, suite: dict) -> dict:
    """Re-run a recorded counterexample on a bundle built as the walk
    builds its roots; returns a report with ``reproduced`` set, or raises
    ReplayDivergenceError.  A liveness lasso
    reproduces only if its loop returns to its entry state without producing
    the awaited event, and for a response, with the obligation open at the
    entry."""
    try:
        config = make_config(data["config"])
    except ConfigError as exc:
        raise ExplorationError(f"embedded config invalid: {exc}") from exc
    prop, kind = data["prop"], data["kind"]
    if prop not in suite:
        raise ExplorationError(f"property {prop!r} not in the suite")
    explorer = Explorer(config, suite, [prop])
    if (kind == "liveness") != (prop in explorer.liveness):
        raise ExplorationError(f"{prop} cannot have a {kind} counterexample")
    loop_from = data.get("loop_from")
    if kind == "liveness" and loop_from is None:
        raise ExplorationError("liveness counterexample lacks loop_from")
    bundle, init_log = explorer._build_bundle(data["init"], strict=True)
    if len(init_log) < len(data["init"]):
        raise ReplayDivergenceError("initial choices were not all consumed")
    tracker = bundle.trackers.get(prop)

    entry = None
    for tick, script in enumerate(data["ticks"]):
        if tick == loop_from:
            entry = bundle.canonical()
            if tracker is not None and not tracker.open:
                raise ReplayDivergenceError(
                    f"the obligation of {prop} is not open at the loop entry")
        bundle.step(script, strict=True)
        if entry is not None and prop in bundle.fired:
            raise ReplayDivergenceError(
                f"tick {tick} of the loop produces the event {prop} awaits")

    if kind != "liveness":
        if bundle.engine.monitors[prop].verdict != VIOLATED:
            raise ReplayDivergenceError(
                f"replay did not reproduce the {kind} violation of {prop}")
        return {"reproduced": True, "prop": prop, "kind": kind,
                "ticks": len(data["ticks"])}

    # Liveness lasso: the state at the loop entry must recur at the end.
    if entry is None or entry != bundle.canonical():
        raise ReplayDivergenceError("replayed loop does not return to its entry state")
    return {"reproduced": True, "prop": prop, "kind": "liveness",
            "ticks": len(data["ticks"]), "loop_from": loop_from}
