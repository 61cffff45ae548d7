"""Explicit-state exploration of the closed agent/environment system.

The explorer enumerates every nondeterministic choice the model can make -
initial radiation levels, wind re-rolls on arrival, effector fault outcomes,
and (optionally) node scheduling order - and walks the induced state graph
breadth-first.  A state's key stands for the ``to_state`` view of the model
and its riding monitors: tuples read from the live objects in one pass, with
every absolute-tick quantity replaced by a relative counter and every goal id
renamed where it is read, by its rank among its client's live records, so
the graph is finite whenever the mission is cyclic.  Each component of that
view (the world, each server, the host, each node's inbox, the monitors) is
filed in ``marshal`` bytes once per walk, and the key is the tuple of their
indices in ``marshal`` bytes: exact, 80 bytes, and cheap to compare (collapse
compression; Holzmann, "State compression in SPIN", 1997).  A stored state
is its key: each part of the model and each monitor has a ``from_state``
beside its ``to_state``, and a state's bundle is rebuilt from the views its
key files, at a tick equal to its depth, since every root starts at tick 0
and every edge is one tick.  A new state keeps its live bundle, and its
first successor is stepped on it (at most ``_LIVE_LIMIT`` are held); every
other successor is stepped on a rebuilt bundle.  What the view leaves out
(goal numbers, arrival order in an inbox, finished intention steps, rule
bindings, message seqs) changes no step's successor key, choice log, liveness
labels or violations, so a rebuilt bundle steps like the live one.

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

Every property's monitor comes from ``monitor.synthesize`` and rides along
inside the product in a ``MonitorEngine``, one per root, as in
``simulate``; a safety, until or window violation is reported with the
shortest choice path that reaches it.  Keys count deadlines from
``model.tick`` and the engine expires windows at the last model event's
time, so a step that ends before ``model.tick`` is an internal error.
Unbounded liveness (plain ``eventually``, ``always(eventually)`` and
unbounded response), whose monitor from ``synthesize`` is a
``LivenessMonitor``, rides the same engine: its ``fired`` flag
labels every edge with the awaited event, and its response obligation bit is
part of the key.  It is decided on the finished graph by one lasso search
over usable edges: those that do not produce the awaited event and lead to
a state the shape allows (one with the obligation open for a response, any
state otherwise).  One strongly connected component pass (Tarjan, SIAM J.
Comput. 1972), on an explicit stack so graph depth is never bounded by the
recursion limit, runs from the roots for plain ``eventually`` and from every
allowed state otherwise, and marks each state on a cycle.  The lasso enters
at the first such state in breadth-first discovery order, which depends on
the walk alone, not on hashing or the key's encoding.  Its prefix is that
state's breadth-first tree path and its loop the first return found by a
breadth-first search from it, so both are shortest for that entry.

Counterexamples embed the scenario config plus the per-tick choice vectors
and can be replayed later; a replay that no longer produces the recorded
behavior reports divergence instead of guessing.
"""

from __future__ import annotations

import copy
import json
import marshal
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import groupby, islice

from .agent import atom_text
from .config import ConfigError, ScenarioConfig, make_config
from .monitor import LivenessMonitor, MonitorEngine, OnlineMonitor, synthesize
from .prop_dsl import SATISFIED, UNDETERMINED, VIOLATED
from .simulator import ALL_STAGES, SAME_ORDER, Model
from .tracing import EventTracer, InputError, read_input

DEFAULT_BUDGET_STATES = 1_000_000
DEFAULT_BUDGET_SECS = 60.0

# Live bundles a walk holds at once for its states' first successors, 25-40
# KB each; past it, a first successor is stepped on a bundle rebuilt from its
# state's key, as every other one is.  The frontier of every packaged scenario
# and benchmark workload, at most 14 states, fits inside it.
_LIVE_LIMIT = 64

# Seconds between the progress lines a walk writes to stderr.
_PROGRESS_EVERY = 2.0


class ExplorationError(InputError):
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

class _KeyTable:
    """The key components of one walk, each distinct value filed once in
    ``marshal`` bytes (protocol 2: exact types, no references), and a key is
    the tuple of its components' indices in ``marshal`` bytes (collapse
    compression; Holzmann, "State compression in SPIN", 1997; Laarman, van de
    Pol and Weber, SPIN 2011).  The components are the parts of a
    ``Model.to_state`` view and the monitors' names and views.  An inbox is
    the sorted list of the indices of its entries' bytes, each entry filed
    once too, so arrival order is not state.  Two keys of a table are equal
    exactly when their views are.  The table reads a key's views back, and
    holds the config and a root's unstepped monitors and dispatch index."""

    def __init__(self, model: Model, engine: MonitorEngine):
        self.parts = len(model.servers) + 2  # the world, each server and the host
        self.names = ["world", *(f"servers.{e}" for e in model.servers), "host",
                      *(f"inboxes.{node}" for node in model.bus.inboxes), "monitors"]
        self.tables: list[dict[bytes, int]] = [{} for _ in self.names]
        self.entries: dict[bytes, int] = {}  # every queued message's bytes
        # The values of each table, then of ``entries``, as far as read back.
        self.filed: list[list[bytes]] = [[] for _ in range(len(self.names) + 1)]
        self.config = model.config
        self.monitors = {name: copy.copy(m) for name, m in engine.monitors.items()}
        self.index = engine.index

    def key(self, view: tuple, monitors: tuple) -> bytes:
        """The key of a ``Model.to_state`` view and its monitors' views."""
        dump, entries, parts = marshal.dumps, self.entries, self.parts
        values = [dump(part, 2) for part in view[:parts]]
        for inbox in view[parts:]:
            if inbox:
                inbox = sorted([entries.setdefault(dump(entry, 2), len(entries))
                                for entry in inbox])
            values.append(dump(inbox, 2))
        values.append(dump(monitors, 2))
        return dump(tuple([table.setdefault(value, len(table))
                           for table, value in zip(self.tables, values)]), 2)

    def view(self, key: bytes) -> tuple[tuple, tuple]:
        """The ``Model.to_state`` view and the monitors' names and views that
        ``key`` stands for, each inbox's entries in key order."""
        load, read = marshal.loads, _filed
        values = [load(read(table, filed, i))
                  for table, filed, i in zip(self.tables, self.filed, load(key))]
        for at in range(self.parts, len(values) - 1):
            values[at] = [load(read(self.entries, self.filed[-1], i)) for i in values[at]]
        return tuple(values[:-1]), values[-1]

    def sizes(self) -> dict[str, int]:
        """The number of distinct values of each component."""
        return {name: len(table) for name, table in zip(self.names, self.tables)}


def _filed(table: dict, filed: list, index: int) -> bytes:
    """The value ``table`` files under ``index``: ``filed``, its first values
    in insertion order, is extended from the table's newest end."""
    if index >= len(filed):
        filed += reversed([*islice(reversed(table), len(table) - len(filed))])
    return filed[index]


class _Bundle:
    """One exploration branch: the model plus all riding monitor states."""

    def __init__(self, model: Model, engine: MonitorEngine, keys: _KeyTable):
        self.model = model
        self.engine = engine  # log-mode monitors; a walk drops each once Violated
        self.keys = keys  # the walk's key table
        # The engine's liveness monitors, never Violated and so never dropped.
        self.liveness = [m for m in engine.monitors.values() if isinstance(m, LivenessMonitor)]

    @staticmethod
    def clone(keys: _KeyTable, key: bytes, tick: int) -> "_Bundle":
        """The bundle of a stored state at tick ``tick``, rebuilt from the
        views ``key`` files in ``keys``, less its Violated monitors as the walk
        stores it.  Monitors are copies of a root's: ``synthesize`` costs more."""
        view, (names, states) = keys.view(key)
        model = Model(keys.config, EventTracer())
        model.from_state(view, tick)
        monitors = [copy.copy(keys.monitors[name]) for name in names]
        for monitor, state in zip(monitors, states):
            monitor.from_state(state, tick)
        engine = MonitorEngine([m for m in monitors if m.verdict != VIOLATED], keys.index)
        engine.clock = engine.last_tick = tick
        if tick:  # past a root's first event, which folds in the agent's beliefs
            engine.state = frozenset(map(atom_text, model.host.agent.beliefs))
            engine.first = False
        return _Bundle(model, engine, keys)

    def step(self, script: list | None, strict: bool = False) -> tuple[list[dict], list]:
        """Advance one tick under a choice script; returns (events, choice log).
        The tick's events are handed over and its explanations dropped, so
        a bundle stepped down a chain of live states does not grow."""
        sink = ChoiceSink(script, strict=strict)
        self.acting = self.model.step_tick(sink)  # mask of the stages that acted
        tracer = self.model.tracer
        events, tracer.events = tracer.events, []
        self.model.host.agent.explanations.clear()
        engine, observe, now = self.engine, self.engine.observe, self.model.tick
        for m in self.liveness:
            m.fired = False
        for event in events:
            observe(event)
        if engine.clock != now:
            raise RuntimeError(f"tick {now} ended at event time {engine.clock}: the "
                               "key's deadlines, relative to the tick, would be unsound")
        engine.on_tick(now)
        return events, sink.log

    @property
    def fired(self) -> frozenset:
        """Names whose awaited event the last step produced."""
        return frozenset(m.name for m in self.liveness if m.fired)

    def violations(self) -> list[tuple[str, OnlineMonitor]]:
        return [(name, m) for name, m in self.engine.monitors.items() if m.verdict == VIOLATED]

    def canonical(self) -> bytes:
        """The dedupe key: the ``to_state`` view of the model and, in the
        engine's fixed order, the names and views of the monitors it still
        holds, filed in the walk's ``_KeyTable``."""
        now, monitors = self.model.tick, self.engine.monitors
        return self.keys.key(self.model.to_state(),
                             (tuple(monitors), [m.to_state(now) for m in monitors.values()]))


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
        return {name: value for name, value in vars(self).items() if value is not None}


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
        data = {**vars(self), "counterexamples": {
            n: c.to_json() for n, c in self.counterexamples.items()}}
        # The only wall-clock figures, kept apart from the verdicts.
        data["stats"] = {"seconds": round(data.pop("seconds"), 3), **self.stats}
        return data


@dataclass
class _Node:
    key: bytes  # the one copy every edge into this state holds
    parent: bytes | None
    picks: list  # choice log of the edge that discovered this node
    depth: int  # and tick: every root starts at tick 0, every edge is one tick
    bundle: _Bundle | None = None  # the live bundle, until its first successor is stepped
    open: frozenset = frozenset()  # responses with an open obligation, shared


@dataclass
class _Edge:
    src: bytes
    dst: bytes
    picks: list
    awaited: frozenset  # liveness names whose awaited event the edge produces, shared


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
        # The kind of each unbounded shape, which the lasso search decides.
        self.liveness = {m.name: m.kind for m in self._monitors()
                         if isinstance(m, LivenessMonitor)}

    # -- bundle construction -------------------------------------------------

    def _monitors(self) -> list[OnlineMonitor]:
        """A fresh log-mode monitor of every property, a ``LivenessMonitor``
        for an unbounded shape."""
        return [synthesize(name, ast, "log") for name, ast in self.suite.items()]

    def _build_bundle(self, init_script: list | None, strict: bool = False,
                      keys: _KeyTable | None = None) -> tuple[_Bundle, list]:
        """A root bundle, keyed in ``keys`` or in a key table of its own."""
        tracer = EventTracer()
        sink = ChoiceSink(init_script, strict=strict)
        model = Model(self.config, tracer, sink=sink)
        engine = MonitorEngine(self._monitors())
        return _Bundle(model, engine, keys or _KeyTable(model, engine)), sink.log

    def _roots(self) -> list[tuple[_Bundle, list]]:
        """Every root of a walk, sharing one new key table."""
        base, signature = self._build_bundle(None)
        # The first script takes every first option: that is the base bundle.
        return [(base, signature)] + [self._build_bundle(script, keys=base.keys)
                                      for script in _variants(signature)[1:]]

    # -- main walk -----------------------------------------------------------

    def explore(self) -> ExplorationReport:
        """Breadth-first walk over every reachable state.  States are keyed by
        ``canonical()``.  A state's first successor is stepped on its live
        bundle, if it kept one, and every other one on a bundle rebuilt from
        its key."""
        started = time.monotonic()
        states: dict[bytes, _Node] = {}
        edges: list[_Edge] = []
        queue: list[_Node] = []  # breadth-first frontier, expanded from ``head`` on
        head = 0
        verdicts: dict[str, str] = {n: UNDETERMINED for n in self.suite}
        counterexamples: dict[str, Counterexample] = {}
        phase_s = dict.fromkeys(("restore", "step", "key", "liveness"), 0.0)
        live = 0  # states holding their live bundle
        frontier_max = 0  # most states waiting to be expanded at once
        unstepped = 0  # edges copied from an earlier order's, with no step of their own
        restored = 0  # bundles rebuilt from a key
        reported = started  # when the last progress line went to stderr
        label_sets: dict[frozenset, frozenset] = {}  # one copy of each edge label and open set

        def shared(names) -> frozenset:
            names = frozenset(names)
            return label_sets.setdefault(names, names)

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

        def add_state(bundle: _Bundle, key: bytes, node: _Node) -> None:
            nonlocal live
            states[key] = node
            queue.append(node)
            for name, monitor in bundle.violations():
                if name not in counterexamples:
                    counterexamples[name] = self._trail(states, key, name, monitor.shape,
                                                        monitor.reason)
                    verdicts[name] = VIOLATED
                del bundle.engine.monitors[name]
            node.open = shared(m.name for m in bundle.liveness if m.open)
            if live < _LIVE_LIMIT:
                node.bundle = bundle
                live += 1

        def restore(node: _Node) -> _Bundle:
            nonlocal restored
            restored += 1
            # Called through the class, which instrumentation may patch.
            return timed("restore", _Bundle.clone, keys, node.key, node.depth)

        def visit(source: _Node, succ: _Bundle, picks: list) -> None:
            """Key one successor, record its edge and store it if it is new."""
            key = timed("key", succ.canonical)
            known = states.get(key)
            # Edges share the stored key and label sets: on a walk of mostly
            # duplicates, copies of either would fill memory.
            edges.append(_Edge(source.key, key if known is None else known.key, picks,
                               shared(succ.fired)))
            if known is None:
                add_state(succ, key, _Node(key, source.key, picks, source.depth + 1))
            check_budget()

        roots = self._roots()
        keys = roots[0][0].keys  # every root's, and so every state's, key table
        for bundle, init_log in roots:
            key = timed("key", bundle.canonical)
            if key in states:
                continue
            add_state(bundle, key, _Node(key, None, init_log, 0))
            check_budget()

        while head < len(queue):
            frontier_max = max(frontier_max, len(queue) - head)
            node = queue[head]
            head += 1
            # Breadth-first order expands a state once, so its live bundle is
            # dropped now and each successor is keyed as it is made.
            probe, node.bundle = node.bundle, None
            if probe is None:
                probe = restore(node)
            else:
                live -= 1
            _, signature = timed("step", probe.step, None)
            scripts = _variants(signature)
            # Variant n's schedule pick has weight ``stride`` in the odometer
            # order, so n - pick * stride is its schedule-0 sibling, stepped
            # before it.  The orders that run the stages that acted in that
            # step (taken only with the schedule as a choice) in the same
            # relative order end alike: each copies the edge of the first.
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
                    branch = restore(node)
                    picks = timed("step", branch.step, script)[1]
                visit(node, branch, picks)
                if at >= 0 and picks[at] == signature[at]:
                    masks[n] = branch.acting
        elapsed = time.monotonic() - started

        # Properties that never violated anywhere: on an exhaustive finite
        # graph every infinite run keeps satisfying them.  The lasso search
        # then decides each unbounded shape.
        for name, verdict in verdicts.items():
            if verdict == UNDETERMINED:
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
                "restored": restored,
                # Distinct values of each key component over the stored states.
                "distinct_components": keys.sizes(),
            },
        )

    def _trail(self, states: dict, key: bytes, prop: str, kind: str,
               reason: str) -> Counterexample:
        """The tree path to ``key``: its root's choices, then each tick's."""
        node, ticks = states[key], []
        while node.parent is not None:
            ticks.append(node.picks)
            node = states[node.parent]
        return Counterexample(prop, kind, reason, self.config.to_json(), node.picks, ticks[::-1])

    # -- liveness decisions --------------------------------------------------

    def _decide_liveness(self, states, edges, verdicts, counterexamples) -> None:
        """Every unbounded shape is one lasso search: a response over the
        states whose obligation is open, the other shapes over every state;
        plain ``eventually`` from the roots, so only states reached before
        the awaited event count, and the others from every allowed state."""
        if not self.liveness:
            return
        out: dict[bytes, list[_Edge]] = {}
        for edge in edges:
            out.setdefault(edge.src, []).append(edge)
        roots = [key for key, node in states.items() if node.parent is None]

        for name, kind in self.liveness.items():
            allowed = states if kind != "response" else dict.fromkeys(
                key for key, node in states.items() if name in node.open)
            found = self._find_lasso(allowed, out, name,
                                     roots if kind == "eventually" else allowed)
            if found is None:
                continue
            entry, loop_edges = found
            verdicts[name] = VIOLATED
            ce = self._trail(states, entry, name, "liveness",
                             "a reachable cycle never produces the awaited event")
            ce.loop_from = len(ce.ticks)
            ce.ticks += [e.picks for e in loop_edges]
            counterexamples[name] = ce

    @staticmethod
    def _find_lasso(allowed, out, name: str, starts):
        """A cycle over usable edges, those that do not produce the awaited
        event and lead into ``allowed``.  One Tarjan pass from ``starts``, on
        explicit stacks, marks every state of a strongly connected component
        with an inner edge, self-loops included.  The entry is the first
        marked key in the iteration order of ``allowed``, and the cycle the
        first return to it in a breadth-first search from it, out-edges in
        insertion order: a shortest one.  Returns (entry key, [edges around
        the cycle]) or None."""

        def usable(key):
            return (e for e in out.get(key, ()) if name not in e.awaited and e.dst in allowed)

        index: dict = {}  # key -> discovery number
        low: dict = {}  # key -> least discovery number it reaches on the stack
        stack: list = []  # keys whose component is not closed yet
        on_stack: dict = {}  # key -> its position in ``stack``
        work: list = []  # (key, its usable edges not yet taken) down the search path
        cyclic: set = set()

        def enter(key) -> None:
            index[key] = low[key] = len(index)
            on_stack[key] = len(stack)
            stack.append(key)
            work.append((key, usable(key)))

        for start in starts:
            if start in index:
                continue
            enter(start)
            while work:
                key, later = work[-1]
                for edge in later:
                    dst = edge.dst
                    if dst not in index:
                        enter(dst)
                        break
                    if dst in on_stack:
                        low[key] = min(low[key], index[dst])
                        if dst == key:
                            cyclic.add(key)
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[key])
                    if low[key] == index[key]:
                        component = stack[on_stack[key]:]
                        del stack[on_stack[key]:]
                        for member in component:
                            del on_stack[member]
                        if len(component) > 1:
                            cyclic.update(component)

        entry = next((key for key in allowed if key in cyclic), None)
        if entry is None:
            return None
        via: dict = {}  # key -> the usable edge the search first reached it by
        frontier = [entry]
        for key in frontier:
            for edge in usable(key):
                if edge.dst == entry:
                    cycle = [edge]
                    while key != entry:
                        cycle.append(via[key])
                        key = via[key].src
                    return entry, cycle[::-1]
                if edge.dst not in via:
                    via[edge.dst] = edge
                    frontier.append(edge.dst)

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
    data = read_input(path, json.loads)
    if not isinstance(data, dict):
        raise ExplorationError("counterexample file must hold a JSON object")
    for field_name in ("config", "init", "ticks", "prop", "kind"):
        if field_name not in data:
            raise ExplorationError(f"counterexample file lacks {field_name!r}")
    if not (isinstance(data["config"], dict) and isinstance(data["prop"], str)
            and data["kind"] in ("safety", "deadline", "liveness")):
        raise ExplorationError("counterexample needs an object config, a string prop "
                               "and a kind of safety, deadline or liveness")
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
    monitor = bundle.engine.monitors[prop]

    entry = None
    for tick, script in enumerate(data["ticks"]):
        if tick == loop_from:
            entry = bundle.canonical()
            if kind == "liveness" and monitor.kind == "response" and not monitor.open:
                raise ReplayDivergenceError(
                    f"the obligation of {prop} is not open at the loop entry")
        bundle.step(script, strict=True)
        if entry is not None and prop in bundle.fired:
            raise ReplayDivergenceError(
                f"tick {tick} of the loop produces the event {prop} awaits")

    if kind != "liveness":
        if monitor.verdict != VIOLATED:
            raise ReplayDivergenceError(
                f"replay did not reproduce the {kind} violation of {prop}")
        return {"reproduced": True, "prop": prop, "kind": kind,
                "ticks": len(data["ticks"])}

    # Liveness lasso: the state at the loop entry must recur at the end.
    if entry is None or entry != bundle.canonical():
        raise ReplayDivergenceError("replayed loop does not return to its entry state")
    return {"reproduced": True, "prop": prop, "kind": "liveness",
            "ticks": len(data["ticks"]), "loop_from": loop_from}
