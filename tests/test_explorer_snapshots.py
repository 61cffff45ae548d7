"""State keys of the explorer, and the bundles rebuilt from them.

A state's key is the tuple of indices, in ``marshal`` bytes, of the
components of its ``to_state`` view (the world, each server, the host, each
node's inbox, the monitors), each filed once in the walk's key table.  The
view is a tuple read from the live objects, with every goal id renamed by its
rank among its client's live records where it is read.  A stored state is
its key: a state's first successor is stepped on its live bundle while at
most ``_LIVE_LIMIT`` are held, and every other successor on a bundle rebuilt
from its key by the ``from_state`` of each part.  Neither holds a finished
goal: an endpoint forgets a goal once it finishes.  A liveness
counterexample is a lasso that enters at the first state on a cycle in
breadth-first discovery order, by that state's shortest prefix and a
shortest loop through it, so it depends on the walk's order alone, not on
how its bundles were made.  These tests pin down what that must preserve:

* the key is exact: two bundles have equal keys exactly when the reference
  texts of their views are equal.  That is the sorted JSON text of the dict
  view that ``reference_views`` builds from the live objects' attributes,
  apart from ``to_state``, with the renaming ``_renumber_goals`` kept below,
  which renames every goal id wherever it stands.  It is checked on every
  bundle the walks below key, on the default walk of every scenario of
  ``KEYED_SCENARIOS``, which also checks ``distinct_components`` against a
  count of the stored states' components, and on goal ids placed by hand in
  a live model;
* goal ids rank by number, not by text, and no raw goal id reaches the view
  the key files;
* on the default walk of every scenario of ``KEYED_SCENARIOS``, each stored
  state rebuilt from its key is the state the walk stored, and under every
  choice script the walk steps from it, a bundle rebuilt from its key steps
  like the state's own bundle, or a ``copy.deepcopy`` of it: the same choice
  log, liveness labels, violations and successor key.  The copy shares with
  the walk only what never changes once built, so it does not rest on
  ``from_state``;
* every explored step ends on an event stamped with the model's tick, the
  clock at which the riding monitors expire their windows;
* dedupe is sound: bundles reached with the same key have the same
  successor keys;
* a run with no choice sink, keyed in a walk's own table, stays inside the
  explored graph of every scenario of ``KEYED_SCENARIOS``: each of its
  states is a state of the walk and each step an edge, and a run outside
  the walk's choice sets leaves it;
* every step's liveness labels are the naive semantics': each unbounded
  shape's ``fired`` flag says whether its goal held at one of the step's
  events, a response's ``open`` bit is folded from its trigger and goal
  from the root on, and ``revisits_B``, keyed on belief events, is handed
  only those and a root's first event;
* stepping first successors on live bundles changes no output byte, and no
  walk holds more live bundles than the limit or any once it ends;
* with schedule permutations, counting every order that runs the stages
  acting in the schedule-0 step in the same relative order as an earlier
  order as a copy of it, with no step, changes no output byte and no stored
  edge, all orders of such a class end alike, and ``schedule_invariant``
  still fails for a stage whose output depends on the order;
* each of those output comparisons covers a lasso: ``decay-0``, whose hot
  stop never cools, violates ``revisits_B`` with and without schedule
  permutations.

Each scenario is walked once, by a breadth-first walk that mirrors
``Explorer.explore`` with every successor stepped on a deep copy of its
source's bundle, and visits every root and successor, duplicates included;
its state and transition counts must match the explorer's.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from importlib.resources import files

import pytest

from roverbench import explorer
from roverbench.action_protocol import ACTIVE, PENDING, GoalRecord, ServerBase
from roverbench.agent import move_to, posture_cmd
from roverbench.config import make_config
from roverbench.explorer import (
    Explorer,
    _Bundle,
    _variants,
    explore_properties,
    write_counterexample,
)
from roverbench.messages import EFFECTORS, NODE_ENV_INTERFACE, Message, client_node, server_node
from roverbench.monitor import MonitorEngine
from roverbench.prop_dsl import And, Eventually, Implies, Not, Or, parse_suite
from roverbench.simulator import ALL_STAGES, SAME_ORDER, Model
from roverbench.tracing import EventTracer

from mutants import mutant_demo_config, mutant_names
from naive_semantics import atom_holds, fold_belief
from recorded import recorded
from reference_views import model_view, monitor_view
from test_explorer import EVENTUALLY_B, RESPONSE_A_A

SUITE = parse_suite((files("roverbench") / "data" / "default.props").read_text())


# -- reference canonical key -------------------------------------------------

_GOAL_ID_NODES = ("wheelsClient", "armClient", "mastClient")


def _collect_goal_ids(value, found: set) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _collect_goal_ids(k, found)
            _collect_goal_ids(v, found)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _collect_goal_ids(v, found)
    elif isinstance(value, str):
        node, _, num = value.partition(":")
        if node in _GOAL_ID_NODES and num.isdigit():
            found.add(value)


def _renumber_goals(state: dict):
    """Replace live goal ids with rank-based names so that states differing
    only in how many goals came before compare equal."""
    ids: set[str] = set()
    _collect_goal_ids(state, ids)
    by_node: dict[str, list[int]] = {}
    for gid in ids:
        node, _, num = gid.partition(":")
        by_node.setdefault(node, []).append(int(num))
    mapping = {}
    for node, nums in by_node.items():
        for rank, num in enumerate(sorted(nums)):
            mapping[f"{node}:{num}"] = f"{node}#{rank}"

    def swap(value):
        if isinstance(value, dict):
            return {swap(k): swap(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [swap(v) for v in value]
        if isinstance(value, str):
            return mapping.get(value, value)
        return value

    return swap(state)


def reference_key(raw: dict) -> str:
    return json.dumps(_renumber_goals(raw), sort_keys=True, separators=(",", ":"))


def raw_state(bundle: _Bundle) -> dict:
    """The view a key stands for, from scratch: the reference views of the
    model and its riding monitors, with every inbox's entries in the order
    of their sorted JSON text."""
    now = bundle.model.tick
    model = model_view(bundle.model)
    for entries in model["inboxes"].values():
        entries.sort(key=lambda entry: json.dumps(entry, sort_keys=True))
    return {
        "model": model,
        "monitors": {n: monitor_view(m, now) for n, m in sorted(bundle.engine.monitors.items())},
    }


def goal_id_keys(value) -> set:
    """Goal ids used as dict keys anywhere in ``value``."""
    found: set = set()
    if isinstance(value, dict):
        for k, v in value.items():
            _collect_goal_ids(k, found)
            found |= goal_id_keys(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            found |= goal_id_keys(v)
    return found


def raw_goal_ids(bundle: _Bundle) -> set:
    """Goal ids, as the model holds them, in the view its key files."""
    found: set = set()
    _collect_goal_ids(bundle.model.to_state(), found)
    return found


def goals_bundle(places: dict, number=lambda node, num: num, keys=None) -> _Bundle:
    """A default root bundle holding goal ids where the model puts them:
    ``live`` numbers per effector, each a client record; ``active``, the
    server that runs a goal (effector, number) of a client; ``queued``, inbox
    messages (node, topic, sender, (effector, number), payload rest).
    ``number`` renames each number; a record's progress and request follow
    its place in ``live``, so renaming numbers out of order changes the view.
    Keyed in ``keys`` if given."""
    bundle, _ = Explorer(make_config(), SUITE)._build_bundle(None, keys=keys)
    model = bundle.model

    def gid(effector: str, num: int) -> str:
        return f"{client_node(effector)}:{number(effector, num)}"

    for effector, nums in places.get("live", {}).items():
        client = model.clients[effector]
        for place, num in sorted(enumerate(nums), key=lambda pair: number(effector, pair[1])):
            action = (move_to(["A", "B", "C"][place % 3]) if effector == "wheels"
                      else posture_cmd(effector, ["open", "close"][place % 2]))
            client.records[gid(effector, num)] = GoalRecord(
                gid(effector, num), action.request(), PENDING, progress=place / 4)
    for effector, (owner, num) in places.get("active", {}).items():
        server = model.servers[effector]
        record = model.clients[owner].records[gid(owner, num)]
        server.active = GoalRecord(record.goal_id, dict(record.request), ACTIVE,
                                   target=server.node)
        server.work_done, server.duration = 1, 3
    for seq, (node, topic, sender, (owner, num), rest) in enumerate(places.get("queued", ())):
        model.bus.inboxes[node].append(
            Message(1000 + seq, sender, topic, {"goal_id": gid(owner, num), **rest}))
    return bundle


def by_rank(places: dict):
    """The renaming of each number to its rank among its effector's."""
    nums = {e: sorted(ns) for e, ns in places.get("live", {}).items()}
    return lambda effector, num: nums[effector].index(num)


def reversed_numbers(places: dict):
    """The renaming that reverses the order of each effector's numbers."""
    nums = {e: sorted(ns) for e, ns in places.get("live", {}).items()}
    return lambda effector, num: nums[effector][0] + nums[effector][-1] - num


class TestRankGoalIds:
    """Goal ids placed by hand in a live model, keyed against the reference."""

    @pytest.mark.parametrize("raw", [
        {},
        {"live": {"wheels": [9, 10], "arm": [4]}},
        {"live": {"mast": [7], "wheels": [3]}, "active": {"mast": ("mast", 7)}},
        # A queued result for the older of two live goals, and feedback for
        # the newer one.
        {"live": {"wheels": [11, 12]},
         "queued": [("wheelsClient", "/wheels/feedback", "wheelsServer", ("wheels", 12),
                     {"progress": 0.5}),
                    ("wheelsClient", "/wheels/result", "wheelsServer", ("wheels", 11),
                     {"status": "Succeeded"})]},
        {"live": {"arm": [2], "mast": [0, 1]},
         "queued": [("armServer", "/arm/goal", "armClient", ("arm", 2), {"cmd": "open"}),
                    ("mastServer", "/mast/goal", "mastClient", ("mast", 1), {"cmd": "close"})]},
        # Ranks follow the number, not the text: 99 comes before 100.
        {"live": {"arm": [99, 100]}, "active": {"arm": ("arm", 100)}},
    ])
    def test_matches_reference(self, raw):
        """Renaming every number to its rank, or shifting them all, keeps
        the key and the reference text; reversing each effector's numbers
        changes the key exactly when it changes the reference text."""
        placed = goals_bundle(raw)
        keys = placed.keys
        assert raw_goal_ids(placed) == set()
        variants = [goals_bundle(raw, by_rank(raw), keys),
                    goals_bundle(raw, lambda effector, num: num + 1000, keys)]
        for variant in variants:
            assert variant.canonical() == placed.canonical()
            assert reference_key(raw_state(variant)) == reference_key(raw_state(placed))
        flipped = goals_bundle(raw, reversed_numbers(raw), keys)
        same_text = reference_key(raw_state(flipped)) == reference_key(raw_state(placed))
        assert (flipped.canonical() == placed.canonical()) == same_text
        if any(len(nums) > 1 for nums in raw.get("live", {}).values()):
            assert not same_text

    def test_ranked_by_number_not_text(self):
        """A client holding live goals ``:9`` and ``:10`` keys like one
        holding ``:1`` and ``:2``: by text, ``:10`` would come first."""
        nine_ten = goals_bundle({"live": {"wheels": [9, 10]}})
        one_two = goals_bundle({"live": {"wheels": [1, 2]}}, keys=nine_ten.keys)
        assert nine_ten.canonical() == one_two.canonical()
        assert list(nine_ten.model.clients["wheels"].records) == [
            "wheelsClient:9", "wheelsClient:10"]


# -- one instrumented walk per scenario --------------------------------------

SCENARIOS = {
    "default": lambda: make_config(),
    "schedule": lambda: make_config({"schedule_sensitivity": True}),
    **{f"mutant-{name}": (lambda n=name: mutant_demo_config(n)) for name in mutant_names()},
}

# (states, transitions) of each scenario's exploration.
EXPLORED = {
    "default": (133, 136),
    "schedule": (133, 3264),
    "mutant-env-blind": (221, 225),
    "mutant-misroute-bus": (40, 41),
    "mutant-no-stop-wheels": (133, 136),
    "mutant-premature-action": (22, 22),
}

# The instrumented walks' suite: the packaged one, whose one unbounded shape
# is the recurrence ``revisits_B``, plus an unbounded ``eventually`` and an
# unbounded response, neither of which splits a state of these scenarios.
WALK_SUITE = {**SUITE, "eventually_B": EVENTUALLY_B, "response_A_A": RESPONSE_A_A}


def awaited(ast) -> tuple:
    """(goal, trigger) of ``eventually(G)``, ``always(eventually(G))`` or
    ``always(T => eventually(G))``; the trigger is None but for a response."""
    if isinstance(ast, Eventually):
        return ast.sub, None
    if isinstance(ast.sub, Implies):
        return ast.sub.right.sub, ast.sub.left
    return ast.sub.sub, None


UNBOUNDED = {name: awaited(WALK_SUITE[name])
             for name in ("revisits_B", "eventually_B", "response_A_A")}


def holds(node, event: dict, state: frozenset) -> bool:
    """An event predicate at one event, its atoms decided by the naive
    ``atom_holds``."""
    if isinstance(node, Not):
        return not holds(node.sub, event, state)
    if isinstance(node, And):
        return holds(node.left, event, state) and holds(node.right, event, state)
    if isinstance(node, Or):
        return holds(node.left, event, state) or holds(node.right, event, state)
    if isinstance(node, Implies):
        return not holds(node.left, event, state) or holds(node.right, event, state)
    return atom_holds(node, event, state)


def reference_labels(events: list[dict], beliefs: frozenset, opened: frozenset,
                     first: bool) -> tuple:
    """One step's liveness labels by the naive semantics, from the belief
    base and the open responses before it: (names whose goal held at some
    event, belief base and open responses after it, events a monitor keyed
    on belief events is handed: each belief event, and the first event of a
    root)."""
    current, opened, fired = set(beliefs), set(opened), set()
    handed = 0
    for i, event in enumerate(events):
        fold_belief(current, event)
        state = frozenset(current)
        handed += first and i == 0 or event["kind"] == "belief"
        for name, (goal, trigger) in UNBOUNDED.items():
            if holds(goal, event, state):
                fired.add(name)
                opened.discard(name)
            elif trigger is not None and holds(trigger, event, state):
                opened.add(name)
    return frozenset(fired), (frozenset(current), frozenset(opened)), handed


# Same-key bundles whose successors are compared with the stored state's:
# every duplicate, except on the schedule scenario, where each state is
# reached ~24 times and only the last duplicate of each key is compared.
LAST_DUPLICATE_ONLY = {"schedule"}


def detached(bundle: _Bundle) -> _Bundle:
    """A ``copy.deepcopy`` of a bundle that shares with it only what the
    bundles of one walk share: the config, the key table and the dispatch
    index, and the bus topology and plan rules, which never change once
    built.  It is made without ``from_state``, so a bundle rebuilt from a key
    can be checked against it."""
    model = bundle.model
    shared = (model.config, bundle.keys, bundle.engine.index, model.bus.topology,
              model.host.agent.plans)
    copied = copy.deepcopy(bundle, {id(obj): obj for obj in shared})
    # The tracer's memo of what each kind is handed to holds functions,
    # which ``deepcopy`` shares; rebuilt, it calls the copy's observers.
    copied.model.tracer._calls = {}
    return copied


def successor_keys(stored: _Bundle) -> set:
    probe = detached(stored)
    signature = probe.step(None)
    keys = {probe.canonical()}
    for script in _variants(signature)[1:]:
        branch = detached(stored)
        branch.step(script)
        keys.add(branch.canonical())
    return keys


def step_outcome(bundle: _Bundle, script, step=_Bundle.step, canonical=_Bundle.canonical):
    """What a step must repeat on a bundle rebuilt from a key: its choice
    log, liveness labels, violations and successor key.  Its events may
    differ in message seqs, goal numbers and the order of a node's
    same-tick deliveries, none of which is state.  The step and the key are
    taken by the methods as defined, which a walk's instrumentation may
    patch."""
    log = step(bundle, script)
    return log, bundle.fired, [name for name, _ in bundle.violations()], canonical(bundle)


def finished_goals(bundle: _Bundle) -> int:
    records = [r for c in bundle.model.clients.values() for r in c.records.values()]
    records += [s.active for s in bundle.model.servers.values() if s.active is not None]
    return sum(r.status not in (PENDING, ACTIVE) for r in records)


def rebuild_problems(bundle: _Bundle, key: bytes, pick: int) -> list[str]:
    """Round-trip check of one stored state, whose Violated monitors are
    dropped: the bundle rebuilt from its key has that key, and one step of
    it, under the ``pick``-th choice script (wrapped), repeats that of the
    live bundle itself."""
    problems = []
    tick = bundle.model.tick
    rebuilt = _Bundle.clone(bundle.keys, key, tick)
    if finished_goals(rebuilt):
        problems.append(f"rebuilt bundle holds finished goals at tick {tick}")
    if rebuilt.canonical() != bundle.canonical():
        problems.append(f"rebuilt key differs at tick {tick}")
    signature = _Bundle.clone(bundle.keys, key, tick).step(None)
    scripts = _variants(signature)
    script = scripts[pick % len(scripts)]
    if step_outcome(rebuilt, script) != step_outcome(bundle, script):
        problems.append(f"step({script}) differs from the live bundle at tick {tick}")
    return problems


# The stage order of each schedule pick, as ``Model.step_tick`` numbers them.
ORDERS = list(itertools.permutations(range(4)))


def order_dependence(steps: list) -> tuple[int, list]:
    """One state's steps, as (script, log, acting stages mask, fired,
    successor key), grouped by their picks other than the schedule's.  In
    each group, the orders that run the stages that acted in the group's
    schedule-0 step in the same relative order must give the same successor
    key, the same fired set and the same choice log up to the schedule pick.
    Returns (groups checked, problems)."""
    at = next((i for i, (k, _, _) in enumerate(steps[0][0]) if k == ["schedule"]), None)
    if at is None:
        return 0, []
    groups: dict[str, list] = {}
    for script, log, acting, fired, key in steps:
        outcome = (repr(log[:at] + log[at + 1:]), frozenset(fired), key)
        groups.setdefault(repr(script[:at] + script[at + 1:]), []).append(
            (script[at][2], acting, log[at] == script[at], outcome))
    checked, problems = 0, []
    for rest, group in groups.items():
        mask = next(acting for pick, acting, _, _ in group if pick == 0)
        classes: dict[tuple, set] = {}
        for pick, _, _, outcome in group:
            order = tuple(i for i in ORDERS[pick] if mask >> i & 1)
            classes.setdefault(order, set()).add(outcome)
        checked += 1
        if (len(group) != 24 or not all(logged for _, _, logged, _ in group)
                or any(len(outcomes) != 1 for outcomes in classes.values())):
            problems.append(rest)
    return checked, problems


def instrumented_walk(config, last_duplicate_only: bool) -> dict:
    found = {"states": 0, "transitions": 0, "canonical_calls": 0, "merged": [],
             "split": [], "goal_id_keys": set(), "raw_ids": set(), "restore": [],
             "unsound": [], "compared": 0, "same_order_groups": 0,
             "order_dependent": [], "clock_split": [], "labels": [], "handed": []}
    texts: dict[bytes, str] = {}  # key -> sorted text of every bundle with it
    keys: dict[str, bytes] = {}  # sorted text -> key of every bundle with it
    stored: dict[bytes, _Bundle] = {}  # the frontier's bundles, detached
    successors: dict[bytes, set] = {}  # stored key -> its successor keys
    duplicates: dict[bytes, list[_Bundle]] = {}
    queue: list[bytes] = []
    # key -> the belief base and open responses the naive semantics folds
    # along the walk to it: the same along every path, since both are state.
    folded: dict[bytes, tuple] = {}
    roots: set[bytes] = set()
    # The events of the step in progress.  Every walked bundle is a copy of
    # a root, whose tracer appends to this list: ``detached`` copies the
    # recorder, the list's own ``append``, as it is.
    emitted: list[dict] = []

    def reach(bundle: _Bundle, after: tuple = (frozenset(), frozenset())) -> bytes:
        raw = raw_state(bundle)
        key = bundle.canonical()
        found["canonical_calls"] += 1
        text = reference_key(raw)
        if texts.setdefault(key, text) != text:
            found["merged"].append(text)
        if keys.setdefault(text, key) != key:
            found["split"].append(text)
        if folded.setdefault(key, after) != after:
            found["labels"].append(("folded", text))
        found["goal_id_keys"] |= goal_id_keys(raw)
        found["raw_ids"] |= raw_goal_ids(bundle)
        # Violated monitors leave a stored state, as in the explorer.
        for name, _monitor in bundle.violations():
            del bundle.engine.monitors[name]
        if key not in successors:
            successors[key] = set()
            stored[key] = detached(bundle)
            queue.append(key)
            found["restore"] += rebuild_problems(bundle, key, len(queue))
        elif last_duplicate_only:
            duplicates[key] = [bundle]
        else:
            duplicates.setdefault(key, []).append(bundle)
        return key

    def stepped(bundle: _Bundle, script, source: bytes) -> tuple[list, tuple]:
        """Step a bundle of the state ``source``; returns its choice log and
        the naive semantics' belief base and open responses after it."""
        index = bundle.engine.index
        before = index.handed()["revisits_B"]
        emitted.clear()
        log = bundle.step(script)
        # Verdicts are the engine's output, which no monitor observes.
        events = [event for event in emitted if event["kind"] != "verdict"]
        # The monitors expire windows at the last model event's ``t``, the
        # key counts deadlines from ``model.tick``: the two must agree.
        if not events or events[-1]["t"] != bundle.model.tick:
            found["clock_split"].append(bundle.model.tick)
        fired, after, handed = reference_labels(events, *folded[source], source in roots)
        monitors = bundle.engine.monitors
        if (bundle.fired != fired
                or {n for n in UNBOUNDED if monitors[n].fired} != fired
                or {n for n in UNBOUNDED if monitors[n].open} != after[1]):
            found["labels"].append((bundle.model.tick, script))
        if index.handed()["revisits_B"] - before != handed:
            found["handed"].append((bundle.model.tick, script))
        return log, after

    for bundle, _log in Explorer(config, WALK_SUITE)._roots():
        recorded(bundle.model.tracer, emitted)
        roots.add(reach(bundle))
    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        # Freed once expanded, and each successor keyed as it is made, as in
        # the explorer.
        source = stored.pop(key)
        probe = detached(source)
        signature, after = stepped(probe, None, key)
        steps = [(signature, signature, probe.acting, probe.fired, reach(probe, after))]
        for script in _variants(signature)[1:]:
            branch = detached(source)
            log, after = stepped(branch, script, key)
            steps.append((script, log, branch.acting, branch.fired, reach(branch, after)))
        successors[key].update(step[-1] for step in steps)
        checked, problems = order_dependence(steps)
        found["same_order_groups"] += checked
        found["order_dependent"] += problems
        found["transitions"] += len(steps)
    found["states"] = len(successors)
    for key, bundles in duplicates.items():
        for bundle in bundles:
            found["compared"] += 1
            if successor_keys(bundle) != successors[key]:
                found["unsound"].append(key)
    return found


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def walked(request):
    config = SCENARIOS[request.param]()
    return request.param, instrumented_walk(config, request.param in LAST_DUPLICATE_ONLY)


class TestSnapshotWalk:
    def test_walk_matches_explorer(self, walked):
        name, found = walked
        assert (found["states"], found["transitions"]) == EXPLORED[name]

    def test_canonical_matches_reference(self, walked):
        name, found = walked
        assert found["canonical_calls"] > EXPLORED[name][1]

    def test_key_equal_exactly_when_text_equal(self, walked):
        assert walked[1]["merged"] == []
        assert walked[1]["split"] == []

    def test_no_goal_id_dict_keys(self, walked):
        """No reference view keys a dict by a goal id, and the view the key
        files holds none as the model holds it: each is renamed where it is
        read."""
        assert walked[1]["goal_id_keys"] == set()
        assert walked[1]["raw_ids"] == set()

    def test_restore_round_trip_and_step(self, walked):
        assert walked[1]["restore"] == []

    def test_last_event_at_model_tick(self, walked):
        assert walked[1]["clock_split"] == []

    def test_liveness_labels_match_naive_semantics(self, walked):
        """Edge labels and response bits against the naive semantics, and
        ``revisits_B`` handed only what its goal can match."""
        assert walked[1]["labels"] == []
        assert walked[1]["handed"] == []

    def test_single_actor_orders_agree(self, walked):
        """The independence the explorer's reduction rests on, checked on
        every order the walk steps: orders that run the acting stages in the
        same relative order agree, in every group of orders."""
        name, found = walked
        assert found["order_dependent"] == []
        if name == "schedule":
            assert found["same_order_groups"] == 136

    def test_same_key_same_successors(self, walked):
        name, found = walked
        assert found["unsound"] == []
        if name in ("default", "schedule"):
            assert found["compared"] > 0


class TestLiveHistory:
    """Along one long path, a bundle rebuilt from each tick's key steps
    like the live bundle, and neither holds a finished goal."""

    @pytest.mark.parametrize("scenario", ["default", "schedule"])
    def test_restored_steps_like_live(self, scenario):
        live, _log = Explorer(SCENARIOS[scenario](), SUITE)._roots()[0]
        for tick in range(150):
            key = live.canonical()
            rebuilt = _Bundle.clone(live.keys, key, tick)
            assert finished_goals(rebuilt) == finished_goals(live) == 0
            signature = _Bundle.clone(live.keys, key, tick).step(None)
            scripts = _variants(signature)
            script = scripts[tick * 7 % len(scripts)]
            assert step_outcome(rebuilt, script) == step_outcome(live, script), tick
        assert finished_goals(live) == 0


# -- live first successors ---------------------------------------------------

def long_decay_config():
    """B radiated at its level cap and cooling one level a tick: a long chain
    of mostly new states, widest at 14 states per depth."""
    return make_config({
        "wind": {"o": 0, "A": 7, "B": 0, "C": 0},
        "wind_choices": {"o": [0], "A": [0, 7], "B": [0], "C": [0]},
        "radiation": {"o": 0, "A": 0, "B": 200, "C": 0},
        "radiation_choices": {"o": [0], "A": [0], "B": [200], "C": [0]},
        "level_cap": 200,
    })


def three_winds_config():
    """Three wind draws on arrival at A: a step that follows a one-way step
    branches three ways, so a state that kept its live bundle still steps
    two scripts on bundles rebuilt from its key."""
    return make_config({"wind_choices": {"o": [0], "A": [0, 3, 7], "B": [0], "C": [0]}})


LIVE_SCENARIOS = {**SCENARIOS, "long-decay": long_decay_config,
                  "three-winds": three_winds_config,
                  # A hot stop that never cools: ``revisits_B`` fails with a lasso.
                  "decay-0": lambda: make_config({"decay_rate": 0})}


def holds_counterexamples(scenario: str, files: dict) -> bool:
    """Whether a walk's counterexample files are those its scenario must
    compare: some for a mutant, a lasso for ``revisits_B`` at decay-0."""
    if scenario == "decay-0":
        return b'"loop_from"' in files.get("revisits_B", b"")
    return bool(files) or not scenario.startswith("mutant-")


def walk_output(config, directory) -> tuple[str, dict, list]:
    """A walk's JSON without ``stats``, its counterexample files' bytes and
    its stored edges, each state's in the order made."""
    edges = []
    decide = Explorer._decide_liveness

    def record(self, states, out, *rest):
        edges.extend((e.src, e.dst, e.picks, e.awaited) for made in out.values() for e in made)
        return decide(self, states, out, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Explorer, "_decide_liveness", record)
        report = explore_properties(config, SUITE)
    doc = report.to_json()
    doc.pop("stats")
    files = {}
    for prop, ce in report.counterexamples.items():
        directory.mkdir(exist_ok=True)
        path = directory / f"{prop}.json"
        write_counterexample(ce, str(path))
        files[prop] = path.read_bytes()
    return json.dumps(doc, indent=2, sort_keys=True), files, edges


def components(bundle: _Bundle) -> dict:
    """The key components of a bundle's view, from scratch: each part of
    the renamed view as sorted JSON text, an inbox as its entries' texts,
    sorted, for every node of the bus."""
    view = _renumber_goals(raw_state(bundle))
    model, text = view["model"], lambda value: json.dumps(value, sort_keys=True)
    found = {"world": text(model["world"])}
    found.update((f"servers.{e}", text(server)) for e, server in model["servers"].items())
    found["host"] = text(model["host"])
    found.update((f"inboxes.{node}", tuple(sorted(map(text, model["inboxes"].get(node, [])))))
                 for node in sorted(bundle.model.bus.inboxes))
    found["monitors"] = text(view["monitors"])
    return found


def keyed_walk(config, directory) -> dict:
    """``walk_output`` of a walk that also builds the view of every bundle
    it keys from scratch.  Every bundle must be keyed in one table, keys
    must be equal exactly when the reference texts of their views are, and
    ``distinct_components`` must count each component's distinct values
    over the stored states.  Each stored state is also rebuilt from its key,
    which must give the state's bundle as the walk stores it, and for each
    choice script the walk steps from the state, a bundle rebuilt from its
    key must step like that bundle, or a ``detached`` copy of it once it has
    stepped.  Both comparisons
    key their bundles in a table apart from the walk's, so the walk's table
    files only what the walk keys."""
    canonical, explore, clone, step = (_Bundle.canonical, Explorer.explore, _Bundle.clone,
                                       _Bundle.step)
    texts: dict[bytes, str] = {}  # key -> reference text of every bundle with it
    keys: dict[str, bytes] = {}  # reference text -> key of every bundle with it
    stored: dict[bytes, dict] = {}  # key -> components of its first bundle
    # key -> a detached copy of the state's bundle as the walk stores it,
    # until the walk expands a later state
    copies: dict[bytes, _Bundle] = {}
    apart: list = []  # the key table the comparisons key in
    found = {"keyed": 0, "merged": [], "split": [], "tables": set(), "reports": [],
             "rebuilt": 0, "rekeyed": [], "stepped": 0, "unlike": []}

    def key_apart(bundle: _Bundle) -> bytes:
        bundle.keys = apart[0]
        return canonical(bundle)

    def checked(self):
        key = canonical(self)
        text = reference_key(raw_state(self))
        found["keyed"] += 1
        found["tables"].add(self.keys)
        if texts.setdefault(key, text) != text:
            found["merged"].append(text)
        if keys.setdefault(text, key) != key:
            found["split"].append(text)
        if key not in stored:
            stored[key] = components(self)
            apart[:] = apart or [explorer._KeyTable(self.model, self.engine)]  # made once
            # Stored as the walk stores it, with its Violated monitors dropped.
            copies[key] = stored_copy = detached(self)
            for name, _monitor in stored_copy.violations():
                del stored_copy.engine.monitors[name]
            rebuilt = clone(self.keys, key, self.model.tick)
            found["rebuilt"] += 1
            if (not self.violations() and canonical(rebuilt) != key
                    or key_apart(rebuilt) != key_apart(stored_copy)):
                found["rekeyed"].append(text)
            self.stepped_from = key, True
        return key

    def cloned(keys, key, tick):
        bundle = clone(keys, key, tick)
        bundle.stepped_from = key, False
        return bundle

    def compared(self, script, strict=False):
        key, live = self.__dict__.pop("stepped_from", (None, False))
        if key is None:
            return step(self, script, strict)
        while next(iter(copies)) != key:  # states expanded before this one
            del copies[next(iter(copies))]
        rebuilt = clone(self.keys, key, self.model.tick)
        rebuilt.keys = apart[0]
        found["stepped"] += 1
        expected = step_outcome(rebuilt, script)
        if live:  # the state's own bundle steps in the walk: compare it, keyed apart
            result = step(self, script, strict)
            keys, self.keys = self.keys, apart[0]
            outcome = result, self.fired, [name for name, _ in self.violations()], canonical(self)
            self.keys = keys
        else:
            like = detached(copies[key])
            like.keys = apart[0]
            result, outcome = step(self, script, strict), step_outcome(like, script)
        if outcome != expected:
            found["unlike"].append((self.model.tick, script))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Bundle, "canonical", checked)
        patch.setattr(_Bundle, "clone", cloned)
        patch.setattr(_Bundle, "step", compared)
        patch.setattr(Explorer, "explore",
                      lambda self: found["reports"].append(explore(self)) or found["reports"][-1])
        found["output"] = walk_output(config, directory)
    (report,) = found.pop("reports")
    found["states"] = set(stored)
    found["steps"] = report.transitions - report.stats["unstepped_transitions"]
    found["distinct_components"] = report.stats["distinct_components"]
    found["from_scratch"] = {name: len({parts[name] for parts in stored.values()})
                             for name in next(iter(stored.values()))}
    return found


@pytest.fixture(scope="module")
def default_walks(tmp_path_factory):
    """``keyed_walk`` of a config at the default settings, made once per
    module: the tests that compare a walk at other settings with it share
    it, and ``TestKeyTables`` reads its key checks."""
    made: dict[str, dict] = {}

    def walk(config) -> dict:
        name = json.dumps(config.to_json(), sort_keys=True)
        if name not in made:
            made[name] = keyed_walk(config, tmp_path_factory.mktemp("walk"))
        return made[name]
    return walk


class TestLiveFirstSuccessor:
    @pytest.mark.parametrize("scenario", sorted(LIVE_SCENARIOS))
    def test_same_bytes_without_live_bundles(self, scenario, default_walks, monkeypatch,
                                             tmp_path):
        config = LIVE_SCENARIOS[scenario]()
        live = default_walks(config)["output"]
        monkeypatch.setattr(explorer, "_LIVE_LIMIT", 0)
        restored = walk_output(config, tmp_path / "restored")
        assert live == restored
        assert holds_counterexamples(scenario, live[1])

    @pytest.mark.parametrize("limit", [2, explorer._LIVE_LIMIT])
    def test_never_more_live_bundles_than_the_limit(self, limit, monkeypatch):
        held: set[int] = set()  # ids of the nodes holding a live bundle
        peak = [0]
        finished = []  # finished goals of each live bundle as it is kept

        class CountingNode(explorer._Node):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "bundle":
                    (held.discard if value is None else held.add)(id(self))
                    peak[0] = max(peak[0], len(held))
                    if value is not None:
                        finished.append(finished_goals(value))

        monkeypatch.setattr(explorer, "_Node", CountingNode)
        monkeypatch.setattr(explorer, "_LIVE_LIMIT", limit)
        report = explore_properties(long_decay_config(), SUITE)
        assert report.complete and report.stats["frontier_max"] == 14
        assert peak[0] == min(limit, 14)
        assert held == set()
        assert finished and not any(finished)
        if limit >= 14:  # the whole frontier fits: every state kept its bundle
            assert len(finished) == report.states


# -- schedule orders stepped once --------------------------------------------

SCHEDULE = {"schedule_sensitivity": True}

REDUCTION_SCENARIOS = {
    "schedule": lambda: make_config(SCHEDULE),
    **{f"mutant-{name}": (lambda n=name: mutant_demo_config(n, SCHEDULE))
       for name in mutant_names()},
    # The mast server also gets the arm's goals, and each of its results is
    # a choice taken after the schedule pick.
    "mast-faults": lambda: make_config(
        {**SCHEDULE, "mutant": "misroute-bus", "fault_exploration": {"mast": True}}),
    # Two stages whose results are choices taken after the schedule pick, in
    # the order the schedule runs them.
    "arm-mast-faults": lambda: make_config(
        {**SCHEDULE, "fault_exploration": {"arm": True, "mast": True}}),
    "decay-0": lambda: make_config({**SCHEDULE, "decay_rate": 0}),
}


def reduction_off(monkeypatch) -> None:
    """Every step reports every stage as acting, so every order is stepped."""
    step_tick = Model.step_tick
    monkeypatch.setattr(Model, "step_tick",
                        lambda self, sink=None: step_tick(self, sink) | ALL_STAGES)


class TestScheduleReduction:
    def test_first_order_with_the_same_relative_order(self):
        """``SAME_ORDER[mask][s]`` is the first schedule that runs the stages
        in ``mask`` in the order schedule ``s`` runs them, so a mask of k
        stages leaves k! schedules that are stepped."""
        def relative(mask, s):
            return [i for i in ORDERS[s] if mask >> i & 1]

        for mask, firsts in enumerate(SAME_ORDER):
            assert len(firsts) == len(ORDERS)
            for s, first in enumerate(firsts):
                assert relative(mask, first) == relative(mask, s)
                assert all(relative(mask, t) != relative(mask, s) for t in range(first))
            assert len(set(firsts)) == math.factorial(bin(mask).count("1"))

    @pytest.mark.parametrize("scenario", sorted(REDUCTION_SCENARIOS))
    def test_same_bytes_with_every_order_stepped(self, scenario, default_walks, monkeypatch,
                                                 tmp_path):
        config = REDUCTION_SCENARIOS[scenario]()
        reduced = default_walks(config)["output"]
        reduction_off(monkeypatch)
        stepped = walk_output(config, tmp_path / "stepped")
        assert reduced == stepped
        assert json.loads(reduced[0])["schedule_invariant"] is True
        assert holds_counterexamples(scenario, reduced[1])


# Every scenario whose default walk ``TestKeyTables`` checks.
KEYED_SCENARIOS = {**{f"live-{name}": make for name, make in LIVE_SCENARIOS.items()},
                   **{f"reduction-{name}": make for name, make in REDUCTION_SCENARIOS.items()}}


class TestKeyTables:
    """The collapsed key against the view built from scratch, on every
    bundle the default walk of each scenario keys."""

    @pytest.mark.parametrize("scenario", sorted(KEYED_SCENARIOS))
    def test_key_equal_exactly_when_view_equal(self, scenario, default_walks):
        walk = default_walks(KEYED_SCENARIOS[scenario]())
        assert walk["keyed"] > 0
        assert walk["merged"] == []
        assert walk["split"] == []
        assert len(walk["tables"]) == 1

    @pytest.mark.parametrize("scenario", sorted(KEYED_SCENARIOS))
    def test_rebuilt_from_the_key_is_the_stored_state(self, scenario, default_walks):
        walk = default_walks(KEYED_SCENARIOS[scenario]())
        assert walk["rebuilt"] == len(walk["states"]) > 0
        assert walk["rekeyed"] == []

    @pytest.mark.parametrize("scenario", sorted(KEYED_SCENARIOS))
    def test_rebuilt_steps_like_a_copy_of_the_state(self, scenario, default_walks):
        """Under every choice script the walk steps, including every script
        of every state without schedule permutations."""
        walk = default_walks(KEYED_SCENARIOS[scenario]())
        assert walk["stepped"] == walk["steps"] >= len(walk["states"])
        assert walk["unlike"] == []

    @pytest.mark.parametrize("scenario", ["default", "long-decay"])
    def test_distinct_components_count_the_stored_states(self, scenario, default_walks):
        walk = default_walks(LIVE_SCENARIOS[scenario]())
        assert walk["distinct_components"] == walk["from_scratch"]
        assert walk["from_scratch"]["inboxes.agent"] == 1  # no topic reaches the agent node


# -- simulated runs inside the explored graph --------------------------------

def simulated_keys(config, keys, ticks: int = 600) -> list[bytes]:
    """Each tick's key, in a walk's key table ``keys``, of a run of
    ``config`` with no choice sink, as ``simulate`` runs it.  A key is taken
    before the Violated monitors are dropped, as the walk takes it."""
    model = Model(config, EventTracer())
    bundle = _Bundle(model, MonitorEngine(Explorer(config, SUITE)._monitors()), keys)
    engine = bundle.engine  # attached to the model's tracer, as in ``simulate``
    found = [bundle.canonical()]
    for _ in range(ticks):
        for name, _monitor in bundle.violations():
            del engine.monitors[name]
        model.step_tick()
        engine.on_tick(model.tick)
        found.append(bundle.canonical())
    return found


def first_outside(walk: dict, keys: list[bytes]) -> int | None:
    """The tick at which a run's keys leave a walk's graph, at a key that is
    no state of the walk or a step that is no edge; None if they never do."""
    edges = {(src, dst) for src, dst, _picks, _awaited in walk["output"][2]}
    for tick, key in enumerate(keys):
        if key not in walk["states"] or tick and (keys[tick - 1], key) not in edges:
            return tick
    return None


class TestSimulatedRunsInsideTheGraph:
    """A run with no choice sink, keyed in the table of its config's walk:
    the model ``simulate`` runs is the one ``verify`` explores, and the key
    drops nothing a step depends on."""

    # A live scenario keeps its own name.
    @pytest.mark.parametrize("scenario", sorted(KEYED_SCENARIOS),
                             ids=lambda name: name.removeprefix("live-"))
    def test_every_state_and_step_explored(self, scenario, default_walks):
        config = KEYED_SCENARIOS[scenario]()
        walk = default_walks(config)
        (keys,) = walk["tables"]
        assert first_outside(walk, simulated_keys(config, keys)) is None

    @pytest.mark.parametrize("overrides", [
        {"wind_choices": {"A": [0]}},  # the run keeps its wind of 7 at A
        {"wind": {"A": 9}},  # the walk draws 0 or 7 on arrival at A
    ])
    def test_leaves_at_the_first_arrival_outside_the_choices(self, overrides, default_walks):
        config = make_config(overrides)
        walk = default_walks(config)
        (keys,) = walk["tables"]
        assert first_outside(walk, simulated_keys(config, keys)) == 10


# The bit of ``Model.step_tick``'s acting mask for each node of a stage.
STAGE_BIT = {**{server_node(e): 1 << i for i, e in enumerate(EFFECTORS)},
             NODE_ENV_INTERFACE: 1 << 3, **{client_node(e): 1 << 3 for e in EFFECTORS}}


def stages_named(events: list[dict], log: list) -> int:
    """The stages a step's events and choice log show acting, found without
    the ports: the sender of a publish or block, the server of a goal event,
    the host for belief and action events, and the server of a fault
    choice.  Deliveries, the world's samples and the world's and schedule's
    choices name no stage."""
    mask = 0
    for event in events:
        kind = event["kind"]
        if kind in ("publish", "block"):
            mask |= STAGE_BIT.get(event["sender"], 0)
        elif kind == "goal":
            mask |= STAGE_BIT[event["server"]]
        elif kind in ("belief", "action"):
            mask |= STAGE_BIT[NODE_ENV_INTERFACE]
    for key, _count, _pick in log:
        if key[0] == "fault":
            mask |= STAGE_BIT[server_node(key[1])]
    return mask


class TestActingMask:
    @pytest.mark.parametrize("scenario", sorted(REDUCTION_SCENARIOS))
    def test_mask_is_the_stages_events_and_choices_name(self, scenario, monkeypatch):
        """On every step of the walk, the mask the ports report is the set
        of stages its events and choices name."""
        step, masks, wrong = _Bundle.step, set(), []

        def checked(self, script, strict=False):
            events = recorded(self.model.tracer)
            log = step(self, script, strict)
            masks.add(self.acting)
            if self.acting != stages_named(events, log):
                wrong.append((self.model.tick, self.acting, stages_named(events, log)))
            return log

        monkeypatch.setattr(_Bundle, "step", checked)
        assert explore_properties(REDUCTION_SCENARIOS[scenario](), SUITE).complete
        assert wrong == []
        # Steps with every stage idle, one stage acting and several acting.
        assert 0 in masks and masks & {1, 2, 4, 8} and masks - {0, 1, 2, 4, 8}


@pytest.fixture
def order_dependent(monkeypatch):
    """In the tick the mast server announces readiness, it also publishes a
    telemetry frame, which the interface ignores, whose joints are the number
    of messages published before it in that tick.  All three servers announce
    in the same tick, so the number depends on the schedule: the stage breaks
    the stage contract of ``Model.step_tick`` by reaching past its port to the
    bus's pending queue."""
    step = ServerBase.step

    def step_and_count(self, port):
        announced = self.ready_published
        step(self, port)
        if self.effector == "mast" and self.ready_published != announced:
            count = float(len(port._bus._pending))
            port.publish(self.node, "/mast/telemetry",
                         {"effector": "mast", "joints": [count, count], "posture": "Closed"})

    monkeypatch.setattr(ServerBase, "step", step_and_count)


class TestScheduleInvariantCanFail:
    """The check reads the model alone, so no property rides along."""

    @pytest.mark.parametrize("reduction", ["on", "off"])
    def test_order_dependent_stage(self, order_dependent, reduction, monkeypatch):
        if reduction == "off":
            reduction_off(monkeypatch)
        report = explore_properties(make_config(SCHEDULE), SUITE, names=[])
        assert report.complete
        assert report.to_json()["schedule_invariant"] is False
        assert (report.stats["unstepped_transitions"] > 0) == (reduction == "on")
