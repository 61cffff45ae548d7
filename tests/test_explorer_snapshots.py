"""Snapshot store and state keys of the explorer.

A state's key is the ``marshal`` encoding of its ``to_state`` view with goal
ids renamed by rank; the view's sorted JSON text, read back from the key once
a lasso exists, orders the lasso search.  A state's first successor is
stepped on its live bundle while at most ``_LIVE_LIMIT`` are held; every
other successor is restored from a pickled snapshot.  Neither holds a
finished goal: an endpoint forgets a goal once it finishes.  Only
checkpoints (every ``_CHECKPOINT``-th depth), states past the live limit and
states made by a branching step are frozen when they are added; any other
state whose step branches gets its snapshot by replaying the tree's picks
from its checkpoint.  These tests pin down what that must preserve:

* the key is exact: two bundles have equal keys exactly when the sorted
  texts of their keys are equal, and that text is the one of the reference
  renaming ``_renumber_goals`` kept below, which renames every goal id
  wherever it stands;
* the structural renaming finds goal ids where the model puts them, and no
  ``to_state`` puts a goal id in a dict key;
* a restored bundle has the key of the bundle that was frozen, and steps
  exactly like that live bundle;
* every explored step ends on an event stamped with the model's tick, the
  clock at which the riding monitors expire their windows;
* dedupe is sound: bundles reached with the same key have the same
  successor keys;
* the table of shared objects lives for one walk only, and a finished walk
  holds no snapshot and no live bundle;
* freezing every state, freezing only the roots and the default checkpoints
  give the same output bytes and edges; a replayed bundle freezes to the
  bytes of the state's own bundle, and checkpoints are held at no more than
  two depths at once;
* stepping first successors on live bundles changes no output byte, and no
  walk holds more live bundles than the limit;
* with schedule permutations, copying an earlier order's edge to every
  order that runs the stages acting in the schedule-0 step in the same
  relative order changes no output byte and no edge, all orders of such a
  class end alike, and ``schedule_invariant`` still fails for a stage whose
  output depends on the order.

Each scenario is walked once, by a breadth-first walk that mirrors
``Explorer.explore`` with every successor restored from its source's
snapshot, and visits every root and successor, duplicates included; its
state and transition counts must match the explorer's.
"""

from __future__ import annotations

import copy
import itertools
import json
import marshal
import math
from importlib.resources import files

import pytest

from roverbench import explorer
from roverbench.action_protocol import ACTIVE, PENDING, ServerBase
from roverbench.config import make_config
from roverbench.explorer import (
    Explorer,
    StateSpaceBudgetExceeded,
    _Bundle,
    _rank_goals,
    _Snapshots,
    _sorted_text,
    _variants,
    explore_properties,
    write_counterexample,
)
from roverbench.messages import EFFECTORS, NODE_ENV_INTERFACE, client_node, server_node
from roverbench.prop_dsl import parse_suite
from roverbench.simulator import ALL_STAGES, SAME_ORDER, Model

from mutants import mutant_demo_config, mutant_names

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
    now = bundle.model.tick
    return {
        "model": bundle.model.to_state(),
        "monitors": {n: m.to_state(now) for n, m in sorted(bundle.engine.monitors.items())},
        "trackers": {n: t.to_state() for n, t in sorted(bundle.trackers.items())},
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


def model_view(goal_actions=(), clients=(), servers=(), inboxes=()) -> dict:
    """A hand-made ``Model.to_state`` view with goal ids where the model puts
    them: host action pairs, live goal lists and queued message payloads."""
    return {
        "world": {"pose": [0, 0]},
        "servers": {e: {"live": live, "ready": True} for e, live in servers},
        "host": {"agent": {"beliefs": ["at(o)"]},
                 "goal_actions": [list(pair) for pair in goal_actions],
                 "clients": {e: {"live": live, "ready": True} for e, live in clients}},
        "inboxes": dict(inboxes),
    }


def message(topic, payload) -> dict:
    return {"topic": topic, "sender": "x", "payload": payload}


class TestRankGoalIds:
    """The structural renaming against the reference on hand-made views."""

    @pytest.mark.parametrize("raw", [
        model_view(),
        model_view(clients=[("wheels", [{"goal_id": "wheelsClient:9"},
                                        {"goal_id": "wheelsClient:10"}]),
                            ("arm", [{"goal_id": "armClient:4"}])]),
        model_view(goal_actions=[("mastClient:7", "control_mast(open)"),
                                 ("wheelsClient:3", "wheelsClient:3 is busy")],
                   servers=[("mast", [{"goal_id": "mastClient:7", "request": {"cmd": "open"}}])]),
        # An id that only a queued result still names, ranked below a live one.
        model_view(clients=[("wheels", [{"goal_id": "wheelsClient:12"}])],
                   inboxes=[("wheelsClient", [
                       message("/wheels/feedback", {"goal_id": "wheelsClient:12", "progress": 0.5}),
                       message("/wheels/result", {"goal_id": "wheelsClient:11", "status": "Succeeded"}),
                       message("/pose", {"x": 1, "y": 0})])]),
        model_view(inboxes=[("armServer", [message("/arm/goal", {"goal_id": "armClient:2", "cmd": "open"})]),
                            ("mastServer", [message("/mast/goal", {"goal_id": "mastClient:0", "cmd": "close"})])]),
        # Ranks follow the number, not the text: 99 comes before 100.
        model_view(goal_actions=[("armClient:100", "control_arm(open)")],
                   clients=[("arm", [{"goal_id": "armClient:99"}])],
                   servers=[("arm", [{"goal_id": "armClient:100", "request": {"cmd": "open"}}])]),
    ])
    def test_matches_reference(self, raw):
        view = copy.deepcopy(raw)
        payloads = [m["payload"] for msgs in view["inboxes"].values() for m in msgs]
        assert _sorted_text(_rank_goals(view)) == reference_key(raw)
        # Queued payloads are the messages' own dicts: copied, never renamed.
        assert payloads == [m["payload"] for msgs in raw["inboxes"].values() for m in msgs]


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

# Same-key bundles whose successors are compared with the stored state's:
# every duplicate, except on the schedule scenario, where each state is
# reached ~24 times and only the last duplicate of each key is compared.
LAST_DUPLICATE_ONLY = {"schedule"}


def successor_keys(snapshot: bytes) -> set:
    probe = _Bundle.clone(snapshot)
    _, signature = probe.step(None)
    keys = {probe.canonical()}
    for script in _variants(signature)[1:]:
        branch = _Bundle.clone(snapshot)
        branch.step(script)
        keys.add(branch.canonical())
    return keys


def finished_goals(bundle: _Bundle) -> int:
    records = [r for c in bundle.model.clients.values() for r in c.records.values()]
    records += [s.active for s in bundle.model.servers.values() if s.active is not None]
    return sum(r.status not in (PENDING, ACTIVE) for r in records)


def restore_problems(bundle: _Bundle, snapshot: bytes, pick: int) -> list[str]:
    """Round-trip check of one frozen bundle, then one step, under the
    ``pick``-th choice script (wrapped), of the restored copy against the
    live bundle itself."""
    problems = []
    tick = bundle.model.tick
    restored = _Bundle.clone(snapshot)
    if finished_goals(restored):
        problems.append(f"snapshot holds finished goals at tick {tick}")
    if restored.canonical() != bundle.canonical():
        problems.append(f"restored key differs at tick {tick}")
    _, signature = _Bundle.clone(snapshot).step(None)
    scripts = _variants(signature)
    script = scripts[pick % len(scripts)]
    if restored.step(script) != bundle.step(script):
        problems.append(f"step({script}) differs from the live bundle at tick {tick}")
    elif restored.canonical() != bundle.canonical():
        problems.append(f"state after step({script}) differs from the live bundle")
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
    found = {"states": 0, "transitions": 0, "canonical_calls": 0, "oracle_mismatch": [],
             "merged": [], "split": [], "goal_id_keys": set(), "restore": [],
             "unsound": [], "compared": 0, "same_order_groups": 0,
             "order_dependent": [], "clock_split": []}
    texts: dict[bytes, str] = {}  # key -> sorted text of every bundle with it
    keys: dict[str, bytes] = {}  # sorted text -> key of every bundle with it
    stored: dict[bytes, bytes] = {}  # the frontier's snapshots
    successors: dict[bytes, set] = {}  # stored key -> its successor keys
    duplicates: dict[bytes, list[_Bundle]] = {}
    queue: list[bytes] = []

    def reach(bundle: _Bundle) -> bytes:
        raw = raw_state(bundle)
        key = bundle.canonical()
        found["canonical_calls"] += 1
        text = reference_key(raw)
        if _sorted_text(marshal.loads(key)) != text:
            found["oracle_mismatch"].append(text)
        if texts.setdefault(key, text) != text:
            found["merged"].append(text)
        if keys.setdefault(text, key) != key:
            found["split"].append(text)
        found["goal_id_keys"] |= goal_id_keys(raw)
        # Violated monitors leave a stored state, as in the explorer.
        for name, _monitor in bundle.violations():
            del bundle.engine.monitors[name]
        if key not in successors:
            successors[key] = set()
            stored[key] = snapshot = store.freeze(bundle)
            queue.append(key)
            found["restore"] += restore_problems(bundle, snapshot, len(queue))
        elif last_duplicate_only:
            duplicates[key] = [bundle]
        else:
            duplicates.setdefault(key, []).append(bundle)
        return key

    def stepped(bundle: _Bundle, script) -> list:
        # The monitors expire windows at the last model event's ``t``, the
        # key counts deadlines from ``model.tick``: the two must agree.
        events, log = bundle.step(script)
        if not events or events[-1]["t"] != bundle.model.tick:
            found["clock_split"].append(bundle.model.tick)
        return log

    with _Snapshots() as store:
        for bundle, _log in Explorer(config, SUITE)._roots():
            reach(bundle)
        head = 0
        while head < len(queue):
            key = queue[head]
            head += 1
            # Freed once expanded, and each successor keyed as it is made,
            # as in the explorer.
            snapshot = stored.pop(key)
            probe = _Bundle.clone(snapshot)
            signature = stepped(probe, None)
            steps = [(signature, signature, probe.acting, probe.fired, reach(probe))]
            for script in _variants(signature)[1:]:
                branch = _Bundle.clone(snapshot)
                log = stepped(branch, script)
                steps.append((script, log, branch.acting, branch.fired, reach(branch)))
            successors[key].update(step[-1] for step in steps)
            checked, problems = order_dependence(steps)
            found["same_order_groups"] += checked
            found["order_dependent"] += problems
            found["transitions"] += len(steps)
        found["states"] = len(successors)
        for key, bundles in duplicates.items():
            for bundle in bundles:
                found["compared"] += 1
                if successor_keys(store.freeze(bundle)) != successors[key]:
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
        assert found["oracle_mismatch"] == []

    def test_key_equal_exactly_when_text_equal(self, walked):
        assert walked[1]["merged"] == []
        assert walked[1]["split"] == []

    def test_no_goal_id_dict_keys(self, walked):
        assert walked[1]["goal_id_keys"] == set()

    def test_restore_round_trip_and_step(self, walked):
        assert walked[1]["restore"] == []

    def test_last_event_at_model_tick(self, walked):
        assert walked[1]["clock_split"] == []

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
    """Along one long path, a bundle restored from each tick's snapshot
    steps exactly like the live bundle, and neither holds a finished goal."""

    @pytest.mark.parametrize("scenario", ["default", "schedule"])
    def test_restored_steps_like_live(self, scenario):
        live, _log = Explorer(SCENARIOS[scenario](), SUITE)._roots()[0]
        with _Snapshots() as store:
            for tick in range(150):
                snapshot = store.freeze(live)
                restored = _Bundle.clone(snapshot)
                assert finished_goals(restored) == finished_goals(live) == 0
                _, signature = _Bundle.clone(snapshot).step(None)
                scripts = _variants(signature)
                script = scripts[tick * 7 % len(scripts)]
                assert restored.step(script) == live.step(script), tick
                assert restored.canonical() == live.canonical(), tick
        assert finished_goals(live) == 0


# -- table scope -------------------------------------------------------------

class TestSharedTable:
    """Shared objects are held for one walk and dropped when it ends."""

    def test_repeat_explorations_agree_and_release(self):
        config = mutant_demo_config("misroute-bus")
        first = explore_properties(config, SUITE).to_json()
        assert explorer._SHARED == []
        second = explore_properties(config, SUITE).to_json()
        assert explorer._SHARED == []
        first.pop("stats")
        second.pop("stats")
        assert first == second

    def test_finished_walk_holds_no_snapshot(self, monkeypatch):
        """Every state of a complete walk was expanded, so its snapshot and
        its live bundle were freed, and the last checkpoints, which no head
        passed, were freed when the walk ended."""
        seen = {}
        decide = Explorer._decide_liveness
        monkeypatch.setattr(Explorer, "_decide_liveness",
                            lambda self, states, *rest: seen.update(states) or
                            decide(self, states, *rest))
        explore_properties(mutant_demo_config("misroute-bus"), SUITE)
        assert len(seen) == EXPLORED["mutant-misroute-bus"][0]
        assert all(node.snapshot is None and node.bundle is None for node in seen.values())
        # The deepest states lie below a checkpoint other than the roots.
        assert max(node.depth for node in seen.values()) > explorer._CHECKPOINT

    def test_released_when_budget_runs_out(self):
        with pytest.raises(StateSpaceBudgetExceeded):
            explore_properties(make_config(), SUITE, budget_states=10)
        assert explorer._SHARED == []


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
    branches three ways, so its rebuilt bundle is frozen before it steps."""
    return make_config({"wind_choices": {"o": [0], "A": [0, 3, 7], "B": [0], "C": [0]}})


LIVE_SCENARIOS = {**SCENARIOS, "long-decay": long_decay_config,
                  "three-winds": three_winds_config}


def walk_output(config, directory) -> tuple[str, dict, list]:
    """A walk's JSON without ``stats``, its counterexample files' bytes and
    its ordered edges."""
    edges = []
    decide = Explorer._decide_liveness

    def record(self, states, walked, *rest):
        edges.extend((e.src, e.dst, e.picks, e.awaited) for e in walked)
        return decide(self, states, walked, *rest)

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


class TestLiveFirstSuccessor:
    @pytest.mark.parametrize("scenario", sorted(LIVE_SCENARIOS))
    def test_same_bytes_without_live_bundles(self, scenario, monkeypatch, tmp_path):
        config = LIVE_SCENARIOS[scenario]()
        live = walk_output(config, tmp_path / "live")
        monkeypatch.setattr(explorer, "_LIVE_LIMIT", 0)
        restored = walk_output(config, tmp_path / "restored")
        assert live == restored
        if scenario.startswith("mutant-"):
            assert live[1]

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
    def test_same_bytes_with_every_order_stepped(self, scenario, monkeypatch, tmp_path):
        config = REDUCTION_SCENARIOS[scenario]()
        reduced = walk_output(config, tmp_path / "reduced")
        reduction_off(monkeypatch)
        stepped = walk_output(config, tmp_path / "stepped")
        assert reduced == stepped
        assert json.loads(reduced[0])["schedule_invariant"] is True
        if scenario.startswith("mutant-"):
            assert reduced[1]


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
            events, log = step(self, script, strict)
            masks.add(self.acting)
            if self.acting != stages_named(events, log):
                wrong.append((self.model.tick, self.acting, stages_named(events, log)))
            return events, log

        monkeypatch.setattr(_Bundle, "step", checked)
        assert explore_properties(REDUCTION_SCENARIOS[scenario](), SUITE).complete
        assert wrong == []
        # Steps with every stage idle, one stage acting and several acting.
        assert 0 in masks and masks & {1, 2, 4, 8} and masks - {0, 1, 2, 4, 8}


# A goal id no client holds: the client drops the feedback when it arrives.
_STRAY_GOAL = "mastClient:1000"


@pytest.fixture
def order_dependent(monkeypatch):
    """In the tick the mast server announces readiness, it also publishes a
    feedback whose progress is the number of messages published before it in
    that tick.  All three servers announce in the same tick, so the number
    depends on the schedule: the stage breaks the stage contract of
    ``Model.step_tick`` by reaching past its port to the bus's pending
    queue."""
    step = ServerBase.step

    def step_and_count(self, port):
        announced = self.ready_published
        step(self, port)
        if self.effector == "mast" and self.ready_published != announced:
            port.publish(self.node, "/mast/feedback",
                         {"goal_id": _STRAY_GOAL, "progress": len(port._bus._pending)})

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


# -- checkpoints and replayed bundles ----------------------------------------

# _CHECKPOINT settings: every state frozen, only the roots (every rebuild
# replays from a root), and the default.
CHECKPOINTS = {"every": 1, "roots": 10**6, "default": explorer._CHECKPOINT}


class TestCheckpoints:
    @pytest.mark.parametrize("scenario", sorted(LIVE_SCENARIOS))
    def test_same_bytes_at_every_checkpoint_spacing(self, scenario, monkeypatch, tmp_path):
        config = LIVE_SCENARIOS[scenario]()
        outputs = {}
        for name, checkpoint in CHECKPOINTS.items():
            monkeypatch.setattr(explorer, "_CHECKPOINT", checkpoint)
            outputs[name] = walk_output(config, tmp_path / name)
        assert outputs["every"] == outputs["roots"] == outputs["default"]
        if scenario.startswith("mutant-"):
            assert outputs["default"][1]

    def test_stats_count_freezes_and_rebuilds(self, monkeypatch):
        """On the long chain a rebuild replays from a root when only the
        roots are checkpoints; freezing every state rebuilds none."""
        stats = {}
        for name, checkpoint in CHECKPOINTS.items():
            monkeypatch.setattr(explorer, "_CHECKPOINT", checkpoint)
            report = explore_properties(long_decay_config(), SUITE)
            assert report.complete
            stats[name] = report.stats
        assert stats["every"]["rebuilt"] == 0
        assert stats["every"]["frozen"] == report.states
        assert stats["roots"]["rebuilt"] > 0
        assert stats["default"]["rebuilt"] > 0
        # Frozen when added, or rebuilt: far fewer snapshots than states.
        assert stats["default"]["frozen"] < report.states / 4

    @pytest.mark.parametrize("checkpoint", ["roots", "default"])
    def test_replayed_bundle_steps_like_the_eager_snapshot(self, checkpoint, monkeypatch):
        """On the long chain, every pre-step bundle rebuilt by replay is the
        state that freezing it when it was added would have stored.  The
        bytes cannot match: a set's order and which equal strings are one
        object depend on how the bundle was reached.  So the rebuilt
        snapshot must have the key of the state's own live bundle, frozen
        just before its first step, and every choice script must step both
        to the same events, choice log and successor key.  A two-way step
        runs its second script on the rebuilt bundle, unfrozen: that step
        must match the eager snapshot's too."""
        store = []  # the walk's pickler
        probed = []  # the last first step's state: (key, snapshot)
        replayed = [None]  # the bundle strict steps last replayed, until checked
        compared, problems, unfrozen = [], [], []
        step, freeze = _Bundle.step, _Snapshots.freeze

        def successors(snapshot: bytes) -> list:
            probe = _Bundle.clone(snapshot)
            events, signature = step(probe, None)
            out = [(events, signature, probe.canonical())]
            for script in _variants(signature)[1:]:
                branch = _Bundle.clone(snapshot)
                out.append((*step(branch, script), branch.canonical()))
            return out

        def watch_step(self, script, strict=False):
            if strict:
                replayed[0] = self
            elif script is None:  # a state's first step, rebuilt or not after it
                probed[:] = [self.canonical(), freeze(store[0], self)]
            elif replayed[0] is self:  # the second script, on the rebuilt bundle
                replayed[0] = None
                key, eager = probed
                compared.append(key)
                unfrozen.append(key)
                rebuilt_key = self.canonical()
                out = (*step(self, script, strict), self.canonical())
                if rebuilt_key != key or [out] != successors(eager)[1:]:
                    problems.append(key)
                return out[:2]
            return step(self, script, strict)

        def watch_freeze(self, bundle):
            store[:1] = [self]
            data = freeze(self, bundle)
            if replayed[0] is bundle:
                replayed[0] = None
                key, eager = probed
                compared.append(key)
                if bundle.canonical() != key or successors(data) != successors(eager):
                    problems.append(key)
            return data

        monkeypatch.setattr(_Bundle, "step", watch_step)
        monkeypatch.setattr(_Snapshots, "freeze", watch_freeze)
        monkeypatch.setattr(explorer, "_CHECKPOINT", CHECKPOINTS[checkpoint])
        report = explore_properties(long_decay_config(), SUITE)
        assert report.complete and report.stats["rebuilt"] == len(compared) > 0
        assert unfrozen  # the long chain has two-way steps
        assert problems == []

    @pytest.mark.parametrize("checkpoint", [1, 4, explorer._CHECKPOINT])
    def test_checkpoints_held_at_two_depths_at_most(self, checkpoint, monkeypatch):
        held: dict[int, int] = {}  # id of a checkpoint holding its snapshot -> depth
        peak = [0]

        class CountingNode(explorer._Node):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "snapshot" and self.depth % checkpoint == 0:
                    if value is None:
                        held.pop(id(self), None)
                    else:
                        held[id(self)] = self.depth
                    peak[0] = max(peak[0], len(set(held.values())))

        monkeypatch.setattr(explorer, "_Node", CountingNode)
        monkeypatch.setattr(explorer, "_CHECKPOINT", checkpoint)
        report = explore_properties(long_decay_config(), SUITE)
        assert report.complete and len(report.stats["states_per_depth"]) > 4 * checkpoint
        assert peak[0] == 2
        assert held == {}
