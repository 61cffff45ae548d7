"""Snapshot store and canonical keys of the explorer.

States are stored as pickled snapshots and every successor is restored from
its source's snapshot, so these tests pin down what that must preserve:

* a restored bundle has the canonical key of the bundle that was frozen, and
  steps exactly like a ``copy.deepcopy`` of it (deepcopy is the reference);
* canonical-state dedupe is sound: bundles reached with the same key have the
  same successor keys;
* the one-pass goal-id renaming gives the same key as the two-walk reference
  ``_renumber_goals`` kept below, and no ``to_state`` puts a goal id in a dict
  key (the one-pass form renames after the keys are sorted);
* the table of shared objects lives for one walk only.

Each scenario is walked once, by a breadth-first walk that mirrors
``Explorer.explore`` and visits every root and successor, duplicates
included; its state and transition counts must match the explorer's.
"""

from __future__ import annotations

import copy
import json
from importlib.resources import files

import pytest

from roverbench import explorer
from roverbench.config import make_config
from roverbench.explorer import (
    Explorer,
    StateSpaceBudgetExceeded,
    _Bundle,
    _rank_goal_ids,
    _Snapshots,
    _variants,
    explore_properties,
)
from roverbench.mutants import mutant_demo_config, mutant_names
from roverbench.prop_dsl import parse_suite

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
        "monitors": {n: m.to_state(now) for n, m in sorted(bundle.monitors.items())},
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


class TestRankGoalIds:
    """The one-pass renaming against the reference on hand-made JSON."""

    @pytest.mark.parametrize("raw", [
        {"a": 1, "b": ["x"]},
        {"live": ["wheelsClient:9", "wheelsClient:10", "armClient:4"]},
        {"g": [["mastClient:7", "control_mast(open)"], ["mastClient:3", "x"]]},
        {"text": "wheelsClient:3 is busy", "quoted": 'say "wheelsClient:3"'},
        {"tail": 'ends with "armClient:2', "real": "armClient:2"},
        {"near": ["wheelsClient:", "wheelsClient:x1", "wheelsServer:1", "wheelsClient:1"]},
    ])
    def test_matches_reference(self, raw):
        text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        assert _rank_goal_ids(text) == reference_key(raw)


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


def restore_problems(bundle: _Bundle, snapshot: bytes) -> list[str]:
    """Round-trip and step checks of one frozen bundle."""
    problems = []
    if _Bundle.clone(snapshot).canonical() != bundle.canonical():
        problems.append(f"restored key differs at tick {bundle.model.tick}")
    _, signature = _Bundle.clone(snapshot).step(None)
    scripts = [None] + _variants(signature)[-1:]
    for script in scripts:
        restored = _Bundle.clone(snapshot)
        reference = copy.deepcopy(restored)
        if restored.step(script) != reference.step(script):
            problems.append(f"step({script}) differs from deepcopy at tick {bundle.model.tick}")
        elif restored.canonical() != reference.canonical():
            problems.append(f"state after step({script}) differs from deepcopy")
    return problems


def instrumented_walk(config, last_duplicate_only: bool) -> dict:
    found = {"states": 0, "transitions": 0, "canonical_calls": 0, "oracle_mismatch": [],
             "goal_id_keys": set(), "restore": [], "unsound": [], "compared": 0}
    stored: dict[str, bytes] = {}
    successors: dict[str, set] = {}  # stored key -> its successor keys
    duplicates: dict[str, list[_Bundle]] = {}
    queue: list[str] = []

    def reach(bundle: _Bundle) -> str:
        raw = raw_state(bundle)
        key = bundle.canonical()
        found["canonical_calls"] += 1
        if key != reference_key(raw):
            found["oracle_mismatch"].append(key)
        found["goal_id_keys"] |= goal_id_keys(raw)
        # Violated monitors leave a stored state, as in the explorer.
        for name, _monitor in bundle.violations():
            del bundle.monitors[name]
        if key not in stored:
            stored[key] = snapshot = store.freeze(bundle)
            queue.append(key)
            found["restore"] += restore_problems(bundle, snapshot)
        elif last_duplicate_only:
            duplicates[key] = [bundle]
        else:
            duplicates.setdefault(key, []).append(bundle)
        return key

    with _Snapshots() as store:
        for bundle, _log in Explorer(config, SUITE)._roots():
            reach(bundle)
        head = 0
        while head < len(queue):
            key = queue[head]
            head += 1
            probe = _Bundle.clone(stored[key])
            _, signature = probe.step(None)
            successors[key] = {reach(probe)}
            for script in _variants(signature)[1:]:
                branch = _Bundle.clone(stored[key])
                branch.step(script)
                successors[key].add(reach(branch))
            found["transitions"] += len(_variants(signature))
        found["states"] = len(stored)
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

    def test_no_goal_id_dict_keys(self, walked):
        assert walked[1]["goal_id_keys"] == set()

    def test_restore_round_trip_and_step(self, walked):
        assert walked[1]["restore"] == []

    def test_same_key_same_successors(self, walked):
        name, found = walked
        assert found["unsound"] == []
        if name in ("default", "schedule"):
            assert found["compared"] > 0


# -- table scope -------------------------------------------------------------

class TestSharedTable:
    """Shared objects are held for one walk and dropped when it ends."""

    def test_repeat_explorations_agree_and_release(self):
        config = mutant_demo_config("misroute-bus")
        first = explore_properties(config, SUITE).to_json()
        assert explorer._SHARED == []
        second = explore_properties(config, SUITE).to_json()
        assert explorer._SHARED == []
        first.pop("seconds")
        second.pop("seconds")
        assert first == second

    def test_released_when_budget_runs_out(self):
        with pytest.raises(StateSpaceBudgetExceeded):
            explore_properties(make_config(), SUITE, budget_states=10)
        assert explorer._SHARED == []
