"""Explicit-state exploration tests: reachability, verdicts, mutant kills,
and counterexample replay.

State and transition counts below are frozen from measured explorations of
the pinned default scenario.  They double as regression tripwires: any
change to the step order, choice points, or state canonicalization shows
up here first.
"""

from __future__ import annotations

import hashlib
import json
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roverbench.config import ConfigError, make_config
from roverbench.explorer import (
    ExplorationError,
    Explorer,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
    check_invariant,
    check_response,
    check_sequence,
    explore_properties,
    load_counterexample,
    replay_counterexample,
    _Edge,
    write_counterexample,
)
from roverbench.mutants import (
    describe,
    killer_property,
    mutant_demo_config,
    mutant_names,
)
from roverbench.prop_dsl import parse_formula, parse_suite


# -- helpers -----------------------------------------------------------------


def packaged_suite() -> dict:
    text = (files("roverbench") / "data" / "default.props").read_text()
    return parse_suite(text)


SUITE = packaged_suite()


def violated(report) -> list[str]:
    return sorted(name for name, verdict in report.verdicts.items()
                  if verdict == "Violated")


# -- nominal exploration -----------------------------------------------------


class TestNominalExploration:
    """The default scenario is small, finite, and clean."""

    def test_state_space_size(self):
        report = explore_properties(make_config(), SUITE)
        assert report.states == 133
        assert report.transitions == 136
        assert report.complete

    def test_all_properties_satisfied(self):
        report = explore_properties(make_config(), SUITE)
        assert len(report.verdicts) == 19
        assert set(report.verdicts.values()) == {"Satisfied"}
        assert report.counterexamples == {}

    def test_exploration_is_deterministic(self):
        first = explore_properties(make_config(), SUITE)
        second = explore_properties(make_config(), SUITE)
        assert first.to_json()["verdicts"] == second.to_json()["verdicts"]
        assert (first.states, first.transitions) == \
               (second.states, second.transitions)

    def test_name_restriction(self):
        report = explore_properties(make_config(), SUITE,
                                    names=["env_nonnegative"])
        assert list(report.verdicts) == ["env_nonnegative"]

    def test_report_json_shape(self):
        report = explore_properties(make_config(), SUITE,
                                    names=["env_nonnegative"])
        data = report.to_json()
        assert data["complete"] is True
        assert data["schedule_invariant"] is None
        assert set(data) == {"states", "transitions", "verdicts",
                             "counterexamples", "complete", "seconds",
                             "schedule_invariant"}


@pytest.fixture(scope="module")
def schedule_report():
    """One exploration with schedule permutations, shared by the tests of
    ``TestScheduleSensitivity``."""
    return explore_properties(make_config({"schedule_sensitivity": True}), SUITE)


class TestScheduleSensitivity:
    """Permuting the per-tick node order multiplies transitions but must
    not change where any of them lead."""

    def test_permutations_collapse(self, schedule_report):
        assert schedule_report.states == 133
        assert schedule_report.transitions == 3264
        assert schedule_report.schedule_invariant is True

    def test_properties_still_hold(self, schedule_report):
        assert set(schedule_report.verdicts.values()) == {"Satisfied"}


# -- guard rails -------------------------------------------------------------


class TestExplorationGuards:
    """Single-run-only features and resource budgets are enforced."""

    def test_env_faults_rejected(self):
        config = make_config(
            {"env_faults": [{"tick": 3, "wp": "o", "wind": 1}]})
        with pytest.raises(ExplorationError, match="single-run"):
            explore_properties(config, SUITE, names=["env_nonnegative"])

    def test_scripted_faults_rejected(self):
        config = make_config(
            {"scripted_faults": [{"effector": "arm", "goal_index": 1}]})
        with pytest.raises(ExplorationError, match="single-run"):
            explore_properties(config, SUITE, names=["env_nonnegative"])

    def test_state_budget(self):
        with pytest.raises(StateSpaceBudgetExceeded) as info:
            explore_properties(make_config(), SUITE, budget_states=10)
        assert info.value.limit == "state"
        assert info.value.states > 10

    def test_nested_temporal_goal_rejected(self):
        formula = parse_formula(
            'eventually(belief("at(A)") until belief("at(B)"))')
        with pytest.raises(ValueError, match="event predicate"):
            explore_properties(make_config(), {"weird": formula},
                               names=["weird"])


# -- seeded defect variants --------------------------------------------------


class TestMutantKills:
    """Every seeded defect is caught by at least its advertised property."""

    def test_catalog(self):
        assert mutant_names() == ("env-blind", "misroute-bus",
                                  "no-stop-wheels", "premature-action")
        for name in mutant_names():
            info = describe(name)
            assert info["name"] == name
            assert killer_property(name) in SUITE

    def test_env_blind(self):
        """Ignoring weather means opening instruments in wind and driving
        into the still-hot stop (its demo scenario freezes the decay)."""
        report = explore_properties(mutant_demo_config("env-blind"), SUITE)
        assert report.states == 221
        assert violated(report) == ["radiation_avoidance",
                                    "wind_posture_safety"]

    def test_misroute_bus(self):
        report = explore_properties(mutant_demo_config("misroute-bus"), SUITE)
        assert report.states == 40
        assert violated(report) == ["correct_server_routing",
                                    "response_goal_result_arm",
                                    "revisits_B"]

    def test_no_stop_wheels(self):
        report = explore_properties(
            mutant_demo_config("no-stop-wheels"), SUITE)
        assert report.states == 133
        assert violated(report) == ["stop_after_move"]

    def test_premature_action(self):
        report = explore_properties(
            mutant_demo_config("premature-action"), SUITE)
        assert report.states == 22
        assert violated(report) == ["readiness_guard_arm",
                                    "readiness_guard_mast",
                                    "readiness_guard_wheels",
                                    "response_move_A", "revisits_B"]

    # sha256 of each mutant's counterexample file for its killer property.
    # How the walk stores and restores states must not change these bytes.
    COUNTEREXAMPLE_SHA256 = {
        "env-blind": "fdabb6d337c4b3d3f3b581d38e2cc87d9024fa557d7cbc40215bd4a0cf24ade6",
        "misroute-bus": "250307a7583bda87dc81143dc01a19f2303941a5d5e40eccf421727f703869b1",
        "no-stop-wheels": "9ad158db086f758dd4a3d16914a56043dd2a07f59dcdc6ed982472ec46b6fdea",
        "premature-action": "600f3e51e730259bb75402779b6087f2cc2a5ec9195f1dc0ddb45d039547ae9f",
    }

    def test_every_kill_has_a_counterexample(self, tmp_path):
        """Each kill's counterexample file is byte-identical to the pinned
        one and replays."""
        for name in mutant_names():
            prop = killer_property(name)
            report = explore_properties(mutant_demo_config(name), SUITE,
                                        names=[prop])
            assert prop in report.counterexamples
            path = tmp_path / f"{name}.json"
            write_counterexample(report.counterexamples[prop], str(path))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == self.COUNTEREXAMPLE_SHA256[name], name
            outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
            assert outcome["reproduced"] is True


# -- liveness ----------------------------------------------------------------


class TestLiveness:
    """The patrol-keeps-returning property only fails when the hot stop
    never cools, and the failure comes back as a concrete lasso."""

    def test_lasso_counterexample(self):
        report = explore_properties(make_config({"decay_rate": 0}), SUITE,
                                    names=["revisits_B"])
        assert report.states == 87
        assert report.verdicts == {"revisits_B": "Violated"}
        ce = report.counterexamples["revisits_B"]
        assert ce.kind == "liveness"
        assert ce.loop_from == 12
        assert len(ce.ticks) == 54

    def test_lasso_replays(self, tmp_path):
        report = explore_properties(make_config({"decay_rate": 0}), SUITE,
                                    names=["revisits_B"])
        path = tmp_path / "lasso.json"
        write_counterexample(report.counterexamples["revisits_B"], str(path))
        outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
        assert outcome == {"reproduced": True, "prop": "revisits_B",
                           "kind": "liveness", "ticks": 54, "loop_from": 12}


def lasso_digest(ce, path) -> str:
    """Write ``ce``, check that it replays as a lasso, return its sha256."""
    write_counterexample(ce, str(path))
    outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
    assert outcome == {"reproduced": True, "prop": ce.prop, "kind": "liveness",
                       "ticks": len(ce.ticks), "loop_from": ce.loop_from}
    return hashlib.sha256(path.read_bytes()).hexdigest()


EVENTUALLY_B = parse_formula('eventually(belief("at(B)"))')
RESPONSE_A_B = parse_formula(
    'always(action("move_to_waypoint(A)") => eventually(belief("at(B)")))')


class TestLivenessShapes:
    """Each unbounded shape (plain ``eventually``, recurrence, response)
    holds on the default map and fails with a pinned lasso where the hot stop
    never cools or a wheels fault can stall the rover.  How the lasso is
    searched for must not change these bytes."""

    def test_unbounded_eventually(self, tmp_path):
        report = explore_properties(make_config({"decay_rate": 0}),
                                    {"eventually_B": EVENTUALLY_B})
        assert report.states == 87
        assert report.verdicts == {"eventually_B": "Violated"}
        ce = report.counterexamples["eventually_B"]
        assert (ce.loop_from, len(ce.ticks)) == (12, 54)
        assert lasso_digest(ce, tmp_path / "ev.json") == \
            "5f61e63a3102a9409989d4a4d56a0b06f555a89bd6cc23bfd18cd58b79caea7c"

    def test_unbounded_response(self, tmp_path):
        report = explore_properties(make_config({"decay_rate": 0}),
                                    {"response_A_B": RESPONSE_A_B})
        assert report.states == 87
        assert report.verdicts == {"response_A_B": "Violated"}
        ce = report.counterexamples["response_A_B"]
        assert (ce.loop_from, len(ce.ticks)) == (12, 54)
        assert lasso_digest(ce, tmp_path / "resp.json") == \
            "aa03ddc094491502e9deb3af02cb6976f9065d383fe07854a1fd1a8661a46fd7"

    def test_check_response_under_wheel_faults(self, tmp_path):
        report = check_response(
            make_config({"fault_exploration": {"wheels": True}}),
            'action("move_to_waypoint(A)")', 'belief("at(A)")')
        assert (report.states, report.transitions) == (250, 284)
        assert report.verdicts == {"response": "Violated"}
        ce = report.counterexamples["response"]
        assert (ce.loop_from, len(ce.ticks)) == (43, 45)
        assert lasso_digest(ce, tmp_path / "wheels.json") == \
            "01959da4d302d5e1c465962a58bd930909dc8c58957d66400c3c2fdc85be0776"

    def test_every_shape_holds_on_the_default_map(self):
        report = explore_properties(
            make_config(), {"eventually_B": EVENTUALLY_B,
                            "response_A_B": RESPONSE_A_B,
                            "revisits_B": SUITE["revisits_B"]})
        assert report.verdicts == {"eventually_B": "Satisfied",
                                   "response_A_B": "Satisfied",
                                   "revisits_B": "Satisfied"}
        assert report.counterexamples == {}
        report = check_response(make_config(), 'action("move_to_waypoint(A)")',
                                'belief("at(A)")')
        assert report.verdicts == {"response": "Satisfied"}


def recursive_lasso(allowed, out, name):
    """Reference for ``Explorer._find_lasso``: the same depth-first search,
    written recursively (so only for small graphs)."""
    done: set = set()
    path: list = []
    trail: list = []

    def dfs(key):
        path.append(key)
        for edge in out.get(key, ()):
            if name in edge.awaited or edge.dst not in allowed or edge.dst in done:
                continue
            if edge.dst in path:
                return edge.dst, trail[path.index(edge.dst):] + [edge]
            trail.append(edge)
            found = dfs(edge.dst)
            if found:
                return found
            trail.pop()
        path.pop()
        done.add(key)
        return None

    for key in sorted(allowed):
        if key not in done:
            found = dfs(key)
            if found:
                return found
    return None


def has_cycle(allowed, out, name) -> bool:
    """Whether the usable edges close a cycle: strip states without a usable
    out-edge until none is left to strip."""
    live = set(allowed)
    while True:
        stuck = {key for key in live
                 if not any(name not in e.awaited and e.dst in live
                            for e in out.get(key, ()))}
        if not stuck:
            return bool(live)
        live -= stuck


@st.composite
def labelled_graphs(draw):
    size = draw(st.integers(1, 8))
    keys = [f"s{i}" for i in range(size)]
    out: dict = {}
    for n, (src, dst, fires) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from(keys), st.booleans()),
            max_size=20))):
        out.setdefault(src, []).append(
            _Edge(src, dst, [n], {"p"} if fires else set()))
    allowed = set(draw(st.lists(st.sampled_from(keys), min_size=1)))
    return allowed, out


class TestLassoSearch:
    """The iterative lasso search on arbitrary labelled graphs."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(labelled_graphs())
    def test_matches_recursive_search(self, graph):
        allowed, out = graph
        found = Explorer._find_lasso(allowed, out, "p")
        assert found == recursive_lasso(allowed, out, "p")
        assert (found is not None) == has_cycle(allowed, out, "p")
        if found is not None:
            entry, cycle = found
            assert cycle[0].src == cycle[-1].dst == entry
            assert all(a.dst == b.src for a, b in zip(cycle, cycle[1:]))
            assert all("p" not in e.awaited and e.dst in allowed for e in cycle)

    def test_self_loop_below_the_start(self):
        """A self-loop reached a few edges into the search is a one-edge
        cycle, not the path that led to it."""
        ab, bc, cc = _Edge("a", "b", [0], set()), _Edge("b", "c", [1], set()), \
            _Edge("c", "c", [2], set())
        out = {"a": [ab], "b": [bc], "c": [cc]}
        assert Explorer._find_lasso({"a", "b", "c"}, out, "p") == ("c", [cc])


# 500-cell legs with a hot stop that never cools: the lasso's cycle and the
# path into it are each hundreds of states long, deeper than Python's
# default recursion limit.
FAR_MAP = {"decay_rate": 0,
           "waypoints": {"o": [0, 0], "A": [500, 0], "B": [500, -4],
                         "C": [500, -500]}}


class TestDeepLasso:
    """A deep state graph ends in a verdict and a replayable lasso."""

    def test_far_map_lasso(self, tmp_path):
        report = explore_properties(make_config(FAR_MAP), SUITE,
                                    names=["revisits_B"])
        assert report.states == 2549
        assert report.verdicts == {"revisits_B": "Violated"}
        ce = report.counterexamples["revisits_B"]
        assert (ce.loop_from, len(ce.ticks)) == (506, 1532)
        assert lasso_digest(ce, tmp_path / "far.json") == \
            "428e941e61ff5c8ee81e8ce5facd0eeb2fb3977cbc4320ae7e1d7abcd570679f"


# -- counterexample replay ---------------------------------------------------


class TestReplay:
    """Counterexamples round-trip through JSON and replay to the same
    violation; tampering is detected."""

    def safety_counterexample(self):
        report = explore_properties(
            mutant_demo_config("no-stop-wheels"), SUITE,
            names=["stop_after_move"])
        return report.counterexamples["stop_after_move"]

    def test_safety_roundtrip(self, tmp_path):
        ce = self.safety_counterexample()
        assert ce.kind == "safety"
        path = tmp_path / "ce.json"
        write_counterexample(ce, str(path))
        outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
        assert outcome == {"reproduced": True, "prop": "stop_after_move",
                           "kind": "safety", "ticks": 10}

    def test_deadline_counterexample_replays(self, tmp_path):
        report = explore_properties(
            mutant_demo_config("misroute-bus"), SUITE,
            names=["response_goal_result_arm"])
        ce = report.counterexamples["response_goal_result_arm"]
        assert ce.kind == "deadline"
        path = tmp_path / "dl.json"
        write_counterexample(ce, str(path))
        outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
        assert outcome["reproduced"] is True
        assert outcome["ticks"] == 16

    def test_truncated_replay_diverges(self, tmp_path):
        ce = self.safety_counterexample()
        path = tmp_path / "ce.json"
        write_counterexample(ce, str(path))
        data = load_counterexample(str(path))
        data["ticks"] = data["ticks"][:-1]
        with pytest.raises(ReplayDivergenceError,
                           match="did not reproduce"):
            replay_counterexample(data, SUITE)

    def test_missing_field_rejected(self, tmp_path):
        ce = self.safety_counterexample()
        path = tmp_path / "ce.json"
        write_counterexample(ce, str(path))
        data = json.loads(path.read_text())
        del data["prop"]
        path.write_text(json.dumps(data))
        with pytest.raises(ExplorationError, match="lacks"):
            load_counterexample(str(path))

    def test_unknown_property_rejected(self, tmp_path):
        ce = self.safety_counterexample()
        path = tmp_path / "ce.json"
        write_counterexample(ce, str(path))
        data = load_counterexample(str(path))
        data["prop"] = "no_such_prop"
        with pytest.raises(ExplorationError, match="not in the suite"):
            replay_counterexample(data, SUITE)

    def test_bad_embedded_config_rejected(self, tmp_path):
        ce = self.safety_counterexample()
        path = tmp_path / "ce.json"
        write_counterexample(ce, str(path))
        data = load_counterexample(str(path))
        data["config"]["decay_rate"] = -1
        with pytest.raises(ExplorationError, match="config invalid"):
            replay_counterexample(data, SUITE)


# -- programmatic checkers ---------------------------------------------------


class TestCheckers:
    """The invariant/response/sequence helpers wrap the explorer for
    assertions written in Python or property-language text."""

    def test_invariant_holds(self):
        ok, info = check_invariant(
            make_config(), lambda m: abs(m.servers["wheels"].pose[1]) <= 8)
        assert ok is True
        assert info == {"states": 133}

    def test_invariant_fails_with_trail(self):
        ok, ce = check_invariant(
            make_config(), lambda m: m.servers["wheels"].pose != (6, 0))
        assert ok is False
        assert ce.kind == "safety"
        assert ce.prop == "invariant"
        assert len(ce.ticks) == 9

    def test_response_within_bound(self):
        report = check_response(make_config(),
                                'action("move_to_waypoint(A)")',
                                'belief("at(A)")', bound=16)
        assert report.verdicts == {"response": "Satisfied"}
        assert report.states == 133

    def test_response_bound_too_tight(self):
        report = check_response(make_config(),
                                'action("move_to_waypoint(A)")',
                                'belief("at(A)")', bound=3)
        assert report.verdicts == {"response": "Violated"}
        ce = report.counterexamples["response"]
        assert ce.kind == "deadline"
        assert len(ce.ticks) == 6

    def test_sequence_in_order(self):
        report = check_sequence(
            make_config(),
            ['belief("at(A)")', 'belief("at(C)")'],
            forbidden=['topic("/env/sample") && payload.radiation > 50'])
        assert report.verdicts == {"sequence": "Satisfied"}
        assert report.states == 157

    def test_sequence_out_of_order(self):
        report = check_sequence(make_config(),
                                ['belief("at(C)")', 'belief("at(A)")'])
        assert report.verdicts == {"sequence": "Violated"}
