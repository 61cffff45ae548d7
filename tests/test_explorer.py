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

from naive_semantics import fold_belief
from roverbench.config import ConfigError, make_config
from roverbench.environment import World
from roverbench.explorer import (
    ExplorationError,
    Explorer,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
    explore_properties,
    load_counterexample,
    replay_counterexample,
    _Edge,
    write_counterexample,
)
from roverbench.monitor import OnlineMonitor, synthesize
from roverbench.prop_dsl import (
    VIOLATED,
    And,
    Never,
    Not,
    Until,
    compile_event_predicate,
    parse_formula,
    parse_suite,
)

from mutants import (
    describe,
    killer_property,
    mutant_demo_config,
    mutant_names,
)
from test_monitor import predicates, streams


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
                             "counterexamples", "complete",
                             "schedule_invariant", "stats"}
        stats = data["stats"]
        assert set(stats) == {"seconds", "dedupe_hit_rate", "phase_s",
                              "states_per_depth", "frontier_max",
                              "unstepped_transitions", "restored",
                              "distinct_components"}
        assert list(stats["distinct_components"]) == [
            "world", "servers.arm", "servers.mast", "servers.wheels", "host",
            *(f"inboxes.{node}" for node in sorted(
                ["agent", "armClient", "armServer", "envInterface", "mastClient",
                 "mastServer", "wheelsClient", "wheelsServer", "world"])),
            "monitors"]
        assert set(stats["phase_s"]) == {"restore", "step", "key", "liveness"}
        assert all(stats["phase_s"][phase] > 0 for phase in ("restore", "step", "key"))
        # 133 states over 136 transitions and the roots' lookups.
        assert 0 < stats["dedupe_hit_rate"] < 0.1
        # Without schedule permutations every transition has its own step.
        assert stats["unstepped_transitions"] == 0


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

    def test_single_actor_orders_share_a_step(self, schedule_report):
        """One step stands for every order that runs the acting stages in
        the same relative order: of the 136 groups of 24 orders, 98 had at
        most one acting stage (one step each), 36 had the arm and mast
        acting and one the wheels and host (two steps each), and one had
        all four acting (24 steps): 196 steps, and 3068 copied edges."""
        assert schedule_report.stats["unstepped_transitions"] == 3068

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

    def test_met_deadline_stops_counting(self):
        """A bare bounded ``eventually`` whose goal is met holds no due
        tick, so the walk closes at the model's own states."""
        report = explore_properties(make_config(), {"ready_soon": parse_formula(
            'eventually[<=10](belief("ready(wheels)"))')}, budget_states=5000)
        assert (report.states, report.transitions) == (133, 136)
        assert report.verdicts == {"ready_soon": "Satisfied"}
        assert report.complete

    def test_step_ending_before_its_tick_fails(self, monkeypatch):
        """Keys count deadlines from ``model.tick`` and the monitors expire
        windows at the last event's time, so a step must end at its tick:
        with a world that publishes nothing, the first tick ends at event
        time 0 with ``model.tick`` 1."""
        monkeypatch.setattr(World, "step", lambda self, port: None)
        with pytest.raises(RuntimeError, match="tick 1 ended at event time 0"):
            explore_properties(make_config(), SUITE)


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
        "env-blind": "7b29af44ccbcafad5ee895a143758f1f179f02709db18ccab994887440f09d0b",
        "misroute-bus": "af1e7d1579f87228b63f17a2a55f7f8567449db5870c28c77acfcd9dd7dc9024",
        "no-stop-wheels": "9ad158db086f758dd4a3d16914a56043dd2a07f59dcdc6ed982472ec46b6fdea",
        "premature-action": "600f3e51e730259bb75402779b6087f2cc2a5ec9195f1dc0ddb45d039547ae9f",
    }
    # sha256 of the same files' JSON with ``reason`` dropped, keys sorted:
    # the config and the choice path, which no change of wording may move.
    WITHOUT_REASON_SHA256 = {
        "env-blind": "5a1eeecd648e2772a18e5187712d0dbe15841aa0a8f1674d3c4bbfc058a18501",
        "misroute-bus": "3ae461c945dc88b0aab77ce33484dab064391440f425ef665b00cd9a7f1b391f",
        "no-stop-wheels": "f4fc4a070347e0aa3b7deeadefcc405deabcf0c886db662e5117337954a60cae",
        "premature-action": "47a43f4b9d225d249029e0dc31e3fbef0e72da42c3bc76356e148c8564c892d1",
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
            rest = json.loads(path.read_bytes())
            del rest["reason"]
            digest = hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()
            assert digest == self.WITHOUT_REASON_SHA256[name], name
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
        assert ce.loop_from == 11
        assert len(ce.ticks) == 53

    def test_lasso_replays(self, tmp_path):
        report = explore_properties(make_config({"decay_rate": 0}), SUITE,
                                    names=["revisits_B"])
        path = tmp_path / "lasso.json"
        write_counterexample(report.counterexamples["revisits_B"], str(path))
        outcome = replay_counterexample(load_counterexample(str(path)), SUITE)
        assert outcome == {"reproduced": True, "prop": "revisits_B",
                           "kind": "liveness", "ticks": 53, "loop_from": 11}

    def test_loop_through_the_awaited_event_does_not_replay(self, monkeypatch):
        """A cycle of the default map, where B keeps coming back, is no
        lasso for ``revisits_B``: its loop believes at(B)."""
        search = Explorer._find_lasso
        monkeypatch.setattr(Explorer, "_find_lasso", staticmethod(
            lambda allowed, out, name, starts: search(allowed, out, "no awaited event",
                                                      starts)))
        report = explore_properties(make_config(), SUITE, names=["revisits_B"])
        ce = report.counterexamples["revisits_B"]
        with pytest.raises(ReplayDivergenceError, match="of the loop produces"):
            replay_counterexample(ce.to_json(), SUITE)

    def test_response_lasso_needs_an_open_obligation(self, monkeypatch):
        """A cycle whose obligation never opened is no lasso for an
        unbounded response, although the awaited event never comes."""
        search = Explorer._find_lasso
        monkeypatch.setattr(Explorer, "_find_lasso", staticmethod(
            lambda allowed, out, name, starts: search(dict.fromkeys(out), out, name,
                                                      dict.fromkeys(out))))
        suite = {"idle": parse_formula(
            'always(action("dance") => eventually(belief("at(Z)")))')}
        ce = explore_properties(make_config(), suite).counterexamples["idle"]
        with pytest.raises(ReplayDivergenceError, match="not open at the loop entry"):
            replay_counterexample(ce.to_json(), suite)


def lasso_digest(ce, path, suite=SUITE) -> str:
    """Write ``ce``, check that it replays as a lasso against ``suite`` (which
    must hold its property), return its sha256."""
    write_counterexample(ce, str(path))
    outcome = replay_counterexample(load_counterexample(str(path)), suite)
    assert outcome == {"reproduced": True, "prop": ce.prop, "kind": "liveness",
                       "ticks": len(ce.ticks), "loop_from": ce.loop_from}
    return hashlib.sha256(path.read_bytes()).hexdigest()


EVENTUALLY_B = parse_formula('eventually(belief("at(B)"))')
RESPONSE_A_B = parse_formula(
    'always(action("move_to_waypoint(A)") => eventually(belief("at(B)")))')
RESPONSE_A_A = parse_formula(
    'always((action("move_to_waypoint(A)")) => eventually((belief("at(A)"))))')


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
        assert (ce.loop_from, len(ce.ticks)) == (11, 53)
        assert lasso_digest(ce, tmp_path / "ev.json", {"eventually_B": EVENTUALLY_B}) == \
            "6eb39328536e154eb562840e08268dbec4e08c392ca1a177663cc5e12a4a31cc"

    def test_unbounded_response(self, tmp_path):
        report = explore_properties(make_config({"decay_rate": 0}),
                                    {"response_A_B": RESPONSE_A_B})
        assert report.states == 87
        assert report.verdicts == {"response_A_B": "Violated"}
        ce = report.counterexamples["response_A_B"]
        assert (ce.loop_from, len(ce.ticks)) == (11, 53)
        assert lasso_digest(ce, tmp_path / "resp.json", {"response_A_B": RESPONSE_A_B}) == \
            "868e7ac7beb1bcfe97da8593672fff0d2202195f2f0fd24500ab65a640a0e68d"

    def test_check_response_under_wheel_faults(self, tmp_path):
        report = explore_properties(make_config({"fault_exploration": {"wheels": True}}),
                                    {"response": RESPONSE_A_A})
        assert (report.states, report.transitions) == (250, 284)
        assert report.verdicts == {"response": "Violated"}
        ce = report.counterexamples["response"]
        assert (ce.loop_from, len(ce.ticks)) == (21, 23)
        assert lasso_digest(ce, tmp_path / "wheels.json", {"response": RESPONSE_A_A}) == \
            "6d0f2e5509e7a2e8a0ea84f279754b2a6d939463be1db10c6ac352994740800f"

    def test_every_shape_holds_on_the_default_map(self):
        report = explore_properties(
            make_config(), {"eventually_B": EVENTUALLY_B,
                            "response_A_B": RESPONSE_A_B,
                            "revisits_B": SUITE["revisits_B"]})
        assert report.verdicts == {"eventually_B": "Satisfied",
                                   "response_A_B": "Satisfied",
                                   "revisits_B": "Satisfied"}
        assert report.counterexamples == {}
        report = explore_properties(make_config(), {"response": RESPONSE_A_A})
        assert report.verdicts == {"response": "Satisfied"}


def after(keys, allowed, out, name) -> set:
    """The keys that one usable edge, one without the awaited event and into
    ``allowed``, leads to from ``keys``."""
    return {e.dst for key in keys for e in out.get(key, ())
            if name not in e.awaited and e.dst in allowed}


def shortest_return(key, allowed, out, name) -> int | None:
    """The fewest usable edges that lead from ``key`` back to it, by brute
    force: the keys each number of steps reaches, up to one per key."""
    layer = {key}
    for length in range(1, len(allowed) + 1):
        layer = after(layer, allowed, out, name)
        if key in layer:
            return length
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
    """(allowed keys in order, out-edges, start keys): up to 8 keys and
    three edges per key, a third of them labelled with the awaited event
    ``p``, and every allowed key a start or a drawn few."""
    size = draw(st.integers(1, 8))
    keys = [f"s{i}" for i in range(size)]
    out: dict = {}
    for n, (src, dst, fires) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from(keys),
                      st.sampled_from([False, False, True])),
            max_size=3 * size))):
        out.setdefault(src, []).append(
            _Edge(src, dst, [n], {"p"} if fires else set()))
    allowed = dict.fromkeys(sorted(set(draw(st.lists(st.sampled_from(keys), min_size=1)))))
    starts = allowed
    if draw(st.booleans()):
        starts = draw(st.lists(st.sampled_from(list(allowed)), unique=True))
    return allowed, out, starts


class TestLassoSearch:
    """The lasso rule on arbitrary labelled graphs, against brute force: the
    entry is the first key, in order, that the starts reach and that can
    return to itself, and the loop is a shortest return to it."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(labelled_graphs())
    def test_first_cyclic_entry_and_shortest_loop(self, graph):
        allowed, out, starts = graph
        found = Explorer._find_lasso(allowed, out, "p", starts)
        reach = set(starts)
        while not after(reach, allowed, out, "p") <= reach:
            reach |= after(reach, allowed, out, "p")
        returns = {key: shortest_return(key, allowed, out, "p") for key in reach}
        entries = [key for key in allowed if returns.get(key) is not None]
        assert (found is None) == (not entries) == (not has_cycle(reach, out, "p"))
        if found is not None:
            entry, cycle = found
            assert entry == entries[0]
            assert len(cycle) == returns[entry]
            assert cycle[0].src == cycle[-1].dst == entry
            assert all(a.dst == b.src for a, b in zip(cycle, cycle[1:]))
            assert all(any(e is f for f in out[e.src]) and "p" not in e.awaited
                       and e.dst in allowed for e in cycle)

    def test_self_loop_below_the_start(self):
        """A self-loop reached a few edges into the search is a one-edge
        cycle, not the path that led to it."""
        ab, bc, cc = _Edge("a", "b", [0], set()), _Edge("b", "c", [1], set()), \
            _Edge("c", "c", [2], set())
        out = {"a": [ab], "b": [bc], "c": [cc]}
        assert Explorer._find_lasso(dict.fromkeys("abc"), out, "p", ["a"]) == ("c", [cc])


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
        assert (ce.loop_from, len(ce.ticks)) == (505, 1531)
        assert lasso_digest(ce, tmp_path / "far.json") == \
            "53ea1810647df558857770fb04e3c151a653a1eff0d0821d7b826a59e23ca9ba"


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

    def test_negative_pick_diverges(self):
        """A record handed to ``replay_counterexample`` without
        ``load_counterexample``'s checks cannot pick from the end."""
        ce = self.safety_counterexample()
        data = json.loads(json.dumps(ce.to_json()))
        data["ticks"][9][0][2] = -1
        with pytest.raises(ReplayDivergenceError, match="recorded pick was -1"):
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


# -- checks written as suites ------------------------------------------------


def response(bound: int) -> dict:
    """``always(T => eventually[<=bound](G))`` from A's move to arrival at A."""
    return {"response": parse_formula(
        f'always((action("move_to_waypoint(A)")) => eventually[<={bound}]((belief("at(A)"))))')}


def sequence_suite(steps: list, forbidden: list) -> dict:
    """A sequence as formulas over event predicates: ``never(f)`` for each
    forbidden ``f``, and ``!s until (r && !s)`` for each step ``s`` and the
    step ``r`` before it.  The later step may occur only after an event of
    the earlier one that is not also its own, so the first occurrences come
    in order and an event matching two steps at once breaks the order."""
    suite = {f"forbidden #{i}": Never(pred) for i, pred in enumerate(forbidden)}
    for i in range(1, len(steps)):
        later = Not(steps[i])
        suite[f"step {i} after step {i - 1}"] = Until(later, And(steps[i - 1], later))
    return suite


class TestCheckers:
    """Invariants, bounded responses and sequences are property-language
    suites handed to ``explore_properties``."""

    def test_invariant_holds(self):
        report = explore_properties(make_config(), {"invariant": parse_formula(
            'never(topic("/pose") && (payload.y > 8 || payload.y < -8))')})
        assert report.verdicts == {"invariant": "Satisfied"}
        assert report.states == 133

    def test_invariant_fails_with_trail(self):
        report = explore_properties(make_config(), {"invariant": parse_formula(
            'never(topic("/pose") && payload.x == 6 && payload.y == 0)')})
        assert report.verdicts == {"invariant": "Violated"}
        assert report.states == 133
        ce = report.counterexamples["invariant"]
        assert ce.kind == "safety"
        assert ce.prop == "invariant"
        assert len(ce.ticks) == 9

    def test_response_within_bound(self):
        report = explore_properties(make_config(), response(16))
        assert report.verdicts == {"response": "Satisfied"}
        assert report.states == 133

    def test_response_bound_too_tight(self):
        report = explore_properties(make_config(), response(3))
        assert report.verdicts == {"response": "Violated"}
        ce = report.counterexamples["response"]
        assert ce.kind == "deadline"
        assert len(ce.ticks) == 6

    def test_sequence_in_order(self):
        suite = sequence_suite(
            [parse_formula('belief("at(A)")'), parse_formula('belief("at(C)")')],
            [parse_formula('topic("/env/sample") && payload.radiation > 50')])
        report = explore_properties(make_config(), suite)
        assert report.verdicts == {"forbidden #0": "Satisfied",
                                   "step 1 after step 0": "Satisfied"}
        assert report.states == 133

    def test_sequence_out_of_order(self, tmp_path):
        part = parse_formula('!belief("at(A)") until (belief("at(C)") && !belief("at(A)"))')
        report = explore_properties(make_config(), {"sequence": part})
        assert report.verdicts == {"sequence": "Violated"}
        ce = report.counterexamples["sequence"]
        # A is reached at t=10, under the first wind pick on arrival.
        assert ce.init == [[["radiation0", wp], 1, 0] for wp in "oABC"]
        assert ce.ticks == [[]] * 9 + [[[["wind", "A"], 2, 0]], []]
        path = tmp_path / "sequence.json"
        write_counterexample(ce, str(path))
        outcome = replay_counterexample(load_counterexample(str(path)), {"sequence": part})
        assert outcome == {"reproduced": True, "prop": "sequence",
                           "kind": "safety", "ticks": 11}


class SequenceReference(OnlineMonitor):
    """Hand-written reference for ``sequence_suite``: first occurrences of
    the listed predicates must appear in order; any forbidden event is an
    immediate violation."""

    def __init__(self, steps, forbidden):
        super().__init__("sequence", "log")
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


def first_violation(monitors, events) -> int | None:
    beliefs: set = set()
    for position, event in enumerate(events):
        fold_belief(beliefs, event)
        state = frozenset(beliefs)
        for monitor in monitors:
            monitor.observe(event, state)
        if any(monitor.verdict == VIOLATED for monitor in monitors):
            return position
    return None


class TestSequenceSuite:
    """The formulas of ``sequence_suite`` are first violated where
    the hand-written reference monitor is."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(predicates, min_size=1, max_size=4),
           st.lists(predicates, max_size=2), streams)
    def test_matches_reference_monitor(self, steps, forbidden, stream):
        events, tick = [], 0
        for advance, body in stream:
            tick += advance
            events.append({"t": tick, **body})
        reference = SequenceReference([compile_event_predicate(s) for s in steps],
                                      [compile_event_predicate(f) for f in forbidden])
        suite = sequence_suite(steps, forbidden)
        assert len(suite) == len(forbidden) + len(steps) - 1
        monitors = [synthesize(name, ast) for name, ast in suite.items()]
        assert first_violation(monitors, events) == first_violation([reference], events)
