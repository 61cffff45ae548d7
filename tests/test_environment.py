"""Tests for hazard classification, radiation decay, and the world node."""

from __future__ import annotations

import pytest

from roverbench.bus import MessageBus, StagePort
from roverbench.config import make_config
from roverbench.environment import (
    FINE,
    HAZARD_THRESHOLD,
    NegativeReadingError,
    RADIATION,
    WINDY,
    World,
    clamp_level,
    classify,
    decay_radiation,
)
from roverbench.messages import NODE_WORLD, Message, Topology
from roverbench.tracing import EventTracer

from recorded import recorded


class ScriptSink:
    """Choice sink stub: always picks a scripted option (default the first)."""

    def __init__(self, picks: dict | None = None):
        self.picks = picks or {}
        self.calls: list[tuple] = []

    def choose(self, key, options):
        self.calls.append(tuple(key))
        return self.picks.get(tuple(key), options[0])


# -- classification ----------------------------------------------------------


class TestClassify:
    def test_threshold_is_five(self):
        assert HAZARD_THRESHOLD == 5

    def test_exhaustive_over_small_grid(self):
        """Every (wind, radiation) pair in [0, 10]^2 lands in exactly the class
        its readings call for, with radiation dominating wind."""
        for wind in range(11):
            for radiation in range(11):
                got = classify(wind, radiation)
                if radiation >= 5:
                    assert got == RADIATION, (wind, radiation)
                elif wind >= 5:
                    assert got == WINDY, (wind, radiation)
                else:
                    assert got == FINE, (wind, radiation)

    def test_radiation_priority_when_both_high(self):
        assert classify(10, 10) == RADIATION
        assert classify(5, 5) == RADIATION

    def test_boundary_values(self):
        assert classify(4, 4) == FINE
        assert classify(5, 4) == WINDY
        assert classify(4, 5) == RADIATION

    def test_negative_readings_rejected(self):
        for wind, radiation in ((-1, 0), (0, -1), (-3, -3)):
            with pytest.raises(NegativeReadingError):
                classify(wind, radiation)


# -- decay -------------------------------------------------------------------


class TestDecay:
    def test_each_step_drops_by_rate(self):
        levels = {"A": 7, "B": 3}
        assert decay_radiation(levels, 2) == {"A": 5, "B": 1}

    def test_floored_at_zero(self):
        assert decay_radiation({"A": 1}, 3) == {"A": 0}
        assert decay_radiation({"A": 0}, 1) == {"A": 0}

    def test_monotone_nonincreasing_until_zero(self):
        """Iterating decay from any start in [0, 30] descends by the rate and
        stays at zero forever after."""
        for start in range(0, 31, 5):
            levels = {"X": start}
            seen = [start]
            for _ in range(40):
                levels = decay_radiation(levels, 1)
                seen.append(levels["X"])
            for prev, cur in zip(seen, seen[1:]):
                assert cur == max(0, prev - 1)
            assert seen[-1] == 0

    def test_rate_zero_is_static(self):
        assert decay_radiation({"A": 9}, 0) == {"A": 9}

    def test_clamp_level(self):
        assert clamp_level(-4, 50) == 0
        assert clamp_level(12, 50) == 12
        assert clamp_level(99, 50) == 50


# -- world node --------------------------------------------------------------


def make_world(overrides: dict | None = None, explore: bool = False, sink=None):
    config = make_config(overrides or {})
    tracer = EventTracer()
    bus = MessageBus(Topology(), tracer)
    world = World(config, sink=sink if explore else None)
    return world, bus, recorded(tracer)


def port_at(bus, t: int, sink=None) -> StagePort:
    """The world's port for a step at tick ``t``."""
    bus.tick = t
    return StagePort(bus, (NODE_WORLD,), sink)


def samples(events) -> list[dict]:
    return [ev["payload"] for ev in events
            if ev["kind"] == "publish" and ev["topic"] == "/env/sample"]


class TestWorld:
    def test_one_sample_per_waypoint_per_tick(self):
        world, bus, events = make_world()
        world.step(port_at(bus, 0))
        assert [s["wp"] for s in samples(events)] == ["o", "A", "B", "C"]

    def test_first_step_publishes_undecayed_levels(self):
        """Decay is skipped on the very first step, so tick 0 shows the
        configured field: radiation 20 at B, wind 7 at A."""
        world, bus, events = make_world()
        world.step(port_at(bus, 0))
        by_wp = {s["wp"]: s for s in samples(events)}
        assert by_wp["B"]["radiation"] == 20
        assert by_wp["B"]["env"] == RADIATION
        assert by_wp["A"]["wind"] == 7
        assert by_wp["A"]["env"] == WINDY
        assert by_wp["o"]["env"] == FINE

    def test_radiation_decays_one_per_tick_from_second_step(self):
        """At step t the level is the initial value minus t, floored at zero,
        so B crosses below the threshold between steps 15 and 16."""
        world, bus, events = make_world()
        for t in range(25):
            world.step(port_at(bus, t))
        b_levels = [s["radiation"] for s in samples(events) if s["wp"] == "B"]
        assert b_levels == [max(0, 20 - t) for t in range(25)]
        b_classes = [s["env"] for s in samples(events) if s["wp"] == "B"]
        assert b_classes[15] == RADIATION  # level 5, still hazardous
        assert b_classes[16] == FINE  # level 4

    def test_wind_is_static_without_exploration(self):
        world, bus, events = make_world()
        for t in range(10):
            world.step(port_at(bus, t))
        a_wind = {s["wind"] for s in samples(events) if s["wp"] == "A"}
        assert a_wind == {7}

    def test_env_fault_overrides_single_tick(self):
        """A fault rewrites the published reading at its tick only."""
        world, bus, events = make_world(
            {"env_faults": [{"tick": 3, "wp": "o", "radiation": 9}]}
        )
        for t in range(6):
            world.step(port_at(bus, t))
        o_samples = [s for s in samples(events) if s["wp"] == "o"]
        assert [s["radiation"] for s in o_samples] == [0, 0, 0, 9, 0, 0]
        assert [s["env"] for s in o_samples] == [FINE] * 3 + [RADIATION] + [FINE] * 2

    def test_negative_fault_published_raw_but_classified_clamped(self):
        """A wind=-1 fault reaches the wire as -1 (monitor-visible) while the
        classifier sees the clamped reading and does not crash."""
        world, bus, events = make_world(
            {"env_faults": [{"tick": 2, "wp": "A", "wind": -1}]}
        )
        for t in range(4):
            world.step(port_at(bus, t))
        a_samples = [s for s in samples(events) if s["wp"] == "A"]
        assert a_samples[2]["wind"] == -1
        assert a_samples[2]["env"] == FINE  # clamped to 0 before classifying
        assert a_samples[3]["wind"] == 7

    def test_initial_levels_clamped_to_cap(self):
        world, bus, events = make_world({"radiation": {"o": 0, "A": 0, "B": 50, "C": 0}})
        world.step(port_at(bus, 0))
        by_wp = {s["wp"]: s for s in samples(events)}
        assert by_wp["B"]["radiation"] == 50

    def test_to_state_tracks_field_and_pose(self):
        world, bus, _ = make_world()
        _wind, radiation, pose, started = world.to_state()
        assert pose == (0, 0)
        assert radiation["B"] == 20
        assert started is False
        world.step(port_at(bus, 0))
        assert world.to_state()[3] is True  # started


class TestWorldExploration:
    def test_initial_radiation_drawn_from_choice_sets(self):
        """Exploration asks the sink for each waypoint's starting level."""
        sink = ScriptSink()
        world, bus, _ = make_world(explore=True, sink=sink)
        assert world.radiation == {"o": 0, "A": 0, "B": 20, "C": 0}
        assert ("radiation0", "B") in sink.calls

    def test_arrival_redraws_wind_at_reached_waypoint(self):
        """A pose message landing on a waypoint re-draws its wind; the default
        choice set at A offers calm and windy options."""
        sink = ScriptSink(picks={("wind", "A"): 0})
        world, bus, _ = make_world(explore=True, sink=sink)
        msg = Message(seq=0, sender="wheelsServer", topic="/pose",
                      payload={"x": 6, "y": 0})
        world._observe_pose(msg, port_at(bus, 0, sink))
        assert ("wind", "A") in sink.calls
        assert world.wind["A"] == 0

    def test_pose_off_waypoint_draws_nothing(self):
        sink = ScriptSink()
        world, bus, _ = make_world(explore=True, sink=sink)
        calls_before = len(sink.calls)
        msg = Message(seq=0, sender="wheelsServer", topic="/pose",
                      payload={"x": 3, "y": 0})
        world._observe_pose(msg, port_at(bus, 0, sink))
        assert len(sink.calls) == calls_before
