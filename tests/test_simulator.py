"""End-to-end simulation tests: timeline landmarks, determinism, summaries.

Expected tick numbers below are frozen from instrumented runs of the
default scenario and cross-checked against the component tests: ready
announcements go out at t=1 (one init-delay step), become beliefs at
t=2 after delivery, and the first patrol goal is issued the same cycle
the readiness beliefs land.
"""

from __future__ import annotations

import io
import json

import pytest

from roverbench.action_protocol import ACTIVE, PENDING
from roverbench.config import make_config
from roverbench.explorer import ChoiceSink
from roverbench.messages import Topology, server_node
from roverbench.simulator import TRACE_FORMAT, Model, run_simulation
from roverbench.tracing import EventTracer

from recorded import recorded


# -- helpers -----------------------------------------------------------------


def run(tmp_path, overrides=None, ticks=60, name="trace.jsonl"):
    """Run a simulation with a trace file and return (summary, events)."""
    path = tmp_path / name
    summary = run_simulation(make_config(overrides or {}), ticks,
                             trace_path=str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    return summary, events


def publishes(events, topic):
    return [e for e in events
            if e["kind"] == "publish" and e["topic"] == topic]


def actions(events):
    return [(e["t"], e["action"]) for e in events if e["kind"] == "action"]


def belief_adds(events, prefix):
    return [(e["t"], e["atom"]) for e in events
            if e["kind"] == "belief" and e["op"] == "add"
            and e["atom"].startswith(prefix)]


# -- summary shape -----------------------------------------------------------


class TestSummary:
    """The run summary reports the final mission state."""

    def test_summary_keys(self, tmp_path):
        summary, _ = run(tmp_path, ticks=10)
        assert sorted(summary) == [
            "beliefs", "explanations", "final_tick", "messages_blocked",
            "messages_published", "pose", "stats", "ticks", "trace",
            "verdicts", "visited",
        ]

    def test_zero_ticks_is_header_only(self, tmp_path):
        """With no ticks the trace holds just the header line."""
        summary, events = run(tmp_path, ticks=0)
        assert len(events) == 1
        assert events[0]["kind"] == "header"
        assert summary["final_tick"] == 0
        assert summary["visited"] == []
        assert summary["messages_published"] == 0

    def test_final_tick_matches_request(self, tmp_path):
        summary, _ = run(tmp_path, ticks=25)
        assert summary["ticks"] == 25
        assert summary["final_tick"] == 25

    def test_trace_path_recorded(self, tmp_path):
        summary, _ = run(tmp_path, ticks=5)
        assert summary["trace"].endswith("trace.jsonl")
        assert summary["explanations"].endswith("trace.jsonl.explain")


def model_events(overrides=None, ticks=60) -> list[dict]:
    tracer = EventTracer()
    events = recorded(tracer)
    model = Model(make_config(overrides or {}), tracer)
    for _ in range(ticks):
        model.step_tick()
    return events


class TestTopology:
    """The topic table is the wiring, and none of it goes unused."""

    def test_every_declared_topic_is_published(self):
        summary = run_simulation(make_config(), 60)
        published = {topic for topic, c in summary["stats"]["topics"].items() if c["published"]}
        assert sorted(set(Topology().topics) - published) == []

    def test_every_declared_shape_is_published(self):
        published = {(ev["topic"], frozenset(ev["payload"]))
                     for ev in model_events() if ev["kind"] == "publish"}
        declared = {(spec.name, spec.keys) for spec in Topology().topics.values()}
        assert sorted(name for name, _ in declared - published) == []

    @pytest.mark.parametrize("mutant", [None, "misroute-bus"])
    def test_delivery_follows_the_topic_table(self, mutant):
        """Each message goes to exactly its topic's declared subscribers, in
        declared order; the misrouting mutant rewrites one row of the table."""
        topics = Topology()
        if mutant == "misroute-bus":
            topics.reroute("/arm/goal", (server_node("mast"),))
        events = model_events({"mutant": mutant})
        delivered: dict[int, list[str]] = {}
        for ev in events:
            if ev["kind"] == "deliver":
                delivered.setdefault(ev["seq"], []).append(ev["node"])
        expected = {ev["seq"]: list(topics.topics[ev["topic"]].subscribers)
                    for ev in events if ev["kind"] == "publish"}
        assert any(ev.get("topic") == "/arm/goal" for ev in events)
        assert delivered == expected


# -- trace header ------------------------------------------------------------


class TestHeader:
    """Every trace starts with a self-describing header line."""

    def test_header_first_line(self, tmp_path):
        _, events = run(tmp_path, ticks=5)
        head = events[0]
        assert head["kind"] == "header"
        assert head["t"] == 0
        assert head["format"] == TRACE_FORMAT

    def test_header_embeds_scenario(self, tmp_path):
        _, events = run(tmp_path, ticks=5)
        cfg = events[0]["config"]
        assert cfg["waypoints"] == {"o": [0, 0], "A": [6, 0],
                                    "B": [6, -4], "C": [6, -8]}
        assert cfg["patrol"] == ["A", "B", "C"]
        assert cfg["start"] == "o"

    def test_header_reflects_overrides(self, tmp_path):
        _, events = run(tmp_path, overrides={"dwell_ticks": 7}, ticks=2)
        assert events[0]["config"]["dwell_ticks"] == 7


# -- mission timeline --------------------------------------------------------


class TestTimeline:
    """Landmark ticks of the default patrol, frozen from measured runs."""

    def test_ready_announcements_at_tick_one(self, tmp_path):
        """All three servers announce readiness after their 1-tick delay."""
        _, events = run(tmp_path)
        ready = [(e["t"], e["topic"]) for e in events
                 if e["kind"] == "publish" and e["topic"].startswith("/ready/")]
        assert ready == [(1, "/ready/wheels"), (1, "/ready/arm"),
                         (1, "/ready/mast")]

    def test_ready_beliefs_at_tick_two(self, tmp_path):
        _, events = run(tmp_path)
        assert belief_adds(events, "ready(") == [
            (2, "ready(wheels)"), (2, "ready(arm)"), (2, "ready(mast)"),
        ]

    def test_action_sequence(self, tmp_path):
        """First patrol round: out to A, skip the hot stop, work at C,
        then resume the full loop once the radiation has decayed."""
        _, events = run(tmp_path)
        assert actions(events)[:10] == [
            (2, "move_to_waypoint(A)"),
            (10, "move_to_waypoint(C)"),
            (20, "control_arm(open)"),
            (20, "control_mast(open)"),
            (27, "control_arm(close)"),
            (27, "control_mast(close)"),
            (31, "move_to_waypoint(A)"),
            (41, "move_to_waypoint(B)"),
            (47, "control_arm(open)"),
            (47, "control_mast(open)"),
        ]

    def test_arrival_beliefs(self, tmp_path):
        _, events = run(tmp_path, ticks=70)
        assert belief_adds(events, "at(") == [
            (0, "at(o)"), (10, "at(A)"), (20, "at(C)"),
            (41, "at(A)"), (47, "at(B)"), (64, "at(C)"),
        ]

    def test_stop_frames_precede_each_arrival(self, tmp_path):
        """The wheels go to zero on the tick each waypoint leg resolves."""
        _, events = run(tmp_path)
        stops = [e["t"] for e in publishes(events, "/wheels/telemetry")
                 if e["payload"]["speeds"] == [0] * 6]
        assert stops == [9, 19, 40, 46]

    def test_first_leg_poses_march_one_cell(self, tmp_path):
        _, events = run(tmp_path, ticks=12)
        poses = [(e["payload"]["x"], e["payload"]["y"])
                 for e in publishes(events, "/pose")]
        assert poses[:6] == [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)]


# -- long-run patrol ---------------------------------------------------------


class TestLongRun:
    """A 500-tick run settles into the steady A-B-C loop."""

    def test_visit_sequence(self, tmp_path):
        summary, _ = run(tmp_path, ticks=500, name="long.jsonl")
        assert summary["visited"] == (
            ["o", "A", "C"] + ["A", "B", "C"] * 10 + ["A", "B"])
        assert len(summary["visited"]) == 35

    def test_message_volume(self, tmp_path):
        summary, _ = run(tmp_path, ticks=500, name="long.jsonl")
        assert summary["messages_published"] == 3195
        assert summary["messages_blocked"] == 0

    def test_final_pose_mid_leg(self, tmp_path):
        """Tick 500 lands mid-travel between B and C."""
        summary, _ = run(tmp_path, ticks=500, name="long.jsonl")
        assert summary["pose"] == [6, -5]


class TestGoalRecords:
    def test_endpoints_hold_only_unfinished_goals(self):
        """A client forgets a goal on its result and a server holds only its
        active goal, so no endpoint keeps a finished goal after any tick."""
        model = Model(make_config(), EventTracer(sink=io.StringIO()))
        for _ in range(300):
            model.step_tick()
            for client in model.clients.values():
                assert all(r.status in (PENDING, ACTIVE) for r in client.records.values())
            for server in model.servers.values():
                assert server.active is None or server.active.status == ACTIVE
        assert sum(c._counter for c in model.clients.values()) > 20


# -- request/response latency ------------------------------------------------


class TestLatency:
    """Goal-to-result latency stays within the documented bounds."""

    def latencies(self, events, effector):
        sent = {}
        out = []
        for e in events:
            if e["kind"] != "publish":
                continue
            if e["topic"] == f"/{effector}/goal":
                sent[e["payload"]["goal_id"]] = e["t"]
            elif e["topic"] == f"/{effector}/result":
                out.append(e["t"] - sent[e["payload"]["goal_id"]])
        return out

    def test_posture_latency_constant(self, tmp_path):
        """Posture moves take their 2-tick duration plus one transit tick."""
        _, events = run(tmp_path, ticks=200)
        for effector in ("arm", "mast"):
            lats = self.latencies(events, effector)
            assert lats and all(lat == 3 for lat in lats)

    def test_wheels_latency_tracks_leg_length(self, tmp_path):
        """Drive legs run 4-8 cells, so results land 5-9 ticks after the
        goal -- always within the leg length plus the 3-tick ceiling."""
        _, events = run(tmp_path, ticks=200)
        lats = self.latencies(events, "wheels")
        assert lats
        assert min(lats) == 5 and max(lats) == 9

    def test_no_goal_before_readiness(self, tmp_path):
        _, events = run(tmp_path)
        first_goal = min(e["t"] for e in events
                         if e["kind"] == "publish"
                         and e["topic"].endswith("/goal"))
        ready_beliefs = belief_adds(events, "ready(")
        assert first_goal >= max(t for t, _ in ready_beliefs)


# -- determinism -------------------------------------------------------------


class TestDeterminism:
    """Identical configurations must reproduce identical traces."""

    def test_traces_byte_identical(self, tmp_path):
        run(tmp_path, ticks=120, name="a.jsonl")
        run(tmp_path, ticks=120, name="b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == \
               (tmp_path / "b.jsonl").read_bytes()

    def test_explanations_byte_identical(self, tmp_path):
        run(tmp_path, ticks=120, name="a.jsonl")
        run(tmp_path, ticks=120, name="b.jsonl")
        assert (tmp_path / "a.jsonl.explain").read_bytes() == \
               (tmp_path / "b.jsonl.explain").read_bytes()

    def test_shorter_run_is_a_prefix(self, tmp_path):
        """Stopping earlier only truncates the event stream; it never
        rewrites history.  Only the header differs (it records the
        requested horizon)."""
        _, short = run(tmp_path, ticks=40, name="short.jsonl")
        _, long = run(tmp_path, ticks=80, name="long.jsonl")
        assert long[1:len(short)] == short[1:]
        head_short, head_long = short[0], long[0]
        assert head_short.pop("ticks") == 40
        assert head_long.pop("ticks") == 80
        assert head_short == head_long

    def test_summaries_equal(self, tmp_path):
        first, _ = run(tmp_path, ticks=120, name="a.jsonl")
        second, _ = run(tmp_path, ticks=120, name="b.jsonl")
        for key in ("visited", "beliefs", "pose", "messages_published"):
            assert first[key] == second[key]


# -- fault-variant wiring ----------------------------------------------------


class TestVariants:
    """Seeded defect variants change observable behaviour end to end."""

    def test_no_stop_variant_drops_halt_frames(self, tmp_path):
        _, events = run(tmp_path, overrides={"mutant": "no-stop-wheels"})
        stops = [e for e in publishes(events, "/wheels/telemetry")
                 if e["payload"]["speeds"] == [0] * 6]
        assert stops == []

    def test_misroute_variant_starves_arm_server(self, tmp_path):
        """With goal topics crossed the arm server never answers, so the
        patrol stalls after the first working stop."""
        summary, events = run(tmp_path, overrides={"mutant": "misroute-bus"})
        assert publishes(events, "/arm/result") == []
        assert summary["visited"] == ["o", "A", "C"]

    def test_premature_variant_acts_before_ready(self, tmp_path):
        _, events = run(tmp_path, overrides={"mutant": "premature-action"},
                        ticks=20)
        assert actions(events)[0] == (0, "move_to_waypoint(A)")


class TestStreaming:
    """A tracer with a sink streams events instead of holding them, so a
    streamed run's memory does not grow with its length."""

    def test_sink_gets_every_line_and_nothing_is_kept(self):
        sink = io.StringIO()
        tracer = EventTracer(sink=sink)
        seen = []
        tracer.add_observer(seen.append)
        for t in range(3):
            tracer.emit({"t": t, "kind": "header"})
        tracer.flush()
        assert [json.loads(line) for line in sink.getvalue().splitlines()] == seen
        assert len(seen) == 3
        assert not hasattr(tracer, "events")

    def test_streaming_tracer_gives_the_same_acting_mask(self):
        """The acting mask is read from the stages' ports, not from the
        events a tracer keeps, so with the schedule as a choice a tracer
        that streams to a file marks the same stages on every step as one
        that keeps its events."""
        config = make_config({"schedule_sensitivity": True})
        kept = Model(config, EventTracer(), sink=ChoiceSink())
        streamed = Model(config, EventTracer(sink=io.StringIO()), sink=ChoiceSink())
        masks = [(kept.step_tick(ChoiceSink()), streamed.step_tick(ChoiceSink()))
                 for _ in range(60)]
        assert all(k == s for k, s in masks)
        # Steps where at most one stage acted, and where several did.
        assert any(k & (k - 1) == 0 for k, _ in masks)
        assert any(k & (k - 1) != 0 for k, _ in masks)
        assert kept.to_state() == streamed.to_state()
