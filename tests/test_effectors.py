"""Tests for the effector servers: drive kinematics and posture interpolation."""

from __future__ import annotations

from roverbench.action_protocol import ClientEndpoint, SUCCEEDED
from roverbench.bus import MessageBus, StagePort
from roverbench.config import make_config
from roverbench.effectors import (
    NOMINAL_SPEED,
    PostureServer,
    WHEEL_COUNT,
    WheelsServer,
    build_servers,
)
from roverbench.messages import Topology
from roverbench.tracing import EventTracer


def make_rig(effector: str, config_overrides: dict | None = None, **server_kwargs):
    overrides = {"init_delays": {"wheels": 0, "arm": 0, "mast": 0}}
    overrides.update(config_overrides or {})
    config = make_config(overrides)
    tracer = EventTracer()
    bus = MessageBus(Topology(), tracer)
    client = ClientEndpoint(effector)
    if effector == "wheels":
        server = WheelsServer(config, **server_kwargs)
    else:
        server = PostureServer(effector, config, **server_kwargs)
    return bus, client, server, tracer


def port(bus, endpoint) -> StagePort:
    """The port of one client or server node at the bus's tick."""
    return StagePort(bus, (endpoint.node,))


def pump(bus, client, server, ticks: int) -> list[tuple[str, str]]:
    news = []
    for _ in range(ticks):
        server.step(port(bus, server))
        bus.step_deliver()
        for msg in bus.drain_inbox(client.node):
            news.extend((record.goal_id, status) for record, status in client.on_message(msg))
    return news


def published(tracer, topic: str) -> list[dict]:
    return [ev["payload"] for ev in tracer.events
            if ev["kind"] == "publish" and ev["topic"] == topic]


# -- wheel kinematics --------------------------------------------------------


class TestWheelsWaypointGoals:
    def test_duration_is_manhattan_distance(self):
        """A goal from o=(0,0) to B=(6,-4) takes 10 work ticks plus resolution."""
        bus, client, server, _ = make_rig("wheels")
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "B"})
        pump(bus, client, server, 2)
        assert server.duration == 10
        news = pump(bus, client, server, 11)
        assert (goal_id, SUCCEEDED) in news
        assert server.pose == (6, -4)

    def test_path_moves_x_before_y(self):
        """The drive closes the x gap first, then the y gap."""
        bus, client, server, tracer = make_rig("wheels")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "B"})
        pump(bus, client, server, 13)
        poses = [(p["x"], p["y"]) for p in published(tracer, "/pose")]
        assert poses == [
            (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
            (6, -1), (6, -2), (6, -3), (6, -4),
        ]

    def test_one_cell_per_tick(self):
        bus, client, server, tracer = make_rig("wheels")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "A"})
        pump(bus, client, server, 10)
        poses = [(0, 0)] + [(p["x"], p["y"]) for p in published(tracer, "/pose")]
        for (x0, y0), (x1, y1) in zip(poses, poses[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_duration_measured_from_current_pose(self):
        """The second leg's length depends on where the first one ended."""
        bus, client, server, _ = make_rig("wheels")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "A"})
        pump(bus, client, server, 9)  # arrive at (6, 0)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "B"})
        pump(bus, client, server, 2)
        assert server.duration == 4  # |6-6| + |-4-0|

    def test_stop_frame_precedes_result(self):
        """The last telemetry frame before the result is all zeros."""
        bus, client, server, tracer = make_rig("wheels")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "A"})
        pump(bus, client, server, 10)
        ordered = [
            ev for ev in tracer.events
            if ev["kind"] == "publish" and ev["topic"] in ("/wheels/telemetry", "/wheels/result")
        ]
        assert ordered[-1]["topic"] == "/wheels/result"
        assert ordered[-2]["payload"]["speeds"] == [0] * WHEEL_COUNT
        # Frames during the run carry the nominal speed.
        assert ordered[0]["payload"]["speeds"] == [NOMINAL_SPEED] * WHEEL_COUNT

    def test_skip_stop_flag_omits_halt_frame(self):
        bus, client, server, tracer = make_rig("wheels", skip_stop=True)
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"kind": "waypoint", "wp": "A"})
        pump(bus, client, server, 10)
        frames = published(tracer, "/wheels/telemetry")
        assert all(f["speeds"] != [0] * WHEEL_COUNT for f in frames)


# -- posture servers ---------------------------------------------------------


class TestPostureServer:
    def test_open_interpolates_linearly(self):
        """With duration 2 the arm passes through the midpoint pose."""
        bus, client, server, tracer = make_rig("arm")
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        news = pump(bus, client, server, 5)
        assert (goal_id, SUCCEEDED) in news
        frames = published(tracer, "/arm/telemetry")
        # Each frame reports the pose after that tick's motion: half way after
        # the first of two work ticks, the full target after the second.
        assert frames[0]["joints"] == [0.5, 0.5, 0.5, 0.5]
        assert frames[0]["posture"] == "Moving"
        assert frames[1]["joints"] == [1.0, 1.0, 1.0, 1.0]
        assert frames[1]["posture"] == "Open"
        assert server.joints == [1.0, 1.0, 1.0, 1.0]
        assert server.posture == "Open"

    def test_goal_to_current_posture_succeeds_immediately(self):
        """Closing an already-closed mast needs zero work ticks."""
        bus, client, server, _ = make_rig("mast")
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "close"})
        news = pump(bus, client, server, 3)
        assert (goal_id, SUCCEEDED) in news
        assert server.duration == 0
        assert server.posture == "Closed"

    def test_preemption_freezes_joints_then_resumes(self):
        """A goal interrupted mid-motion leaves the joints where they stopped;
        the next goal starts from that partial pose rather than from zero."""
        bus, client, server, tracer = make_rig(
            "arm", config_overrides={"posture_duration": {"arm": 4, "mast": 2}}
        )
        pump(bus, client, server, 1)
        first = client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 2)  # the preempting goal lands two ticks of work in
        second = client.send_goal(port(bus, client), {"cmd": "open"})
        news = pump(bus, client, server, 7)
        assert (first, "Canceled") in news
        assert (second, SUCCEEDED) in news
        frames = published(tracer, "/arm/telemetry")
        # First goal climbs to 0.5; the replacement resumes from there (a
        # restart from the closed pose would drop back to 0.25).
        assert [f["joints"][0] for f in frames] == [0.25, 0.5, 0.625, 0.75, 0.875, 1.0]
        assert server.joints == [1.0, 1.0, 1.0, 1.0]

    def test_mast_has_two_joints(self):
        bus, client, server, tracer = make_rig("mast")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 5)
        frames = published(tracer, "/mast/telemetry")
        assert all(len(f["joints"]) == 2 for f in frames)
        assert all(f["effector"] == "mast" for f in frames)

    def test_final_telemetry_reports_target_posture(self):
        bus, client, server, tracer = make_rig("arm")
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 5)
        frames = published(tracer, "/arm/telemetry")
        assert frames[-1]["posture"] == "Open"
        assert frames[-1]["joints"] == [1.0, 1.0, 1.0, 1.0]


# -- factory -----------------------------------------------------------------


class TestBuildServers:
    def test_builds_all_three(self):
        config = make_config()
        servers = build_servers(config)
        assert sorted(servers) == ["arm", "mast", "wheels"]
        assert isinstance(servers["wheels"], WheelsServer)
        assert not servers["wheels"].skip_stop

    def test_no_stop_mutant_flags_wheels(self):
        config = make_config({"mutant": "no-stop-wheels"})
        servers = build_servers(config)
        assert servers["wheels"].skip_stop
        assert isinstance(servers["arm"], PostureServer)

    def test_scripted_faults_reach_named_effector(self):
        config = make_config(
            {"scripted_faults": [{"effector": "arm", "goal_index": 2}]}
        )
        servers = build_servers(config)
        assert servers["arm"].scripted_faults == {2}
        assert servers["wheels"].scripted_faults == set()
