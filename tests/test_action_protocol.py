"""Tests for the goal lifecycle protocol: records, client and server halves."""

from __future__ import annotations

import pytest

from roverbench.action_protocol import (
    ABORTED,
    ACTIVE,
    CANCELED,
    ClientEndpoint,
    GoalRecord,
    IllegalTransitionError,
    NotReadyError,
    PENDING,
    SUCCEEDED,
)
from roverbench.bus import MessageBus, StagePort
from roverbench.config import make_config
from roverbench.effectors import PostureServer, WheelsServer
from roverbench.messages import Message, Topology, client_node, server_node
from roverbench.tracing import EventTracer


def make_rig(effector: str = "arm", init_delay: int = 0):
    """A bus with one client/server pair stepped by hand."""
    config = make_config({"init_delays": {"wheels": 0, "arm": init_delay, "mast": 0}})
    tracer = EventTracer()
    bus = MessageBus(Topology(), tracer)
    client = ClientEndpoint(effector)
    if effector == "wheels":
        server = WheelsServer(config)
    else:
        server = PostureServer(effector, config)
    return bus, client, server, tracer


def port(bus, endpoint) -> StagePort:
    """The port of one client or server node at the bus's tick."""
    return StagePort(bus, (endpoint.node,))


def pump(bus, client, server, ticks: int) -> list[tuple[str, str]]:
    """Run server-then-deliver-then-client for a number of ticks; collect news."""
    news = []
    for _ in range(ticks):
        server.step(port(bus, server))
        bus.step_deliver()
        for msg in bus.drain_inbox(client.node):
            news.extend((record.goal_id, status) for record, status in client.on_message(msg))
    return news


# -- goal records ------------------------------------------------------------


class TestGoalRecord:
    def test_starts_pending(self):
        record = GoalRecord(goal_id="g", target="armServer", request={})
        assert record.status == PENDING
        assert record.progress == 0.0

    def test_every_illegal_transition_rejected(self):
        """Enumerate all status pairs; exactly the five legal ones pass."""
        legal = {
            (PENDING, ACTIVE),
            (PENDING, CANCELED),
            (ACTIVE, SUCCEEDED),
            (ACTIVE, CANCELED),
            (ACTIVE, ABORTED),
        }
        statuses = (PENDING, ACTIVE, SUCCEEDED, CANCELED, ABORTED)
        for src in statuses:
            for dst in statuses:
                record = GoalRecord(goal_id="g", target="x", request={})
                record.status = src
                if (src, dst) in legal:
                    record.transition(dst)
                    assert record.status == dst
                else:
                    with pytest.raises(IllegalTransitionError):
                        record.transition(dst)

    def test_terminal_states_are_final(self):
        record = GoalRecord(goal_id="g", target="x", request={})
        record.transition(ACTIVE)
        record.transition(CANCELED)
        with pytest.raises(IllegalTransitionError):
            record.transition(ACTIVE)


# -- client endpoint ---------------------------------------------------------


class TestClient:
    def test_goal_before_ready_is_rejected(self):
        bus, client, server, _ = make_rig()
        with pytest.raises(NotReadyError):
            client.send_goal(port(bus, client), {"cmd": "open"})

    def test_ready_latches_after_announcement(self):
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        assert client.server_ready
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        assert goal_id == f"{client_node('arm')}:0"

    def test_goal_ids_count_up(self):
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        first = client.send_goal(port(bus, client), {"cmd": "open"})
        second = client.send_goal(port(bus, client), {"cmd": "close"})
        assert first.endswith(":0")
        assert second.endswith(":1")

    def test_feedback_drives_pending_to_active_with_progress(self):
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 2)
        record = client.records[goal_id]
        assert record.status == ACTIVE
        assert record.progress > 0

    def test_result_completes_record(self):
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        news = pump(bus, client, server, 6)
        assert (goal_id, SUCCEEDED) in news
        assert goal_id not in client.records

    def test_feedback_after_result_is_ignored(self):
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 6)
        late = Message(seq=0, sender=server.node, topic="/arm/feedback",
                       payload={"goal_id": goal_id, "progress": 0.5})
        assert client.on_message(late) == []
        assert client.records == {}

    def test_client_and_server_agree_on_final_status(self):
        bus, client, server, tracer = make_rig()
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        news = pump(bus, client, server, 6)
        resolves = [ev for ev in tracer.events
                    if ev["kind"] == "goal" and ev["phase"] == "resolve"]
        assert [(ev["goal_id"], ev["status"]) for ev in resolves] == news
        assert news == [(goal_id, SUCCEEDED)]
        assert server.active is None


# -- server endpoint ---------------------------------------------------------


class TestServer:
    def test_ready_published_after_init_delay(self):
        """With delay d the announcement goes out on tick d (d delay decrements first)."""
        bus, client, server, tracer = make_rig(init_delay=2)
        for expected_tick in range(4):
            server.step(port(bus, server))
            bus.step_deliver()
        ready = [ev for ev in tracer.events if ev["kind"] == "publish" and ev["topic"] == "/ready/arm"]
        assert len(ready) == 1
        assert ready[0]["t"] == 2

    def test_new_goal_preempts_running_one(self):
        """Accepting a second goal cancels the first; both reach terminal states."""
        bus, client, server, _ = make_rig()
        pump(bus, client, server, 1)
        first = client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 1)  # server accepts and starts work
        second = client.send_goal(port(bus, client), {"cmd": "close"})
        news = pump(bus, client, server, 8)
        assert (first, CANCELED) in news
        assert (second, SUCCEEDED) in news

    def test_scripted_fault_aborts_by_accept_index(self):
        bus, client, server, _ = make_rig()
        server.scripted_faults = {1}
        pump(bus, client, server, 1)
        first = client.send_goal(port(bus, client), {"cmd": "open"})
        news = pump(bus, client, server, 6)
        second = client.send_goal(port(bus, client), {"cmd": "close"})
        news += pump(bus, client, server, 6)
        assert (first, SUCCEEDED) in news
        assert (second, ABORTED) in news

    def test_goal_trace_records_intended_target(self):
        """Accept events carry the server the topic addressed, for routing checks."""
        bus, client, server, tracer = make_rig()
        pump(bus, client, server, 1)
        client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 2)
        accepts = [ev for ev in tracer.events if ev.get("kind") == "goal" and ev["phase"] == "accept"]
        assert accepts[0]["server"] == server_node("arm")
        assert accepts[0]["target"] == server_node("arm")

    def test_progress_reaches_one_before_success(self):
        bus, client, server, tracer = make_rig()
        pump(bus, client, server, 1)
        goal_id = client.send_goal(port(bus, client), {"cmd": "open"})
        pump(bus, client, server, 6)
        publishes = [ev for ev in tracer.events if ev["kind"] == "publish"]
        result = next(i for i, ev in enumerate(publishes) if ev["topic"] == "/arm/result")
        feedback = [ev["payload"] for ev in publishes[:result] if ev["topic"] == "/arm/feedback"]
        assert feedback[-1] == {"goal_id": goal_id, "progress": 1.0}
