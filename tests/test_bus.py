"""Tests for the deterministic pub/sub bus: tick delivery, gating, wiring."""

from __future__ import annotations

from importlib.resources import files

import pytest

from roverbench.bus import (
    InboxOverflowError,
    MessageBus,
    StagePort,
    UnauthorizedPublisherError,
    UnknownTopicError,
)
from roverbench.config import make_config
from roverbench.explorer import Explorer, _Bundle
from roverbench.messages import (
    NODE_ENV_INTERFACE,
    NODE_WORLD,
    Message,
    PayloadShapeError,
    Topology,
    client_node,
    server_node,
)
from roverbench.prop_dsl import parse_suite
from roverbench.tracing import EventTracer

from recorded import recorded


SAMPLE = {"wp": "A", "wind": 0, "radiation": 0, "env": "Fine"}


def make_bus(**kwargs) -> MessageBus:
    return MessageBus(Topology(), EventTracer(), **kwargs)


# -- delivery model ----------------------------------------------------------


class TestDelivery:
    """Publish at tick t, observe at tick t+1, in seq order."""

    def test_publish_is_not_visible_same_tick(self):
        """A published message stays pending until step_deliver closes the tick."""
        bus = make_bus()
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        assert bus.inboxes[NODE_ENV_INTERFACE] == []

    def test_step_deliver_moves_message_next_tick(self):
        bus = make_bus()
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        delivered = bus.step_deliver()
        assert bus.tick == 1
        assert [node for node, _ in delivered] == [NODE_ENV_INTERFACE]
        msg = delivered[0][1]
        assert msg.topic == "/env/sample"
        assert bus.inboxes[NODE_ENV_INTERFACE] == [msg]

    def test_delivery_preserves_global_seq_order(self):
        """Messages on different topics arrive in the order they were published."""
        bus = make_bus()
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.publish(server_node("wheels"), "/pose", {"x": 1, "y": 0})
        bus.publish(NODE_WORLD, "/env/sample", {**SAMPLE, "wp": "B"})
        inbox = [msg for node, msg in bus.step_deliver() if node == NODE_ENV_INTERFACE]
        assert [m.seq for m in inbox] == [0, 1, 2]
        assert [m.topic for m in inbox] == ["/env/sample", "/pose", "/env/sample"]

    def test_fanout_reaches_every_subscriber(self):
        bus = make_bus()
        bus.publish(server_node("wheels"), "/pose", {"x": 0, "y": 0})
        nodes = sorted(node for node, _ in bus.step_deliver())
        assert nodes == [NODE_ENV_INTERFACE, NODE_WORLD]

    def test_drain_inbox_empties(self):
        bus = make_bus()
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.step_deliver()
        drained = bus.drain_inbox(NODE_ENV_INTERFACE)
        assert len(drained) == 1
        assert bus.drain_inbox(NODE_ENV_INTERFACE) == []

    def test_deliver_events_stamped_with_new_tick(self):
        """Publish events carry the publish tick, deliver events the arrival tick."""
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.step_deliver()
        kinds = {ev["kind"]: ev for ev in events}
        assert kinds["publish"]["t"] == 0
        assert kinds["deliver"]["t"] == 1

    def test_two_tick_pipeline(self):
        """Each step_deliver hands over exactly the prior tick's traffic."""
        bus = make_bus()
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        first = bus.step_deliver()
        bus.publish(NODE_WORLD, "/env/sample", {**SAMPLE, "wp": "B"})
        second = bus.step_deliver()
        assert [m.payload["wp"] for _, m in first] == ["A"]
        assert [m.payload["wp"] for _, m in second] == ["B"]
        assert bus.tick == 2


# -- messages ----------------------------------------------------------------


class TestMessage:
    """A message is a fixed record: its fields cannot be reassigned, and a
    bundle rebuilt from a state key queues the messages of the state."""

    def test_fields_cannot_be_assigned(self):
        msg = Message(0, NODE_WORLD, "/env/sample", dict(SAMPLE))
        for field, value in (("seq", 1), ("sender", "x"), ("topic", "/pose"), ("payload", {})):
            with pytest.raises(AttributeError):
                setattr(msg, field, value)
        assert msg == Message(seq=0, sender=NODE_WORLD, topic="/env/sample", payload=SAMPLE)

    def test_restored_bundle_queues_equal_messages(self):
        """A bundle rebuilt between ticks from the key of a live one queues,
        in each inbox, the live one's messages up to their seqs, arrival
        order and goal numbers, and gives the same key."""
        suite = parse_suite((files("roverbench") / "data" / "default.props").read_text())
        live, _log = Explorer(make_config(), suite)._roots()[0]

        def queued(msgs: list) -> list:
            return sorted(repr((m.sender, m.topic, {k: v for k, v in m.payload.items()
                                                    if k != "goal_id"})) for m in msgs)

        count = 0
        for tick in range(40):
            key = live.canonical()
            rebuilt = _Bundle.clone(live.keys, key, tick)
            inboxes = rebuilt.model.bus.inboxes
            assert list(inboxes) == list(live.model.bus.inboxes)
            for node, msgs in inboxes.items():
                assert queued(msgs) == queued(live.model.bus.inboxes[node]), (tick, node)
                assert all(type(m) is Message for m in msgs)
            seqs = [m.seq for msgs in inboxes.values() for m in msgs]
            assert len(set(seqs)) == len(seqs)
            assert rebuilt.canonical() == key, tick
            count += len(seqs)
            live.step(None)
        assert count > 40

    def test_step_deliver_returns_each_delivery(self):
        """``step_deliver`` returns a ``(node, message)`` pair per delivery,
        in delivery order, each message the one queued in the node's inbox."""
        bus = make_bus()
        bus.publish(server_node("wheels"), "/pose", {"x": 1, "y": 0})
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        delivered = bus.step_deliver()
        assert [(node, m.seq) for node, m in delivered] == [
            (NODE_WORLD, 0), (NODE_ENV_INTERFACE, 0), (NODE_ENV_INTERFACE, 1)]
        assert all(bus.inboxes[node].count(m) == 1 for node, m in delivered)


# -- wiring validation -------------------------------------------------------


class TestWiring:
    def test_unknown_topic_on_publish(self):
        bus = make_bus()
        with pytest.raises(UnknownTopicError):
            bus.publish(NODE_WORLD, "/no/such/topic", {})

    def test_unauthorized_publisher(self):
        """Only the declared publisher of a topic may publish on it."""
        bus = make_bus()
        with pytest.raises(UnauthorizedPublisherError):
            bus.publish(NODE_ENV_INTERFACE, "/env/sample", dict(SAMPLE))

    def test_payload_shape_enforced(self):
        bus = make_bus()
        with pytest.raises(PayloadShapeError):
            bus.publish(NODE_WORLD, "/env/sample", {"wp": "A"})

    def test_wheel_telemetry_needs_six_speeds(self):
        bus = make_bus()
        with pytest.raises(PayloadShapeError):
            bus.publish(server_node("wheels"), "/wheels/telemetry", {"speeds": [0, 0]})

    def test_direction_goal_rejected(self):
        """The wheels take waypoint goals only: no publish carries a
        direction run."""
        bus = make_bus()
        with pytest.raises(PayloadShapeError):
            bus.publish(client_node("wheels"), "/wheels/goal",
                        {"goal_id": "g", "kind": "direction", "dir": "forward",
                         "speed": 1, "distance": 2})

    @pytest.mark.parametrize("effector, request_", [
        ("wheels", {"cmd": "open"}),
        ("arm", {"kind": "waypoint", "wp": "A"}),
    ])
    def test_goal_shape_is_the_effector_own(self, effector, request_):
        """A goal topic carries only its effector's goal shape."""
        bus = make_bus()
        with pytest.raises(PayloadShapeError):
            bus.publish(client_node(effector), f"/{effector}/goal", {"goal_id": "g", **request_})

    @pytest.mark.parametrize("sender, topic, payload", [
        (client_node("arm"), "/arm/goal", {"goal_id": "g", "cmd": "spin"}),
        (client_node("wheels"), "/wheels/goal", {"goal_id": "g", "kind": "teleport", "wp": "A"}),
        (server_node("arm"), "/arm/result", {"goal_id": "g", "status": "Lost"}),
    ])
    def test_field_values_checked(self, sender, topic, payload):
        """A payload with the right keys but a value no receiver handles is
        refused at publish, so receivers need not check it."""
        bus = make_bus()
        with pytest.raises(PayloadShapeError):
            bus.publish(sender, topic, payload)

    def test_inbox_overflow_raises(self):
        bus = make_bus(inbox_limit=2)
        for _ in range(3):
            bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        with pytest.raises(InboxOverflowError):
            bus.step_deliver()


# -- monitor gate ------------------------------------------------------------


class TestGate:
    def test_gate_veto_blocks_message(self):
        """A vetoed publish becomes a block event and reaches no inbox."""
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        bus.gate = lambda event: event["payload"]["wp"] == "B"
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.publish(NODE_WORLD, "/env/sample", {**SAMPLE, "wp": "B"})
        delivered = bus.step_deliver()
        assert [m.payload["wp"] for _, m in delivered] == ["A"]
        kinds = [ev["kind"] for ev in events if ev["kind"] != "deliver"]
        assert kinds == ["publish", "block"]

    def test_gate_sees_publish_event_shape(self):
        seen = []
        bus = make_bus()
        bus.gate = lambda event: seen.append(event) or False
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        (event,) = seen
        assert event["kind"] == "publish"
        assert event["topic"] == "/env/sample"
        assert event["t"] == 0

    def test_blocked_message_still_consumes_seq(self):
        """Seq numbers count publish attempts, vetoed or not."""
        bus = make_bus()
        bus.gate = lambda event: True
        first = bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.gate = None
        second = bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        assert (first, second) == (0, 1)


# -- counters ----------------------------------------------------------------


class TestCounters:
    def test_counter_arithmetic(self):
        """attempts = published + blocked; delivered counts per-inbox copies."""
        bus = make_bus()
        calls = iter([False, True, False])
        bus.gate = lambda event: next(calls)
        for _ in range(3):
            bus.publish(server_node("wheels"), "/pose", {"x": 0, "y": 0})
        bus.step_deliver()
        counter = bus.counters["/pose"]
        assert counter["attempts"] == 3
        assert counter["published"] == 2
        assert counter["blocked"] == 1
        assert counter["delivered"] == 4  # two messages, two subscribers each


# -- stage ports -------------------------------------------------------------


class ListSink:
    """Choice sink stub: takes the first option."""

    def choose(self, key, options):
        return options[0]


class TestStagePort:
    def test_refuses_a_foreign_sender(self):
        """A port publishes only as its own stage's nodes, even on a topic
        the sender may publish on; the refused publish leaves no trace."""
        bus = make_bus()
        events = recorded(bus.tracer)
        port = StagePort(bus, (server_node("arm"),))
        with pytest.raises(UnauthorizedPublisherError):
            port.publish(server_node("mast"), "/ready/mast", {"module": "mast", "ready": True})
        with pytest.raises(UnauthorizedPublisherError):
            port.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        assert not port.acted
        assert events == []
        assert bus.counters == {}

    @pytest.mark.parametrize("act", ["publish", "emit", "choose"])
    def test_each_way_of_acting_sets_acted(self, act):
        bus = make_bus()
        events = recorded(bus.tracer)
        bus.tick = 7
        port = StagePort(bus, (server_node("arm"),), ListSink())
        assert (port.tick, port.exploring, port.acted) == (7, True, False)
        assert port.inbox() == []
        assert not port.acted  # reading is not acting
        if act == "publish":
            port.publish(server_node("arm"), "/ready/arm", {"module": "arm", "ready": True})
        elif act == "emit":
            port.emit("goal", phase="accept")
            assert events == [{"t": 7, "kind": "goal", "phase": "accept"}]
        else:
            assert port.choose(("fault", "arm"), ("Succeeded", "Aborted")) == "Succeeded"
        assert port.acted

    def test_inbox_drains_its_nodes_in_seq_order(self):
        """The host's port merges its nodes' inboxes by seq; a message sent
        to two of its nodes comes once per node, in the port's node order.
        Other nodes' inboxes are left alone."""
        bus = make_bus()
        bus.publish(server_node("arm"), "/ready/arm", {"module": "arm", "ready": True})
        bus.publish(NODE_WORLD, "/env/sample", dict(SAMPLE))
        bus.publish(server_node("wheels"), "/pose", {"x": 0, "y": 0})
        bus.step_deliver()
        port = StagePort(bus, (NODE_ENV_INTERFACE, client_node("arm")))
        pairs = [(node, msg.seq) for node, msg in port.inbox()]
        assert pairs == [(NODE_ENV_INTERFACE, 0), (client_node("arm"), 0),
                         (NODE_ENV_INTERFACE, 1), (NODE_ENV_INTERFACE, 2)]
        assert port.inbox() == []
        assert [msg.seq for msg in bus.inboxes[NODE_WORLD]] == [2]
