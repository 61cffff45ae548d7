"""Deterministic in-process pub/sub bus with synchronous tick delivery.

The topology is the only wiring: a publish is accepted only from the topic's
declared publisher and only with a payload of a declared shape, and each
message goes to exactly the topic's declared subscribers, in declared order.
Nodes do not subscribe.

Delivery model: messages published during tick t sit in a pending queue and
are moved to subscriber inboxes, in global seq order, by the single
``step_deliver`` call that closes the tick.  Nodes therefore always observe
traffic one tick after it was published, and the delivery order is a pure
function of the publish order.  ``step_deliver`` hands the tick's
``(node, message)`` pairs to the tracer in one call, which writes their
deliver lines without building an event for each unless something reads it.

Runtime monitors interpose on ``publish``: a gate callback inspects every
message before it is enqueued and may veto it (block mode), in which case the
bus records a ``block`` event instead of a ``publish`` event and no subscriber
ever sees the message.
"""

from __future__ import annotations

from typing import Callable

from .messages import Message, Topology, validate_payload
from .tracing import EventTracer, InputError

DEFAULT_INBOX_LIMIT = 1024


class BusError(Exception):
    pass


class UnknownTopicError(BusError):
    pass


class UnauthorizedPublisherError(BusError):
    pass


class InboxOverflowError(BusError, InputError):
    """A node inbox exceeded its bound; configuration or wiring bug."""


class MessageBus:
    def __init__(
        self,
        topology: Topology,
        tracer: EventTracer,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
    ):
        self.topology = topology
        self.tracer = tracer
        self.inbox_limit = inbox_limit
        self.tick = 0
        self._next_seq = 0
        self._pending: list[Message] = []
        # In name order, the order in which a state key files them.
        self.inboxes: dict[str, list[Message]] = {n: [] for n in sorted(topology.nodes)}
        self.counters: dict[str, dict[str, int]] = {}
        # gate(event_dict) -> True to drop the message (set by the monitor engine)
        self.gate: Callable[[dict], bool] | None = None

    # -- traffic -------------------------------------------------------------

    def publish(self, sender: str, topic: str, payload: dict) -> int:
        spec = self.topology.topics.get(topic)
        if spec is None:
            raise UnknownTopicError(topic)
        if sender != spec.publisher:
            raise UnauthorizedPublisherError(f"{sender} may not publish on {topic}")
        validate_payload(spec, payload)

        seq = self._next_seq
        self._next_seq += 1
        counter = self.counters.get(topic)
        if counter is None:
            counter = self.counters[topic] = {
                "attempts": 0, "published": 0, "blocked": 0, "delivered": 0}
        counter["attempts"] += 1

        event = {
            "t": self.tick,
            "kind": "publish",
            "seq": seq,
            "topic": topic,
            "sender": sender,
            "payload": payload,
        }
        blocked = bool(self.gate(event)) if self.gate is not None else False
        if blocked:
            event["kind"] = "block"
            counter["blocked"] += 1
            self.tracer.emit(event)
            return seq

        counter["published"] += 1
        self.tracer.emit(event)
        self._pending.append(Message(seq, sender, topic, payload))
        return seq

    def step_deliver(self) -> list[tuple[str, Message]]:
        """Deliver everything published before now, then advance the tick.
        Returns the ``(node, message)`` pairs in delivery order, which the
        tracer gets in one ``deliver`` call, those before an overflow too."""
        pending, self._pending = self._pending, []
        self.tick += 1
        delivered: list[tuple[str, Message]] = []
        topics, inboxes, counters = self.topology.topics, self.inboxes, self.counters
        try:
            for msg in pending:  # already in seq order
                counter = counters[msg.topic]  # counted at its publish
                for node in topics[msg.topic].subscribers:
                    inbox = inboxes[node]
                    if len(inbox) >= self.inbox_limit:
                        raise InboxOverflowError(
                            f"inbox of {node} exceeded inbox_limit={self.inbox_limit}")
                    inbox.append(msg)
                    delivered.append((node, msg))
                    counter["delivered"] += 1
        finally:
            self.tracer.deliver(self.tick, delivered)
        return delivered

    def queue(self, node: str, topic: str, payload: dict) -> None:
        """Put a message in ``node``'s inbox, sent by the topic's publisher."""
        self.inboxes[node].append(
            Message(self._next_seq, self.topology.topics[topic].publisher, topic, payload))
        self._next_seq += 1

    def drain_inbox(self, node: str) -> list[Message]:
        inbox = self.inboxes[node]
        self.inboxes[node] = []
        return inbox


class StagePort:
    """All a stage reaches for one tick: the tick, its nodes' inboxes,
    publishing as its nodes, emits and choices, any of which sets ``acted``.
    A model keeps one port per stage and resets it at every tick."""

    def __init__(self, bus: MessageBus, nodes: tuple[str, ...], sink=None):
        self._bus = bus
        self._nodes = nodes
        self.reset(sink)

    def reset(self, sink) -> None:
        """Start the bus's current tick, with choices going to ``sink``."""
        self._sink = sink
        self.tick = self._bus.tick
        self.exploring = sink is not None
        self.acted = False

    def inbox(self) -> list[tuple[str, Message]]:
        """Drain the stage's inboxes into (node, message) pairs, by seq, then node order."""
        inboxes = self._bus.inboxes
        for node in self._nodes:
            if inboxes[node]:
                break
        else:  # every inbox empty, as the servers' are on most ticks
            return []
        pairs = [(node, msg) for node in self._nodes for msg in self._bus.drain_inbox(node)]
        pairs.sort(key=lambda pair: pair[1].seq)
        return pairs

    def publish(self, sender: str, topic: str, payload: dict) -> None:
        if sender not in self._nodes:
            raise UnauthorizedPublisherError(f"{sender} is not a node of this stage")
        self._bus.publish(sender, topic, payload)
        self.acted = True

    def emit(self, kind: str, **fields) -> None:
        self.acted = True
        self._bus.tracer.emit({"t": self.tick, "kind": kind, **fields})

    def choose(self, key: tuple, options):
        self.acted = True
        return self._sink.choose(key, options)
