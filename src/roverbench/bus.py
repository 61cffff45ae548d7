"""Deterministic in-process pub/sub bus with synchronous tick delivery.

Delivery model: messages published during tick t sit in a pending queue and
are moved to subscriber inboxes, in global seq order, by the single
``step_deliver`` call that closes the tick.  Nodes therefore always observe
traffic one tick after it was published, and the delivery order is a pure
function of the publish order.

Runtime monitors interpose on ``publish``: a gate callback inspects every
message before it is enqueued and may veto it (block mode), in which case the
bus records a ``block`` event instead of a ``publish`` event and no subscriber
ever sees the message.
"""

from __future__ import annotations

from typing import Callable

from .messages import Message, Topology, validate_payload
from .tracing import EventTracer

DEFAULT_INBOX_LIMIT = 1024


class BusError(Exception):
    pass


class UnknownTopicError(BusError):
    pass


class UnauthorizedPublisherError(BusError):
    pass


class UnknownSubscriberError(BusError):
    pass


class InboxOverflowError(BusError):
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
        # topic -> ordered active subscribers; replaced, never mutated, so a
        # publish can keep the tuple as its snapshot
        self._subs: dict[str, tuple[str, ...]] = {}
        # (message, active subscribers snapshotted at publish time)
        self._pending: list[tuple[Message, tuple[str, ...]]] = []
        self.inboxes: dict[str, list[Message]] = {n: [] for n in topology.nodes}
        self.counters: dict[str, dict[str, int]] = {}
        # gate(event_dict) -> True to drop the message (set by the monitor engine)
        self.gate: Callable[[dict], bool] | None = None

    # -- wiring --------------------------------------------------------------

    def subscribe(self, node: str, topic: str) -> None:
        spec = self.topology.spec_for(topic)
        if spec is None:
            raise UnknownTopicError(topic)
        if node not in spec.subscribers:
            raise UnknownSubscriberError(f"{node} is not a declared subscriber of {topic}")
        subs = self._subs.get(topic, ())
        if node not in subs:  # duplicate subscribe is a no-op
            self._subs[topic] = subs + (node,)

    def _counter(self, topic: str) -> dict[str, int]:
        counter = self.counters.get(topic)
        if counter is None:
            counter = self.counters[topic] = {
                "attempts": 0, "published": 0, "blocked": 0, "delivered": 0}
        return counter

    # -- traffic -------------------------------------------------------------

    def publish(self, sender: str, topic: str, payload: dict) -> int:
        spec = self.topology.spec_for(topic)
        if spec is None:
            raise UnknownTopicError(topic)
        if sender != spec.publisher:
            raise UnauthorizedPublisherError(f"{sender} may not publish on {topic}")
        validate_payload(spec, payload)

        seq = self._next_seq
        self._next_seq += 1
        counter = self._counter(topic)
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
        msg = Message(seq=seq, tick=self.tick, sender=sender, topic=topic, payload=payload)
        self._pending.append((msg, self._subs.get(topic, ())))
        return seq

    def step_deliver(self) -> list[tuple[str, Message]]:
        """Deliver everything published before now, then advance the tick."""
        pending, self._pending = self._pending, []
        self.tick += 1
        delivered: list[tuple[str, Message]] = []
        for msg, subscribers in pending:  # already in seq order
            counter = self._counter(msg.topic)
            for node in subscribers:
                inbox = self.inboxes[node]
                if len(inbox) >= self.inbox_limit:
                    raise InboxOverflowError(f"inbox of {node} exceeded {self.inbox_limit}")
                inbox.append(msg)
                delivered.append((node, msg))
                counter["delivered"] += 1
                self.tracer.emit(
                    {
                        "t": self.tick,
                        "kind": "deliver",
                        "seq": msg.seq,
                        "topic": msg.topic,
                        "sender": msg.sender,
                        "node": node,
                        "payload": msg.payload,
                    }
                )
        return delivered

    def drain_inbox(self, node: str) -> list[Message]:
        inbox = self.inboxes[node]
        self.inboxes[node] = []
        return inbox
