"""Message types and the topic table: the one statement of the node
interfaces.

Every payload that crosses the bus is a plain JSON-compatible dict so that
traces can be written verbatim as JSON lines.  Each topic declares its one
publisher, its subscribers in delivery order, and the exact key sets its
payloads may have.  The bus delivers and checks payloads from this table
alone, so a node trusts what it receives; publishing a payload that matches
no declared shape is a hard error (it signals a wiring bug, not an
environment condition).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

EFFECTORS = ("wheels", "arm", "mast")

# Node names.  "agent" talks to the rest of the system only through its
# interface node; the clients live on the interface side of the bus.
NODE_AGENT = "agent"
NODE_ENV_INTERFACE = "envInterface"
NODE_WORLD = "world"


def client_node(effector: str) -> str:
    return f"{effector}Client"


def server_node(effector: str) -> str:
    return f"{effector}Server"


class Message(NamedTuple):
    """One bus message.  ``seq`` is globally unique and totally orders traffic."""

    seq: int
    sender: str
    topic: str
    payload: dict


@dataclass(frozen=True)
class TopicSpec:
    name: str
    keys: frozenset[str]  # the exact key set of a payload
    publisher: str
    subscribers: tuple[str, ...]  # in delivery order


def _effector_topics(effector: str) -> list[TopicSpec]:
    c, s = client_node(effector), server_node(effector)
    if effector == "wheels":
        goal, telemetry = {"goal_id", "kind", "wp"}, {"speeds"}
    else:
        goal, telemetry = {"goal_id", "cmd"}, {"effector", "joints", "posture"}
    rows = [
        (f"/{effector}/goal", goal, c, (s,)),
        (f"/{effector}/feedback", {"goal_id", "progress"}, s, (c,)),
        (f"/{effector}/result", {"goal_id", "status"}, s, (c, NODE_ENV_INTERFACE)),
        (f"/ready/{effector}", {"module", "ready"}, s, (c, NODE_ENV_INTERFACE)),
        (f"/{effector}/telemetry", telemetry, s, (NODE_ENV_INTERFACE,)),
    ]
    return [TopicSpec(name, frozenset(keys), pub, subs) for name, keys, pub, subs in rows]


def default_topics() -> list[TopicSpec]:
    topics: list[TopicSpec] = []
    for e in EFFECTORS:
        topics.extend(_effector_topics(e))
    topics.append(TopicSpec("/env/sample", frozenset({"wp", "wind", "radiation", "env"}),
                            NODE_WORLD, (NODE_ENV_INTERFACE,)))
    # Pose feeds the world (arrival detection) and the interface (visibility).
    topics.append(TopicSpec("/pose", frozenset({"x", "y"}), server_node("wheels"),
                            (NODE_WORLD, NODE_ENV_INTERFACE)))
    return topics


class Topology:
    """Declared nodes plus (publisher, topic, subscribers) edges."""

    def __init__(self, topics: list[TopicSpec] | None = None):
        self.topics: dict[str, TopicSpec] = {}
        for spec in topics if topics is not None else default_topics():
            self.topics[spec.name] = spec
        self.nodes: set[str] = {NODE_AGENT, NODE_ENV_INTERFACE, NODE_WORLD}
        for spec in self.topics.values():
            self.nodes.add(spec.publisher)
            self.nodes.update(spec.subscribers)

    def reroute(self, topic: str, subscribers: tuple[str, ...]) -> None:
        """Replace a topic's subscriber set (used by the misrouting mutant)."""
        self.topics[topic] = replace(self.topics[topic], subscribers=subscribers)


# -- payload shape checks ----------------------------------------------------

# Every field some payload carries: the property DSL rejects any other
# payload field at parse time.
PAYLOAD_FIELDS = frozenset().union(*(spec.keys for spec in default_topics()))

# The values a field may take where the key set alone does not pin them.
_FIELD_VALUES = {
    "cmd": ("open", "close"),
    "kind": ("waypoint",),
    "status": ("Succeeded", "Canceled", "Aborted"),
}


class PayloadShapeError(ValueError):
    """Payload does not match the shape its topic declares."""


# Per declared key set, the ``_FIELD_VALUES`` fields it holds, with their values.
_CHECKS: dict[frozenset, tuple] = {}


def validate_payload(spec: TopicSpec, payload: dict) -> None:
    keys = spec.keys
    if payload.keys() != keys:
        raise PayloadShapeError(
            f"{spec.name} payload keys {sorted(payload)} are not the declared "
            f"{sorted(keys)}")
    checks = _CHECKS.get(keys)
    if checks is None:
        checks = _CHECKS[keys] = tuple(
            (field, allowed) for field, allowed in _FIELD_VALUES.items() if field in keys)
    for field, allowed in checks:
        if payload[field] not in allowed:
            raise PayloadShapeError(f"bad {field} {payload[field]!r} on {spec.name}")
    if "speeds" in keys and len(payload["speeds"]) != 6:
        raise PayloadShapeError("wheel telemetry must carry six speeds")
