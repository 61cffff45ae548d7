"""Message types, topic table and the static pub/sub topology.

Every payload that crosses the bus is a plain JSON-compatible dict so that
traces can be written verbatim as JSON lines.  Each topic declares a payload
kind; publishing a payload whose shape does not match the declared kind is a
hard error (it signals a wiring bug, not an environment condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class PayloadKind(Enum):
    GOAL = "goal"
    FEEDBACK = "feedback"
    RESULT = "result"
    PERCEPTION = "perception"
    TELEMETRY = "telemetry"
    READY = "ready"


@dataclass(frozen=True)
class Message:
    """One bus message.  ``seq`` is globally unique and totally orders traffic."""

    seq: int
    tick: int
    sender: str
    topic: str
    payload: dict


@dataclass(frozen=True)
class TopicSpec:
    name: str
    kind: PayloadKind
    publisher: str
    subscribers: tuple[str, ...]


def _effector_topics(effector: str) -> list[TopicSpec]:
    c, s = client_node(effector), server_node(effector)
    return [
        TopicSpec(f"/{effector}/goal", PayloadKind.GOAL, c, (s,)),
        TopicSpec(f"/{effector}/feedback", PayloadKind.FEEDBACK, s, (c,)),
        TopicSpec(f"/{effector}/result", PayloadKind.RESULT, s, (c, NODE_ENV_INTERFACE)),
        TopicSpec(f"/ready/{effector}", PayloadKind.READY, s, (c, NODE_ENV_INTERFACE)),
        TopicSpec(f"/{effector}/telemetry", PayloadKind.TELEMETRY, s, (NODE_ENV_INTERFACE,)),
    ]


def default_topics() -> list[TopicSpec]:
    topics: list[TopicSpec] = []
    for e in EFFECTORS:
        topics.extend(_effector_topics(e))
    topics.append(TopicSpec("/env/sample", PayloadKind.PERCEPTION, NODE_WORLD, (NODE_ENV_INTERFACE,)))
    # Pose feeds the world (arrival detection) and the interface (visibility).
    topics.append(TopicSpec("/pose", PayloadKind.TELEMETRY, server_node("wheels"), (NODE_WORLD, NODE_ENV_INTERFACE)))
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

    def spec_for(self, topic: str) -> TopicSpec | None:
        return self.topics.get(topic)

    def reroute(self, topic: str, subscribers: tuple[str, ...]) -> None:
        """Replace a topic's subscriber set (used by the misrouting mutant)."""
        old = self.topics[topic]
        self.topics[topic] = TopicSpec(old.name, old.kind, old.publisher, subscribers)


# -- payload shape checks ----------------------------------------------------

DIRECTIONS = ("forward", "backward", "left", "right")

# Field registry used by the property DSL to reject unknown payload fields at
# parse time.  Keep it in sync with the validators below.
PAYLOAD_FIELDS = {
    "goal_id", "kind", "dir", "speed", "distance", "wp", "cmd",
    "progress", "status", "wind", "radiation", "env", "module", "ready",
    "x", "y", "speeds", "joints", "posture", "effector",
}


class PayloadShapeError(ValueError):
    """Payload does not match the topic's declared payload kind."""


# The exact key set of each payload shape, built once rather than per publish.
_POSTURE_GOAL = frozenset({"goal_id", "cmd"})
_DIRECTION_GOAL = frozenset({"goal_id", "kind", "dir", "speed", "distance"})
_WAYPOINT_GOAL = frozenset({"goal_id", "kind", "wp"})
_FEEDBACK = frozenset({"goal_id", "progress"})
_RESULT = frozenset({"goal_id", "status"})
_READY = frozenset({"module", "ready"})
_PERCEPTION = frozenset({"wp", "wind", "radiation", "env"})
_POSE = frozenset({"x", "y"})
_WHEEL_TELEMETRY = frozenset({"speeds"})
_EFFECTOR_TELEMETRY = frozenset({"effector", "joints", "posture"})


def _require(payload: dict, keys: frozenset[str], kind: PayloadKind) -> None:
    if payload.keys() != keys:
        missing = keys - payload.keys()
        extra = payload.keys() - keys
        raise PayloadShapeError(
            f"{kind.value} payload mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )


def validate_payload(spec: TopicSpec, payload: dict) -> None:
    kind = spec.kind
    if kind is PayloadKind.GOAL:
        if "cmd" in payload:
            _require(payload, _POSTURE_GOAL, kind)
            if payload["cmd"] not in ("open", "close"):
                raise PayloadShapeError(f"bad posture command {payload['cmd']!r}")
        elif payload.get("kind") == "direction":
            _require(payload, _DIRECTION_GOAL, kind)
        elif payload.get("kind") == "waypoint":
            _require(payload, _WAYPOINT_GOAL, kind)
        else:
            raise PayloadShapeError(f"unrecognized goal payload {sorted(payload)}")
    elif kind is PayloadKind.FEEDBACK:
        _require(payload, _FEEDBACK, kind)
    elif kind is PayloadKind.RESULT:
        _require(payload, _RESULT, kind)
        if payload["status"] not in ("Succeeded", "Canceled", "Aborted"):
            raise PayloadShapeError(f"bad result status {payload['status']!r}")
    elif kind is PayloadKind.READY:
        _require(payload, _READY, kind)
    elif kind is PayloadKind.PERCEPTION:
        _require(payload, _PERCEPTION, kind)
    elif kind is PayloadKind.TELEMETRY:
        if spec.name == "/pose":
            _require(payload, _POSE, kind)
        elif spec.name == "/wheels/telemetry":
            _require(payload, _WHEEL_TELEMETRY, kind)
            if len(payload["speeds"]) != 6:
                raise PayloadShapeError("wheel telemetry must carry six speeds")
        else:
            _require(payload, _EFFECTOR_TELEMETRY, kind)
    else:  # pragma: no cover - enum is closed
        raise PayloadShapeError(f"unknown payload kind {kind}")
