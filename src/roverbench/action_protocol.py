"""Goal/feedback/result protocol between effector clients and servers.

Both endpoints are plain state machines stepped by the simulator; they talk
only through bus topics.  Lifecycle: a goal is Pending when submitted, Active
once the server takes it up, and ends Succeeded, Canceled or Aborted exactly
once.  A new goal preempts a running one, which resolves Canceled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .bus import MessageBus
from .messages import Message, client_node, server_node

log = logging.getLogger(__name__)

PENDING = "Pending"
ACTIVE = "Active"
SUCCEEDED = "Succeeded"
CANCELED = "Canceled"
ABORTED = "Aborted"

TERMINAL = (SUCCEEDED, CANCELED, ABORTED)

_LEGAL_TRANSITIONS = {
    (PENDING, ACTIVE),
    (PENDING, CANCELED),
    (ACTIVE, SUCCEEDED),
    (ACTIVE, CANCELED),
    (ACTIVE, ABORTED),
}


class ProtocolError(Exception):
    pass


class NotReadyError(ProtocolError):
    """Goal submitted before the server announced readiness: a startup-ordering bug."""


class IllegalTransitionError(ProtocolError):
    pass


@dataclass
class GoalRecord:
    """One goal's lifecycle, kept by each endpoint that observes it."""

    goal_id: str
    target: str
    request: dict
    status: str = PENDING
    submitted_tick: int = 0
    resolved_tick: int | None = None
    progress: float = 0.0
    # (status, tick) history, including the initial Pending entry.
    history: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.history:
            self.history = [(PENDING, self.submitted_tick)]

    def transition(self, new_status: str, tick: int) -> None:
        if (self.status, new_status) not in _LEGAL_TRANSITIONS:
            raise IllegalTransitionError(f"{self.goal_id}: {self.status} -> {new_status}")
        self.status = new_status
        self.history.append((new_status, tick))
        if new_status in TERMINAL:
            self.resolved_tick = tick

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL


def unfinished_goals(endpoint) -> dict:
    """An endpoint's goal records without the finished ones.  No state key
    holds a finished goal, and no step of the model reads one again: each
    goal is resolved once, and a client ignores feedback on a finished goal
    as on an unknown one."""
    return {gid: r for gid, r in endpoint.records.items() if not r.terminal}


def _without_finished_goals(endpoint) -> dict:
    """Pickled (and deep-copied) state of an endpoint: its unfinished goals."""
    state = endpoint.__dict__.copy()
    state["records"] = unfinished_goals(endpoint)
    return state


class ClientEndpoint:
    """Client half: submits goals and mirrors server progress."""

    def __init__(self, effector: str):
        self.effector = effector
        self.node = client_node(effector)
        self.server_ready = False
        self._counter = 0
        self.records: dict[str, GoalRecord] = {}

    def send_goal(self, bus: MessageBus, request: dict) -> str:
        if not self.server_ready:
            raise NotReadyError(f"{self.effector} server has not announced readiness")
        goal_id = f"{self.node}:{self._counter}"
        self._counter += 1
        self.records[goal_id] = GoalRecord(
            goal_id=goal_id, target=server_node(self.effector), request=dict(request),
            submitted_tick=bus.tick,
        )
        bus.publish(self.node, f"/{self.effector}/goal", {"goal_id": goal_id, **request})
        return goal_id

    def on_message(self, msg: Message) -> list[tuple[str, str]]:
        """Consume one delivered message; return [(goal_id, terminal_status)] news."""
        if msg.topic == f"/ready/{self.effector}":
            self.server_ready = True
            return []
        record = self.records.get(msg.payload.get("goal_id", ""))
        if record is None:
            return []
        if msg.topic == f"/{self.effector}/feedback":
            if record.terminal:
                return []
            if record.status == PENDING:
                record.transition(ACTIVE, msg.tick)
            record.progress = msg.payload["progress"]
            return []
        if msg.topic == f"/{self.effector}/result":
            status = msg.payload["status"]
            if status == CANCELED and record.status == PENDING:
                record.transition(CANCELED, msg.tick)
            else:
                if record.status == PENDING:
                    record.transition(ACTIVE, msg.tick)
                record.transition(status, msg.tick)
            return [(record.goal_id, status)]
        return []

    __getstate__ = _without_finished_goals

    def to_state(self) -> dict:
        return {
            "ready": self.server_ready,
            "live": [
                {"goal_id": r.goal_id, "status": r.status, "progress": r.progress}
                for r in sorted(unfinished_goals(self).values(), key=lambda r: r.goal_id)
            ],
        }


class ServerBase:
    """Server half: accepts, executes and resolves goals, one at a time.

    Subclasses provide the effector-specific behavior through ``validate``,
    ``begin``, ``work_tick`` and ``pre_resolve``; execution takes
    ``duration`` work ticks followed by one resolution tick.
    """

    def __init__(self, effector: str, init_delay: int, tracer, fault_explore: bool = False,
                 scripted_faults: tuple[int, ...] = ()):
        self.effector = effector
        self.node = server_node(effector)
        self.tracer = tracer
        self.ready_published = False
        self.delay_remaining = init_delay
        self.records: dict[str, GoalRecord] = {}
        self.active: GoalRecord | None = None
        self.accepted_count = 0
        self.fault_explore = fault_explore
        self.scripted_faults = set(scripted_faults)
        # execution scratch for the active goal
        self.work_done = 0
        self.duration = 0

    # -- subclass hooks ------------------------------------------------------

    def validate(self, request: dict) -> str | None:
        """Return a rejection reason for an invalid request, else None."""
        raise NotImplementedError

    def begin(self, record: GoalRecord) -> int:
        """Set up execution state; return the work duration in ticks."""
        raise NotImplementedError

    def work_tick(self, record: GoalRecord, t: int, bus: MessageBus) -> None:
        raise NotImplementedError

    def pre_resolve(self, record: GoalRecord, status: str, t: int, bus: MessageBus) -> None:
        """Last chance to publish effector state before the result goes out."""

    # -- protocol ------------------------------------------------------------

    def step(self, t: int, bus: MessageBus, sink=None) -> None:
        for msg in bus.drain_inbox(self.node):
            self._receive(msg, t, bus)
        if not self.ready_published:
            if self.delay_remaining <= 0:
                bus.publish(self.node, f"/ready/{self.effector}",
                            {"module": self.effector, "ready": True})
                self.ready_published = True
            else:
                self.delay_remaining -= 1
        self._execute(t, bus, sink)

    def _receive(self, msg: Message, t: int, bus: MessageBus) -> None:
        # A server subscribes to goals only.  The topic names the server the
        # goal was meant for; accept events record it so monitors can spot
        # traffic landing on the wrong node.
        intended = server_node(msg.topic.split("/")[1])
        payload = dict(msg.payload)
        goal_id = payload.pop("goal_id")
        record = GoalRecord(
            goal_id=goal_id, target=intended, request=payload,
            submitted_tick=msg.tick,
        )
        self.records[goal_id] = record
        self._accept(record, t, bus)

    def _accept(self, record: GoalRecord, t: int, bus: MessageBus) -> None:
        if self.active is not None and not self.active.terminal:
            # Preemption: the running goal gives way to the newcomer.
            self._resolve(self.active, CANCELED, t, bus)
        record.transition(ACTIVE, t)
        index = self.accepted_count
        self.accepted_count += 1
        self._trace_goal(t, "accept", record)
        reason = self.validate(record.request)
        if reason is not None:
            log.info("%s: goal %s rejected: %s", self.node, record.goal_id, reason)
            self._resolve(record, ABORTED, t, bus)
            return
        if index in self.scripted_faults:
            self._resolve(record, ABORTED, t, bus)
            return
        self.active = record
        self.work_done = 0
        self.duration = self.begin(record)

    def _execute(self, t: int, bus: MessageBus, sink) -> None:
        record = self.active
        if record is None or record.terminal:
            return
        if self.work_done < self.duration:
            self.work_done += 1
            self.work_tick(record, t, bus)
            record.progress = self.work_done / self.duration
            bus.publish(self.node, f"/{self.effector}/feedback",
                        {"goal_id": record.goal_id, "progress": record.progress})
            return  # resolution happens on the step after the last work unit
        status = SUCCEEDED
        if self.fault_explore and sink is not None:
            status = sink.choose(("fault", self.effector), (SUCCEEDED, ABORTED))
        self._resolve(record, status, t, bus)

    def _resolve(self, record: GoalRecord, status: str, t: int, bus: MessageBus) -> None:
        self.pre_resolve(record, status, t, bus)
        record.transition(status, t)
        if self.active is record:
            self.active = None
        self._trace_goal(t, "resolve", record)
        bus.publish(self.node, f"/{self.effector}/result",
                    {"goal_id": record.goal_id, "status": record.status})

    def _trace_goal(self, t: int, phase: str, record: GoalRecord) -> None:
        self.tracer.emit(
            {
                "t": t,
                "kind": "goal",
                "phase": phase,
                "server": self.node,
                "target": record.target,
                "goal_id": record.goal_id,
                "status": record.status,
            }
        )

    # -- exploration support -------------------------------------------------

    __getstate__ = _without_finished_goals

    def base_state(self) -> dict:
        state = {
            "ready": self.ready_published,
            "delay": self.delay_remaining,
            "live": [
                {
                    "goal_id": r.goal_id,
                    "status": r.status,
                    "request": r.request,
                    "active": r is self.active,
                }
                for r in sorted(unfinished_goals(self).values(), key=lambda r: r.goal_id)
            ],
        }
        if self.active is not None and not self.active.terminal:
            state["work"] = [self.work_done, self.duration]
        return state
