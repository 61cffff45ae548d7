"""Goal/feedback/result protocol between effector clients and servers.

Both endpoints are plain state machines stepped by the simulator; they talk
only through bus topics.  Lifecycle: a goal is Pending when submitted, Active
once the server takes it up, and ends Succeeded, Canceled or Aborted exactly
once.  A new goal preempts a running one, which resolves Canceled.  An
endpoint keeps a goal's record only while the goal is unfinished: a client
forgets it on its result, and a server holds only its active goal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bus import StagePort
from .messages import Message, client_node, server_node

PENDING = "Pending"
ACTIVE = "Active"
SUCCEEDED = "Succeeded"
CANCELED = "Canceled"
ABORTED = "Aborted"

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
    """One unfinished goal, kept by each endpoint that observes it.  A
    server's record names the server its goal's topic meant, ``target``,
    for its goal events; a client's names none."""

    goal_id: str
    request: dict
    status: str = PENDING
    progress: float = 0.0
    target: str | None = None

    def transition(self, new_status: str) -> None:
        if (self.status, new_status) not in _LEGAL_TRANSITIONS:
            raise IllegalTransitionError(f"{self.goal_id}: {self.status} -> {new_status}")
        self.status = new_status


class ClientEndpoint:
    """Client half: submits goals and mirrors server progress."""

    def __init__(self, effector: str):
        self.effector = effector
        self.node = client_node(effector)
        self.server_ready = False
        self._counter = 0
        self.records: dict[str, GoalRecord] = {}

    def send_goal(self, port: StagePort, request: dict) -> str:
        if not self.server_ready:
            raise NotReadyError(f"{self.effector} server has not announced readiness")
        goal_id = f"{self.node}:{self._counter}"
        self._counter += 1
        self.records[goal_id] = GoalRecord(goal_id, dict(request))
        port.publish(self.node, f"/{self.effector}/goal", {"goal_id": goal_id, **request})
        return goal_id

    def on_message(self, msg: Message) -> list[tuple[GoalRecord, str]]:
        """Consume one delivered message; return [(record, terminal_status)] news."""
        if msg.topic == f"/ready/{self.effector}":
            self.server_ready = True
            return []
        record = self.records.get(msg.payload.get("goal_id", ""))
        if record is None:
            return []
        if msg.topic == f"/{self.effector}/feedback":
            if record.status == PENDING:
                record.transition(ACTIVE)
            record.progress = msg.payload["progress"]
            return []
        if msg.topic == f"/{self.effector}/result":
            status = msg.payload["status"]
            if record.status == PENDING and status != CANCELED:
                record.transition(ACTIVE)
            record.transition(status)
            del self.records[record.goal_id]
            return [(record, status)]
        return []

    def to_state(self) -> tuple:
        # Records are kept in the order their goals were sent, which is the
        # order of their numbers, so a record's place is its id's rank.
        return (self.server_ready,
                *[(r.status, r.progress, r.request) for r in self.records.values()])

    def from_state(self, state: tuple) -> None:
        # A record's id is ``node:rank``, so goals count on from the records.
        self.server_ready = state[0]
        self.records = {f"{self.node}:{i}": GoalRecord(f"{self.node}:{i}", request, status,
                                                       progress)
                        for i, (status, progress, request) in enumerate(state[1:])}
        self._counter = len(self.records)


class ServerBase:
    """Server half: accepts, executes and resolves goals, one at a time.

    Subclasses provide the effector-specific behavior through ``begin``,
    ``work_tick`` and ``pre_resolve``; execution takes ``duration`` work
    ticks followed by one resolution tick.  A server trusts every goal it
    receives: the bus has already checked it against its topic's shape.  It
    steps through the ``StagePort`` of its node, which holds all it reaches.
    """

    def __init__(self, effector: str, init_delay: int, fault_explore: bool = False,
                 scripted_faults: tuple[int, ...] = ()):
        self.effector = effector
        self.node = server_node(effector)
        self.ready_published = False
        self.delay_remaining = init_delay
        self.active: GoalRecord | None = None
        self.accepted_count = 0
        self.fault_explore = fault_explore
        self.scripted_faults = set(scripted_faults)
        # execution scratch for the active goal
        self.work_done = 0
        self.duration = 0

    # -- subclass hooks ------------------------------------------------------

    def begin(self, record: GoalRecord) -> int:
        """Set up execution state; return the work duration in ticks."""
        raise NotImplementedError

    def work_tick(self, record: GoalRecord, port: StagePort) -> None:
        raise NotImplementedError

    def pre_resolve(self, record: GoalRecord, status: str, port: StagePort) -> None:
        """Last chance to publish effector state before the result goes out."""

    # -- protocol ------------------------------------------------------------

    nodes = property(lambda self: (self.node,))  # the nodes of its StagePort

    def step(self, port: StagePort) -> None:
        for _node, msg in port.inbox():
            self._receive(msg, port)
        if not self.ready_published:
            if self.delay_remaining <= 0:
                port.publish(self.node, f"/ready/{self.effector}",
                             {"module": self.effector, "ready": True})
                self.ready_published = True
            else:
                self.delay_remaining -= 1
        self._execute(port)

    def _receive(self, msg: Message, port: StagePort) -> None:
        # A server subscribes to goals only.  The topic names the server the
        # goal was meant for; accept events record it so monitors can spot
        # traffic landing on the wrong node.
        intended = server_node(msg.topic.split("/")[1])
        payload = dict(msg.payload)
        goal_id = payload.pop("goal_id")
        self._accept(GoalRecord(goal_id, payload, target=intended), port)

    def _accept(self, record: GoalRecord, port: StagePort) -> None:
        if self.active is not None:
            # Preemption: the running goal gives way to the newcomer.
            self._resolve(self.active, CANCELED, port)
        record.transition(ACTIVE)
        index = self.accepted_count
        self.accepted_count += 1
        self._trace_goal(port, "accept", record)
        if index in self.scripted_faults:
            self._resolve(record, ABORTED, port)
            return
        self.active = record
        self.work_done = 0
        self.duration = self.begin(record)

    def _execute(self, port: StagePort) -> None:
        record = self.active
        if record is None:
            return
        if self.work_done < self.duration:
            self.work_done += 1
            self.work_tick(record, port)
            record.progress = self.work_done / self.duration
            port.publish(self.node, f"/{self.effector}/feedback",
                         {"goal_id": record.goal_id, "progress": record.progress})
            return  # resolution happens on the step after the last work unit
        status = SUCCEEDED
        if self.fault_explore and port.exploring:
            status = port.choose(("fault", self.effector), (SUCCEEDED, ABORTED))
        self._resolve(record, status, port)

    def _resolve(self, record: GoalRecord, status: str, port: StagePort) -> None:
        self.pre_resolve(record, status, port)
        record.transition(status)
        if self.active is record:
            self.active = None
        self._trace_goal(port, "resolve", record)
        port.publish(self.node, f"/{self.effector}/result",
                     {"goal_id": record.goal_id, "status": record.status})

    def _trace_goal(self, port: StagePort, phase: str, record: GoalRecord) -> None:
        port.emit("goal", phase=phase, server=self.node, target=record.target,
                  goal_id=record.goal_id, status=record.status)

    # -- exploration support -------------------------------------------------

    def to_state(self, rank) -> tuple:
        """The active goal's id is read as ``rank`` renames it.  Not state:
        ``accepted_count``, which only ``scripted_faults`` read and ``verify``
        rejects, and the progress a work tick sets before it publishes it."""
        record = self.active
        if record is None:
            return (self.ready_published, self.delay_remaining)
        return (self.ready_published, self.delay_remaining, rank(record.goal_id),
                record.status, record.request, self.work_done, self.duration)

    def from_state(self, state: tuple, unrank) -> None:
        """``unrank`` gives the id and target of the goal a rank names."""
        self.ready_published, self.delay_remaining = state[:2]
        self.active = None
        if len(state) > 2:
            rank, status, request, self.work_done, self.duration = state[2:]
            goal_id, target = unrank(rank)
            self.active = GoalRecord(goal_id, request, status, target=target)
