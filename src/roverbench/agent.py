"""Patrol agent: belief base, plan library, intention interpreter.

The agent runs one reasoning cycle per tick: fold perceptions into beliefs,
let belief-addition events pick a plan (first matching rule in declaration
order), then advance the current intention by at most one action-emitting
step.

Beliefs are ground tuples: ``("at", "A")``, ``("ready", "wheels")``,
``("env", "B", "Radiation")``, ``("arm", "Open")``.  The ``at``/``arm``/
``mast`` families and the per-waypoint ``env`` family are functional: a new
value replaces the old one.  ``ready`` beliefs latch.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

from .config import ScenarioConfig
from .messages import EFFECTORS

log = logging.getLogger(__name__)

WAIT = "Wait"  # next_waypoint verdict when every candidate is radiated

VAR = "?"  # wildcard slot in plan triggers

DONE = "done"
WAITING = "waiting"
EMIT = "emit"


@dataclass(frozen=True)
class AgentAction:
    name: str
    args: tuple

    def text(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"

    def effector(self) -> str:
        if self.name == "move_to_waypoint":
            return "wheels"
        return "arm" if self.name == "control_arm" else "mast"

    def request(self) -> dict:
        if self.name == "move_to_waypoint":
            return {"kind": "waypoint", "wp": self.args[0]}
        return {"cmd": self.args[0]}


def move_to(wp: str) -> AgentAction:
    return AgentAction("move_to_waypoint", (wp,))


def posture_cmd(effector: str, cmd: str) -> AgentAction:
    return AgentAction(f"control_{effector}", (cmd,))


# Memoised: every belief event names its atom's text.  Atoms range over a
# map's waypoints and modules, so the memo stays small.
@functools.cache
def atom_text(belief: tuple) -> str:
    return f"{belief[0]}({','.join(str(a) for a in belief[1:])})"


# -- belief queries ----------------------------------------------------------

def belief_value(beliefs: set, family: str, *key) -> str | None:
    """Value of a functional belief, e.g. belief_value(b, "env", "B")."""
    for b in beliefs:
        if b[0] == family and b[1:-1] == key:
            return b[-1]
    return None


def mission_ready(beliefs: set) -> bool:
    return all(("ready", e) in beliefs for e in EFFECTORS)


def next_waypoint(config: ScenarioConfig, current: str, beliefs: set) -> str:
    """Next patrol stop from ``current``: the first successor not believed
    radiated (at most two skips).  Every candidate radiated means Wait."""
    for wp in config.candidate_chain(current):
        if belief_value(beliefs, "env", wp) != "Radiation":
            return wp
    return WAIT


# -- intention machinery -----------------------------------------------------

class Step:
    """One body step of a plan.  ``run`` is called once per cycle while the
    step is current and returns DONE, WAITING, or (EMIT, actions).
    ``finished`` must report completion without side effects so the
    interpreter can retire a step before handling new belief events."""

    @property
    def finished(self) -> bool:
        return False

    def run(self, agent: "RoverAgent"):
        raise NotImplementedError

    def on_resolution(self, agent: "RoverAgent", action: AgentAction, status: str) -> None:
        pass

    def to_state(self) -> tuple:
        return (type(self).__name__,)


class _GoalStep(Step):
    """Base for steps that issue effector goals and wait for their results."""

    def __init__(self):
        self.pending: list[str] = []
        self.retry: list[AgentAction] = []
        self.issued = False

    def wanted(self, agent: "RoverAgent") -> list[AgentAction]:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        return self.issued and not self.pending and not self.retry

    def run(self, agent: "RoverAgent"):
        if not self.issued:
            actions = self.wanted(agent)
            self.issued = True
            if not actions:
                return DONE
            self.pending = [a.text() for a in actions]
            return (EMIT, actions)
        if self.retry:
            actions, self.retry = self.retry, []
            self.pending.extend(a.text() for a in actions)
            return (EMIT, actions)
        return DONE if not self.pending else WAITING

    def on_resolution(self, agent: "RoverAgent", action: AgentAction, status: str) -> None:
        text = action.text()
        if text not in self.pending:
            return
        self.pending.remove(text)
        if status != "Succeeded":
            self.retry.append(action)

    def to_state(self) -> tuple:
        return (type(self).__name__, self.issued, sorted(self.pending),
                sorted([a.text() for a in self.retry]))


class SetPosture(_GoalStep):
    """Drive both instruments to a named posture, skipping ones already there."""

    def __init__(self, cmd: str):
        super().__init__()
        self.cmd = cmd
        self.target = "Open" if cmd == "open" else "Closed"

    def wanted(self, agent: "RoverAgent") -> list[AgentAction]:
        if not agent.config.posture_policy_enabled:
            return []
        return [
            posture_cmd(inst, self.cmd)
            for inst in ("arm", "mast")
            if belief_value(agent.beliefs, inst) != self.target
        ]

    def to_state(self) -> tuple:
        return (*super().to_state(), self.cmd)


class Hold(Step):
    """Stay put for a fixed number of cycles (instrument dwell)."""

    def __init__(self, ticks: int):
        self.remaining = ticks

    @property
    def finished(self) -> bool:
        return self.remaining <= 0

    def run(self, agent: "RoverAgent"):
        if self.remaining <= 0:
            return DONE
        self.remaining -= 1
        return WAITING

    def to_state(self) -> tuple:
        return ("Hold", self.remaining)


class MoveNext(_GoalStep):
    """Pick the next patrol stop and drive there; re-plans while every
    candidate is radiated and retries if the drive does not succeed."""

    def __init__(self):
        super().__init__()
        self.succeeded = False

    @property
    def finished(self) -> bool:
        return self.succeeded

    def run(self, agent: "RoverAgent"):
        if self.succeeded:
            return DONE
        if not self.issued:
            current = belief_value(agent.beliefs, "at")
            nxt = agent.pick_next(current)
            if nxt == WAIT:
                return WAITING  # all candidates radiated; reconsider next cycle
            action = move_to(nxt)
            self.issued = True
            self.pending = [action.text()]
            return (EMIT, [action])
        if not self.pending:
            self.issued = False  # drive failed: choose again
            return self.run(agent)
        return WAITING

    def on_resolution(self, agent: "RoverAgent", action: AgentAction, status: str) -> None:
        if action.text() not in self.pending:
            return
        self.pending.remove(action.text())
        if status == "Succeeded":
            self.succeeded = True

    def to_state(self) -> tuple:
        return ("MoveNext", self.issued, sorted(self.pending), self.succeeded)


@dataclass
class PlanRule:
    name: str
    trigger: tuple  # belief pattern; VAR slots bind
    guard: object  # callable(agent, bindings) -> bool
    body: object  # callable(agent, bindings) -> list[Step]
    preempt: bool = False  # may replace a busy intention


class Intention:
    def __init__(self, rule: PlanRule, bindings: dict):
        self.rule = rule
        self.bindings = bindings
        self.steps: list[Step] = []
        self.index = 0

    @property
    def current(self) -> Step | None:
        return self.steps[self.index] if self.index < len(self.steps) else None

    def to_state(self) -> tuple:
        # Bindings are left out: after adoption they only label explanations.
        # start_patrol binds whichever ready message arrived first, so keeping
        # them would make same-tick arrival order, which the inbox key sorts
        # away, decide a successor's key.
        return (self.rule.name, self.index, *[s.to_state() for s in self.steps[self.index:]])


def _match(trigger: tuple, event: tuple) -> dict | None:
    if len(trigger) != len(event):
        return None
    bindings: dict = {}
    for slot, value in zip(trigger, event):
        if slot == VAR:
            bindings["X"] = value
        elif slot != value:
            return None
    return bindings


def build_plans(config: ScenarioConfig) -> list[PlanRule]:
    def all_ready(agent, b):
        return mission_ready(agent.beliefs)

    def fine_here(agent, b):
        return (
            config.posture_policy_enabled
            and agent.env_view(b["X"]) == "Fine"
        )

    def windy_here(agent, b):
        return agent.env_view(b["X"]) == "Windy"

    def true(agent, b):
        return True

    def radiated_here(agent, b):
        return (
            belief_value(agent.beliefs, "at") == b["X"]
            and agent.env_view(b["X"]) == "Radiation"
        )

    patrol_body = lambda agent, b: [SetPosture("close"), MoveNext()]
    collect_body = lambda agent, b: [
        SetPosture("open"),
        Hold(config.dwell_ticks),
        SetPosture("close"),
        MoveNext(),
    ]

    plans = []
    if config.mutant == "premature-action":
        # Mutant: launches the patrol at startup without the readiness gate.
        plans.append(PlanRule("start_patrol_unguarded", ("start",), true, patrol_body))
    if config.strict_radiation_mode:
        # Avoidance generalized beyond route planning: radiation appearing at
        # the waypoint the rover occupies abandons whatever it was doing there.
        plans.append(PlanRule("evacuate_radiation", ("env", VAR, "Radiation"),
                              radiated_here, patrol_body, preempt=True))
    plans.extend(
        [
            PlanRule("start_patrol", ("ready", VAR), all_ready, patrol_body),
            PlanRule("collect_here", ("at", VAR), fine_here, collect_body),
            PlanRule("pass_through_windy", ("at", VAR), windy_here, patrol_body),
            PlanRule("move_on", ("at", VAR), true, patrol_body),
        ]
    )
    return plans


# -- the agent ---------------------------------------------------------------

class RoverAgent:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ignore_env = config.mutant == "env-blind"
        self.beliefs: set = {
            ("at", config.start),
            ("arm", "Closed"),
            ("mast", "Closed"),
        }
        self.plans = build_plans(config)
        self.intention: Intention | None = None
        self.started = False
        self.explanations: list[dict] = []

    # -- belief views --------------------------------------------------------

    def env_view(self, wp: str) -> str | None:
        if self.ignore_env:
            return "Fine"
        return belief_value(self.beliefs, "env", wp)

    def pick_next(self, current: str) -> str:
        if self.ignore_env:
            return self.config.successor(current)
        return next_waypoint(self.config, current, self.beliefs)

    # -- perception ----------------------------------------------------------

    def perceive(self, port, perceptions: list[dict]) -> tuple[list[tuple], list[tuple]]:
        """Fold perceptions into the belief base; returns (added, removed)."""
        added: list[tuple] = []
        removed: list[tuple] = []

        def replace(family: str, *rest):
            key, value = rest[:-1], rest[-1]
            for b in list(self.beliefs):
                if b[0] == family and b[1:-1] == key:
                    if b[-1] == value:
                        return
                    self.beliefs.discard(b)
                    removed.append(b)
            atom = (family, *rest)
            self.beliefs.add(atom)
            added.append(atom)

        for p in perceptions:
            kind = p["kind"]
            if kind == "env":
                replace("env", p["wp"], p["class"])
            elif kind == "ready":
                atom = ("ready", p["module"])
                if atom not in self.beliefs:
                    self.beliefs.add(atom)
                    added.append(atom)
            elif kind == "resolved":
                action: AgentAction = p["action"]
                if p["status"] == "Succeeded":
                    if action.name == "move_to_waypoint":
                        replace("at", action.args[0])
                    elif action.name in ("control_arm", "control_mast"):
                        inst = action.name.split("_")[1]
                        replace(inst, "Open" if action.args[0] == "open" else "Closed")
            else:
                log.debug("perception ignored: %s", p)
        for atom in removed:
            port.emit("belief", op="del", atom=atom_text(atom))
        for atom in added:
            port.emit("belief", op="add", atom=atom_text(atom))
        return added, removed

    # -- reasoning cycle -----------------------------------------------------

    def cycle(self, port, perceptions: list[dict]) -> list[AgentAction]:
        events: list[tuple] = []
        if not self.started:
            self.started = True
            for atom in sorted(self.beliefs):
                port.emit("belief", op="add", atom=atom_text(atom))
            events.append(("start",))
        added, _removed = self.perceive(port, perceptions)
        events.extend(added)

        # Feed goal outcomes to the step that asked for them, then retire
        # every step they completed so a belief event arriving in the same
        # cycle (e.g. at(X) alongside the drive result) can adopt a new plan.
        step = self.intention.current if self.intention else None
        for p in perceptions:
            if p["kind"] == "resolved" and step is not None:
                step.on_resolution(self, p["action"], p["status"])
        self._settle()
        for event in events:
            busy = self.intention is not None
            if not self._adopt(event, preempt_only=busy):
                log.debug("event %s dropped: %s", event,
                          "intention busy" if busy else "no applicable plan")

        return self._advance(port)

    def _settle(self) -> None:
        while self.intention is not None:
            step = self.intention.current
            if step is None:
                self.intention = None
            elif step.finished:
                self.intention.index += 1
            else:
                return

    def _adopt(self, event: tuple, preempt_only: bool) -> bool:
        """Adopt the first applicable plan for ``event``; True if one was.
        Only a preempting rule may replace a busy intention (urgent hazards)."""
        for rule in self.plans:
            if preempt_only and not rule.preempt:
                continue
            bindings = _match(rule.trigger, event)
            if bindings is None or not rule.guard(self, bindings):
                continue
            if preempt_only:
                log.debug("intention %s preempted by %s", self.intention.rule.name, rule.name)
            intention = Intention(rule, bindings)
            intention.steps = rule.body(self, bindings)
            self.intention = intention
            return True
        return False

    def _advance(self, port) -> list[AgentAction]:
        while self.intention is not None:
            step = self.intention.current
            if step is None:
                self.intention = None
                break
            outcome = step.run(self)
            if outcome == DONE:
                self.intention.index += 1
                continue
            if outcome == WAITING:
                return []
            _tag, actions = outcome
            for action in actions:
                port.emit("action", action=action.text())
                self.explanations.append(
                    {
                        "t": port.tick,
                        "rule": self.intention.rule.name,
                        "guard": {
                            "name": self.intention.rule.guard.__name__,
                            "bindings": dict(sorted(self.intention.bindings.items())),
                        },
                        "action": action.text(),
                    }
                )
            return list(actions)
        return []

    # -- exploration support -------------------------------------------------

    def to_state(self) -> tuple:
        # Beliefs as sorted tuples, not texts: ``atom_text`` is one-to-one.
        return (sorted(self.beliefs), self.started,
                self.intention.to_state() if self.intention else None)


# -- agent host --------------------------------------------------------------

class AgentHost:
    """Runs the agent, its interface node and the clients through one
    ``StagePort``: turns inbox traffic into perceptions, hands emitted actions
    to the clients, and maps goal results back to the actions behind them."""

    def __init__(self, config: ScenarioConfig, clients: dict):
        from .messages import NODE_ENV_INTERFACE, client_node

        self.config = config
        self.agent = RoverAgent(config)
        self.clients = clients  # effector -> ClientEndpoint
        self.goal_actions: dict[str, AgentAction] = {}
        self._client_nodes = {client_node(e): e for e in clients}
        self.nodes = (NODE_ENV_INTERFACE, *self._client_nodes)

    def step(self, port) -> None:
        perceptions: list[dict] = []
        for node, msg in port.inbox():
            if node in self._client_nodes:
                client = self.clients[self._client_nodes[node]]
                for goal_id, status in client.on_message(msg):
                    action = self.goal_actions.pop(goal_id, None)
                    if action is None:
                        log.debug("result for unknown goal %s ignored", goal_id)
                        continue
                    perceptions.append({"kind": "resolved", "action": action, "status": status})
                continue
            topic = msg.topic
            if topic == "/env/sample":
                perceptions.append(
                    {"kind": "env", "wp": msg.payload["wp"], "class": msg.payload["env"]}
                )
            elif topic.startswith("/ready/"):
                perceptions.append({"kind": "ready", "module": msg.payload["module"]})
            elif topic.endswith("/result"):
                pass  # the client copy of the result is authoritative
            else:
                log.debug("interface percept on %s carries no belief; ignored", topic)

        for action in self.agent.cycle(port, perceptions):
            client = self.clients[action.effector()]
            try:
                goal_id = client.send_goal(port, action.request())
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                log.warning("action %s rejected by %s client: %s",
                            action.text(), action.effector(), exc)
                continue
            self.goal_actions[goal_id] = action

    def to_state(self) -> tuple:
        # ``goal_actions`` is left out: its ids are those of the clients' live
        # records, and each action is the one the record's request names.
        return (self.agent.to_state(), *[c.to_state() for c in self.clients.values()])
