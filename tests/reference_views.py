"""Reference views of the explorer's state key, for cross-checking the
``to_state`` tuples the key files: the view of a model and of each riding
monitor as a dict, read here from the live objects' attributes.  They share
no code with the ``to_state`` methods under test.  Goal ids stay as the model
holds them, live records listed by goal number; the key
tests rename every id by its rank per client before they compare."""

from __future__ import annotations

from roverbench.agent import Hold, MoveNext, SetPosture, atom_text
from roverbench.effectors import NOMINAL_SPEED, WHEEL_COUNT, WheelsServer
from roverbench.monitor import LivenessMonitor, ObligationMonitor, SafetyMonitor


def goal_number(goal_id: str) -> tuple[str, int]:
    """A goal id ("wheelsClient:12") as its client node and number."""
    node, _, num = goal_id.rpartition(":")
    return node, int(num)


def world_view(world) -> dict:
    return {"wind": dict(world.wind), "radiation": dict(world.radiation),
            "pose": list(world.last_pose), "started": world.started}


def server_view(server) -> dict:
    record = server.active
    state = {"ready": server.ready_published, "delay": server.delay_remaining,
             "live": [] if record is None else [{
                 "goal_id": record.goal_id, "status": record.status,
                 "request": record.request, "active": True}]}
    if record is not None:
        state["work"] = [server.work_done, server.duration]
    if isinstance(server, WheelsServer):
        state["pose"] = list(server.pose)
        if record is not None:
            state["speeds"] = [NOMINAL_SPEED] * WHEEL_COUNT
            state["march"] = list(server._target)
        return state
    state["joints"] = list(server.joints)
    state["posture"] = server.posture
    if record is not None:
        state["start"] = list(server._start)
        state["goal_joints"] = list(server._goal_joints)
        state["goal_posture"] = server._goal_posture
    return state


def step_view(step) -> dict:
    if isinstance(step, Hold):
        return {"step": "Hold", "remaining": step.remaining}
    if isinstance(step, MoveNext):
        return {"step": "MoveNext", "issued": step.issued, "pending": sorted(step.pending),
                "succeeded": step.succeeded}
    state = {"step": type(step).__name__, "issued": step.issued,
             "pending": sorted(step.pending), "retry": sorted(a.text() for a in step.retry)}
    if isinstance(step, SetPosture):
        state["cmd"] = step.cmd
    return state


def agent_view(agent) -> dict:
    intention = agent.intention
    return {
        "beliefs": sorted(atom_text(b) for b in agent.beliefs),
        "started": agent.started,
        # Bindings only label explanations; an intention holds only the
        # steps it has not finished.
        "intention": None if intention is None else {
            "rule": intention.rule.name, "steps": [step_view(s) for s in intention.steps]},
    }


def client_view(client) -> dict:
    records = sorted(client.records.values(), key=lambda r: goal_number(r.goal_id))
    return {"ready": client.server_ready,
            "live": [{"goal_id": r.goal_id, "status": r.status, "progress": r.progress,
                      "request": r.request} for r in records]}


def host_view(host) -> dict:
    return {"agent": agent_view(host.agent),
            "clients": {e: client_view(c) for e, c in sorted(host.clients.items())}}


def model_view(model) -> dict:
    """The world, each server, the host and every non-empty inbox, its
    entries in arrival order."""
    return {
        "world": world_view(model.world),
        "servers": {e: server_view(s) for e, s in sorted(model.servers.items())},
        "host": host_view(model.host),
        "inboxes": {node: [{"topic": m.topic, "sender": m.sender, "payload": m.payload}
                           for m in msgs]
                    for node, msgs in sorted(model.bus.inboxes.items()) if msgs},
    }


def monitor_view(monitor, now: int) -> dict:
    """A riding monitor's state, deadlines counted from the tick ``now``."""
    if isinstance(monitor, LivenessMonitor):
        return {"open": monitor.open}
    if isinstance(monitor, SafetyMonitor):
        return {"verdict": monitor.verdict}
    assert isinstance(monitor, ObligationMonitor), type(monitor)
    state = {"verdict": monitor.verdict}
    if monitor.bound is None:
        if monitor.once:
            state["done"] = not monitor.armed and monitor.deadline is None
        else:
            state["open"] = monitor.deadline is not None
        return state
    state["due"] = None if monitor.deadline is None else monitor.deadline - now
    if monitor.once:
        state["armed"] = monitor.armed
    return state
