"""Effector servers: six-wheel drive base, four-joint arm, two-joint mast.

The wheels server executes waypoint goals: grid moves along Manhattan paths,
one cell per tick, with every wheel at the nominal speed.  Every wheels
resolution is preceded by an all-zero telemetry frame: the drive always
stops before reporting.  The posture servers move their joints linearly
between the closed and open poses over a configured number of ticks; a
preempted goal leaves the joints wherever they are and the next goal resumes
from there.

Servers run every goal the bus hands them.  The topic table pins each goal's
keys and posture command, and the agent names only patrol waypoints, which
config validation keeps on the map.
"""

from __future__ import annotations

from .action_protocol import GoalRecord, ServerBase
from .bus import StagePort
from .config import ScenarioConfig

WHEEL_COUNT = 6
NOMINAL_SPEED = 1


class WheelsServer(ServerBase):
    def __init__(self, config: ScenarioConfig, **kwargs):
        skip_stop = kwargs.pop("skip_stop", False)
        super().__init__("wheels", config.init_delays["wheels"], **kwargs)
        self.config = config
        self.pose: tuple[int, int] = config.coords(config.start)
        self.skip_stop = skip_stop  # no-stop mutant: omit the halt frame
        self._target: tuple[int, int] | None = None

    def begin(self, record: GoalRecord) -> int:
        self._target = self.config.coords(record.request["wp"])
        x, y = self.pose
        tx, ty = self._target
        return abs(tx - x) + abs(ty - y)

    def work_tick(self, record: GoalRecord, port: StagePort) -> None:
        x, y = self.pose
        tx, ty = self._target
        if x != tx:
            x += 1 if tx > x else -1
        elif y != ty:
            y += 1 if ty > y else -1
        self.pose = (x, y)
        port.publish(self.node, "/pose", {"x": x, "y": y})
        port.publish(self.node, "/wheels/telemetry", {"speeds": [NOMINAL_SPEED] * WHEEL_COUNT})

    def pre_resolve(self, record: GoalRecord, status: str, port: StagePort) -> None:
        if not self.skip_stop:
            port.publish(self.node, "/wheels/telemetry", {"speeds": [0] * WHEEL_COUNT})

    def to_state(self, rank) -> tuple:
        if self.active is None:
            return (self.base_state(rank), self.pose)
        return (self.base_state(rank), self.pose, self._target)


class PostureServer(ServerBase):
    """Arm or mast: linear joint interpolation between two named poses."""

    def __init__(self, effector: str, config: ScenarioConfig, **kwargs):
        super().__init__(effector, config.init_delays[effector], **kwargs)
        self.config = config
        self.closed = [float(v) for v in config.closed_pose[effector]]
        self.open = [float(v) for v in config.open_pose[effector]]
        self.joints: list[float] = list(self.closed)
        self.posture = "Closed"
        self._start: list[float] = []
        self._goal_joints: list[float] = []
        self._goal_posture = "Closed"

    def begin(self, record: GoalRecord) -> int:
        opening = record.request["cmd"] == "open"
        self._goal_joints = list(self.open if opening else self.closed)
        self._goal_posture = "Open" if opening else "Closed"
        self._start = list(self.joints)
        if self.joints == self._goal_joints:
            self.posture = self._goal_posture  # already in pose: no motion
            return 0
        return self.config.posture_duration[self.effector]

    def work_tick(self, record: GoalRecord, port: StagePort) -> None:
        k, n = self.work_done, self.duration
        if k == n:
            self.joints = list(self._goal_joints)
            self.posture = self._goal_posture
        else:
            self.joints = [
                s + (g - s) * k / n for s, g in zip(self._start, self._goal_joints)
            ]
            self.posture = "Moving"
        port.publish(self.node, f"/{self.effector}/telemetry", {
            "effector": self.effector, "joints": list(self.joints), "posture": self.posture})

    def to_state(self, rank) -> tuple:
        if self.active is None:
            return (self.base_state(rank), self.joints, self.posture)
        return (self.base_state(rank), self.joints, self.posture,
                self._start, self._goal_joints, self._goal_posture)


def build_servers(config: ScenarioConfig) -> dict:
    scripted: dict[str, tuple[int, ...]] = {}
    for fault in config.scripted_faults:
        scripted.setdefault(fault["effector"], ())
        scripted[fault["effector"]] = scripted[fault["effector"]] + (fault["goal_index"],)
    common = lambda e: {
        "fault_explore": config.fault_exploration[e],
        "scripted_faults": scripted.get(e, ()),
    }
    # In name order, the order in which a state key files them.
    return {
        "arm": PostureServer("arm", config, **common("arm")),
        "mast": PostureServer("mast", config, **common("mast")),
        "wheels": WheelsServer(
            config, skip_stop=(config.mutant == "no-stop-wheels"), **common("wheels")
        ),
    }
