"""Hazard environment: classification, decay, and the world node.

The world owns per-waypoint wind and radiation levels.  Radiation decays
linearly each tick (floored at zero); wind is static during simulation and is
re-drawn from a configured choice set at each waypoint arrival when the model
is being explored.  Every tick the world publishes one classified sample per
waypoint, so the agent's picture of any location is at most one delivery
behind the truth.
"""

from __future__ import annotations

from .bus import StagePort
from .config import ScenarioConfig
from .messages import NODE_WORLD, Message

FINE = "Fine"
WINDY = "Windy"
RADIATION = "Radiation"

HAZARD_THRESHOLD = 5


class NegativeReadingError(ValueError):
    """A sensor reading below zero reached the classifier."""


def classify(wind: int, radiation: int) -> str:
    """Classify a pair of readings.  Radiation dominates wind when both are high."""
    if wind < 0 or radiation < 0:
        raise NegativeReadingError(f"negative reading wind={wind} radiation={radiation}")
    if radiation >= HAZARD_THRESHOLD:
        return RADIATION
    if wind >= HAZARD_THRESHOLD:
        return WINDY
    return FINE


def decay_radiation(levels: dict[str, int], rate: int) -> dict[str, int]:
    """One decay step: every waypoint drops by ``rate``, floored at zero."""
    return {wp: max(0, level - rate) for wp, level in levels.items()}


def clamp_level(value: int, cap: int) -> int:
    return max(0, min(cap, value))


class World:
    """Environment node: hazard field, sampling, arrivals, fault scripts."""

    def __init__(self, config: ScenarioConfig, sink=None):
        self.config = config
        self.order = [config.start] + list(config.patrol)
        cap = config.level_cap
        self.wind = {wp: clamp_level(config.wind[wp], cap) for wp in self.order}
        if sink is not None:  # exploring: the starting levels are choices
            self.radiation = {
                wp: clamp_level(sink.choose(("radiation0", wp), config.radiation_choices[wp]), cap)
                for wp in self.order
            }
        else:
            self.radiation = {wp: clamp_level(config.radiation[wp], cap) for wp in self.order}
        self.last_pose = config.coords(config.start)
        self.started = False
        self._coords_to_wp = {config.coords(wp): wp for wp in self.order}

    # -- node protocol -------------------------------------------------------

    def step(self, port: StagePort) -> None:
        for _node, msg in port.inbox():
            self._observe_pose(msg, port)
        if self.started:
            self.radiation = decay_radiation(self.radiation, self.config.decay_rate)
        self.started = True
        for wp in self.order:
            wind, radiation = self.wind[wp], self.radiation[wp]
            for fault in self.config.env_faults:
                if fault["tick"] == port.tick and fault["wp"] == wp:
                    wind = fault.get("wind", wind)
                    radiation = fault.get("radiation", radiation)
            cap = self.config.level_cap
            env = classify(clamp_level(wind, cap), clamp_level(radiation, cap))
            port.publish(NODE_WORLD, "/env/sample",
                         {"wp": wp, "wind": wind, "radiation": radiation, "env": env})

    def _observe_pose(self, msg: Message, port: StagePort) -> None:
        if msg.topic != "/pose":
            return
        pose = (msg.payload["x"], msg.payload["y"])
        if pose == self.last_pose:
            return
        self.last_pose = pose
        wp = self._coords_to_wp.get(pose)
        if wp is None:
            return
        # Arrival: when exploring, the wind at the reached waypoint is re-drawn
        # from its declared choice set; a plain simulation, which steps
        # without a sink, keeps it static.
        if port.exploring:
            options = self.config.wind_choices[wp]
            self.wind[wp] = clamp_level(port.choose(("wind", wp), options), self.config.level_cap)

    # -- exploration support -------------------------------------------------

    def to_state(self) -> tuple:
        # Both level maps list the waypoints in one order, ``self.order``.
        return (self.wind, self.radiation, self.last_pose, self.started)
