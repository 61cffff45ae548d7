"""Scenario configuration: schema, defaults, validation, loading.

A scenario file is JSON; user files are merged over the shipped defaults and
the merged result is validated against a published JSON schema.  Unknown keys
are rejected rather than ignored so typos fail loudly before a run starts.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any

import jsonschema

from .messages import EFFECTORS

MUTANT_NAMES = ("env-blind", "misroute-bus", "no-stop-wheels", "premature-action")

# Default map: start pad to the west, three science waypoints stacked on a
# vertical line.  Radiation at B starts well above the hazard threshold so the
# patrol demonstrably detours around B until decay clears it; wind at A is
# high enough to keep the instruments shut there.
DEFAULT_SCENARIO: dict[str, Any] = {
    "waypoints": {"o": [0, 0], "A": [6, 0], "B": [6, -4], "C": [6, -8]},
    "start": "o",
    "patrol": ["A", "B", "C"],
    "wind": {"o": 0, "A": 7, "B": 0, "C": 0},
    "radiation": {"o": 0, "A": 0, "B": 20, "C": 0},
    "decay_rate": 1,
    "level_cap": 50,
    "init_delays": {"wheels": 1, "arm": 1, "mast": 1},
    "posture_duration": {"arm": 2, "mast": 2},
    "closed_pose": {"arm": [0, 0, 0, 0], "mast": [0, 0]},
    "open_pose": {"arm": [1, 1, 1, 1], "mast": [1, 1]},
    "dwell_ticks": 3,
    "seed": 0,
    "mutant": None,
    "strict_radiation_mode": False,
    "posture_policy_enabled": True,
    "wind_choices": {"o": [0], "A": [0, 7], "B": [0], "C": [0]},
    "radiation_choices": {"o": [0], "A": [0], "B": [20], "C": [0]},
    "fault_exploration": {"wheels": False, "arm": False, "mast": False},
    "scripted_faults": [],
    "env_faults": [],
    "schedule_sensitivity": False,
    "inbox_limit": 1024,
}

_LEVEL = {"type": "integer", "minimum": 0}
_CHOICES = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "roverbench scenario",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "waypoints": {
            "type": "object",
            "minProperties": 2,
            "additionalProperties": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "start": {"type": "string"},
        "patrol": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "wind": {"type": "object", "additionalProperties": _LEVEL},
        "radiation": {"type": "object", "additionalProperties": _LEVEL},
        "decay_rate": {"type": "integer", "minimum": 0},
        "level_cap": {"type": "integer", "minimum": 5},
        "init_delays": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "posture_duration": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 1},
        },
        "closed_pose": {"type": "object"},
        "open_pose": {"type": "object"},
        "dwell_ticks": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "mutant": {"enum": list(MUTANT_NAMES) + [None]},
        "strict_radiation_mode": {"type": "boolean"},
        "posture_policy_enabled": {"type": "boolean"},
        "wind_choices": {"type": "object", "additionalProperties": _CHOICES},
        "radiation_choices": {"type": "object", "additionalProperties": _CHOICES},
        "fault_exploration": {
            "type": "object",
            "additionalProperties": {"type": "boolean"},
        },
        "scripted_faults": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "effector": {"enum": list(EFFECTORS)},
                    "goal_index": {"type": "integer", "minimum": 0},
                },
                "required": ["effector", "goal_index"],
            },
        },
        "env_faults": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "tick": {"type": "integer", "minimum": 0},
                    "wp": {"type": "string"},
                    "wind": {"type": "integer"},
                    "radiation": {"type": "integer"},
                },
                "required": ["tick", "wp"],
            },
        },
        "schedule_sensitivity": {"type": "boolean"},
        "inbox_limit": {"type": "integer", "minimum": 1},
    },
}


class ConfigError(Exception):
    """Scenario config rejected before the run started."""


@dataclass
class ScenarioConfig:
    raw: dict[str, Any] = field(default_factory=lambda: copy.deepcopy(DEFAULT_SCENARIO))

    def __getattr__(self, name: str) -> Any:
        # Dunder probes (copy/pickle) and a half-constructed instance must not
        # fall through to raw-dict lookup, or lookup recurses on ``raw`` itself.
        if name == "raw" or name.startswith("__"):
            raise AttributeError(name)
        try:
            return self.raw[name]
        except KeyError as exc:  # pragma: no cover - attribute typo guard
            raise AttributeError(name) from exc

    # -- derived views -------------------------------------------------------

    def coords(self, wp: str) -> tuple[int, int]:
        x, y = self.raw["waypoints"][wp]
        return (x, y)

    def successor(self, wp: str) -> str:
        """Next waypoint on the patrol loop (the start pad is never revisited)."""
        patrol = self.raw["patrol"]
        if wp == self.raw["start"]:
            return patrol[0]
        return patrol[(patrol.index(wp) + 1) % len(patrol)]

    def candidate_chain(self, current: str) -> list[str]:
        """Patrol successors of ``current``, in order, stopping before it repeats."""
        chain: list[str] = []
        wp = self.successor(current)
        while wp != current and wp not in chain:
            chain.append(wp)
            wp = self.successor(wp)
        return chain

    def to_json(self) -> dict[str, Any]:
        return copy.deepcopy(self.raw)


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _cross_checks(raw: dict[str, Any]) -> None:
    waypoints = set(raw["waypoints"])
    if raw["start"] not in waypoints:
        raise ConfigError(f"start waypoint {raw['start']!r} is not on the map")
    for wp in raw["patrol"]:
        if wp not in waypoints:
            raise ConfigError(f"patrol waypoint {wp!r} is not on the map")
    if raw["start"] in raw["patrol"]:
        raise ConfigError("the start pad is a staging point, not a patrol stop")
    if len(set(raw["patrol"])) != len(raw["patrol"]):
        raise ConfigError("patrol loop repeats a waypoint")
    for fld in ("wind", "radiation", "wind_choices", "radiation_choices"):
        extra = set(raw[fld]) - waypoints
        if extra:
            raise ConfigError(f"{fld} names unknown waypoints: {sorted(extra)}")
        missing = waypoints - set(raw[fld])
        if missing:
            raise ConfigError(f"{fld} must cover every waypoint; missing {sorted(missing)}")
    cap = raw["level_cap"]
    for fld in ("wind", "radiation"):
        for wp, level in raw[fld].items():
            if level > cap:
                raise ConfigError(f"{fld}[{wp}]={level} exceeds level_cap={cap}")
    for fld in ("wind_choices", "radiation_choices"):
        for wp, options in raw[fld].items():
            for level in options:
                if level > cap:
                    raise ConfigError(f"{fld}[{wp}] option {level} exceeds level_cap={cap}")
    for group in ("init_delays", "fault_exploration"):
        if set(raw[group]) != set(EFFECTORS):
            raise ConfigError(f"{group} must cover exactly {EFFECTORS}")
    if set(raw["posture_duration"]) != {"arm", "mast"}:
        raise ConfigError("posture_duration must cover exactly arm and mast")
    for pose in ("closed_pose", "open_pose"):
        joints = raw[pose]
        if set(joints) != {"arm", "mast"}:
            raise ConfigError(f"{pose} must cover exactly arm and mast")
        if len(joints["arm"]) != 4:
            raise ConfigError("the arm has four joints")
        if len(joints["mast"]) != 2:
            raise ConfigError("the mast has two joints")
    for fault in raw["env_faults"]:
        if fault["wp"] not in waypoints:
            raise ConfigError(f"env_faults names unknown waypoint {fault['wp']!r}")
        if "wind" not in fault and "radiation" not in fault:
            raise ConfigError("env_faults entries must override wind or radiation")


def validate_config(raw: dict[str, Any]) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {err.message}")
    _cross_checks(raw)


def make_config(overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    raw = _merge(DEFAULT_SCENARIO, overrides or {})
    validate_config(raw)
    return ScenarioConfig(raw)


def load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return make_config()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return make_config(data)
