"""Scenario configuration: schema, defaults, merging, validation.

A scenario file is JSON; user files are merged over the shipped defaults and
this module checks the merged result itself against the JSON schema that
``roverbench schema`` prints.  It reads only ``type``, ``properties``,
``additionalProperties``, ``required``, ``minProperties``, ``items``,
``minItems``, ``maxItems``, ``minimum`` and ``enum`` (skipping ``$schema`` and
``title``) and reports the error jsonschema would report first.  Unknown keys
are rejected rather than ignored so typos fail loudly before a run starts.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Iterator

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
_JOINTS = {"type": "array", "items": {"type": "number"}}
_POSE = {"type": "object", "additionalProperties": False,
         "properties": {"arm": {**_JOINTS, "minItems": 4, "maxItems": 4},
                        "mast": {**_JOINTS, "minItems": 2, "maxItems": 2}},
         "required": ["arm", "mast"]}

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
        "closed_pose": _POSE,
        "open_pose": _POSE,
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

    def __post_init__(self) -> None:
        # Every key is also a plain attribute (``config.decay_rate``), so a
        # read is an instance-dict hit.  No schema key may name a method.
        self.__dict__.update(self.raw)

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
    for fld in ("closed_pose", "open_pose"):
        for effector, angles in raw[fld].items():
            for i, angle in enumerate(angles):
                try:
                    finite = math.isfinite(angle)
                except OverflowError:  # an integer past the largest float
                    finite = False
                if not finite:
                    raise ConfigError(f"{fld}/{effector}/{i} must be a finite number")
    for fault in raw["env_faults"]:
        if fault["wp"] not in waypoints:
            raise ConfigError(f"env_faults names unknown waypoint {fault['wp']!r}")
        if "wind" not in fault and "radiation" not in fault:
            raise ConfigError("env_faults entries must override wind or radiation")


_KEYWORDS = {"$schema", "title", "type", "properties", "additionalProperties", "required",
             "minProperties", "items", "minItems", "maxItems", "minimum", "enum"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is_type(value: Any, name: str) -> bool:
    return isinstance(value, bool) == (name == "boolean") and (isinstance(value, _TYPES[name]) or (
        name == "integer" and isinstance(value, float) and value.is_integer()))


def _errors(schema: dict[str, Any], value: Any, path: list) -> Iterator[tuple[list, str]]:
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``, in
    jsonschema's order and wording: keywords in the schema's own key order."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"unsupported schema keyword {key!r}")
        if key == "type" and not _is_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    yield from _errors(sub, value[name], path + [name])
        elif key == "additionalProperties" and is_object:
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if arg is False and extras:
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
            for name in extras if isinstance(arg, dict) else ():
                yield from _errors(arg, value[name], path + [name])
        elif key == "required" and is_object:
            yield from ((path, f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif key == "minProperties" and is_object and len(value) < arg:
            yield path, f"{value!r} " + ("should be non-empty" if arg == 1
                                         else "does not have enough properties")
        elif key == "items" and is_array:
            for i, item in enumerate(value):
                yield from _errors(arg, item, path + [i])
        elif key == "minItems" and is_array and len(value) < arg:
            yield path, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems" and is_array and len(value) > arg:
            yield path, f"{value!r} " + ("is expected to be empty" if arg == 0 else "is too long")
        elif key == "minimum" and _is_type(value, "number") and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "enum" and not any(  # a bool equals only itself, as in jsonschema
                v == value and isinstance(v, bool) == isinstance(value, bool) for v in arg):
            yield path, f"{value!r} is not one of {arg!r}"


def _schema_error(schema: dict[str, Any], value: Any) -> str | None:
    """The error jsonschema reports first (by path, then as found), or None."""
    errors = list(_errors(schema, value, []))
    if not errors:
        return None
    path, message = min(errors, key=lambda e: e[0])
    return f"config invalid at {'/'.join(str(p) for p in path) or '<root>'}: {message}"


def validate_config(raw: dict[str, Any]) -> None:
    error = _schema_error(CONFIG_SCHEMA, raw)
    if error:
        raise ConfigError(error)
    _cross_checks(raw)


def make_config(overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    raw = _merge(DEFAULT_SCENARIO, overrides or {})
    validate_config(raw)
    return ScenarioConfig(raw)

