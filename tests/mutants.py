"""Test catalog of the built-in fault seeds and the properties that catch
them.

Each mutant is a deliberate, realistic defect wired into the model when
``config.mutant`` names it (``roverbench.config.MUTANT_NAMES`` lists them).
The catalog records, for each one, which property in the default suite flags
it and which scenario settings make the defect observable in a short run.
Only the tests read it: ``--mutant`` sets only ``config.mutant``.
"""

from __future__ import annotations

from roverbench.config import MUTANT_NAMES, ScenarioConfig, make_config

_CATALOG = {
    "env-blind": {
        "summary": "route planning ignores hazard readings and always walks "
                   "the plain patrol loop",
        "killed_by": "radiation_avoidance",
        # With no decay the radiated waypoint stays hot, so the blind rover
        # drives into it within one circuit.
        "overrides": {"decay_rate": 0},
    },
    "misroute-bus": {
        "summary": "arm goal traffic is delivered to the mast server",
        "killed_by": "correct_server_routing",
        "overrides": {},
    },
    "no-stop-wheels": {
        "summary": "the drive server reports success without the wheels-"
                   "stopped telemetry frame",
        "killed_by": "stop_after_move",
        "overrides": {},
    },
    "premature-action": {
        "summary": "an unguarded start rule fires movement before the "
                   "effector servers report ready",
        "killed_by": "readiness_guard_wheels",
        "overrides": {},
    },
}

assert set(_CATALOG) == set(MUTANT_NAMES)


def mutant_names() -> tuple[str, ...]:
    return MUTANT_NAMES


def describe(name: str) -> dict:
    if name not in _CATALOG:
        raise KeyError(f"unknown mutant {name!r}")
    entry = _CATALOG[name]
    return {"name": name, "summary": entry["summary"],
            "killed_by": entry["killed_by"]}


def killer_property(name: str) -> str:
    """Name of the default-suite property that flags this mutant."""
    return _CATALOG[name]["killed_by"]


def mutant_demo_config(name: str, base: dict | None = None) -> ScenarioConfig:
    """A scenario that makes the named defect observable: the base scenario
    plus the mutant flag and any settings its detection needs."""
    if name not in _CATALOG:
        raise KeyError(f"unknown mutant {name!r}")
    overrides = dict(_CATALOG[name]["overrides"])
    overrides["mutant"] = name
    merged = dict(base or {})
    merged.update(overrides)
    return make_config(merged)
