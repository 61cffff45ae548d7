"""Scenario config tests: every key of the schema reads as a plain attribute,
and the built-in schema check agrees with jsonschema, its reference."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from roverbench.config import (
    CONFIG_SCHEMA,
    DEFAULT_SCENARIO,
    ConfigError,
    ScenarioConfig,
    _schema_error,
    make_config,
)

KEYS = sorted(CONFIG_SCHEMA["properties"])


class TestAttributes:
    """``ScenarioConfig`` copies its ``raw`` keys to attributes when built."""

    def test_no_key_shadows_a_member(self):
        members = set(dir(ScenarioConfig)) | {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert sorted(set(KEYS) & members) == []

    @pytest.mark.parametrize("key", KEYS)
    def test_attribute_is_the_raw_value(self, key):
        for config in (make_config({"seed": 7, "decay_rate": 2}), ScenarioConfig()):
            assert getattr(config, key) == config.raw[key]

    def test_unknown_name_raises(self):
        config = make_config()
        with pytest.raises(AttributeError):
            config.no_such_key
        assert not hasattr(config, "decay")

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))])
    def test_copies_keep_attributes(self, clone):
        config = make_config({"decay_rate": 3, "mutant": "env-blind"})
        other = clone(config)
        assert other == config
        assert (other.decay_rate, other.mutant) == (3, "env-blind")
        assert [getattr(other, key) for key in KEYS] == [other.raw[key] for key in KEYS]


class TestIntegralFloats:
    """A float with an integral value passes where the schema asks for an
    integer, as in jsonschema, and the config holds it as an ``int``."""

    def test_integer_fields_hold_ints(self):
        config = make_config({"seed": 1.0, "wind": {"A": 7.0}, "wind_choices": {"A": [0.0, 7]},
                              "scripted_faults": [{"effector": "arm", "goal_index": 2.0}]})
        assert type(config.seed) is int
        assert type(config.wind["A"]) is int
        assert [type(level) for level in config.wind_choices["A"]] == [int, int]
        assert type(config.scripted_faults[0]["goal_index"]) is int
        assert config.to_json() == make_config({
            "seed": 1, "wind": {"A": 7}, "wind_choices": {"A": [0, 7]},
            "scripted_faults": [{"effector": "arm", "goal_index": 2}]}).to_json()

    def test_number_fields_keep_floats(self):
        pose = {"arm": [1.0, 2.5, 3, 4], "mast": [0.0, 1]}
        assert make_config({"open_pose": pose}).open_pose == pose
        assert [type(a) for a in make_config({"open_pose": pose}).open_pose["arm"]] == [
            float, float, int, int]


class TestCrossChecks:
    def test_patrol_stop_off_the_map_rejected(self):
        """The agent sends the wheels only patrol stops, and the wheels
        server runs any goal it gets, so every stop must be on the map."""
        with pytest.raises(ConfigError, match="patrol waypoint 'Z'"):
            make_config({"patrol": ["A", "Z"]})


class TestPoses:
    """Each pose gives the arm four joint angles and the mast two, as numbers."""

    @pytest.mark.parametrize("pose, error", [
        ({"closed_pose": {"arm": 5}}, "closed_pose/arm: 5 is not of type 'array'"),
        ({"open_pose": {"arm": ["a", "b", "c", "d"], "mast": "xy"}},
         "open_pose/arm/0: 'a' is not of type 'number'"),
        ({"open_pose": {"arm": [1, 1, 1]}}, "open_pose/arm: [1, 1, 1] is too short"),
        ({"open_pose": {"mast": [1, 1, 1]}}, "open_pose/mast: [1, 1, 1] is too long"),
        ({"open_pose": {"mast": [True, 1]}}, "open_pose/mast/0: True is not of type 'number'"),
        ({"closed_pose": {"wrist": [0]}},
         "closed_pose: Additional properties are not allowed ('wrist' was unexpected)"),
        ({"closed_pose": []}, "closed_pose: [] is not of type 'object'"),
    ])
    def test_bad_pose_rejected(self, pose, error):
        with pytest.raises(ConfigError) as info:
            make_config(pose)
        assert str(info.value) == f"config invalid at {error}"

    @pytest.mark.parametrize("pose, where", [
        ({"open_pose": {"arm": [10 ** 400, 1, 1, 1]}}, "open_pose/arm/0"),
        ({"open_pose": {"mast": [1, math.nan]}}, "open_pose/mast/1"),
        ({"closed_pose": {"arm": [0, 0, math.inf, 0]}}, "closed_pose/arm/2"),
        ({"closed_pose": {"mast": [-math.inf, 0]}}, "closed_pose/mast/0"),
    ], ids=["int-past-float", "nan", "infinity", "minus-infinity"])
    def test_angle_not_a_finite_float_rejected(self, pose, where):
        """The servers convert each angle to a float: one that overflows, or
        that is not finite, is refused as bad configuration."""
        with pytest.raises(ConfigError) as info:
            make_config(pose)
        assert str(info.value) == f"{where} must be a finite number"

    def test_large_finite_angles_accepted(self):
        pose = {"arm": [10 ** 308, -10 ** 308, 1.5e308, 0], "mast": [0, 0]}
        assert make_config({"closed_pose": pose}).closed_pose == pose

    def test_fractional_angles_accepted(self):
        config = make_config({"open_pose": {"arm": [0.5, 1, 1.5, 2], "mast": [0.25, -1]}})
        assert config.open_pose == {"arm": [0.5, 1, 1.5, 2], "mast": [0.25, -1]}


# -- the schema check against jsonschema -----------------------------------------

REFERENCE = Draft202012Validator(CONFIG_SCHEMA)


def reference_error(raw) -> str | None:
    """What validation reported when it ran on jsonschema: the first error
    after a stable sort by path."""
    errors = sorted(REFERENCE.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"config invalid at {where}: {errors[0].message}"


LEAVES = (-1, 1.0, 1.5, True, "x", None, [], {})
NEW_KEYS = ("x", "arm", "mast", "wind", "tick", "wp", "effector", "goal_index")
# The defaults, with one entry in each list of faults so that mutations reach
# the entries' sub-schemas.
BASE = {**copy.deepcopy(DEFAULT_SCENARIO),
        "scripted_faults": [{"effector": "arm", "goal_index": 0}],
        "env_faults": [{"tick": 3, "wp": "A", "wind": 2}]}


def paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, path + (key,))


def node_at(value, path):
    for key in path:
        value = value[key]
    return value


def mutated(ops):
    """``BASE`` after each ``(scope, pick, op, leaf, key)`` at the picked node
    under ``scope`` (anywhere if empty): replace it with ``leaf``; or, at the
    nearest object (for ``delete``) or object or array (for ``add``) that
    holds it, delete one key, add ``key`` or append an item, valued ``leaf``."""
    raw = copy.deepcopy(BASE)
    for scope, pick, op, leaf, key in ops:
        candidates = [p for p in paths(raw) if not scope or p[:1] == (scope,)]
        if not candidates:
            continue
        path = candidates[pick % len(candidates)]
        if op == "replace":
            if path:
                node_at(raw, path[:-1])[path[-1]] = copy.deepcopy(leaf)
            continue
        kinds = dict if op == "delete" else (dict, list)
        while path and not isinstance(node_at(raw, path), kinds):
            path = path[:-1]
        node = node_at(raw, path)
        if op == "delete" and node:
            del node[sorted(node)[pick % len(node)]]
        elif op == "add" and isinstance(node, dict):
            node[key] = copy.deepcopy(leaf)
        elif op == "add":
            node.append(copy.deepcopy(leaf))
    return raw


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(("", "scripted_faults", "env_faults")),
              st.integers(0, 999),
              st.sampled_from(("replace", "delete", "add")),
              st.sampled_from(LEAVES),
              st.sampled_from(NEW_KEYS)),
    min_size=1, max_size=6)


class TestSchemaCheck:
    """The built-in check reports what jsonschema reported: the same verdict
    and the same first ``(path, message)``."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(MUTATIONS)
    def test_agrees_with_jsonschema(self, ops):
        raw = mutated(ops)
        assert _schema_error(CONFIG_SCHEMA, raw) == reference_error(raw)

    @pytest.mark.parametrize("raw", [
        # A tie at one path: additionalProperties comes before required.
        {**BASE, "scripted_faults": [{"x": 1}]},
        {**BASE, "env_faults": [{"wind": 1, "y": 2, "a": 3}]},
        # Extra names are listed sorted, whatever their order in the file.
        {**BASE, "zeta": 1, "alpha": 2},
        {**BASE, "seed": 1.0},
        {**BASE, "seed": True},
        {**BASE, "mutant": True},
        {**BASE, "decay_rate": -1.0},
        {**BASE, "waypoints": {"o": [0, 0]}},
        {**BASE, "waypoints": {"o": [0, 0], "A": [1, 0]}},
        {**BASE, "patrol": []},
    ], ids=["tie", "tie-many", "extras-sorted", "integral-float", "bool-not-integer",
            "bool-not-enum", "float-minimum", "min-properties", "min-properties-met", "min-items"])
    def test_hand_picked_cases(self, raw):
        assert _schema_error(CONFIG_SCHEMA, raw) == reference_error(raw)

    def test_tie_reports_additional_properties_first(self):
        raw = {**BASE, "scripted_faults": [{"x": 1}]}
        assert _schema_error(CONFIG_SCHEMA, raw) == (
            "config invalid at scripted_faults/0: "
            "Additional properties are not allowed ('x' was unexpected)")

    def test_integral_float_is_an_integer_and_bool_is_not(self):
        assert make_config({"seed": 1.0}).seed == 1.0
        with pytest.raises(ConfigError, match="seed: True is not of type 'integer'"):
            make_config({"seed": True})

    @pytest.mark.parametrize("value, ok", [(1, True), (1.0, True), (True, False)])
    def test_enum_keeps_bool_apart_from_one(self, value, ok):
        assert (_schema_error({"enum": [1]}, value) is None) == ok
        assert (_schema_error({"enum": [True]}, value) is None) == (value is True)

    @pytest.mark.parametrize("schema, value", [
        ({"maximum": 3}, 1),
        ({"type": "array", "items": {"pattern": "x"}}, ["a"]),
    ])
    def test_unsupported_keyword_raises(self, schema, value):
        with pytest.raises(ValueError, match="unsupported schema keyword"):
            _schema_error(schema, value)
