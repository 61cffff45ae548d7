"""Scenario config tests: every key of the schema reads as a plain attribute."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from roverbench.config import CONFIG_SCHEMA, ScenarioConfig, make_config

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
