"""The benchmark's workloads at seed 0, size ``full``, pass the harness's
own correctness gate: ``simulate``, ``check`` and ``verify`` of each give
the outputs ``bench/pins.json`` pins, trace and ``.explain`` hashes
included.  A change of those bytes fails here before it fails the
benchmark."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_0_full_matches_the_pins(tmp_path, name):
    wl = workloads.Workload(name, 0, "full", str(tmp_path))
    assert wl.pins is not None
    simulated = wl.simulate()
    wl.gate("simulate", simulated)
    wl.gate("check", wl.check(), simulated["summary"]["verdicts"])
    wl.gate("verify", wl.verify())
