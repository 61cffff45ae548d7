"""Workloads of the roverbench benchmark and the correctness gate.

Every workload checks one scenario the three ways a user does: ``simulate``
with the packaged monitors attached and the trace streamed to a file,
``check`` of the whole packaged suite over that trace, and ``verify`` of the
whole suite by state-space exploration.  The workloads differ in scenario and
size, so a different layer dominates each:

* ``sim-audit``: the default patrol over a long monitored run.  Monitor
  dispatch, trace encoding and the offline evaluator dominate; its verify is
  the small default graph.
* ``verify-schedule``: the default map with ``schedule_sensitivity``.  Each
  state has 24 schedule variants, so most successors are duplicates: clone,
  step and canonicalisation dominate and little new state is stored.
* ``verify-long-decay``: slow radiation decay at B gives a long chain where
  nearly every successor is a new state: per-state memory, clone cost that
  grows with depth, and liveness over a long graph.

The scenario's own ``seed`` key is read by no code, so the benchmark seed
instead draws small perturbations (the wind at A, B's initial radiation)
inside fixed bands.  Seed 0 gives the unperturbed
scenarios, whose outputs are pinned in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from importlib import resources

from roverbench import explorer, monitor, prop_dsl, simulator, tracing
from roverbench.config import make_config

WORKLOADS = ("sim-audit", "verify-schedule", "verify-long-decay")

# Ticks of the monitored run, and B's radiation and level cap on the
# long-decay map.  "tiny" is for the harness self-test only.
SIZES = {
    "full": {"audit_ticks": 2000, "side_ticks": 500, "decay_level": 200,
             "schedule_radiation": 20},
    "tiny": {"audit_ticks": 200, "side_ticks": 100, "decay_level": 30,
             "schedule_radiation": 6},
}

# Any single operation slower than this counts as failed; verify is also
# handed it as its exploration time budget.
OP_BUDGET_S = 60.0

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def packaged_text(name: str) -> str:
    return resources.files("roverbench").joinpath("data", name).read_text(encoding="utf-8")


def scenario(workload: str, seed: int, size: str = "full") -> dict:
    """Config overrides for ``workload`` under benchmark ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    dims = SIZES[size]
    wind = 7
    level = dims["decay_level"] if workload == "verify-long-decay" else dims["schedule_radiation"]
    if seed != 0:
        # Both keep the shape of the state space: any wind of 5 or more reads
        # Windy, and B stays radiated for the same stretch, give or take 2.
        rng = random.Random(f"{workload}/{seed}")
        wind, level = rng.randint(6, 9), level + rng.randint(-2, 2)
    over: dict = {
        "wind": {"o": 0, "A": wind, "B": 0, "C": 0},
        "wind_choices": {"o": [0], "A": [0, wind], "B": [0], "C": [0]},
        "radiation": {"o": 0, "A": 0, "B": level, "C": 0},
        "radiation_choices": {"o": [0], "A": [0], "B": [level], "C": [0]},
    }
    if workload == "verify-schedule":
        over["schedule_sensitivity"] = True
    if workload == "verify-long-decay":
        over["level_cap"] = level
    return over


def describe(over: dict) -> str:
    return (f"wind at A {over['wind']['A']}, "
            f"B radiation {over['radiation']['B']}, "
            f"cap {over.get('level_cap', 50)}, "
            f"schedule {'on' if over.get('schedule_sensitivity') else 'off'}")


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OpFailure(Exception):
    """An operation finished but its output failed the correctness gate."""


class Workload:
    """One workload's scenario plus its three operations.

    Library entry points are looked up on their modules at call time, so the
    layer hooks of a traced run see every call.  Each operation returns its
    timed result; ``gate_*`` then raises ``OpFailure`` for a wrong output.
    """

    def __init__(self, name: str, seed: int, size: str, workdir: str):
        self.name = name
        self.seed = seed
        self.size = size
        self.overrides = scenario(name, seed, size)
        self.description = describe(self.overrides)
        self.sim_ticks = SIZES[size]["audit_ticks" if name == "sim-audit" else "side_ticks"]
        self.config = make_config(self.overrides)
        self.suite = prop_dsl.parse_suite(packaged_text("default.props"))
        self.rows = json.loads(packaged_text("monitors.json"))["monitors"]
        self.trace_path = os.path.join(workdir, f"{name}.jsonl")
        self.pins = None
        if seed == 0 and size == "full":
            with open(PINS_PATH, encoding="utf-8") as fh:
                self.pins = json.load(fh)[name]
        self._first: dict = {}

    # -- operations ----------------------------------------------------------

    def simulate(self) -> dict:
        engine = monitor.build_engine(self.suite, self.rows)
        started = time.perf_counter()
        summary = simulator.run_simulation(self.config, self.sim_ticks, self.trace_path, engine)
        wall = time.perf_counter() - started
        return {"wall": wall, "work": self.sim_ticks, "summary": summary}

    def check(self) -> dict:
        started = time.perf_counter()
        events = tracing.read_trace(self.trace_path)
        verdicts = monitor.check_trace(self.suite, events)
        wall = time.perf_counter() - started
        return {"wall": wall, "work": len(events), "verdicts": verdicts}

    def verify(self) -> dict:
        started = time.perf_counter()
        report = explorer.explore_properties(self.config, self.suite, budget_secs=OP_BUDGET_S)
        wall = time.perf_counter() - started
        return {"wall": wall, "work": report.transitions, "report": report}

    # -- correctness gate ----------------------------------------------------

    def gate(self, op: str, result: dict, *args) -> None:
        if result["wall"] > OP_BUDGET_S:
            raise OpFailure(f"{op} took {result['wall']:.1f}s, budget {OP_BUDGET_S:.0f}s")
        getattr(self, f"gate_{op}")(result, *args)

    def _same_as_first(self, op: str, observed: dict) -> None:
        first = self._first.setdefault(op, observed)
        if observed != first:
            raise OpFailure(f"{op} output differs from the first {op} of this run: "
                            f"{json.dumps(observed, sort_keys=True)[:300]}")

    def _pinned(self, op: str, observed: dict) -> None:
        if self.pins is None:
            return
        want = self.pins[op]
        if observed != want:
            raise OpFailure(f"{op} output differs from pins.json; observed "
                            f"{json.dumps(observed, sort_keys=True)}")

    def gate_simulate(self, result: dict) -> None:
        summary = result["summary"]
        violated = sorted(n for n, v in summary["verdicts"].items() if v == prop_dsl.VIOLATED)
        if violated:
            raise OpFailure(f"simulate: online monitors report violations: {violated}")
        observed = {
            "trace_sha256": file_sha256(self.trace_path),
            "explain_sha256": file_sha256(self.trace_path + ".explain"),
            "messages_published": summary["messages_published"],
            "visited": summary["visited"],
        }
        self._same_as_first("simulate", observed)
        self._pinned("simulate", observed)

    def gate_check(self, result: dict, online: dict) -> None:
        verdicts = result["verdicts"]
        violated = sorted(n for n, v in verdicts.items() if v == prop_dsl.VIOLATED)
        if violated:
            raise OpFailure(f"check: offline verdicts report violations: {violated}")
        disagree = {n: (v, verdicts.get(n)) for n, v in online.items() if verdicts.get(n) != v}
        if disagree:
            raise OpFailure(f"check: online and offline verdicts disagree (online, offline): "
                            f"{disagree}")
        self._same_as_first("check", {"events": result["work"], "verdicts": verdicts})

    def gate_verify(self, result: dict) -> None:
        report = result["report"]
        violated = sorted(n for n, v in report.verdicts.items() if v == prop_dsl.VIOLATED)
        if violated:
            raise OpFailure(f"verify: violated {violated}")
        if not report.complete:
            raise OpFailure("verify: exploration incomplete")
        if self.config.schedule_sensitivity and report.schedule_invariant is not True:
            raise OpFailure("verify: successors depend on the schedule pick")
        observed = {
            "states": report.states,
            "transitions": report.transitions,
            "verdicts": report.verdicts,
            "complete": report.complete,
            "schedule_invariant": report.schedule_invariant,
        }
        self._same_as_first("verify", observed)
        self._pinned("verify", observed)
