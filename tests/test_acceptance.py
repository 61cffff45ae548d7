"""Acceptance gate.

Each test below checks one numbered acceptance criterion end to end and
records a single PASS/FAIL line; the final test prints the whole table
straight to the terminal (bypassing capture) so the gate is visible in
any pytest run.  Tolerances are pinned in the assertions themselves:
exploration budgets (< 60 s, < 10^6 states), exact kill rate (4/4),
byte-identical trace comparisons, and exact tick arithmetic elsewhere.
"""

from __future__ import annotations

import json
import time
from importlib.resources import files

import pytest

from roverbench.cli import main as cli_main
from roverbench.config import make_config
from roverbench.environment import classify
from roverbench.explorer import (
    explore_properties,
    load_counterexample,
    replay_counterexample,
    write_counterexample,
)
from roverbench.monitor import build_engine, check_trace
from roverbench.prop_dsl import parse_suite
from roverbench.simulator import run_simulation
from roverbench.tracing import read_trace

from mutants import killer_property, mutant_demo_config, mutant_names


SUITE = parse_suite(
    (files("roverbench") / "data" / "default.props").read_text())

MONITOR_ROWS = json.loads(
    (files("roverbench") / "data" / "monitors.json").read_text())["monitors"]

RESULTS: dict[int, tuple[bool, str]] = {}


def record(number: int, ok: bool, detail: str) -> None:
    RESULTS[number] = (ok, detail)
    assert ok, f"criterion {number}: FAIL - {detail}"


# -- shared artifacts --------------------------------------------------------


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def default_report():
    """One full exploration of the default scenario, reused across
    criteria."""
    return explore_properties(make_config(), SUITE)


@pytest.fixture(scope="module")
def nominal(outdir):
    """The nominal 500-tick monitored mission and its parsed trace."""
    path = outdir / "nominal.jsonl"
    engine = build_engine(SUITE, MONITOR_ROWS)
    summary = run_simulation(make_config(), 500, str(path), engine)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    return summary, events, path


# -- criteria ----------------------------------------------------------------


class TestCriteria:

    def test_1_movement_response_properties(self, default_report):
        """Whenever a move to X is chosen, arrival at X is eventually
        believed - for every patrol waypoint, over the whole state space."""
        report = default_report
        names = ["response_move_A", "response_move_B", "response_move_C"]
        verdicts = {n: report.verdicts[n] for n in names}
        ok = (all(v == "Satisfied" for v in verdicts.values())
              and report.states < 10**6 and report.seconds < 60.0)
        record(1, ok,
               f"move->arrival response holds for A, B, C "
               f"({report.states} states in {report.seconds:.1f}s; "
               f"limits 10^6 states / 60s)")

    def test_2_guards_classification_avoidance(self, default_report):
        """(a) no action before full readiness, (b) calm-and-cool readings
        classify Fine over every pair in [0,10]^2, (c) the rover is never
        at the hot stop while it still reads hot."""
        report = default_report
        guards = all(
            report.verdicts[f"readiness_guard_{e}"] == "Satisfied"
            for e in ("wheels", "arm", "mast"))

        checked = implied = 0
        for wind in range(11):
            for radiation in range(11):
                checked += 1
                if wind < 5 and radiation < 5:
                    implied += 1
                    if classify(wind, radiation) != "Fine":
                        record(2, False,
                               f"classify({wind}, {radiation}) is not Fine")
        avoidance = report.verdicts["radiation_avoidance"] == "Satisfied"

        record(2, guards and avoidance and checked == 121 and implied == 25,
               f"readiness guards hold; {implied}/{checked} enumerated "
               f"calm-and-cool readings classify Fine; hot-stop avoidance "
               f"holds")

    def test_3_protocol_properties(self, default_report):
        """Routing, bounded goal->result response (duration + 3 ticks),
        and ready-before-goal ordering for all three effectors."""
        report = default_report
        names = (["correct_server_routing"]
                 + [f"response_goal_result_{e}"
                    for e in ("wheels", "arm", "mast")]
                 + [f"ready_before_goal_{e}"
                    for e in ("wheels", "arm", "mast")])
        ok = all(report.verdicts[n] == "Satisfied" for n in names)
        record(3, ok,
               "routing, goal->result bounds (17/5/5 = duration+3), and "
               "ready-before-goal hold for wheels, arm, mast")

    def test_4_monitors_nominal_and_faulted(self, nominal, outdir):
        """Monitors stay clean for 500 nominal ticks; an injected wind=-1
        trips the nonnegativity monitor at exactly the injection tick; and
        online verdicts equal the offline check of the same trace."""
        summary, events, path = nominal
        clean = ("Violated" not in summary["verdicts"].values()
                 and len(summary["verdicts"]) == 18)
        offline_nominal = check_trace(SUITE, events,
                                      sorted(summary["verdicts"]))
        agree_nominal = offline_nominal == summary["verdicts"]

        fault_path = outdir / "faulted.jsonl"
        config = make_config(
            {"env_faults": [{"tick": 100, "wp": "o", "wind": -1}]})
        engine = build_engine(SUITE, MONITOR_ROWS)
        faulted = run_simulation(config, 200, str(fault_path), engine)
        fault_events = [json.loads(line)
                        for line in fault_path.read_text().splitlines()]
        tripped = faulted["verdicts"]["env_nonnegative"] == "Violated"
        hits = [e["t"] for e in fault_events
                if e["kind"] == "verdict" and e["prop"] == "env_nonnegative"
                and e["verdict"] == "Violated"]
        at_injection = hits[:1] == [100]
        offline_fault = check_trace(SUITE, fault_events,
                                    sorted(faulted["verdicts"]))
        agree_fault = offline_fault == faulted["verdicts"]

        record(4, clean and agree_nominal and tripped and at_injection
               and agree_fault,
               "500 nominal ticks: 0 violations; wind=-1 injection flagged "
               "at t=100 exactly; online == offline verdicts on both traces")

    def test_5_mutant_kill_suite(self, outdir):
        """Every seeded defect is killed by a property, and every kill
        replays from its counterexample file.  Tolerance: 4/4."""
        kills = 0
        details = []
        for name in mutant_names():
            prop = killer_property(name)
            report = explore_properties(mutant_demo_config(name), SUITE,
                                        names=[prop])
            if report.verdicts.get(prop) != "Violated":
                details.append(f"{name} survived")
                continue
            path = outdir / f"kill-{name}.json"
            write_counterexample(report.counterexamples[prop], str(path))
            outcome = replay_counterexample(
                load_counterexample(str(path)), SUITE)
            if outcome.get("reproduced"):
                kills += 1
                details.append(f"{name}->{prop}")
            else:
                details.append(f"{name} replay diverged")
        record(5, kills == 4,
               f"{kills}/4 defect variants killed and replayed "
               f"({'; '.join(details)})")

    def test_6_skip_rule_visit_sequence(self, nominal):
        """Trace-derived assertion: while the B reading is >= 5 the patrol
        jumps A->C and never arrives at B; after decay B rejoins the
        cycle."""
        _, events, _ = nominal
        hot_ticks = [e["t"] for e in events
                     if e["kind"] == "publish" and e["topic"] == "/env/sample"
                     and e["payload"]["wp"] == "B"
                     and e["payload"]["radiation"] >= 5]
        last_hot = max(hot_ticks)
        arrivals = [(e["t"], e["atom"][3:-1]) for e in events
                    if e["kind"] == "belief" and e["op"] == "add"
                    and e["atom"].startswith("at(")]
        b_ticks = [t for t, wp in arrivals if wp == "B"]
        no_hot_arrival = all(t > last_hot for t in b_ticks)
        skipped_hot = any(
            src == "A" and dst == "C" and t_src <= last_hot
            for (t_src, src), (_, dst) in zip(arrivals, arrivals[1:]))
        rejoices = len(b_ticks) > 0
        record(6, no_hot_arrival and skipped_hot and rejoices,
               f"B reads hot through t={last_hot}: A->C skip observed, "
               f"first B arrival at t={min(b_ticks)}, {len(b_ticks)} "
               f"B visits after decay")

    def test_7_stop_before_every_result(self, outdir):
        """Across 20 seeded runs of varying length, every wheels result is
        preceded (same tick, earlier on the bus) by an all-zero speeds
        frame."""
        runs = results = 0
        for i in range(20):
            path = outdir / f"seeded-{i}.jsonl"
            run_simulation(make_config({"seed": i}), 60 + 13 * i, str(path))
            events = [json.loads(line)
                      for line in path.read_text().splitlines()]
            zeros = [(e["t"], e["seq"]) for e in events
                     if e["kind"] == "publish"
                     and e["topic"] == "/wheels/telemetry"
                     and e["payload"]["speeds"] == [0] * 6]
            for e in events:
                if e["kind"] == "publish" and e["topic"] == "/wheels/result":
                    results += 1
                    if not any(t == e["t"] and seq < e["seq"]
                               for t, seq in zeros):
                        record(7, False,
                               f"run {i}: result at t={e['t']} without a "
                               f"preceding halt frame")
            runs += 1
        record(7, runs == 20 and results > 0,
               f"all {results} wheels results across {runs} seeded runs "
               f"have a same-tick preceding halt frame")

    def test_8_deterministic_traces(self, outdir, capsys):
        """Identical config and seed give byte-identical traces, across
        repeat runs and across --workers 1 vs 4."""
        for name in ("det-a.jsonl", "det-b.jsonl"):
            run_simulation(make_config(), 150, str(outdir / name))
        repeat = ((outdir / "det-a.jsonl").read_bytes()
                  == (outdir / "det-b.jsonl").read_bytes())

        for workers, name in (("1", "det-w1.jsonl"), ("4", "det-w4.jsonl")):
            code = cli_main(["simulate", "--ticks", "150",
                             "--workers", workers,
                             "--trace", str(outdir / name)])
            assert code == 0
        capsys.readouterr()
        across_workers = ((outdir / "det-w1.jsonl").read_bytes()
                          == (outdir / "det-w4.jsonl").read_bytes())
        record(8, repeat and across_workers,
               "byte-identical traces across repeat runs and across "
               "worker counts 1 and 4")


# -- gate summary ------------------------------------------------------------


class TestZGateSummary:
    """Prints the acceptance table; fails if any criterion failed or did
    not run."""

    def test_print_gate(self, capsys):
        with capsys.disabled():
            print("\n  acceptance gate")
            for number in range(1, 9):
                ok, detail = RESULTS.get(number,
                                         (False, "criterion did not run"))
                print(f"  criterion {number}: "
                      f"{'PASS' if ok else 'FAIL'} - {detail}")
        assert sorted(RESULTS) == list(range(1, 9))
        assert all(ok for ok, _ in RESULTS.values())
