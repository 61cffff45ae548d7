"""Command-line harness tests: exit codes, JSON output, file side effects.

Each command is driven in-process through ``main(argv)``.  Exit codes under
test: 0 clean, 1 property violated (or counterexample reproduced), 2 bad
input, 3 exploration budget exceeded, 4 replay divergence.
"""

from __future__ import annotations

import json

from roverbench.cli import main


# -- helpers -----------------------------------------------------------------


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout_json, stderr_text)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


FAULT_CONFIG = {"env_faults": [{"tick": 10, "wp": "o", "wind": -1}]}


# -- simulate ----------------------------------------------------------------


class TestSimulate:
    """The simulate command runs the mission with monitors attached."""

    def test_nominal_run_is_clean(self, capsys, tmp_path):
        code, doc, err = run_cli(
            capsys, "simulate", "--ticks", "60",
            "--trace", str(tmp_path / "t.jsonl"))
        assert code == 0
        assert doc["visited"] == ["o", "A", "C", "A", "B"]
        assert set(doc["verdicts"].values()) <= {"Satisfied", "Undetermined"}
        assert "all monitors clean" in err

    def test_trace_and_explanations_written(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        run_cli(capsys, "simulate", "--ticks", "30", "--trace", str(trace))
        assert trace.exists()
        assert (tmp_path / "t.jsonl.explain").exists()
        head = json.loads(trace.read_text().splitlines()[0])
        assert head["kind"] == "header"

    def test_zero_ticks_emits_final_verdicts(self, capsys, tmp_path):
        """Even an empty run closes every monitor: header plus one final
        verdict line each."""
        trace = tmp_path / "t0.jsonl"
        code, _, _ = run_cli(capsys, "simulate", "--ticks", "0",
                             "--trace", str(trace))
        assert code == 0
        kinds = [json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()]
        assert kinds[0] == "header"
        assert kinds.count("verdict") == 18
        assert len(kinds) == 19

    def test_fault_trips_monitor(self, capsys, tmp_path):
        config = write_json(tmp_path / "fault.json", FAULT_CONFIG)
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "40",
                                 "--config", config)
        assert code == 1
        assert doc["verdicts"]["env_nonnegative"] == "Violated"
        assert "violated: env_nonnegative" in err

    def test_block_mode_stops_the_fault(self, capsys, tmp_path):
        """In block mode the offending publication never reaches the bus,
        so the run stays clean and reports the veto instead."""
        config = write_json(tmp_path / "fault.json", FAULT_CONFIG)
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "40",
                                 "--config", config, "--block-mode")
        assert code == 0
        assert doc["messages_blocked"] == 1
        assert "Violated" not in doc["verdicts"].values()
        assert "1 publications blocked" in err

    def test_workers_flag_does_not_change_output(self, capsys, tmp_path):
        for workers, name in (("1", "w1.jsonl"), ("4", "w4.jsonl")):
            run_cli(capsys, "simulate", "--ticks", "80",
                    "--workers", workers, "--trace", str(tmp_path / name))
        assert (tmp_path / "w1.jsonl").read_bytes() == \
               (tmp_path / "w4.jsonl").read_bytes()

    def test_mutant_flag(self, capsys, tmp_path):
        code, doc, _ = run_cli(capsys, "simulate", "--ticks", "60",
                               "--mutant", "misroute-bus")
        assert doc["visited"] == ["o", "A", "C"]

    def test_bad_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_mutant(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--ticks", "5",
                               "--mutant", "nonexistent")
        assert code == 2

    def test_bad_props_file(self, capsys, tmp_path):
        props = tmp_path / "bad.props"
        props.write_text("prop broken: always(")
        code, _, _ = run_cli(capsys, "simulate", "--ticks", "5",
                             "--props", str(props))
        assert code == 2

    def test_bad_monitor_selection(self, capsys, tmp_path):
        rows = tmp_path / "monitors.json"
        rows.write_text(json.dumps({"wrong": "shape"}))
        code, _, _ = run_cli(capsys, "simulate", "--ticks", "5",
                             "--monitors", str(rows))
        assert code == 2


# -- verify ------------------------------------------------------------------


class TestVerify:
    """The verify command explores the state space exhaustively."""

    def test_full_suite_holds(self, capsys):
        code, doc, err = run_cli(capsys, "verify")
        assert code == 0
        assert doc["states"] == 133
        assert doc["transitions"] == 136
        assert set(doc["verdicts"].values()) == {"Satisfied"}
        assert "all 19 properties hold" in err

    def test_mutant_violation_with_counterexample_file(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, doc, err = run_cli(capsys, "verify", "stop_after_move",
                                 "--mutant", "no-stop-wheels",
                                 "--trace", prefix)
        assert code == 1
        cex = tmp_path / "run-stop_after_move.json"
        assert doc["counterexample_files"]["stop_after_move"] == str(cex)
        assert cex.exists()
        assert json.loads(cex.read_text())["prop"] == "stop_after_move"
        assert "counterexample:" in err

    def test_name_restriction(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "env_nonnegative",
                               "readiness_guard_wheels")
        assert code == 0
        assert sorted(doc["verdicts"]) == ["env_nonnegative",
                                           "readiness_guard_wheels"]

    def test_unknown_property_name(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no_such_prop")
        assert code == 2
        assert "unknown properties" in err

    def test_single_run_config_rejected(self, capsys, tmp_path):
        config = write_json(tmp_path / "fault.json", FAULT_CONFIG)
        code, _, err = run_cli(capsys, "verify", "--config", config)
        assert code == 2
        assert "single-run" in err

    def test_budget_exceeded(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "--budget-states", "10")
        assert code == 3
        assert doc["budget_exceeded"] is True
        assert doc["limit"] == "state"

    def test_deep_lasso_replays(self, capsys, tmp_path):
        """500-cell legs and a hot stop that never cools: the lasso is
        deeper than Python's recursion limit, yet verify ends in a verdict
        and the counterexample file replays."""
        config = write_json(tmp_path / "far.json", {
            "decay_rate": 0,
            "waypoints": {"o": [0, 0], "A": [500, 0], "B": [500, -4],
                          "C": [500, -500]}})
        code, doc, _ = run_cli(capsys, "verify", "revisits_B",
                               "--config", config,
                               "--trace", str(tmp_path / "far"))
        assert code == 1
        assert doc["verdicts"] == {"revisits_B": "Violated"}
        code, doc, _ = run_cli(capsys, "replay",
                               doc["counterexample_files"]["revisits_B"])
        assert code == 1
        assert doc["reproduced"] is True
        assert doc["loop_from"] == 506


# -- check -------------------------------------------------------------------


class TestCheck:
    """The check command evaluates the suite offline over a trace file."""

    def test_clean_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        run_cli(capsys, "simulate", "--ticks", "120", "--trace", trace)
        code, doc, _ = run_cli(capsys, "check", "--trace", trace)
        assert code == 0
        assert len(doc["verdicts"]) == 19
        assert "Violated" not in doc["verdicts"].values()

    def test_faulted_trace(self, capsys, tmp_path):
        config = write_json(tmp_path / "fault.json", FAULT_CONFIG)
        trace = str(tmp_path / "f.jsonl")
        run_cli(capsys, "simulate", "--ticks", "40", "--config", config,
                "--trace", trace)
        code, doc, _ = run_cli(capsys, "check", "--trace", trace,
                               "env_nonnegative")
        assert code == 1
        assert doc["verdicts"] == {"env_nonnegative": "Violated"}

    def test_missing_trace(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "--trace",
                               str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_malformed_trace(self, capsys, tmp_path):
        trace = tmp_path / "broken.jsonl"
        trace.write_text('{"t": 0, "kind": "header", "format": 1}\n{oops\n')
        code, _, err = run_cli(capsys, "check", "--trace", str(trace))
        assert code == 2
        assert err.startswith("error:")


# -- replay ------------------------------------------------------------------


class TestReplay:
    """The replay command re-runs counterexample files."""

    def counterexample(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        run_cli(capsys, "verify", "stop_after_move",
                "--mutant", "no-stop-wheels", "--trace", prefix)
        return tmp_path / "run-stop_after_move.json"

    def test_reproduces(self, capsys, tmp_path):
        path = self.counterexample(capsys, tmp_path)
        code, doc, err = run_cli(capsys, "replay", str(path))
        assert code == 1
        assert doc["reproduced"] is True
        assert "reproduced" in err

    def test_tampered_file_diverges(self, capsys, tmp_path):
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["ticks"] = data["ticks"][:-1]
        path.write_text(json.dumps(data))
        code, doc, err = run_cli(capsys, "replay", str(path))
        assert code == 4
        assert doc["reproduced"] is False
        assert "divergence" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "replay", str(tmp_path / "nope.json"))
        assert code == 2

    def test_incomplete_record(self, capsys, tmp_path):
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        del data["init"]
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert "lacks" in err


# -- schema ------------------------------------------------------------------


class TestSchema:
    """The schema command documents the config surface."""

    def test_schema_and_defaults(self, capsys):
        code, doc, _ = run_cli(capsys, "schema")
        assert code == 0
        assert doc["defaults"]["dwell_ticks"] == 3
        assert doc["defaults"]["decay_rate"] == 1
        assert "properties" in doc["schema"]
        assert set(doc["defaults"]) == set(doc["schema"]["properties"])
