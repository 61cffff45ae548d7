"""Command-line harness tests: exit codes, JSON output, file side effects.

Each command is driven in-process through ``main(argv)``.  Exit codes under
test: 0 clean, 1 property violated (or counterexample reproduced), 2 bad
input, 3 exploration budget exceeded, 4 replay divergence, 5 internal error.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roverbench import cli, explorer
from roverbench.cli import main
from roverbench.config import DEFAULT_SCENARIO
from roverbench.environment import World


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

    def test_integral_float_runs_as_its_int(self, capsys, tmp_path):
        """A wind of 7.0 at A runs as the wind of 7 that ``verify`` draws on
        arrival there: the same trace and explanation bytes."""
        runs = []
        for wind in (7.0, 7):
            config = write_json(tmp_path / f"{wind!r}.json", {"wind": {"A": wind}})
            trace = tmp_path / f"{wind!r}.jsonl"
            code, _doc, _err = run_cli(capsys, "simulate", "--config", config, "--ticks", "60",
                                       "--trace", str(trace))
            assert code == 0
            runs.append((trace.read_bytes(), Path(f"{trace}.explain").read_bytes()))
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("pose", [
        {"closed_pose": {"arm": 5, "mast": [0, 0]}},
        {"open_pose": {"arm": ["a", "b", "c", "d"], "mast": "xy"}},
    ], ids=["arm-int", "angles-strings"])
    def test_malformed_pose_is_bad_config(self, capsys, tmp_path, pose):
        """A pose that is not four and two numbers is refused before the run.
        Past the schema, the first would fail a length check and the second
        the arm server's float conversion, both as internal errors."""
        config = write_json(tmp_path / "pose.json", pose)
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "5", "--config", config)
        assert code == 2
        assert doc is None
        assert err.startswith("error: config invalid at ")

    @pytest.mark.parametrize("angle", [10 ** 400, math.nan, -math.inf],
                             ids=["int-past-float", "nan", "minus-infinity"])
    def test_angle_not_a_finite_float_is_bad_config(self, capsys, tmp_path, angle):
        """An angle the arm server could not hold as a finite float is
        refused before the run: past the schema, an integer too large for a
        float crashed the server's conversion and NaN ran."""
        config = write_json(tmp_path / "pose.json", {"open_pose": {"arm": [angle, 1, 1, 1]}})
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "5", "--config", config)
        assert code == 2
        assert doc is None
        assert "error: open_pose/arm/0 must be a finite number" in err

    def test_inbox_overflow_is_bad_config(self, capsys, tmp_path):
        """The tick-0 samples outgrow an inbox of one message."""
        config = write_json(tmp_path / "inbox.json", {"inbox_limit": 1})
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "5", "--config", config)
        assert code == 2
        assert doc is None
        assert "error: inbox of envInterface exceeded inbox_limit=1" in err

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

    @pytest.mark.parametrize("block", [[], ["--block-mode"]], ids=["log", "block-mode"])
    @pytest.mark.parametrize("row", [{"prop": ["x"]},
                                     {"prop": "env_nonnegative", "mode": ["log"]}],
                             ids=["prop-list", "mode-list"])
    def test_malformed_monitor_row(self, capsys, tmp_path, row, block):
        """A row is checked as written, before ``--block-mode`` switches the
        safety monitors to block."""
        rows = write_json(tmp_path / "monitors.json", {"monitors": [row]})
        code, doc, err = run_cli(capsys, "simulate", "--ticks", "5", "--monitors", rows, *block)
        assert (code, doc) == (2, None)
        assert err.startswith("error:")

    def test_default_run_bytes_pinned(self, capsys, tmp_path):
        """A 300-tick default monitored run writes exactly these bytes:
        the trace encoder and the bus must not change what is written."""
        trace = tmp_path / "t.jsonl"
        code, doc, _ = run_cli(capsys, "simulate", "--ticks", "300", "--trace", str(trace))
        assert code == 0
        assert doc["messages_published"] == 1918
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
            "35d086bbf4cd73cf340f97ae235accde726baff6c94911db66104f3928f3f408"
        assert hashlib.sha256((tmp_path / "t.jsonl.explain").read_bytes()).hexdigest() == \
            "8c78ccc2d59f106e17db792bb6cbac05b4e758ad88ac923e39e61e94c64d7e1b"

    def test_stats_block(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, doc, _ = run_cli(capsys, "simulate", "--ticks", "50", "--trace", str(trace))
        assert code == 0
        stats = doc["stats"]
        assert set(stats) == {"seconds", "ticks_per_s", "trace_bytes", "topics", "monitor_events"}
        assert stats["trace_bytes"] == trace.stat().st_size
        topics = stats["topics"]
        assert sum(c["published"] for c in topics.values()) == doc["messages_published"]
        assert topics["/pose"]["delivered"] == 2 * topics["/pose"]["published"]
        code, doc, _ = run_cli(capsys, "simulate", "--ticks", "5")
        assert doc["stats"]["trace_bytes"] == 0

    def test_stdout_without_stats_repeats(self, capsys, tmp_path):
        """Wall-clock figures live only in the stats block: the rest of the
        output is the same on a rerun."""
        trace = str(tmp_path / "t.jsonl")
        outputs = []
        for _ in range(2):
            assert main(["simulate", "--ticks", "120", "--trace", trace]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("stats")
            outputs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert outputs[0] == outputs[1]


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

    def test_workers_is_a_usage_error(self, capsys):
        """Only ``simulate`` takes ``--workers``: in ``verify`` it did nothing."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--workers", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

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

    @pytest.mark.parametrize("angle", [10 ** 400, math.nan, math.inf],
                             ids=["int-past-float", "nan", "infinity"])
    def test_angle_not_a_finite_float_is_bad_config(self, capsys, tmp_path, angle):
        config = write_json(tmp_path / "pose.json", {"closed_pose": {"mast": [0, angle]}})
        code, doc, err = run_cli(capsys, "verify", "--config", config)
        assert code == 2
        assert doc is None
        assert "error: closed_pose/mast/1 must be a finite number" in err

    def test_inbox_overflow_is_bad_config(self, capsys, tmp_path):
        config = write_json(tmp_path / "inbox.json", {"inbox_limit": 1})
        code, doc, err = run_cli(capsys, "verify", "--config", config)
        assert code == 2
        assert doc is None
        assert "error: inbox of envInterface exceeded inbox_limit=1" in err

    def test_budget_exceeded(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "--budget-states", "10")
        assert code == 3
        assert doc["budget_exceeded"] is True
        assert doc["limit"] == "state"
        assert set(doc) == {"budget_exceeded", "states", "limit", "stats"}

    def test_stdout_without_stats_repeats(self, capsys, tmp_path):
        """Wall-clock figures live only in the stats block: the rest of the
        output, and every counterexample file, is the same on a rerun."""
        prefix = str(tmp_path / "run")
        outputs, files = [], []
        for _ in range(2):
            code = main(["verify", "--mutant", "no-stop-wheels", "--trace", prefix])
            assert code == 1
            doc = json.loads(capsys.readouterr().out)
            stats = doc.pop("stats")
            assert set(stats) == {"seconds", "dedupe_hit_rate", "phase_s",
                                  "states_per_depth", "frontier_max",
                                  "unstepped_transitions", "edges", "restored",
                                  "distinct_components"}
            assert sum(stats["states_per_depth"]) == doc["states"]
            # Dumped as the CLI dumps it: the bytes of stdout outside `stats`.
            outputs.append(json.dumps(doc, indent=2, sort_keys=True))
            cex = doc["counterexample_files"]
            assert cex
            files.append({prop: Path(path).read_bytes() for prop, path in cex.items()})
        assert outputs[0] == outputs[1]
        assert files[0] == files[1]

    def test_progress_lines_go_to_stderr_alone(self, capsys, monkeypatch, tmp_path):
        """A walk writes a progress line to stderr every ``_PROGRESS_EVERY``
        seconds: none on a short walk, one per root and per stepped successor
        when the interval is 0.  Stdout outside ``stats`` and the counterexample
        files are the same either way."""
        prefix = str(tmp_path / "run")
        outputs, progress = [], []
        for every in (explorer._PROGRESS_EVERY, 0):
            monkeypatch.setattr(explorer, "_PROGRESS_EVERY", every)
            code, doc, err = run_cli(capsys, "verify", "--mutant", "no-stop-wheels",
                                     "--trace", prefix)
            assert code == 1
            doc.pop("stats")
            files = {p: Path(path).read_bytes() for p, path in doc["counterexample_files"].items()}
            outputs.append((doc, files))
            progress.append([line for line in err.splitlines() if line.startswith("verify: ")])
        assert outputs[0] == outputs[1]
        assert progress[0] == []
        assert len(progress[1]) > outputs[1][0]["states"]
        assert all(re.fullmatch(r"verify: \d+ states, depth \d+, frontier \d+, "
                                r"\d+ transitions/s", line) for line in progress[1])
        assert progress[1][-1].startswith(f"verify: {outputs[1][0]['states']} states, ")

    def test_liveness_inside_a_temporal_operator(self, capsys, tmp_path):
        """A formula with no shape is bad input, not an internal error."""
        props = tmp_path / "nested.props"
        props.write_text('prop settle_B: eventually(always(belief("at(B)")))\n')
        code, doc, err = run_cli(capsys, "verify", "--props", str(props))
        assert (code, doc) == (2, None)
        assert err.startswith("error: settle_B: no incremental monitor")

    def test_stats_breadth_first_shape(self, capsys):
        """States per depth sum to the states, and the largest frontier is
        at least the widest depth."""
        code, doc, _ = run_cli(capsys, "verify")
        assert code == 0
        depths = doc["stats"]["states_per_depth"]
        assert sum(depths) == doc["states"] == 133
        assert len(depths) == 66 and min(depths) >= 1
        assert max(depths) <= doc["stats"]["frontier_max"] <= doc["states"]

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
        assert doc["loop_from"] == 505


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

    def test_verdict_lines_are_judged_by_neither_route(self, capsys, tmp_path):
        """``simulate`` and ``check`` of its trace agree on properties about
        verdict events, which both routes leave out: the trace's final
        verdict lines hold for neither."""
        props = tmp_path / "verdicts.props"
        props.write_text('prop no_verdicts: always(kind != "verdict")\n'
                         'prop some_verdict: eventually[<=1000](kind == "verdict")\n')
        monitors = write_json(tmp_path / "monitors.json", {"monitors": [
            {"prop": "no_verdicts"}, {"prop": "some_verdict"}]})
        trace = str(tmp_path / "t.jsonl")
        code, online, _ = run_cli(capsys, "simulate", "--ticks", "50", "--props", str(props),
                                  "--monitors", monitors, "--trace", trace)
        assert code == 0
        code, offline, _ = run_cli(capsys, "check", "--trace", trace, "--props", str(props))
        assert code == 0
        assert online["verdicts"] == offline["verdicts"] == {
            "no_verdicts": "Satisfied", "some_verdict": "Undetermined"}

    def test_deadline_after_the_last_model_event_is_open_on_both_routes(self, capsys, tmp_path):
        """A block-mode monitor vetoes every publish, so the last tick of the
        run delivers nothing: the deadline passes on the tick clock but at
        no model event, and both routes leave the window open."""
        props = tmp_path / "silent.props"
        props.write_text('prop no_publish: never(kind == "publish")\n'
                         'prop arm_goal_due: eventually[<=49](topic("/arm/goal"))\n')
        monitors = write_json(tmp_path / "monitors.json", {"monitors": [
            {"prop": "no_publish", "mode": "block"}, {"prop": "arm_goal_due"}]})
        trace = str(tmp_path / "t.jsonl")
        code, online, _ = run_cli(capsys, "simulate", "--ticks", "50", "--props", str(props),
                                  "--monitors", monitors, "--trace", trace)
        assert code == 0
        code, offline, _ = run_cli(capsys, "check", "--trace", trace, "--props", str(props))
        assert code == 0
        assert online["verdicts"] == offline["verdicts"] == {
            "no_publish": "Satisfied", "arm_goal_due": "Undetermined"}

    def test_topic_of_a_deliver_event(self, capsys, tmp_path):
        """``topic`` compared as a field reaches deliver events, which the
        ``topic(...)`` atom, matching publishes only, never does."""
        trace = str(tmp_path / "t.jsonl")
        run_cli(capsys, "simulate", "--ticks", "60", "--trace", trace)
        props = tmp_path / "deliver.props"
        props.write_text(
            'prop goals_reach_the_server: always((kind == "deliver" && '
            'topic == "/wheels/goal") => node == "wheelsServer")\n'
            'prop no_goal_delivered: never(kind == "deliver" && topic == "/wheels/goal")\n'
            'prop no_goal_atom_at_delivery: never(kind == "deliver" && topic("/wheels/goal"))\n')
        code, doc, _ = run_cli(capsys, "check", "--trace", trace, "--props", str(props))
        assert code == 1
        assert doc["verdicts"] == {"goals_reach_the_server": "Satisfied",
                                   "no_goal_delivered": "Violated",
                                   "no_goal_atom_at_delivery": "Satisfied"}

    def test_blocked_publish_agrees_on_both_routes(self, capsys, tmp_path):
        """A block-mode run vetoes the faulted sample, and its trace keeps
        the ``block`` event on /env/sample.  ``topic(...)`` matches no block
        event, so ``check`` of the trace gives exactly the online verdicts:
        env_nonnegative is Satisfied on both routes."""
        config = write_json(tmp_path / "fault.json", FAULT_CONFIG)
        trace = tmp_path / "blocked.jsonl"
        code, online, _ = run_cli(capsys, "simulate", "--ticks", "40", "--config", config,
                                  "--block-mode", "--trace", str(trace))
        assert code == 0
        assert online["messages_blocked"] == 1
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [(e["topic"], e["payload"]["wind"]) for e in events
                if e["kind"] == "block"] == [("/env/sample", -1)]
        code, offline, _ = run_cli(capsys, "check", "--trace", str(trace),
                                   *online["verdicts"])
        assert code == 0
        assert offline["verdicts"] == online["verdicts"]
        assert offline["verdicts"]["env_nonnegative"] == "Satisfied"
        assert offline["events"] == len(events)

    def test_missing_trace(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "--trace",
                               str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_malformed_trace(self, capsys, tmp_path):
        trace = tmp_path / "broken.jsonl"
        header = '{"t": 0, "kind": "header", "format": 1}\n'
        for broken in (
            "{oops",
            '{"t": 1, "kind": ["publish"], "topic": "/pose"}',
            '{"t": 1, "kind": "publish", "topic": ["/pose"]}',
            '{"kind": "publish", "topic": "/pose"}',
            '{"t": "1", "kind": "publish", "topic": "/pose"}',
            '{"t": true, "kind": "publish", "topic": "/pose"}',
            '{"t": 1, "kind": "belief", "atom": "at(A)"}',
            '{"t": 1, "kind": "belief", "op": "add"}',
            '{"t": 1, "kind": "action"}',
            '{"t": 1, "kind": "action", "action": 3}',
            '{"t": 5, "kind": "header"}\n{"t": 1, "kind": "header"}',
        ):
            trace.write_text(header + broken + "\n")
            code, _, err = run_cli(capsys, "check", "--trace", str(trace))
            assert code == 2, broken
            assert err.startswith("error:"), broken

    def test_stats_block(self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        run_cli(capsys, "simulate", "--ticks", "20", "--trace", trace)
        code, doc, _ = run_cli(capsys, "check", "--trace", trace, "env_nonnegative")
        assert code == 0
        assert set(doc["stats"]) == {"events", "parsed", "properties", "read_s", "evaluate_s"}
        assert doc["stats"]["events"] == doc["events"]
        assert doc["stats"]["properties"] == 1
        # Lines that repeat an earlier one but for ``t`` and ``seq`` are not decoded.
        assert 0 < doc["stats"]["parsed"] < doc["events"]


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

    @pytest.mark.parametrize("angle", [10 ** 400, math.nan, math.inf],
                             ids=["int-past-float", "nan", "infinity"])
    def test_angle_not_a_finite_float_is_bad_config(self, capsys, tmp_path, angle):
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["config"]["open_pose"]["mast"][0] = angle
        path.write_text(json.dumps(data))
        code, doc, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert doc is None
        assert "error: embedded config invalid: open_pose/mast/0 must be a finite number" in err

    def test_inbox_overflow_is_bad_config(self, capsys, tmp_path):
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["config"]["inbox_limit"] = 1
        path.write_text(json.dumps(data))
        code, doc, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert doc is None
        assert "error: inbox of envInterface exceeded inbox_limit=1" in err

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

    @pytest.mark.parametrize("field, value", [
        *((("ticks", 9, 0, 2), pick) for pick in (-1, -3, "0", 1.0)),
        (("init", 0, 1), True),  # a bool is no option count
        (("loop_from",), 11),
        (("config",), 3),
        (("prop",), ["x"]),
        (("kind",), "timeout"),
        ((), 5),  # the whole file
    ], ids=["pick-1", "pick-3", "pick-str", "pick-float", "count-bool", "loop-past-end",
            "config-int", "prop-list", "kind-unknown", "not-an-object"])
    def test_malformed_choice_is_bad_input(self, capsys, tmp_path, field, value):
        """A pick outside its options, or not an int, is never replayed: the
        tick-9 wind pick of -1 once reproduced as the last option.  Nor is a
        file that is no object, nor a record whose config is no object, whose
        prop is no string or whose kind is none of safety, deadline and
        liveness."""
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        if field:
            *inner, last = field
            target = data
            for part in inner:
                target = target[part]
            target[last] = value
        else:
            data = value
        path.write_text(json.dumps(data))
        code, doc, err = run_cli(capsys, "replay", str(path))
        assert (code, doc) == (2, None)
        assert err.startswith("error:")

    def test_kind_not_fitting_the_property(self, capsys, tmp_path):
        """A safety record of a liveness property is bad input, not a crash."""
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["prop"] = "revisits_B"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_liveness_inside_a_temporal_operator(self, capsys, tmp_path):
        path = self.counterexample(capsys, tmp_path)
        data = json.loads(path.read_text())
        data.update(prop="settle_B", kind="liveness", loop_from=0)
        path.write_text(json.dumps(data))
        props = tmp_path / "nested.props"
        props.write_text('prop settle_B: eventually(always(belief("at(B)")))\n')
        code, doc, err = run_cli(capsys, "replay", str(path), "--props", str(props))
        assert (code, doc) == (2, None)
        assert err.startswith("error: settle_B: no incremental monitor")


# -- bad input ---------------------------------------------------------------

DEEP = "[" * 100_000 + "]" * 100_000
HUGE = "1" * 5000
TRACE_HEADER = b'{"t":0,"kind":"header","format":1}\n'


def _trace_line(value: str) -> bytes:
    return TRACE_HEADER + b'{"t":1,"kind":"header","x":' + value.encode() + b"}\n"


SIMULATE = ["simulate", "--ticks", "5"]

# (argv, file bytes, what stderr names): "FILE" in argv is the file, "MISSING"
# a directory that does not exist; the named text is FILE or "line N".
BAD_INPUTS = {
    "config-not-utf8": ([*SIMULATE, "--config", "FILE"], b'{"seed": 1}\xff', "FILE"),
    "props-not-utf8": ([*SIMULATE, "--props", "FILE"],
                       b'prop a: always(kind != "x")\n\xff\n', "FILE"),
    "monitors-not-utf8": ([*SIMULATE, "--monitors", "FILE"], b'{"monitors": []}\xff', "FILE"),
    "trace-not-utf8": (["check", "--trace", "FILE"],
                       TRACE_HEADER + b'{"t":1,"kind":"x\xff"}\n', "FILE"),
    "cex-not-utf8": (["replay", "FILE"], b'{"prop": "x"}\xff', "FILE"),
    "config-deep": ([*SIMULATE, "--config", "FILE"], b'{"seed": ' + DEEP.encode() + b"}", "FILE"),
    "monitors-deep": ([*SIMULATE, "--monitors", "FILE"], DEEP.encode(), "FILE"),
    "trace-deep": (["check", "--trace", "FILE"], _trace_line(DEEP), "line 2"),
    "cex-deep": (["replay", "FILE"], b'{"ticks": ' + DEEP.encode() + b"}", "FILE"),
    "config-huge-int": ([*SIMULATE, "--config", "FILE"],
                        b'{"seed": ' + HUGE.encode() + b"}", "FILE"),
    "trace-huge-int": (["check", "--trace", "FILE"], _trace_line(HUGE), "line 2"),
    "simulate-unwritable-trace": ([*SIMULATE, "--trace", "MISSING/x.jsonl"], None,
                                  "MISSING/x.jsonl"),
    "verify-unwritable-cex": (["verify", "stop_after_move", "--mutant", "no-stop-wheels",
                               "--trace", "MISSING/cex"], None, "MISSING/cex"),
}

DEEP_PROPS = {
    "nested-not": "prop deep: " + "!(" * 200 + 'kind == "x"' + ")" * 200 + "\n",
    "nested-always": "prop deep: " + "always(" * 200 + 'kind == "x"' + ")" * 200 + "\n",
    "nested-and": "prop deep: " + 'kind == "x" && (' * 200 + 'kind == "x"' + ")" * 200 + "\n",
    "consecutive-not": "prop deep: " + "!" * 2000 + 'kind == "x"\n',
}


class TestBadInput:
    """Every bad input file, and every output path that cannot be written,
    exits 2 with an error that names the file (or the trace line); none is
    an internal error."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_naming_the_file(self, capsys, tmp_path, case):
        argv, content, named = BAD_INPUTS[case]
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        places = {"FILE": str(path), "MISSING": str(tmp_path / "missing")}
        for word, place in places.items():
            argv = [arg.replace(word, place) for arg in argv]
            named = named.replace(word, place)
        code, doc, err = run_cli(capsys, *argv)
        assert (code, doc) == (2, None)
        assert err.startswith("error:")
        assert named in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", [["check", "--trace", "TRACE"],
                                         ["verify", "--budget-states", "30"]],
                             ids=["check", "verify"])
    @pytest.mark.parametrize("case", sorted(DEEP_PROPS))
    def test_deep_formula_is_no_internal_error(self, capsys, tmp_path, case, command):
        """Groups nested past the parser's bound are bad input; a run of
        ``!`` is read in a loop."""
        props = tmp_path / "deep.props"
        props.write_text(DEEP_PROPS[case])
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(TRACE_HEADER)
        argv = [arg.replace("TRACE", str(trace)) for arg in command]
        code, _, err = run_cli(capsys, *argv, "--props", str(props))
        assert code != 5 and "internal error" not in err
        if case.startswith("nested"):
            assert code == 2 and "groups nest deeper than 100" in err


def _implications(links: int) -> str:
    return "always(" + " => ".join(f'!topic("/t{i}")' for i in range(links)) + ")"


# Each kind of group, as (wrapper, opening text, innermost formula): event
# predicate groups sit inside ``never(``, one of the groups counted.
GROUPS = {
    "paren": ("never(", "(", 'kind == "y"'),
    "not": ("never(", "!(", 'kind == "y"'),
    "and": ("never(", 'kind == "x" && (', 'kind == "y"'),
    "always": ("", "always(", 'kind != "y"'),
    "never": ("", "never(", 'kind == "y"'),
    "eventually": ("", "eventually(", 'kind == "y"'),
    "window": ("", "eventually[<=3](", 'kind == "y"'),
}


def _nested(kind: str, depth: int) -> str:
    wrapper, opening, inner = GROUPS[kind]
    return wrapper + opening * (depth - bool(wrapper)) + inner + ")" * depth


# name -> (formula, whether the parser refuses it)
DEEP_FORMULAS = {
    **{f"implies-{n}": (_implications(n), False) for n in (500, 1000, 3000)},
    **{f"{kind}-{depth}": (_nested(kind, depth), depth > 100)
       for kind in GROUPS for depth in (100, 101)},
}


class TestDeepProperties:
    """``=>`` chains of any length run under every command that reads
    properties, and groups of each kind nest up to the parser's bound; one
    group more is bad input.  None ends in an internal error."""

    @pytest.fixture(scope="class")
    def run_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep")
        assert _run_quiet("simulate", "--ticks", "20", "--trace", str(root / "t.jsonl"))[0] == 0
        (root / "monitors.json").write_text(json.dumps({"monitors": [{"prop": "deep"}]}))
        return root

    @pytest.mark.parametrize("case", list(DEEP_FORMULAS))
    def test_every_command(self, run_files, case):
        text, refused = DEEP_FORMULAS[case]
        props = run_files / f"{case}.props"
        props.write_text(f"prop deep: {text}\n")
        for argv in (["check", "--trace", str(run_files / "t.jsonl")],
                     ["verify", "--trace", str(run_files / case)],
                     ["simulate", "--ticks", "20", "--monitors", str(run_files / "monitors.json")]):
            code, err = _run_quiet(*argv, "--props", str(props))
            assert code in ((0, 1) if case.startswith("implies") else (0, 1, 2)), (argv, err)
            assert "internal error" not in err
            assert ("groups nest deeper than 100" in err) == refused, (argv, err)


class TestNumericFlags:
    """``--ticks``, ``--budget-states`` and ``--budget-secs`` take values
    >= 0: a negative tick count ran and reported a negative rate, and a NaN
    time budget never ran out."""

    @pytest.mark.parametrize("argv", [["simulate", "--ticks", "-3"],
                                      ["verify", "--budget-states", "-1"],
                                      ["verify", "--budget-secs", "-0.5"],
                                      ["verify", "--budget-secs", "nan"]],
                             ids=["ticks", "budget-states", "budget-secs", "budget-secs-nan"])
    def test_refused_as_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be >= 0" in capsys.readouterr().err

    def test_not_a_number_names_its_type(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--ticks", "x"])
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_infinite_time_budget_is_valid(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "stop_after_move", "--budget-secs", "inf")
        assert code == 0
        assert doc["verdicts"] == {"stop_after_move": "Satisfied"}


def _run_quiet(*argv) -> tuple[int, str]:
    """The exit code and stderr of ``main(argv)``, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each kind a command reads, and its bytes."""
    root = tmp_path_factory.mktemp("valid")
    files = {kind: root / name for kind, name in [
        ("config", "config.json"), ("monitors", "monitors.json"), ("props", "suite.props"),
        ("trace", "run.jsonl"), ("cex", "run-stop_after_move.json")]}
    files["config"].write_text(json.dumps({k: v for k, v in DEFAULT_SCENARIO.items()
                                           if k not in ("env_faults", "scripted_faults")}))
    data = resources.files("roverbench").joinpath("data")
    files["monitors"].write_text(data.joinpath("monitors.json").read_text(encoding="utf-8"))
    files["props"].write_text(data.joinpath("default.props").read_text(encoding="utf-8"))
    assert _run_quiet("simulate", "--ticks", "5", "--trace", str(files["trace"]))[0] == 0
    assert _run_quiet("verify", "stop_after_move", "--mutant", "no-stop-wheels",
                      "--trace", str(root / "run"))[0] == 1
    return root, {kind: path.read_bytes() for kind, path in files.items()}


# The commands that read each kind of file, "FILE" standing for it; the others
# are the valid files, and counterexamples go beside them.  Budgets are small:
# an input may be valid after a mutation.
READERS = {
    "config": [["simulate", "--ticks", "5", "--config", "FILE"],
               ["verify", "--config", "FILE", "--trace", "CEX_PREFIX",
                "--budget-states", "30", "--budget-secs", "5"]],
    "monitors": [["simulate", "--ticks", "5", "--monitors", "FILE"]],
    "props": [["simulate", "--ticks", "5", "--props", "FILE"],
              ["check", "--trace", "TRACE", "--props", "FILE"],
              ["verify", "--props", "FILE", "--trace", "CEX_PREFIX",
               "--budget-states", "30", "--budget-secs", "5"],
              ["replay", "CEX", "--props", "FILE"]],
    "trace": [["check", "--trace", "FILE"]],
    "cex": [["replay", "FILE"]],
}
SENTINEL = "\x00mutated\x00"


def _replace_a_value(data, value):
    """``value`` with one of its nodes, drawn from the root down, replaced
    by SENTINEL."""
    if not isinstance(value, (dict, list)) or not value or data.draw(st.integers(0, 3)) == 0:
        return SENTINEL
    key = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                    else range(len(value))))
    value = copy.copy(value)
    value[key] = _replace_a_value(data, value[key])
    return value


def _mutated(data, kind: str, content: bytes) -> bytes:
    """``content`` truncated, spliced with a piece of itself, given a byte
    that is not UTF-8, for props with a run of ``!`` before a formula or a
    formula nested in groups, or for JSON with one value replaced by JSON
    nested deep, an integer past Python's digit limit or NaN."""
    mutations = ["truncate", "splice", "not-utf8"]
    mutations += ["not-run", "groups"] if kind == "props" else ["nest", "huge-int", "nan"]
    mutation = data.draw(st.sampled_from(mutations))
    at = st.integers(0, len(content))
    if mutation == "truncate":
        return content[:data.draw(st.integers(0, len(content) - 1))]
    if mutation == "splice":
        i, j, k = sorted(data.draw(at) for _ in range(3))
        return content[:i] + content[j:k] + content[i:]
    if mutation == "not-utf8":
        i = data.draw(at)
        byte = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        return content[:i] + byte + content[i:]
    if mutation == "not-run":  # a run of up to 2000 ``!`` before a formula
        lines = content.decode().splitlines(keepends=True)
        n = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                       if line.startswith("prop ")]))
        head, _, formula = lines[n].partition(":")
        lines[n] = f"{head}: {'!' * data.draw(st.integers(1, 2000))}{formula.lstrip()}"
        return "".join(lines).encode()
    if mutation == "groups":  # a formula nested up to 200 groups deep
        lines = content.decode().splitlines(keepends=True)
        n = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                       if line.startswith("prop ")]))
        head, _, formula = lines[n].partition(":")
        opening = data.draw(st.sampled_from([group[1] for group in GROUPS.values()]))
        depth = data.draw(st.integers(1, 200))
        lines[n] = f"{head}: {opening * depth}{formula.strip()}{')' * depth}\n"
        return "".join(lines).encode()
    raw = {"nest": DEEP, "huge-int": HUGE, "nan": "NaN"}[mutation]
    lines = content.decode().splitlines() if kind == "trace" else [content.decode()]
    n = data.draw(st.integers(0, len(lines) - 1))
    value = _replace_a_value(data, json.loads(lines[n]))
    lines[n] = json.dumps(value, separators=(",", ":")).replace(json.dumps(SENTINEL), raw)
    return "\n".join(lines).encode() + b"\n"


class TestMutatedInputs:
    """A valid file of each kind, mutated, through every command that reads
    it: the command finishes or refuses the input, and never ends in an
    internal error.  A replay may also diverge (exit 4) from a mutated record."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_no_internal_error(self, valid_inputs, kind, data):
        root, contents = valid_inputs
        path = root / f"mutated-{kind}"
        path.write_bytes(_mutated(data, kind, contents[kind]))
        places = {"FILE": str(path), "TRACE": str(root / "run.jsonl"),
                  "CEX": str(root / "run-stop_after_move.json"),
                  "CEX_PREFIX": str(root / "mutated")}
        for argv in READERS[kind]:
            argv = [places.get(arg, arg) for arg in argv]
            code, err = _run_quiet(*argv)
            assert "internal error" not in err, (argv, err[-300:])
            assert code in ((0, 1, 2, 3, 4) if argv[0] == "replay" else (0, 1, 2, 3)), argv


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


# -- internal errors ---------------------------------------------------------


class TestInternalError:
    """A crash exits 5, never with a verdict's code."""

    def test_unexpected_exception_exits_5(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_schema", crash)
        code, doc, err = run_cli(capsys, "schema")
        assert code == 5
        assert doc is None
        assert "internal error: RuntimeError: boom" in err

    def test_step_ending_before_its_tick_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(World, "step", lambda self, port: None)
        code, doc, err = run_cli(capsys, "verify")
        assert code == 5
        assert doc is None
        assert "internal error: RuntimeError: tick 1 ended at event time 0" in err
