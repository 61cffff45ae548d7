"""Command-line harness.

Subcommands
    simulate   run the node network with monitors attached, write a trace
    verify     exhaustively explore the state space against the property suite
    check      evaluate properties offline over a recorded trace
    replay     re-run a counterexample file and confirm it still violates
    schema     print the scenario config schema and defaults

Every command writes one machine-readable JSON document to standard output
and a short human summary to standard error.  Exit codes: 0 all checks pass,
1 a property is violated, 2 bad configuration or malformed input, 3 state or
time budget exceeded, 4 a counterexample replay diverged from its record,
5 an internal error (an unexpected exception, reported on standard error).
Only ``main`` maps bad input to exit 2: every ``tracing.InputError``, which
each input-domain error derives from, and every ``OSError`` (a path that
cannot be read or written).  Input files go through ``tracing.read_input``
or ``tracing.read_trace``, which turn undecodable text into InputError.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from importlib import resources

from .config import CONFIG_SCHEMA, DEFAULT_SCENARIO, ConfigError, make_config
from .explorer import (
    DEFAULT_BUDGET_SECS,
    DEFAULT_BUDGET_STATES,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
    explore_properties,
    load_counterexample,
    replay_counterexample,
    write_counterexample,
)
from .monitor import MonitorConfigError, SafetyMonitor, build_engine, check_trace
from .prop_dsl import VIOLATED, parse_suite
from .tracing import InputError, read_input, read_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_DIVERGENCE = 4
EXIT_INTERNAL = 5


def _non_negative(kind):
    """An argparse type: ``kind`` of the text, refused below 0 or as NaN."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:  # NaN fails it too
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type of a value kind() refuses
    return parse


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _packaged(name: str) -> str:
    return resources.files("roverbench").joinpath("data", name).read_text(encoding="utf-8")


def _load_suite(path: str | None) -> dict:
    return parse_suite(_packaged("default.props") if path is None else read_input(path))


def _load_monitor_rows(path: str | None) -> list[dict]:
    data = (json.loads(_packaged("monitors.json")) if path is None
            else read_input(path, json.loads))
    rows = data.get("monitors") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise MonitorConfigError('monitor config must be {"monitors": [...]}')
    return rows


def _build_config(args):
    overrides: dict = {}
    if args.config is not None:
        data = read_input(args.config, json.loads)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        overrides.update(data)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mutant", None) is not None:
        overrides["mutant"] = args.mutant
    return make_config(overrides)


# -- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = _build_config(args)
    engine = build_engine(_load_suite(args.props), _load_monitor_rows(args.monitors))
    if args.block_mode:  # the rows were checked as given: every safety monitor may block
        for monitor in engine.monitors.values():
            if isinstance(monitor, SafetyMonitor):
                monitor.mode = "block"

    from .simulator import run_simulation

    summary = run_simulation(config, args.ticks, args.trace, engine)
    _emit(summary)
    violated = [n for n, v in summary["verdicts"].items() if v == VIOLATED]
    _say(f"simulated {args.ticks} ticks; visited {'-'.join(summary['visited']) or '(none)'}")
    if summary["messages_blocked"]:
        _say(f"{summary['messages_blocked']} publications blocked by monitors")
    if violated:
        _say("violated: " + ", ".join(sorted(violated)))
        return EXIT_VIOLATION
    _say("all monitors clean")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _build_config(args)
    suite = _load_suite(args.props)
    try:
        report = explore_properties(
            config, suite, args.names or None,
            budget_states=args.budget_states, budget_secs=args.budget_secs)
    except StateSpaceBudgetExceeded as exc:
        _say(f"error: {exc}")
        _emit({"budget_exceeded": True, "states": exc.states, "limit": exc.limit,
               "stats": {"seconds": round(exc.seconds, 3)}})
        return EXIT_BUDGET

    doc = report.to_json()
    cex_paths = {}
    for prop, ce in report.counterexamples.items():
        path = f"{args.trace or 'cex'}-{prop}.json"
        write_counterexample(ce, path)
        cex_paths[prop] = path
    doc["counterexample_files"] = cex_paths
    _emit(doc)
    _say(f"explored {report.states} states / {report.transitions} transitions "
         f"in {report.seconds:.1f}s")
    violated = sorted(n for n, v in report.verdicts.items() if v == VIOLATED)
    if violated:
        _say("violated: " + ", ".join(violated))
        for prop in violated:
            if prop in cex_paths:
                _say(f"  counterexample: {cex_paths[prop]}")
        return EXIT_VIOLATION
    _say(f"all {len(report.verdicts)} properties hold")
    return EXIT_OK


def cmd_check(args) -> int:
    suite = _load_suite(args.props)
    started = time.perf_counter()
    trace = read_trace(args.trace)
    read_s = time.perf_counter() - started
    verdicts = check_trace(suite, trace, args.names or None)
    evaluate_s = time.perf_counter() - started - read_s
    # Every event read, verdict lines included.
    stats = {"events": len(trace), "properties": len(verdicts),
             "read_s": round(read_s, 6), "evaluate_s": round(evaluate_s, 6)}
    _emit({"trace": args.trace, "events": len(trace), "verdicts": verdicts,
           "stats": stats})
    violated = sorted(n for n, v in verdicts.items() if v == VIOLATED)
    _say(f"checked {len(verdicts)} properties over {len(trace)} events")
    if violated:
        _say("violated: " + ", ".join(violated))
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_replay(args) -> int:
    data = load_counterexample(args.counterexample)
    suite = _load_suite(args.props)
    try:
        result = replay_counterexample(data, suite)
    except ReplayDivergenceError as exc:
        _say(f"divergence: {exc}")
        _emit({"reproduced": False, "divergence": str(exc)})
        return EXIT_DIVERGENCE
    _emit(result)
    _say(f"counterexample for {result['prop']} reproduced "
         f"({result['ticks']} ticks)")
    return EXIT_VIOLATION


def cmd_schema(args) -> int:
    _emit({"schema": CONFIG_SCHEMA, "defaults": DEFAULT_SCENARIO})
    _say("scenario config schema and default values")
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roverbench",
        description="rover patrol simulator and verification workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace_help):
        p.add_argument("--config", help="scenario config JSON (merged over defaults)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--mutant", help="enable a named fault seed")
        p.add_argument("--props", help="property suite file (default: packaged suite)")
        p.add_argument("--trace", help=trace_help)

    p = sub.add_parser("simulate", help="run the mission with monitors attached")
    common(p, "trace output path (JSON lines; explanations beside it)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for pipeline compatibility; runs are sequential "
             "and results do not depend on it")
    p.add_argument("--ticks", type=_non_negative(int), default=500)
    p.add_argument("--monitors", help="monitor selection JSON (default: packaged)")
    p.add_argument("--block-mode", action="store_true",
                   help="let safety monitors block violating publications")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="explore the state space against the suite")
    common(p, "prefix for counterexample files (default 'cex')")
    p.add_argument("names", nargs="*", help="property names (default: whole suite)")
    p.add_argument("--budget-states", type=_non_negative(int), default=DEFAULT_BUDGET_STATES)
    p.add_argument("--budget-secs", type=_non_negative(float), default=DEFAULT_BUDGET_SECS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check", help="evaluate properties over a recorded trace")
    p.add_argument("--trace", required=True, help="trace file to check")
    p.add_argument("--props", help="property suite file (default: packaged suite)")
    p.add_argument("names", nargs="*", help="property names (default: whole suite)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("replay", help="re-run a recorded counterexample")
    p.add_argument("counterexample", help="counterexample JSON file")
    p.add_argument("--props", help="property suite file (default: packaged suite)")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("schema", help="print the config schema and defaults")
    p.set_defaults(fn=cmd_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:  # bad input, or a path that cannot be read or written
        _say(f"error: {exc}")
        return EXIT_BAD_INPUT
    except Exception as exc:  # a crash must not read as a verdict
        traceback.print_exc(file=sys.stderr)
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
