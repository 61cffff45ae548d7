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
    ExplorationError,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
    explore_properties,
    load_counterexample,
    replay_counterexample,
    write_counterexample,
)
from .monitor import (
    MonitorConfigError,
    MonitorShapeError,
    SafetyMonitor,
    build_engine,
    check_trace,
    synthesize,
)
from .prop_dsl import VIOLATED, PropertyError, parse_suite
from .tracing import MalformedTraceError, read_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_DIVERGENCE = 4
EXIT_INTERNAL = 5


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _packaged(name: str) -> str:
    return resources.files("roverbench").joinpath("data", name).read_text(encoding="utf-8")


def _load_suite(path: str | None) -> dict:
    text = _packaged("default.props") if path is None else _read_file(path)
    return parse_suite(text)


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_monitor_rows(path: str | None) -> list[dict]:
    text = _packaged("monitors.json") if path is None else _read_file(path)
    data = json.loads(text)
    rows = data.get("monitors") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise MonitorConfigError('monitor config must be {"monitors": [...]}')
    return rows


def _build_config(args):
    overrides: dict = {}
    if args.config is not None:
        data = json.loads(_read_file(args.config))
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        overrides.update(data)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mutant", None) is not None:
        overrides["mutant"] = args.mutant
    return make_config(overrides)


def _force_block(suite: dict, rows: list[dict]) -> list[dict]:
    """--block-mode: switch every selected monitor that is allowed to block
    (per-event safety shapes) into block mode; the rest stay logging."""
    forced = []
    for row in rows:
        row = dict(row)
        name = row.get("prop")
        try:
            monitor = synthesize(name, suite[name], "log")
        except (MonitorShapeError, MonitorConfigError, KeyError):
            monitor = None
        if isinstance(monitor, SafetyMonitor):
            row["mode"] = "block"
        forced.append(row)
    return forced


# -- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        config = _build_config(args)
        suite = _load_suite(args.props)
        rows = _load_monitor_rows(args.monitors)
        if args.block_mode:
            rows = _force_block(suite, rows)
        engine = build_engine(suite, rows)
    except (ConfigError, PropertyError, MonitorConfigError, MonitorShapeError,
            OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_BAD_INPUT

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
    try:
        config = _build_config(args)
        suite = _load_suite(args.props)
        names = args.names or None
        report = explore_properties(
            config, suite, names,
            budget_states=args.budget_states, budget_secs=args.budget_secs)
    except (ConfigError, PropertyError, ExplorationError,
            OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_BAD_INPUT
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
    try:
        suite = _load_suite(args.props)
        started = time.perf_counter()
        trace = read_trace(args.trace)
        read_s = time.perf_counter() - started
        verdicts = check_trace(suite, trace, args.names or None)
        evaluate_s = time.perf_counter() - started - read_s
    except (PropertyError, MalformedTraceError, MonitorConfigError,
            OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_BAD_INPUT
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
    try:
        data = load_counterexample(args.counterexample)
        suite = _load_suite(args.props)
        result = replay_counterexample(data, suite)
    except ReplayDivergenceError as exc:
        _say(f"divergence: {exc}")
        _emit({"reproduced": False, "divergence": str(exc)})
        return EXIT_DIVERGENCE
    except (ExplorationError, ConfigError, PropertyError,
            OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_BAD_INPUT
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
        p.add_argument(
            "--workers", type=int, default=1,
            help="accepted for pipeline compatibility; runs are sequential "
                 "and results do not depend on it")

    p = sub.add_parser("simulate", help="run the mission with monitors attached")
    common(p, "trace output path (JSON lines; explanations beside it)")
    p.add_argument("--ticks", type=int, default=500)
    p.add_argument("--monitors", help="monitor selection JSON (default: packaged)")
    p.add_argument("--block-mode", action="store_true",
                   help="let safety monitors block violating publications")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="explore the state space against the suite")
    common(p, "prefix for counterexample files (default 'cex')")
    p.add_argument("names", nargs="*", help="property names (default: whole suite)")
    p.add_argument("--budget-states", type=int, default=DEFAULT_BUDGET_STATES)
    p.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET_SECS)
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
    except Exception as exc:  # a crash must not read as a verdict
        traceback.print_exc(file=sys.stderr)
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
