"""roverbench benchmark: one workload, one run.

Usage (from the repository root):

    python3 bench/run.py --workload sim-audit --seed 0 --seconds 30 --trace 0

Each run is a closed loop in one process: simulate, check and verify the
workload's scenario, one call at a time, and repeat until ``--seconds`` would
be exceeded by another round.  Set-up is timed separately, several times, in
fresh interpreters.  Every call's output goes through the correctness gate in
``workloads.py``; a call that raises, runs over its budget or fails the gate
counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced and one round with every layer entry point wrapped (``layertrace``)
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

# Fresh-interpreter set-ups per run; set-up time is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# metric -> (unit, better, operation whose samples it summarises)
END_TO_END = {
    "setup_s": ("s", "lower", None),
    "sim_ticks_per_s": ("1/s", "higher", "simulate"),
    "check_events_per_s": ("1/s", "higher", "check"),
    "verify_transitions_per_s": ("1/s", "higher", "verify"),
    "peak_rss_mb": ("MB", "lower", None),
}

OPS = ("simulate", "check", "verify")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the harness self-test")
    return parser.parse_args(argv)


# -- running operations --------------------------------------------------------

class Tally:
    """Attempted and failed operations, and the rate of every good one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rates: dict[str, list[float]] = {op: [] for op in OPS}
        self.host_s = 0.0  # host seconds inside operations
        self.ref_s = 0.0  # the same in reference seconds

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{op}: {reason}")
        print(f"bench: {op} failed: {reason}", file=sys.stderr)


def run_op(wl, tally: Tally, op: str, *gate_args, trace=None):
    """Run one operation and gate it.  Returns its result, or None if the
    call raised; a result that failed the gate is returned but not sampled."""
    tally.attempted += 1
    # Every call starts from a collected heap, as it would in a fresh process.
    gc.collect()
    if trace is not None:
        trace.phase = op
    probe = HostSpeed()
    try:
        with probe:
            result = getattr(wl, op)()
    except Exception as exc:  # a failed call is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return None
    finally:
        if trace is not None:
            trace.phase = "gate"
    tally.host_s += result["wall"]
    tally.ref_s += result["wall"] * probe.speed()
    try:
        wl.gate(op, result, *gate_args)
    except Exception as exc:  # wrong output, or the gate itself broke
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return result
    # Reference seconds: host seconds at the host speed seen by the probe.
    tally.rates[op].append(result["work"] / (result["wall"] * probe.speed()))
    return result


def run_pair(wl, tally: Tally, trace=None) -> dict:
    """Simulate, then check the trace just written; returns the results."""
    results = {"simulate": run_op(wl, tally, "simulate", trace=trace)}
    if results["simulate"] is None:
        tally.attempted += 1
        tally.fail("check", "no trace to check: simulate failed")
    else:
        verdicts = results["simulate"]["summary"]["verdicts"]
        results["check"] = run_op(wl, tally, "check", verdicts, trace=trace)
    return results


def run_round(wl, tally: Tally, trace=None) -> dict:
    """One simulate+check pair, then verify; returns the results."""
    results = run_pair(wl, tally, trace)
    results["verify"] = run_op(wl, tally, "verify", trace=trace)
    return results


def measure_setup(workload: str, seed: int, size: str) -> list[dict]:
    """Cold set-ups in fresh interpreters: seconds from just before each
    process starts until its set-up is done, plus its phase times, all in
    reference seconds at the host speed the set-up process sampled."""
    out = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, SETUP_PROBE, workload, str(seed), size],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        host_speed = probe["speed"]
        out.append({"setup_s": (probe["done"] - started) * host_speed,
                    **{phase: t * host_speed for phase, t in probe["phases"].items()}})
    return out


# -- reporting -----------------------------------------------------------------

def _summary(values: list[float], better: str) -> tuple[float, float, str, int]:
    """Median, the worst-side tail, its label and the sample count.  The
    tail is the most extreme percentile with at least ten samples beyond it,
    or the worst sample when there are fewer than twenty."""
    if not values:
        return 0.0, 0.0, "worst", 0
    ordered = sorted(values, reverse=(better == "higher"))
    n = len(ordered)
    if n < 20:
        return statistics.median(values), ordered[-1], "worst", n
    share = 1 - 10 / n
    return statistics.median(values), ordered[int(share * (n - 1))], f"p{int(share * 100)}", n


def _context(args, wl) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "scenario": wl.description, "seconds": args.seconds,
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": commit, "src_py_lines": src_lines,
    }


def _row(name: str, unit: str, median: float, tail=None, label="", n=None) -> str:
    extra = "" if n is None else f"  {label} {tail:.6g}  n {n}"
    return f"  {name:<32} {median:>14.6g} {unit:<6}{extra}"


def end_to_end(args, wl, setups: list[dict]) -> tuple[Tally, dict]:
    tally = Tally()
    deadline = time.perf_counter() + args.seconds

    def repeat(step) -> int:
        """Run ``step`` at least once and again while another one fits."""
        took: list[float] = []
        while not took or time.perf_counter() + statistics.median(took) <= deadline:
            started = time.perf_counter()
            step(wl, tally)
            took.append(time.perf_counter() - started)
        return len(took)

    # Whole rounds first; time too short for another round goes to more
    # simulate+check pairs, which are much shorter than a verify.
    rounds = repeat(run_round)
    pairs = repeat(run_pair) if time.perf_counter() < deadline else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics, lines = {}, [f"end-to-end metrics ({rounds} rounds, {pairs} extra pairs):"]
    for name, (unit, better, op) in END_TO_END.items():
        if op is not None:
            median, tail, label, n = _summary(tally.rates[op], better)
        elif name == "setup_s":
            median, tail, label, n = _summary([s["setup_s"] for s in setups], better)
        else:
            median, tail, label, n = peak_rss_mb, peak_rss_mb, "worst", 1
        metrics[name] = {"value": median, "unit": unit}
        lines.append(_row(name, unit, median, tail, label, n))
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(_row("failure_rate", "ratio", rate) + f"  ({tally.failed}/{tally.attempted})")
    return tally, {"metrics": metrics, "lines": lines}


def per_layer(args, wl, setups: list[dict]) -> tuple[Tally, dict]:
    from layertrace import LayerTrace

    tally = Tally()
    run_round(wl, tally)
    untraced = tally.ref_s
    host_before, ref_before = tally.host_s, tally.ref_s

    trace = LayerTrace()
    trace.install()
    try:
        results = run_round(wl, tally, trace=trace)
    finally:
        trace.uninstall()
    traced_host = tally.host_s - host_before
    traced = tally.ref_s - ref_before
    # Span times are host seconds; scale them by the round's mean host speed
    # into reference seconds, like every other time the benchmark reports.
    scale = traced / traced_host if traced_host else 1.0
    probe_host_s = trace.self_s("trace.probe")
    bytes_written = os.path.getsize(wl.trace_path) if os.path.exists(wl.trace_path) else 0
    verified = results.get("verify")

    def self_s(name):
        return trace.self_s(name) * scale

    dispatch = trace.calls("monitor.dispatch")
    lookups = trace.calls("explorer.canonical", "verify")
    states = verified["report"].states if verified else 0
    transitions = verified["report"].transitions if verified else 0
    stored = trace.counted("explorer.stored_states")
    values = {
        "bus.publish.calls": ("count", trace.calls("bus.publish")),
        "bus.publish.self_s": ("s", self_s("bus.publish")),
        "bus.deliver.msgs": ("count", trace.counted("bus.deliver.msgs")),
        "bus.step_deliver.self_s": ("s", self_s("bus.step_deliver")),
        "tracing.emit.calls": ("count", trace.calls("tracing.emit")),
        "tracing.emit.self_s": ("s", self_s("tracing.emit")),
        "tracing.encode.self_s": ("s", self_s("tracing.encode")),
        "tracing.bytes_written": ("B", bytes_written),
        "tracing.events_retained": ("count", trace.peaks.get("simulate", 0)),
        "tracing.read.self_s": ("s", self_s("tracing.read")),
        "environment.step.self_s": ("s", self_s("environment.step")),
        "effectors.step.self_s": ("s", self_s("effectors.step")),
        "effectors.goals_accepted": ("count", trace.counted("effectors.goals_accepted")),
        "agent.step.self_s": ("s", self_s("agent.step")),
        "agent.actions": ("count", trace.counted("agent.actions")),
        "simulator.step_tick.s": ("s", trace.inclusive_s("simulator.step_tick") * scale),
        "simulator.to_state.self_s": ("s", self_s("simulator.to_state")),
        "simulator.run.self_s": ("s", self_s("simulator.run")),
        "monitor.observe.calls": ("count", trace.calls("monitor.observe")),
        "monitor.dispatch.calls": ("count", dispatch),
        "monitor.observe.self_s": ("s", self_s("monitor.observe")),
        "monitor.dispatch.self_s": ("s", self_s("monitor.dispatch")),
        "monitor.on_tick.self_s": ("s", self_s("monitor.on_tick")),
        "monitor.useful_ratio": ("ratio",
                                 trace.counted("monitor.useful") / dispatch if dispatch else 0.0),
        "monitor.check_trace.self_s": ("s", self_s("monitor.check_trace")),
        "prop_dsl.atom_holds.calls": ("count", trace.calls("prop_dsl.atom_holds", "simulate")),
        "prop_dsl.atom_holds.self_s": ("s", self_s("prop_dsl.atom_holds")),
        "prop_dsl.evaluate.self_s": ("s", self_s("prop_dsl.evaluate")),
        "explorer.clone.calls": ("count", trace.calls("explorer.clone")),
        "explorer.clone.self_s": ("s", self_s("explorer.clone")),
        "explorer.clone.ms_p50": ("ms", trace.percentile_ms("explorer.clone", 50) * scale),
        "explorer.clone.ms_p99": ("ms", trace.percentile_ms("explorer.clone", 99) * scale),
        "explorer.step.self_s": ("s", self_s("explorer.step")),
        "explorer.canonical.self_s": ("s", self_s("explorer.canonical")),
        "explorer.explore.self_s": ("s", self_s("explorer.explore")),
        "explorer.dedupe_lookups": ("count", lookups),
        "explorer.dedupe_hit_ratio": ("ratio", (lookups - states) / lookups if lookups else 0.0),
        "explorer.successors_per_state": ("ratio", transitions / states if states else 0.0),
        "explorer.bytes_per_state": ("B", trace.counted("explorer.stored_bytes") / stored
                                     if stored else 0.0),
        "explorer.liveness.s": ("s", trace.inclusive_s("explorer.liveness") * scale),
        "explorer.roots.s": ("s", trace.inclusive_s("explorer.roots") * scale),
    }
    for phase in ("setup.import_s", "config.make_config_s", "setup.suite_parse_s",
                  "setup.engine_build_s"):
        values[phase] = ("s", statistics.median(s[phase] for s in setups))
    values.update({
        "trace.wall_s": ("s", traced),
        "trace.untraced_wall_s": ("s", untraced),
        "trace.overhead_s": ("s", traced - untraced),
        "trace.probe_s": ("s", probe_host_s * scale),
        # Share of the traced wall time, less the tracer's own probes, that
        # falls inside some layer's self time.
        "trace.layer_self_share": ("ratio", trace.layer_self_s() / (traced_host - probe_host_s)
                                   if traced_host > probe_host_s else 0.0),
    })

    lines = [f"per-layer metrics (one traced round; host speed {scale:.3f} of reference):"]
    lines += [_row(name, unit, value) for name, (unit, value) in values.items()]
    if trace.absent:
        lines.append("  absent hooks (reported as 0): " + ", ".join(trace.absent))
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
    return tally, {"metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "roverbench")):
        print(f"bench: no roverbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Workload

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    setups = measure_setup(args.workload, args.seed, args.size)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        wl = Workload(args.workload, args.seed, args.size, workdir)
        measure = per_layer if args.trace else end_to_end
        tally, result = measure(args, wl, setups)
        context = _context(args, wl)

    print(f"workload {args.workload}, seed {args.seed}: {wl.description}")
    for line in result["lines"]:
        print(line)
    for failure in tally.failures:
        print(f"  FAILED {failure[:500]}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
