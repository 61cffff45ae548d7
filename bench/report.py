"""Print every metric of every workload, with its unit and sample count.

Usage (from the repository root):

    python3 bench/report.py [--seconds 30] [--seed 0] [--trace 0|1] [--size full|tiny]

Runs ``bench/run.py`` once per workload, one after another, and relays its
table: for ``--trace 0`` each end-to-end metric's median, its worst-side tail
and sample count, and the failure rate; for ``--trace 1`` the per-layer
metrics.  It then checks that the run's result line carries every metric
``BENCHMARK.json`` names for that mode, with the unit given there, and that
no operation failed.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def problems(result: dict, spec: dict, trace: int) -> list[str]:
    wanted = spec["per_layer" if trace else "end_to_end"]
    found = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        found.append(f"result keys are {sorted(result)}")
    if result.get("failed") or not result.get("correct"):
        found.append(f"{result.get('failed')} of {result.get('attempted')} operations failed")
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            found.append(f"metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            found.append(f"metric {metric['name']} in {got.get('unit')}, expected {metric['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            found.append(f"metric {metric['name']} has no numeric value")
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if extra:
        found.append(f"metrics not in BENCHMARK.json: {extra}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        command = spec["command"] + [
            "--workload", workload, "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            found = problems(json.loads(lines[-1]), spec, args.trace) if lines else ["no output"]
        except json.JSONDecodeError:
            found = ["last line is not JSON"]
        if proc.returncode != 0:
            found.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        for problem in found:
            print(f"  PROBLEM {workload}: {problem}")
        status = status or int(bool(found))
        print()
    print("report: all metrics present" if status == 0 else "report: problems found")
    return status


if __name__ == "__main__":
    sys.exit(main())
