"""One cold set-up of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SIZE

Imports roverbench, builds the config, parses the packaged suite and then
builds the monitor engine and runs a zero-tick simulation (``sim-audit``) or
builds the explorer and its root bundles up to the first BFS expansion (the
verify workloads).  Prints one JSON object: the ``time.monotonic()`` reading
when set-up was done, which the parent compares with its own reading taken
just before it started this process, the time of each phase, and the host
speed sampled while this ran (see ``hostspeed``).
"""

import json
import os
import sys
import time

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> None:
    with HostSpeed() as probe:
        done, phases = set_up(*sys.argv[1:4])
    print(json.dumps({"done": done, "phases": phases, "speed": probe.speed()}))


def set_up(workload: str, seed: str, size: str) -> tuple[float, dict]:
    seed = int(seed)
    phases = {}
    t0 = time.monotonic()
    from roverbench import config, explorer, monitor, prop_dsl, simulator
    from workloads import packaged_text, scenario
    phases["setup.import_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    cfg = config.make_config(scenario(workload, seed, size))
    phases["config.make_config_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    suite = prop_dsl.parse_suite(packaged_text("default.props"))
    rows = json.loads(packaged_text("monitors.json"))["monitors"]
    phases["setup.suite_parse_s"] = time.monotonic() - t0

    t0 = time.monotonic()
    if workload == "sim-audit":
        engine = monitor.build_engine(suite, rows)
        simulator.run_simulation(cfg, 0, None, engine)
    else:
        # A zero budget stops the walk at its first budget check, which comes
        # once the roots are built and before any state is expanded.
        try:
            explorer.explore_properties(cfg, suite, budget_states=0, budget_secs=0.0)
        except explorer.StateSpaceBudgetExceeded:
            pass
    done = time.monotonic()
    phases["setup.engine_build_s"] = done - t0
    return done, phases


if __name__ == "__main__":
    main()
