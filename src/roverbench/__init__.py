"""Deterministic rover-patrol simulator with a verification workbench.

The simulator runs a small network of message-passing nodes - a belief-
driven agent, action-protocol clients and servers for the wheels, arm and
mast, and a hazard environment - in fixed-order discrete ticks, so a
(config, seed) pair always produces byte-identical traces.  The workbench
side turns temporal properties written in a small DSL into runtime monitors
for those runs and into exhaustive explicit-state exploration of every
environment and fault choice.
"""

from __future__ import annotations

from .config import ConfigError, ScenarioConfig, make_config
from .explorer import (
    ExplorationError,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
    explore_properties,
    replay_counterexample,
)
from .monitor import MonitorEngine, build_engine, check_trace, synthesize
from .prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    evaluate,
    parse_formula,
    parse_suite,
)
from .simulator import run_simulation
from .tracing import read_trace

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "make_config",
    "ExplorationError",
    "ReplayDivergenceError",
    "StateSpaceBudgetExceeded",
    "explore_properties",
    "replay_counterexample",
    "MonitorEngine",
    "build_engine",
    "check_trace",
    "synthesize",
    "SATISFIED",
    "UNDETERMINED",
    "VIOLATED",
    "evaluate",
    "parse_formula",
    "parse_suite",
    "run_simulation",
    "read_trace",
]
