"""Bad-input boundary guard: every error of the input domain derives from
``tracing.InputError``, which ``cli.main`` alone maps to exit 2, and no
error that means a fault in the program does, so those stay exit 5 (internal
error).  No ``except`` in ``cli.py`` outside ``main`` catches anything but
the two outcomes that are not bad input: an exhausted budget and a diverging
replay."""

from __future__ import annotations

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

from roverbench import cli, explorer
from roverbench.action_protocol import IllegalTransitionError, NotReadyError, ProtocolError
from roverbench.bus import (
    BusError,
    InboxOverflowError,
    UnauthorizedPublisherError,
    UnknownTopicError,
)
from roverbench.config import ConfigError
from roverbench.environment import NegativeReadingError
from roverbench.explorer import (
    ExplorationError,
    ReplayDivergenceError,
    StateSpaceBudgetExceeded,
)
from roverbench.messages import PayloadShapeError
from roverbench.monitor import IllegalOperatorForRuntime, MonitorConfigError, MonitorShapeError
from roverbench.prop_dsl import NonPositiveBoundError, ParseError, PropertyError, UnknownFieldError
from roverbench.tracing import InputError, MalformedTraceError

CLI = Path(__file__).resolve().parent.parent / "src" / "roverbench" / "cli.py"

INPUT_ERRORS = [
    ConfigError, PropertyError, ParseError, UnknownFieldError, NonPositiveBoundError,
    MonitorShapeError, IllegalOperatorForRuntime, MonitorConfigError, ExplorationError,
    MalformedTraceError, InboxOverflowError,
]
INTERNAL_ERRORS = [
    PayloadShapeError, BusError, UnknownTopicError, UnauthorizedPublisherError,
    ProtocolError, NotReadyError, IllegalTransitionError, NegativeReadingError,
    StateSpaceBudgetExceeded, ReplayDivergenceError,
]
# The outcomes a command may catch itself: neither is bad input.
OUTCOMES = {"StateSpaceBudgetExceeded", "ReplayDivergenceError"}


@pytest.mark.parametrize("error", INPUT_ERRORS, ids=lambda e: e.__name__)
def test_input_error(error):
    assert issubclass(error, InputError)


@pytest.mark.parametrize("error", INTERNAL_ERRORS, ids=lambda e: e.__name__)
def test_internal_error_is_no_input_error(error):
    assert not issubclass(error, InputError)


def test_inbox_overflow_is_still_a_bus_error():
    assert issubclass(InboxOverflowError, BusError)


def caught_outside_main(source: str) -> list[tuple[int, str]]:
    """(line, name) of every exception that an ``except`` outside the
    function ``main`` catches and OUTCOMES does not hold; a bare ``except``
    is ``"*"``."""
    tree = ast.parse(source)
    in_main = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "main"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or id(node) in in_main:
            continue
        if node.type is None:
            found.append((node.lineno, "*"))
            continue
        names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        found += [(node.lineno, ast.unparse(name)) for name in names
                  if ast.unparse(name).rpartition(".")[2] not in OUTCOMES]
    return found


def test_cli_catches_bad_input_only_in_main():
    assert caught_outside_main(CLI.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_of_catching():
    source = ("def cmd(args):\n"
              "    try:\n"
              "        pass\n"
              "    except (ConfigError, explorer.StateSpaceBudgetExceeded):\n"
              "        pass\n"
              "    except json.JSONDecodeError:\n"
              "        pass\n"
              "    except ReplayDivergenceError:\n"
              "        pass\n"
              "    except:\n"
              "        pass\n"
              "def main():\n"
              "    try:\n"
              "        pass\n"
              "    except (InputError, OSError):\n"
              "        pass\n")
    assert caught_outside_main(source) == [
        (4, "ConfigError"), (6, "json.JSONDecodeError"), (10, "*")]


def test_every_input_file_goes_through_read_input(monkeypatch, tmp_path):
    """``--config``, ``--props``, ``--monitors`` and a counterexample file
    are each read by ``tracing.read_input``."""
    read = []

    def recording(path, parse=str):
        read.append(Path(path).name)
        return real(path, parse)

    real = cli.read_input
    monkeypatch.setattr(cli, "read_input", recording)
    monkeypatch.setattr(explorer, "read_input", recording)
    data = Path(cli.__file__).parent / "data"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", "--ticks", "2", "--config", str(config),
                         "--props", str(data / "default.props"),
                         "--monitors", str(data / "monitors.json")]) == 0
        assert cli.main(["verify", "stop_after_move", "--mutant", "no-stop-wheels",
                         "--trace", str(tmp_path / "run")]) == 1
        assert cli.main(["replay", str(tmp_path / "run-stop_after_move.json")]) == 1
    assert read == ["config.json", "default.props", "monitors.json",
                    "run-stop_after_move.json"]
