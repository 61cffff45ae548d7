"""Stage-contract guard: the modules of the stages (the effector servers, the
agent host and the world) reach the rest of the model only through the
``StagePort`` they are stepped with.  None of them names the bus, the
tracer, or the bus's inbox drain, so no stage can read another stage's
inbox, the pending queue or the trace, which the explorer's partial-order
reduction assumes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roverbench"
STAGE_MODULES = ("action_protocol.py", "effectors.py", "agent.py", "environment.py")
FORBIDDEN = {"MessageBus", "EventTracer", "drain_inbox"}


def forbidden_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every forbidden name: as a name, an imported name or
    an attribute, and every ``.tracer`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN | {"tracer"}:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.rpartition(".")[2] in FORBIDDEN]
    return found


@pytest.mark.parametrize("module", STAGE_MODULES)
def test_stage_module_names_no_bus_or_tracer(module):
    assert forbidden_names((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_of_naming():
    source = ("from .bus import MessageBus\n"
              "import roverbench.tracing.EventTracer\n"
              "def step(self, bus):\n"
              "    bus.drain_inbox('x')\n"
              "    self.tracer.emit({})\n"
              "    return EventTracer\n")
    assert sorted(forbidden_names(source)) == [
        (1, "MessageBus"), (2, "roverbench.tracing.EventTracer"), (4, ".drain_inbox"),
        (5, ".tracer"), (6, "EventTracer")]
