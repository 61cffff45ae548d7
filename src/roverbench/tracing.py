"""Trace event stream: JSON-lines writer and reader.

Every observable event in a run becomes one dict appended to a single ordered
stream: bus traffic (publish/deliver/block), agent activity (belief/action),
goal lifecycle transitions, and monitor verdicts.  Two runs with the same
config and seed must produce byte-identical streams, so nothing here may touch
wall-clock time or unordered collections.
"""

from __future__ import annotations

import json
from typing import Callable, IO


class MalformedTraceError(ValueError):
    """A trace line failed to parse; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


class EventTracer:
    """Collects events in memory and optionally streams them to a file."""

    def __init__(self, sink: IO[str] | None = None):
        self.events: list[dict] = []
        self._sink = sink
        self._observers: list[Callable[[dict], None]] = []

    def add_observer(self, fn: Callable[[dict], None]) -> None:
        self._observers.append(fn)

    def emit(self, event: dict) -> dict:
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(dump_event(event) + "\n")
        for fn in self._observers:
            fn(event)
        return event


def dump_event(event: dict) -> str:
    # Insertion order is preserved deliberately: emitters build dicts with
    # "t" and "kind" first so the files stay human-scannable.
    return json.dumps(event, separators=(",", ":"))


def read_trace(path: str) -> list[dict]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTraceError(lineno, f"bad JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "kind" not in obj:
                raise MalformedTraceError(lineno, "event must be an object with a 'kind'")
            events.append(obj)
    return events
