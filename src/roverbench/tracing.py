"""Trace event stream: JSON-lines writer and reader.

Every observable event in a run becomes one dict appended to a single ordered
stream: bus traffic (publish/deliver/block), agent activity (belief/action),
goal lifecycle transitions, and monitor verdicts.  Two runs with the same
config and seed must produce byte-identical streams, so nothing here may touch
wall-clock time or unordered collections.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, IO


class MalformedTraceError(ValueError):
    """A trace line failed to parse; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


class EventTracer:
    """Streams events to a file, or without one collects them in
    ``events``, so a streamed run's memory does not grow with its length."""

    def __init__(self, sink: IO[str] | None = None):
        self.events: list[dict] = []
        self._sink = sink
        self.streams = sink is not None  # emits go to the file, not to ``events``
        self._observers: list[Callable[[dict], None]] = []

    def add_observer(self, fn: Callable[[dict], None]) -> None:
        self._observers.append(fn)

    def emit(self, event: dict) -> dict:
        if self._sink is None:
            self.events.append(event)
        else:
            self._sink.write(dump_event(event) + "\n")
        for fn in self._observers:
            fn(event)
        return event


def json_encoder(separators: tuple[str, str] | None = None,
                 sort_keys: bool = False) -> Callable[[object], str]:
    """``json.dumps(obj, separators=..., sort_keys=...)`` with the encoder
    built once: the same text, without a new ``JSONEncoder`` and C encoder
    on every call.  Calls share one circular-reference table, so one
    encoder is not for several threads at once."""
    encoder = json.JSONEncoder(separators=separators, sort_keys=sort_keys)
    if c_make_encoder is None:
        return encoder.encode
    markers: dict = {}
    encode = c_make_encoder(markers, encoder.default, encode_basestring_ascii, None,
                            encoder.key_separator, encoder.item_separator,
                            sort_keys, False, True)

    def dumps(obj) -> str:
        try:
            return "".join(encode(obj, 0))
        except Exception:
            # An aborted encode leaves its containers in the circular
            # reference markers, which would keep them alive.
            markers.clear()
            raise

    return dumps


# One trace line of ``event``, without its newline.  Insertion order is
# preserved deliberately: emitters build dicts with "t" and "kind" first so
# the files stay human-scannable.
dump_event = json_encoder(separators=(",", ":"))


def _malformed(event, last_t: float) -> str | None:
    """Why ``event`` cannot follow an event at tick ``last_t``, or None.
    Bounded windows compare timestamps, so ``t`` may not decrease."""
    if not isinstance(event, dict) or not isinstance(event.get("kind"), str):
        return "event must be an object with a string 'kind'"
    t = event.get("t")
    if type(t) is not int:
        return "event must have an integer 't'"
    if t < last_t:
        return f"'t' decreases from {last_t} to {t}"
    kind = event["kind"]
    if kind == "publish" and not isinstance(event.get("topic"), str):
        return "publish event must have a string 'topic'"
    if kind == "belief" and (event.get("op") not in ("add", "del")
                             or not isinstance(event.get("atom"), str)):
        return "belief event must have 'op' add or del and a string 'atom'"
    if kind == "action" and not isinstance(event.get("action"), str):
        return "action event must have a string 'action'"
    return None


_scan_once = json.JSONDecoder().scan_once


def read_trace(path: str) -> list[dict]:
    events = []
    last_t = float("-inf")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # A stripped line starts with no JSON whitespace, so one scan
            # from 0 that ends at the line's end is all of ``json.loads``;
            # any other line goes through ``json.loads`` for its error.
            try:
                obj, end = _scan_once(line, 0)
            except (json.JSONDecodeError, StopIteration):
                end = -1
            if end != len(line):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedTraceError(lineno, f"bad JSON ({exc.msg})") from exc
            reason = _malformed(obj, last_t)
            if reason is not None:
                raise MalformedTraceError(lineno, reason)
            last_t = obj["t"]
            events.append(obj)
    return events
