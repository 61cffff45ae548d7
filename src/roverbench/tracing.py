"""Trace event stream: JSON-lines writer and columnar reader.

Every observable event in a run becomes one dict appended to a single ordered
stream: bus traffic (publish/deliver/block), agent activity (belief/action),
goal lifecycle transitions, and monitor verdicts.  Two runs with the same
config and seed must produce byte-identical streams, so nothing here may touch
wall-clock time or unordered collections.

``EventTracer`` writes one line per event, the text of ``json.dumps(event,
separators=(",", ":"))``.  It encodes each message payload once, at its
publish, and puts the publish and deliver lines of the message together
around that text; lines are written in batches and flushed at the end of a
run, or when it fails, so the bytes are those of one encode per line.

``read_trace`` reads a trace file into a ``Trace`` in one pass: each line is
parsed, checked and filed into columns (the event times, the positions of
each event key, the belief states, and the values of every field path a
property can compare), then dropped, so no list of event dicts is kept.
The offline evaluator (``prop_dsl.evaluate_suite``) reads only the columns;
a list of event dicts goes through the same builder first.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from sys import intern
from typing import Callable, IO, Sequence

from .messages import PAYLOAD_FIELDS


class InputError(ValueError):
    """Bad input; the base of every error of the input domain."""


def read_input(path: str, parse: Callable[[str], object] = str):
    """``parse`` of the UTF-8 text of the file at ``path``.  Bytes that are
    not UTF-8, and text that ``parse`` refuses with a ValueError (bad JSON,
    an integer past Python's digit limit) or a RecursionError (JSON nested
    too deep), raise InputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: {exc}") from exc


class MalformedTraceError(InputError):
    """A trace line failed to parse; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


def next_beliefs(beliefs: frozenset, op: str, atom: str) -> frozenset:
    """The belief base after a belief event: ``op`` add or del of ``atom``.
    The offline columns and the online monitors both fold beliefs here."""
    return beliefs | {atom} if op == "add" else beliefs - {atom}


class EventTracer:
    """Streams events to a file, or without one collects them in
    ``events``, so a streamed run's memory does not grow with its length.

    A streaming tracer writes the bus's publish and deliver lines with
    ``_message_line`` and every other event with ``dump_event``, in batches
    of ``BATCH`` lines; ``flush`` writes the rest.  Each line is
    ``dump_event(event)``, byte for byte."""

    # About four ticks of lines: the batch is the most a streaming run holds,
    # and 512 lines doubled the peak memory of a 500-tick run's simulate.
    BATCH = 64

    def __init__(self, sink: IO[str] | None = None):
        self.events: list[dict] = []
        self._sink = sink
        self._observers: list[Callable[[dict], None]] = []
        self._lines: list[str] = []
        self._texts: dict[int, tuple[dict, str]] = {}  # seq -> (payload, its text)
        self._texts_t = None
        self._routes: dict[tuple, str] = {}  # (topic, sender[, node]) -> its fragment

    def add_observer(self, fn: Callable[[dict], None]) -> None:
        self._observers.append(fn)

    def emit(self, event: dict) -> dict:
        if self._sink is None:
            self.events.append(event)
        else:
            kind = event.get("kind")
            if kind == "publish" or kind == "deliver":
                line = self._message_line(kind, event)
            else:
                line = dump_event(event)
            lines = self._lines
            lines.append(line)
            if len(lines) >= self.BATCH:
                self.flush()
        for fn in self._observers:
            fn(event)
        return event

    def _message_line(self, kind: str, event: dict) -> str:
        """The line of a publish or deliver event as the bus builds it
        (``t``, ``kind``, ``seq``, ``topic``, ``sender``, a deliver's
        ``node``, then ``payload``), put together from fixed fragments: the
        integers, the route's strings encoded once per route, and the payload
        text.  A publish encodes its payload and keeps the text by ``seq``
        until the first publish of a later tick, for the deliveries of the
        same payload object."""
        t, seq, payload = event["t"], event["seq"], event["payload"]
        if kind == "publish":
            if t != self._texts_t:
                self._texts, self._texts_t = {}, t
            text = dump_event(payload)
            self._texts[seq] = (payload, text)
            route = (event["topic"], event["sender"])
        else:
            kept = self._texts.get(seq)
            if kept is None or kept[0] is not payload:
                return dump_event(event)
            text = kept[1]
            route = (event["topic"], event["sender"], event["node"])
        middle = self._routes.get(route)
        if middle is None:
            middle = self._routes[route] = "".join(
                f',"{name}":{dump_event(value)}'
                for name, value in zip(("topic", "sender", "node"), route)) + ',"payload":'
        return f'{{"t":{t},"kind":"{kind}","seq":{seq}{middle}{text}}}'

    def flush(self) -> None:
        """Write the lines not yet written to the sink."""
        if self._lines:
            self._sink.write("\n".join(self._lines) + "\n")
            self._lines = []


def json_encoder() -> Callable[[object], str]:
    """``json.dumps(obj, separators=(",", ":"))`` with the encoder built
    once: the same text, without a new ``JSONEncoder`` and C encoder on
    every call.  Calls share one circular-reference table, so one encoder
    is not for several threads at once."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    if c_make_encoder is None:
        return encoder.encode
    markers: dict = {}
    encode = c_make_encoder(markers, encoder.default, encode_basestring_ascii, None,
                            ":", ",", False, False, True)

    def dumps(obj) -> str:
        try:
            return "".join(encode(obj, 0))
        except Exception:
            # An aborted encode leaves its containers in the circular
            # reference markers, which would keep them alive.
            markers.clear()
            raise

    return dumps


# One trace or ``.explain`` line of ``event``, without its newline.
# Insertion order is preserved deliberately: emitters build dicts with "t"
# and "kind" first so the files stay human-scannable.
dump_event = json_encoder()


# Event fields a property may compare (``prop_dsl``), besides one field of
# the payload: ``payload.<f>`` for ``f`` in ``messages.PAYLOAD_FIELDS``.
EVENT_FIELDS = {
    "t", "kind", "seq", "topic", "sender", "node", "phase", "server",
    "target", "goal_id", "status", "atom", "op", "action", "payload",
}


class Trace:
    """A trace in columns, built in the one pass that reads it.

    ``len`` is the number of events read, verdict lines included.  Verdict
    lines are monitor output: they are checked and counted, not stored.
    The model events are stored by their position among themselves, 0 to
    ``size - 1``:

    - ``tick_times`` and ``tick_starts``: the ``t`` of each run of events
      of one ``t``, and the position where the run starts;
    - ``keys``: the positions of each event key, an event ``kind``, and
      ``("publish", topic)`` for a publish;
    - ``states``: the belief base after each belief event, in the order of
      ``keys["belief"]``; it holds up to the next belief event;
    - ``column(parts)``: the positions where a field path resolves and its
      values there, for each path a property can compare.

    Equal strings in the columns share one object.
    """

    def __init__(self, numbered):
        """Check and file each ``(line number, event)`` pair of ``numbered``.
        An event must be an object with a string ``kind`` and an integer
        ``t`` that does not decrease (bounded windows compare timestamps); a
        publish needs a string ``topic``, a belief ``op`` add or del and a
        string ``atom``, an action a string ``action``.  Raises
        MalformedTraceError at the first event that breaks a rule."""
        self.tick_times: list[int] = []
        self.tick_starts: list[int] = []
        self.keys: dict = {}
        self.states: list[frozenset] = []
        # Per field name, positions and values interleaved: one list takes
        # both with two appends, the cheapest filing there is.
        self._fields = fields = {name: [] for name in EVENT_FIELDS - {"t", "kind", "payload"}}
        self._payload = payload_fields = {name: [] for name in PAYLOAD_FIELDS}
        tick_times, tick_starts = self.tick_times, self.tick_starts
        keys, states = self.keys, self.states
        last_t = tick_t = float("-inf")
        read = i = 0
        beliefs = frozenset()
        for lineno, event in numbered:
            kind = event.get("kind") if isinstance(event, dict) else None
            if not isinstance(kind, str):
                raise MalformedTraceError(lineno, "event must be an object with a string 'kind'")
            t = event.get("t")
            if type(t) is not int:
                raise MalformedTraceError(lineno, "event must have an integer 't'")
            if t < last_t:
                raise MalformedTraceError(lineno, f"'t' decreases from {last_t} to {t}")
            last_t = t
            read += 1
            if kind == "verdict":
                continue
            if kind == "publish":
                topic = event.get("topic")
                if not isinstance(topic, str):
                    raise MalformedTraceError(lineno, "publish event must have a string 'topic'")
                at = keys.get(("publish", topic))
                if at is None:
                    at = keys[("publish", topic)] = []
                at.append(i)
            elif kind == "belief":
                op, atom = event.get("op"), event.get("atom")
                if op not in ("add", "del") or not isinstance(atom, str):
                    raise MalformedTraceError(
                        lineno, "belief event must have 'op' add or del and a string 'atom'")
                beliefs = next_beliefs(beliefs, op, atom)
                states.append(beliefs)
            elif kind == "action" and not isinstance(event.get("action"), str):
                raise MalformedTraceError(lineno, "action event must have a string 'action'")
            at = keys.get(kind)
            if at is None:
                at = keys[kind] = []
            at.append(i)
            if t != tick_t:
                tick_t = t
                tick_times.append(t)
                tick_starts.append(i)
            for name, value in event.items():
                filed = fields.get(name)
                if filed is not None:
                    filed.append(i)
                    filed.append(intern(value) if value.__class__ is str else value)
                elif name == "payload" and isinstance(value, dict):
                    for name, value in value.items():
                        filed = payload_fields.get(name)
                        if filed is not None:
                            filed.append(i)
                            filed.append(intern(value) if value.__class__ is str else value)
            i += 1
        self.read, self.size = read, i

    def __len__(self) -> int:
        return self.read

    def column(self, parts: tuple) -> tuple[Sequence, list] | None:
        """Positions where the field path ``parts`` (``Path.parts``:
        ``("seq",)``, ``("payload", "wind")``) resolves and its values there,
        or None for a path no property can compare.  A payload that is not
        an object resolves no field."""
        if parts == ("t",):
            ends = self.tick_starts[1:] + [self.size]
            return range(self.size), [t for t, start, end in zip(self.tick_times,
                                                                 self.tick_starts, ends)
                                      for _ in range(start, end)]
        if parts == ("kind",):
            kinds = [None] * self.size
            for key, positions in self.keys.items():
                if isinstance(key, str):
                    for i in positions:
                        kinds[i] = key
            return range(self.size), kinds
        if len(parts) == 1:
            filed = self._fields.get(parts[0])
        elif len(parts) == 2 and parts[0] == "payload":
            filed = self._payload.get(parts[1])
        else:
            filed = None
        return None if filed is None else (filed[0::2], filed[1::2])


_scan_once = json.JSONDecoder().scan_once


def _parsed(lines):
    """``(line number, event)`` for each non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        # A stripped line starts with no JSON whitespace, so one scan
        # from 0 that ends at the line's end is all of ``json.loads``;
        # any other line goes through ``json.loads`` for its error.
        try:
            obj, end = _scan_once(line, 0)
        except (ValueError, RecursionError, StopIteration):
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise MalformedTraceError(lineno, f"bad JSON ({reason})") from exc
        yield lineno, obj


def read_trace(path: str) -> Trace:
    """The trace file at ``path`` in columns, streamed in one pass; raises
    MalformedTraceError with the line number of the first bad line, or
    InputError naming the file at bytes that are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return Trace(_parsed(fh))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc
