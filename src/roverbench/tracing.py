"""Trace event stream: JSON-lines writer and columnar reader.

Every observable event in a run becomes one dict appended to a single ordered
stream: bus traffic (publish/deliver/block), agent activity (belief/action),
goal lifecycle transitions, and monitor verdicts.  Two runs with the same
config and seed must produce byte-identical streams, so nothing here may touch
wall-clock time or unordered collections.

``EventTracer`` hands each event to its observers and keeps none; given a
file, it writes one line per event, the text of ``json.dumps(event,
separators=(",", ":"))``.  It encodes each message payload once, at its
publish, and keeps the text until the bus hands over the tick's deliveries
in one call; that call alone writes deliver lines, around the kept text,
and builds deliver events only for an observer that reads deliveries.
Lines are written in batches and flushed at the end of a run, or when it
fails, so the bytes are those of one encode per line.  Other observers name
the kinds they read, and the monitor engine, when none of its monitors
reads a delivery, takes only the time of a tick's deliveries, its clock.

``read_trace`` reads a trace file into a ``Trace`` in one pass: each line is
checked and filed into columns (the event times, the positions of each
event key, the belief states, and the values of every field path a
property can compare), then dropped, so no list of event dicts is kept.
A line is filed by a plan: its event keys, a belief's op and atom, and the
value of each column its fields reach.  Lines as the tracer writes them
differ mostly in the ``t`` and ``seq`` of their head, so the plan of the
rest of a line is made once, from one JSON decode of that rest, and kept
for the lines that repeat it, for the first ``MAX_PLANS`` rests.  The
offline evaluator (``prop_dsl.evaluate_suite``) reads only the columns; a
list of event dicts is filed by plans of the same builder first.
"""

from __future__ import annotations

import json
import re
from itertools import starmap
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
    """Hands each event to its observers and, given a file, streams it
    there; it keeps no event, so a run's memory does not grow with its
    length.

    A streaming tracer writes the line of an emitted publish event with
    ``_publish_line``, the lines of the deliveries the bus hands over with
    ``deliver``, and every other line, a deliver event emitted on its own
    too, with ``dump_event``, in batches of ``BATCH`` lines; ``flush``
    writes the rest.  Each line is ``dump_event(event)``, byte for byte,
    whether its event was built or not."""

    # About four ticks of lines: the batch is the most a streaming run holds,
    # and 512 lines doubled the peak memory of a 500-tick run's simulate.
    BATCH = 64

    def __init__(self, sink: IO[str] | None = None):
        self._sink = sink
        self._observers: list[tuple] = []  # (fn, kinds, clock)
        self._calls: dict[str, list] = {}  # kind -> what its events are handed to
        self._lines: list[str] = []
        self._texts: dict[int, tuple[dict, str]] = {}  # seq -> (payload, its text)
        self._routes: dict[tuple, str] = {}  # (topic, sender[, node]) -> its fragment

    def add_observer(self, fn: Callable[[dict], None], kinds: frozenset | None = None,
                     clock: Callable[[int], None] | None = None) -> None:
        """Call ``fn(event)`` at each event whose ``kind`` is in ``kinds``,
        or at every event for None.  An observer with a ``clock`` reads
        deliveries by their time alone: it is handed no deliver event, and
        ``clock(t)`` is called instead, once per ``deliver`` call and at a
        deliver event emitted on its own."""
        self._observers.append((fn, kinds, clock))
        self._calls = {}

    def _handed(self, kind: str) -> list:
        """What an event of ``kind`` is handed to, in observer order."""
        calls = self._calls[kind] = [
            fn for fn, kinds, clock in self._observers
            if (kinds is None or kind in kinds) and (clock is None or kind != "deliver")]
        return calls

    def _clock(self, t: int) -> None:
        for _fn, _kinds, clock in self._observers:
            if clock is not None:
                clock(t)

    def emit(self, event: dict) -> None:
        kind = event.get("kind")
        if self._sink is not None:
            lines = self._lines
            lines.append(self._publish_line(event) if kind == "publish" else dump_event(event))
            if len(lines) >= self.BATCH:
                self.flush()
        if kind == "deliver":
            self._clock(event["t"])
        calls = self._calls.get(kind)
        for fn in calls if calls is not None else self._handed(kind):
            fn(event)

    def deliver(self, t: int, delivered: list) -> None:
        """A tick's deliveries, ``(node, message)`` pairs in delivery order,
        stamped ``t``.  The clocks are called once; then each delivery's
        line is written, from the text its publish kept, and its deliver
        event handed to the observers that read deliveries, so what they
        emit follows that line.  An event is built only for those readers,
        or for a payload with no kept text.  The bus delivers every pending
        message in one call, so the kept texts are dropped."""
        texts, self._texts = self._texts, {}
        if not delivered:
            return
        self._clock(t)
        readers = self._calls.get("deliver")
        if readers is None:
            readers = self._handed("deliver")
        sink, lines, routes = self._sink, self._lines, self._routes
        if sink is None and not readers:
            return
        head = f'{{"t":{t},"kind":"deliver","seq":'
        for node, msg in delivered:
            event = None
            if sink is not None:
                seq, sender, topic, payload = msg
                kept = texts.get(seq)
                if kept is None or kept[0] is not payload:
                    event = _deliver_event(t, node, msg)
                    lines.append(dump_event(event))
                else:
                    middle = routes.get((topic, sender, node)) or self._route(topic, sender, node)
                    lines.append(f"{head}{seq}{middle}{kept[1]}}}")
                if len(lines) >= self.BATCH:
                    self.flush()
            if readers:
                event = event or _deliver_event(t, node, msg)
                for fn in readers:
                    fn(event)

    def _publish_line(self, event: dict) -> str:
        """The line of a publish event as the bus builds it (``t``,
        ``kind``, ``seq``, ``topic``, ``sender``, then ``payload``), put
        together from fixed fragments: the integers, the route's strings
        encoded once per route, and the payload text.  The text is kept by
        ``seq`` for the deliver lines of the same payload object."""
        t, seq, payload = event["t"], event["seq"], event["payload"]
        text = dump_event(payload)
        self._texts[seq] = (payload, text)
        middle = self._route(event["topic"], event["sender"])
        return f'{{"t":{t},"kind":"publish","seq":{seq}{middle}{text}}}'

    def _route(self, *route: str) -> str:
        """The fragment from ``topic`` to ``"payload":`` of a message line,
        for ``route``: topic, sender and a deliver's node."""
        middle = self._routes.get(route)
        if middle is None:
            middle = self._routes[route] = "".join(
                f',"{name}":{dump_event(value)}'
                for name, value in zip(("topic", "sender", "node"), route)) + ',"payload":'
        return middle

    def flush(self) -> None:
        """Write the lines not yet written to the sink."""
        if self._lines:
            self._sink.write("\n".join(self._lines) + "\n")
            self._lines.clear()  # in place: ``deliver`` holds the list across a flush


def _deliver_event(t: int, node: str, msg) -> dict:
    return {"t": t, "kind": "deliver", "seq": msg.seq, "topic": msg.topic, "sender": msg.sender,
            "node": node, "payload": msg.payload}


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

    ``parsed`` is the number of lines handed to the JSON decoder.  Equal
    strings in the columns share one object, and so do the values of the
    lines one plan files: a column value is read, never changed.
    """

    def __init__(self, numbered=(), *, lines=None):
        """Check and file each ``(line number, event)`` pair of ``numbered``,
        or each non-blank line of ``lines``, the text of a trace file.
        An event must be an object with a string ``kind`` and an integer
        ``t`` that does not decrease (bounded windows compare timestamps); a
        publish needs a string ``topic``, a belief ``op`` add or del and a
        string ``atom``, an action a string ``action``.  Raises
        MalformedTraceError at the first event that breaks a rule, with the
        first rule it breaks in that order.

        Each event is filed by its plan (``_plan``); a line's plan is kept
        for the later lines that differ from it only in ``t`` and ``seq``."""
        self.tick_times: list[int] = []
        self.tick_starts: list[int] = []
        self.keys: dict = {}
        self.states: list[frozenset] = []
        self.parsed = 0
        # Per field name, positions and values interleaved: one list takes
        # both with two appends, the cheapest filing there is.
        self._fields = {name: [] for name in EVENT_FIELDS - {"t", "kind", "payload"}}
        self._payload = {name: [] for name in PAYLOAD_FIELDS}
        tick_times, tick_starts, states = self.tick_times, self.tick_starts, self.states
        seqs = self._fields["seq"]
        last_t = tick_t = float("-inf")
        read = i = 0
        beliefs = frozenset()
        planned = starmap(self._event, numbered) if lines is None else self._lines(lines)
        for lineno, t, seq, (error, at, belief, appends) in planned:
            if t < last_t:
                raise MalformedTraceError(lineno, f"'t' decreases from {last_t} to {t}")
            if error is not None:
                raise MalformedTraceError(lineno, error)
            last_t = t
            read += 1
            if at is None:  # a verdict
                continue
            for positions in at:
                positions.append(i)
            if belief is not None:
                beliefs = next_beliefs(beliefs, *belief)
                states.append(beliefs)
            if t != tick_t:
                tick_t = t
                tick_times.append(t)
                tick_starts.append(i)
            if seq is not None:
                seqs.append(i)
                seqs.append(seq)
            for filed, value in appends:
                filed.append(i)
                filed.append(value)
            i += 1
        self.read, self.size = read, i

    def _plan(self, kind: str, body: dict) -> tuple:
        """How an event of ``kind`` with the fields ``body`` is filed:
        ``(error, positions, belief, appends)``.  ``error`` is why the event
        is malformed, or None; ``positions`` are the lists of the event's
        keys, None for a verdict; ``belief`` is a belief event's ``(op,
        atom)``; ``appends`` pairs each column a field of ``body`` reaches
        with its value.  Neither ``t`` nor ``kind`` is a column."""
        if kind == "verdict":
            return _VERDICT
        keys, belief = self.keys, None
        if kind == "publish":
            topic = body.get("topic")
            if not isinstance(topic, str):
                return "publish event must have a string 'topic'", None, None, None
            at = keys.setdefault(kind, []), keys.setdefault((kind, topic), [])
        else:
            if kind == "belief":
                op, atom = body.get("op"), body.get("atom")
                if op not in ("add", "del") or not isinstance(atom, str):
                    return ("belief event must have 'op' add or del and a string 'atom'",
                            None, None, None)
                belief = op, _interned(atom)
            elif kind == "action" and not isinstance(body.get("action"), str):
                return "action event must have a string 'action'", None, None, None
            at = keys.setdefault(kind, []),
        fields, payload_fields = self._fields, self._payload
        appends = []
        for name, value in body.items():
            filed = fields.get(name)
            if filed is not None:
                appends.append((filed, _interned(value)))
            elif name == "payload" and isinstance(value, dict):
                for name, value in value.items():
                    filed = payload_fields.get(name)
                    if filed is not None:
                        appends.append((filed, _interned(value)))
        return None, at, belief, tuple(appends)

    def _event(self, lineno: int, event) -> tuple:
        """``(lineno, t, None, plan)`` of a decoded ``event``; raises
        MalformedTraceError for one with no string ``kind`` or integer ``t``."""
        kind = event.get("kind") if isinstance(event, dict) else None
        if not isinstance(kind, str):
            raise MalformedTraceError(lineno, "event must be an object with a string 'kind'")
        t = event.get("t")
        if type(t) is not int:
            raise MalformedTraceError(lineno, "event must have an integer 't'")
        return lineno, t, None, self._plan(kind, event)

    def _lines(self, lines):
        """``(line number, t, seq, plan)`` of each non-blank line, ``seq``
        the head's or None.  A line whose head ``_HEAD`` matches is looked up
        by its kind, whether it has a seq, and the rest of the line, whose
        plan is made once, from that rest alone, if it is one object that
        repeats no field of the head.  Any other line is decoded whole."""
        plans: dict[tuple, tuple] = {}
        head = _HEAD.match
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            match = head(line)
            if match is None:
                self.parsed += 1
                yield self._event(lineno, _decoded(lineno, line))
                continue
            t, kind, seq = match.groups()
            key = kind, seq is None, line[match.end():]
            plan = plans.get(key)
            if plan is None:
                self.parsed += 1
                body = _body(key[2])
                if body is None:
                    yield self._event(lineno, _decoded(lineno, line))
                    continue
                plan = self._plan(kind, body)
                if len(plans) < MAX_PLANS:
                    plans[key] = plan
            yield lineno, int(t), seq and int(seq), plan

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


# The plan of a verdict line, which is counted and not stored.
_VERDICT = None, None, None, ()

# The head ``EventTracer`` writes a line with, ``{"t":T,"kind":"K"`` and
# ``,"seq":S`` for a message, and the comma before the next field, or the
# line's closing brace, which the match does not take.  The
# integers are JSON's, with no leading zero; at most 18 digits, so a longer
# one is decoded whole and meets Python's digit limit there.  ``[0-9]``, as
# ``\d`` takes any Unicode digit.
_HEAD = re.compile(r'\{"t":(0|[1-9][0-9]{0,17}),"kind":"([a-z]+)"'
                   r'(?:,"seq":(0|[1-9][0-9]{0,17}))?(?:,(?=")|(?=\}))')

# The most plans one read keeps.  The rests that repeat come in a trace's
# first ticks, so a full cache keeps its plans and takes no more: a later
# new rest is decoded each time it comes.
MAX_PLANS = 256

_scan_once = json.JSONDecoder().scan_once


def _interned(value):
    return intern(value) if value.__class__ is str else value


def _body(rest: str) -> dict | None:
    """The fields of a line after its head: ``rest`` behind a ``{`` if that
    is one JSON object on its own with none of the head's fields, else
    None."""
    try:
        obj, end = _scan_once("{" + rest, 0)
    except (ValueError, RecursionError, StopIteration):
        return None
    if end != len(rest) + 1 or "t" in obj or "kind" in obj or "seq" in obj:
        return None
    return obj


def _decoded(lineno: int, line: str):
    """The JSON value of a stripped line, as ``json.loads`` reads it."""
    # A stripped line starts with no JSON whitespace, so one scan from 0
    # that ends at the line's end is all of ``json.loads``; any other line
    # goes through ``json.loads`` for its error.
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
    return obj


def read_trace(path: str) -> Trace:
    """The trace file at ``path`` in columns, streamed in one pass; raises
    MalformedTraceError with the line number of the first bad line, or
    InputError naming the file at bytes that are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return Trace(lines=fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc
