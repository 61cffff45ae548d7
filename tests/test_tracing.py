"""Trace codec tests: the prebuilt encoders and the reader's fast path give
exactly what the plain ``json`` calls they replace give, and the reader's
columns hold exactly what walking the ``json.loads`` events finds.

Trace and ``.explain`` bytes are pinned elsewhere for the default run; here
random event-shaped dicts cover what that run never writes: non-ASCII and
lone-surrogate strings, ``-0.0``, ``1e16``, NaN and infinities, nested lists,
bools and ``None``.
"""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
import weakref
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roverbench import explorer, simulator
from roverbench.config import make_config
from roverbench.messages import PAYLOAD_FIELDS
from roverbench.monitor import build_engine
from roverbench.prop_dsl import parse_suite
from roverbench.tracing import (
    EVENT_FIELDS,
    MalformedTraceError,
    Trace,
    dump_event,
    read_trace,
)

# -- strategies --------------------------------------------------------------

texts = st.text(st.characters(exclude_categories=()), max_size=12)
scalars = (st.none() | st.booleans() | st.integers() | texts
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 1e16, 1e-7, 2.5e300]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12)
# Bodies of events: "t" and "kind" come first, as every emitter builds them.
bodies = st.dictionaries(texts.filter(lambda k: k not in ("t", "kind")), values, max_size=5)
kinds = st.sampled_from(["header", "deliver", "goal", "verdict", "grüß", "漢"])
# Bodies whose keys are partly the fields the reader files into columns,
# with a payload that is an object keyed partly by payload fields, or not an
# object at all, so every kind of value lands in a column.
column_keys = st.sampled_from(sorted(EVENT_FIELDS - {"t", "kind", "payload"})) | texts.filter(
    lambda k: k not in EVENT_FIELDS)
payloads = (st.dictionaries(st.sampled_from(sorted(PAYLOAD_FIELDS)), values, min_size=1, max_size=4)
            | st.dictionaries(texts, values, max_size=2) | values)
column_bodies = st.builds(lambda body, payload: {**body, **payload},
                          st.dictionaries(column_keys, values, max_size=5),
                          st.dictionaries(st.just("payload"), payloads, max_size=1))


def event(t: int, kind: str, body: dict) -> dict:
    return {"t": t, "kind": kind, **body}


def same_value(a, b) -> bool:
    """Equality with NaN equal to itself and ``-0.0`` apart from ``0.0``."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    return a == b


# -- encoders ----------------------------------------------------------------


class TestEncoders:
    """Each prebuilt encoder writes the bytes of the ``json.dumps`` call it
    stands for."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**6), kinds, bodies)
    @example(0, "header", {"x": -0.0, "y": 1e16, "z": math.nan, "w": [math.inf, -math.inf]})
    @example(3, "goal", {"é": ["\ud800", None, True, False, [[]], {}]})
    def test_same_text_as_json_dumps(self, t, kind, body):
        obj = event(t, kind, body)
        compact = json.dumps(obj, separators=(",", ":"))
        assert dump_event(obj) == compact
        assert simulator._EXPLAIN_LINE(obj) == compact
        assert simulator._ENTRY_ORDER(obj) == json.dumps(obj, sort_keys=True)
        assert explorer._sorted_text(obj) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"))

    def test_failed_encode_keeps_nothing(self):
        """An encode that raises midway leaves its containers in the circular
        reference markers; they are dropped, not kept alive, and later events
        encode as before."""

        class Opaque:
            pass

        bad = Opaque()
        alive = weakref.ref(bad)
        with pytest.raises(TypeError):
            dump_event({"t": 0, "kind": "x", "bad": [bad]})
        del bad
        gc.collect()
        assert alive() is None
        assert dump_event({"t": 0, "kind": "x", "ok": [[1], {"a": []}]}) == \
            '{"t":0,"kind":"x","ok":[[1],{"a":[]}]}'
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            dump_event({"t": 0, "kind": "x", "loop": loop})


# -- reader ------------------------------------------------------------------


def malformed(event, last_t: float) -> str | None:
    """Why ``event`` cannot follow an event at tick ``last_t``, or None: the
    reader's rules, one event at a time."""
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


def reference_read(path: str) -> list[dict]:
    """The reader as it was before the prebuilt decoder and the columns:
    ``json.loads`` on every stripped line, into a list of events."""
    events = []
    last_t = float("-inf")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedTraceError(lineno, f"bad JSON ({exc.msg})") from exc
            reason = malformed(obj, last_t)
            if reason is not None:
                raise MalformedTraceError(lineno, reason)
            last_t = obj["t"]
            events.append(obj)
    return events


def outcome(read, path: str):
    try:
        return "ok", read(path)
    except MalformedTraceError as exc:
        return "error", (exc.lineno, str(exc))


# Every field path a property can compare.
ADDRESSABLE = ([(name,) for name in sorted(EVENT_FIELDS - {"payload"})]
               + [("payload", name) for name in sorted(PAYLOAD_FIELDS)])


MISSING = object()


def resolve(event: dict, parts: tuple):
    value = event
    for part in parts:
        if not (isinstance(value, dict) and part in value):
            return MISSING
        value = value[part]
    return value


def assert_columns_match(trace: Trace, events: list[dict]) -> None:
    """``trace`` holds what walking ``events`` finds: their count and, of
    the model events, the runs of one ``t``, the positions of each key, the
    belief base after each belief event, and every addressable path's
    positions and values, the same by ``same_value``."""
    model = [e for e in events if e["kind"] != "verdict"]
    assert len(trace) == len(events)
    assert trace.size == len(model)
    runs = [(e["t"], i) for i, e in enumerate(model) if i == 0 or e["t"] != model[i - 1]["t"]]
    assert (trace.tick_times, trace.tick_starts) == ([t for t, _ in runs], [i for _, i in runs])
    keys: dict = {}
    for i, e in enumerate(model):
        keys.setdefault(e["kind"], []).append(i)
        if e["kind"] == "publish":
            keys.setdefault(("publish", e["topic"]), []).append(i)
    assert {key: list(at) for key, at in trace.keys.items()} == keys
    beliefs: set = set()
    states = []
    for e in model:
        if e["kind"] == "belief":
            (beliefs.add if e["op"] == "add" else beliefs.discard)(e["atom"])
            states.append(frozenset(beliefs))
    assert trace.states == states
    for parts in ADDRESSABLE:
        found = [(i, v) for i, e in enumerate(model)
                 if (v := resolve(e, parts)) is not MISSING]
        positions, values = trace.column(parts)
        assert list(positions) == [i for i, _ in found], parts
        assert same_value(list(values), [v for _, v in found]), parts


HEADER = '{"t": 0, "kind": "header", "format": 1}\n'

# What the reader before the prebuilt decoder said about one line after a
# header: (line, error message, or None for a line it accepted).
RECORDED = [
    ("{oops", "line 2: bad JSON (Expecting property name enclosed in double quotes)"),
    ('{"t": 1, "kind": "x"} trailing', "line 2: bad JSON (Extra data)"),
    ('{"t": 1, "kind": "x"}{"t":2}', "line 2: bad JSON (Extra data)"),
    ('{"t": 1, "kind": "x"} 5', "line 2: bad JSON (Extra data)"),
    ('{"t": 1, "kind": "x"}  ]', "line 2: bad JSON (Extra data)"),
    ("[1, 2", "line 2: bad JSON (Expecting ',' delimiter)"),
    ('{"t": 1, "kind": "x",}', "line 2: bad JSON (Expecting property name enclosed in double quotes)"),
    ('{"t": 1, "kind": "x"', "line 2: bad JSON (Expecting ',' delimiter)"),
    ('{"t":1,"kind":"x","a":-}', "line 2: bad JSON (Expecting value)"),
    ('{"t": 1, "kind": "\\x"}', "line 2: bad JSON (Invalid \\escape)"),
    ("nul", "line 2: bad JSON (Expecting value)"),
    ("\x00", "line 2: bad JSON (Expecting value)"),
    ('"str"', "line 2: event must be an object with a string 'kind'"),
    ("123", "line 2: event must be an object with a string 'kind'"),
    ("NaN", "line 2: event must be an object with a string 'kind'"),
    ('{"t": 1, "kind": NaN}', "line 2: event must be an object with a string 'kind'"),
    ('{"t": 1e3, "kind": "x"}', "line 2: event must have an integer 't'"),
    ('  {"t": 1, "kind": "x"}  ', None),
    ('\t{"t": 1, "kind": "x"}\r', None),
    ('{"t": 1, "kind": "x"}\x0b', None),
    ('{"t": 1, "kind": "\\ud800"}', None),
    ("   ", None),
]


# Whitespace that ``str.strip`` removes from a line: JSON whitespace and more.
PADS = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003", "\u2028"]


class TestReader:
    """``read_trace`` parses a line with one prebuilt scan and hands any
    line that scan does not take whole to ``json.loads``: the columns and
    every error are those of ``json.loads`` on every line."""

    @pytest.mark.parametrize("line,message", RECORDED)
    def test_recorded_outcomes(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        path.write_text(HEADER + line + "\n", encoding="utf-8")
        if message is None:
            assert_columns_match(read_trace(str(path)), reference_read(str(path)))
        else:
            with pytest.raises(MalformedTraceError) as info:
                read_trace(str(path))
            assert (info.value.lineno, str(info.value)) == (2, message)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(kinds, column_bodies), max_size=4),
           st.lists(st.sampled_from(PADS), min_size=2, max_size=2),
           st.sampled_from(["", "", "x", " 1", "}", "{", ",", "]", '{"t":9}']),
           st.integers(0, 60))
    @example([("deliver", {"seq": -0.0})], ["", ""], "", 60)
    @example([("goal", {"payload": {"speeds": [1, 2]}})], [" ", "\t"], " 1", 60)
    @example([("goal", {"status": math.nan, "seq": 10**20, "payload": {
                  "wind": math.nan, "x": math.inf, "y": -10**20, "cmd": "\ud800"}}),
              ("deliver", {"node": "\ud800", "payload": {"speeds": {"a": [-0.0, None]},
                                                         "ready": True}})],
             ["", ""], "", 60)
    def test_same_events_and_errors_as_json_loads(self, tmp_path_factory, events,
                                                  pads, tail, cut):
        """Lines are valid events, then one line that may be padded, cut short
        or followed by trailing data."""
        lines = [dump_event(event(i, kind, body)) for i, (kind, body) in enumerate(events)]
        last = dump_event(event(len(events), "verdict", {"v": [None, 1.5]}))
        lines.append(pads[0] + last[:cut] + tail + pads[1])
        path = tmp_path_factory.mktemp("codec") / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, want = outcome(read_trace, str(path)), outcome(reference_read, str(path))
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert_columns_match(got[1], want[1])


class TestMemory:
    def test_columns_retain_at_most_400_bytes_per_event(self, tmp_path):
        """The columns of a 300-tick default run's trace, monitored by the
        packaged suite, hold at most 400 B per event read; the event dicts
        the reader once returned held about 1.2 KB."""
        data = files("roverbench") / "data"
        engine = build_engine(parse_suite((data / "default.props").read_text(encoding="utf-8")),
                              json.loads((data / "monitors.json").read_text())["monitors"])
        path = tmp_path / "t.jsonl"
        simulator.run_simulation(make_config(), 300, str(path), engine)
        gc.collect()
        tracemalloc.start()
        try:
            trace = read_trace(str(path))
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == len(path.read_text(encoding="utf-8").splitlines()) > 4000
        assert retained / len(trace) <= 400, f"{retained / len(trace):.0f} B per event"
