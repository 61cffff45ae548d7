"""Trace codec tests: the prebuilt encoders and the reader's fast path give
exactly what the plain ``json`` calls they replace give.

Trace and ``.explain`` bytes are pinned elsewhere for the default run; here
random event-shaped dicts cover what that run never writes: non-ASCII and
lone-surrogate strings, ``-0.0``, ``1e16``, NaN and infinities, nested lists,
bools and ``None``.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roverbench import explorer, simulator
from roverbench.tracing import MalformedTraceError, _malformed, dump_event, read_trace

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


def reference_read(path: str) -> list[dict]:
    """The reader as it was before the prebuilt decoder: ``json.loads`` on
    every stripped line."""
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
            reason = _malformed(obj, last_t)
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
    line that scan does not take whole to ``json.loads``: the events and
    every error are those of ``json.loads`` on every line."""

    @pytest.mark.parametrize("line,message", RECORDED)
    def test_recorded_outcomes(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        path.write_text(HEADER + line + "\n", encoding="utf-8")
        if message is None:
            assert read_trace(str(path))[0]["kind"] == "header"
        else:
            with pytest.raises(MalformedTraceError) as info:
                read_trace(str(path))
            assert (info.value.lineno, str(info.value)) == (2, message)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(kinds, bodies), max_size=4),
           st.lists(st.sampled_from(PADS), min_size=2, max_size=2),
           st.sampled_from(["", "", "x", " 1", "}", "{", ",", "]", '{"t":9}']),
           st.integers(0, 60))
    @example([("deliver", {"n": -0.0})], ["", ""], "", 60)
    @example([("goal", {"a": [1, 2]})], [" ", "\t"], " 1", 60)
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
            assert same_value(got[1], want[1])
