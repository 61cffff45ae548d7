"""Trace codec tests: the prebuilt encoder and the reader's fast path give
exactly what the plain ``json`` calls they replace give, and the reader's
columns hold exactly what walking the ``json.loads`` events finds.

Trace and ``.explain`` bytes are pinned elsewhere for the default run; here
random event-shaped dicts cover what that run never writes: non-ASCII and
lone-surrogate strings, ``-0.0``, ``1e16``, NaN and infinities, nested lists,
bools and ``None``.
"""

from __future__ import annotations

import collections
import copy
import gc
import io
import json
import math
import re
import tracemalloc
import weakref
from importlib.resources import files
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roverbench import simulator, tracing
from roverbench.bus import InboxOverflowError, MessageBus
from roverbench.config import DEFAULT_SCENARIO, ScenarioConfig, make_config, validate_config
from roverbench.messages import PAYLOAD_FIELDS, Message, Topology
from roverbench.monitor import MonitorEngine, build_engine, check_trace
from roverbench.prop_dsl import VIOLATED, parse_suite
from roverbench.tracing import (
    EVENT_FIELDS,
    EventTracer,
    MalformedTraceError,
    Trace,
    dump_event,
    next_beliefs,
    read_trace,
)

from mutants import mutant_demo_config, mutant_names

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
    """The prebuilt encoder, which writes every trace and ``.explain`` line,
    writes the bytes of the ``json.dumps`` call it stands for."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**6), kinds, bodies)
    @example(0, "header", {"x": -0.0, "y": 1e16, "z": math.nan, "w": [math.inf, -math.inf]})
    @example(3, "goal", {"é": ["\ud800", None, True, False, [[]], {}]})
    def test_same_text_as_json_dumps(self, t, kind, body):
        obj = event(t, kind, body)
        compact = json.dumps(obj, separators=(",", ":"))
        assert dump_event(obj) == compact

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


    def test_untraced_run_keeps_no_event(self):
        """Regression guard: a monitored 2000-tick default run with no trace
        file peaks at 1 MB of traced allocation.  A tracer that kept every
        event took about 11.5 MB."""
        engine = packaged_engine()
        gc.collect()
        tracemalloc.start()
        try:
            simulator.run_simulation(make_config(), 2000, None, engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"{peak / 1024:.0f} KB"


class TestNextBeliefs:
    def test_add_and_del_of_one_atom(self):
        """The one add/del rule: a del drops exactly its atom, a del of an
        absent atom changes nothing, and a re-add brings the atom back."""
        steps = [
            ("add", "at(A)", {"at(A)"}),
            ("add", "env(B,Radiation)", {"at(A)", "env(B,Radiation)"}),
            ("del", "at(A)", {"env(B,Radiation)"}),
            ("del", "at(A)", {"env(B,Radiation)"}),
            ("add", "at(A)", {"at(A)", "env(B,Radiation)"}),
            ("del", "env(B,Radiation)", {"at(A)"}),
        ]
        beliefs = frozenset()
        for op, atom, want in steps:
            beliefs = next_beliefs(beliefs, op, atom)
            assert beliefs == want and isinstance(beliefs, frozenset), (op, atom)


# -- the streaming writer -----------------------------------------------------

DATA = files("roverbench") / "data"
PACKAGED_PROPS = (DATA / "default.props").read_text(encoding="utf-8")
PACKAGED_ROWS = json.loads((DATA / "monitors.json").read_text())["monitors"]


def compact(event: dict) -> str:
    return json.dumps(event, separators=(",", ":"))


def packaged_engine(extra_props: str = "", extra_rows: tuple = ()):
    return build_engine(parse_suite(PACKAGED_PROPS + extra_props), PACKAGED_ROWS + list(extra_rows))


def recording(monkeypatch, batch: int = EventTracer.BATCH) -> list[tuple[dict, str]]:
    """Make ``run_simulation`` stream through a tracer whose first observer
    records each event as emitted, with its ``json.dumps(event,
    separators=(",", ":"))``: the line the per-line writer wrote.  Returns
    the list of ``(event, line)`` pairs it fills."""
    seen: list[tuple[dict, str]] = []

    class Recording(EventTracer):
        BATCH = batch

        def __init__(self, sink=None):
            super().__init__(sink)
            self.add_observer(lambda event: seen.append((event, compact(event))))

    monkeypatch.setattr(simulator, "EventTracer", Recording)
    return seen


def batched(monkeypatch, batch: int) -> None:
    """Make ``run_simulation`` stream in batches of ``batch`` lines, with
    no observer of its own."""

    class Batched(EventTracer):
        BATCH = batch

    monkeypatch.setattr(simulator, "EventTracer", Batched)


def written(path) -> str:
    return path.read_text(encoding="utf-8")


def lines_of(seen) -> str:
    return "".join(line + "\n" for _, line in seen)


def renamed_map() -> ScenarioConfig:
    """The default scenario with waypoint names that JSON escapes."""
    names = {"o": "départ", "A": "Ålesund", "B": 'β"1\\', "C": "日本"}
    raw = copy.deepcopy(DEFAULT_SCENARIO)
    raw["start"] = names[raw["start"]]
    raw["patrol"] = [names[wp] for wp in raw["patrol"]]
    for fld in ("waypoints", "wind", "radiation", "wind_choices", "radiation_choices"):
        raw[fld] = {names[wp]: value for wp, value in raw[fld].items()}
    validate_config(raw)
    return ScenarioConfig(raw)


def blocked_mutant():
    """The misroute-bus mutant with a block-mode monitor that vetoes every
    arm goal, beside the packaged monitors."""
    engine = packaged_engine('prop no_arm_goal: never(topic("/arm/goal"))\n',
                             [{"prop": "no_arm_goal", "mode": "block"}])
    return mutant_demo_config("misroute-bus"), engine


RUNS = {
    "default": lambda: (make_config(), packaged_engine()),
    **{name: (lambda name=name: (mutant_demo_config(name), packaged_engine()))
       for name in mutant_names()},
    "faults": lambda: (make_config({
        "scripted_faults": [{"effector": "arm", "goal_index": 1},
                            {"effector": "wheels", "goal_index": 3}],
        "env_faults": [{"tick": 10, "wp": "o", "wind": -1},
                       {"tick": 40, "wp": "C", "radiation": 30}]}), packaged_engine()),
    "block-mode": blocked_mutant,
    "schedule": lambda: (make_config({"schedule_sensitivity": True}), packaged_engine()),
    "non-ascii": lambda: (renamed_map(), packaged_engine()),
}


class TestStreamingWriter:
    """The streaming tracer encodes each payload once and writes lines in
    batches, yet every line is the compact ``json.dumps`` of the event its
    observers received, in emit order."""

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_each_line_is_the_json_of_its_event(self, monkeypatch, tmp_path, name):
        config, engine = RUNS[name]()
        path = tmp_path / "t.jsonl"
        seen = recording(monkeypatch)
        summary = simulator.run_simulation(config, 300, str(path), engine)
        assert written(path) == lines_of(seen)
        kinds = collections.Counter(event["kind"] for event, _ in seen)
        assert kinds["deliver"] > 1000 and kinds["verdict"] > 0
        assert (kinds["block"] > 0) == (name == "block-mode") == (summary["messages_blocked"] > 0)
        assert summary["stats"]["trace_bytes"] == path.stat().st_size

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(texts, texts, st.lists(texts, min_size=1, max_size=3),
                              st.dictionaries(texts, values, max_size=4)),
                    min_size=1, max_size=6))
    def test_message_lines_of_any_route(self, messages):
        """Publish and deliver lines built from fragments match ``json.dumps``
        for any topic, sender and node strings and any payload."""
        sink = io.StringIO()
        tracer = EventTracer(sink=sink)
        want = []
        for seq, (topic, sender, nodes, payload) in enumerate(messages):
            for event in ([{"t": seq // 2, "kind": "publish", "seq": seq, "topic": topic,
                            "sender": sender, "payload": payload}]
                          + [{"t": seq // 2 + 1, "kind": "deliver", "seq": seq, "topic": topic,
                              "sender": sender, "node": node, "payload": payload}
                             for node in nodes]):
                want.append(compact(event))
                tracer.emit(event)
        tracer.flush()
        assert sink.getvalue() == "".join(line + "\n" for line in want)

    def test_deliver_of_another_payload_is_encoded(self):
        """A deliver event whose payload is not the object its publish
        carried is encoded from the event, not from the kept text."""
        sink = io.StringIO()
        tracer = EventTracer(sink=sink)
        head = {"seq": 0, "topic": "/pose", "sender": "wheelsServer"}
        tracer.emit({"t": 0, "kind": "publish", **head, "payload": {"x": 1, "y": 0}})
        tracer.emit({"t": 1, "kind": "deliver", **head, "node": "world",
                     "payload": {"x": 2, "y": 0}})
        tracer.flush()
        assert json.loads(sink.getvalue().splitlines()[1])["payload"] == {"x": 2, "y": 0}

    def test_lines_wait_for_a_full_batch_or_a_flush(self):
        sink = io.StringIO()
        tracer = EventTracer(sink=sink)
        for t in range(EventTracer.BATCH - 1):
            tracer.emit({"t": t, "kind": "header"})
        assert sink.getvalue() == ""
        tracer.emit({"t": EventTracer.BATCH, "kind": "header"})
        assert len(sink.getvalue().splitlines()) == EventTracer.BATCH
        tracer.emit({"t": 0, "kind": "header"})
        tracer.flush()
        tracer.flush()
        assert len(sink.getvalue().splitlines()) == EventTracer.BATCH + 1

    @pytest.mark.parametrize("batch", [EventTracer.BATCH, 7])
    def test_failed_run_leaves_every_line_emitted(self, monkeypatch, tmp_path, batch):
        """A run that stops with an inbox overflow leaves exactly the lines
        the per-line writer left: those of the full batches and the rest."""
        path = tmp_path / "t.jsonl"
        seen = recording(monkeypatch, batch)
        with pytest.raises(InboxOverflowError):
            simulator.run_simulation(make_config({"inbox_limit": 1}), 5, str(path),
                                     packaged_engine())
        assert len(seen) > 7
        assert written(path) == lines_of(seen)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_same_trace_with_or_without_a_deliver_reader(self, monkeypatch, tmp_path, name):
        """With no reader of deliver events the tracer writes their lines
        from the kept payload texts; a catch-all observer makes it build
        each event instead.  The bytes and the run's summary are the same."""
        runs = []
        for reader in (False, True):
            config, engine = RUNS[name]()
            path = tmp_path / f"{reader}.jsonl"
            if reader:
                seen = recording(monkeypatch)
            summary = simulator.run_simulation(config, 300, str(path), engine)
            summary["stats"] = {k: summary["stats"][k] for k in ("topics", "monitor_events")}
            summary.pop("trace"), summary.pop("explanations")
            runs.append((written(path), summary))
        assert runs[0] == runs[1]
        assert any(event["kind"] == "deliver" for event, _ in seen)

    @pytest.mark.parametrize("batch", [EventTracer.BATCH, 7])
    def test_failed_run_keeps_the_deliveries_before_the_overflow(self, monkeypatch, tmp_path,
                                                                 batch):
        """An inbox overflow in the middle of a tick's deliveries leaves
        the lines of the deliveries before it, with or without a reader."""
        texts = []
        for reader in (False, True):
            path = tmp_path / f"{reader}.jsonl"
            if reader:
                recording(monkeypatch, batch)
            else:
                batched(monkeypatch, batch)
            with pytest.raises(InboxOverflowError):
                simulator.run_simulation(make_config({"inbox_limit": 1}), 5, str(path),
                                         packaged_engine())
            texts.append(written(path))
        assert texts[0] == texts[1]
        assert json.loads(texts[0].splitlines()[-1])["kind"] == "deliver"

    def test_no_deliver_event_is_built_without_a_reader(self, monkeypatch, tmp_path):
        """Regression guard: in a monitored, traced 300-tick default run no
        deliver event reaches ``emit`` or an observer, and the engine
        observes each other event once."""
        emitted, handed = collections.Counter(), collections.Counter()
        observed = []
        emit, add_observer = EventTracer.emit, EventTracer.add_observer
        observe = MonitorEngine.observe

        def counting_emit(tracer, event):
            emitted[event["kind"]] += 1
            return emit(tracer, event)

        def counting_add_observer(tracer, fn, *args, **kwargs):
            def counting(event):
                handed[event["kind"]] += 1
                fn(event)
            add_observer(tracer, counting, *args, **kwargs)

        monkeypatch.setattr(EventTracer, "emit", counting_emit)
        monkeypatch.setattr(EventTracer, "add_observer", counting_add_observer)
        monkeypatch.setattr(MonitorEngine, "observe",
                            lambda engine, event: observed.append(event) or observe(engine, event))
        path = tmp_path / "t.jsonl"
        summary = simulator.run_simulation(make_config(), 300, str(path), packaged_engine())
        kinds = collections.Counter(json.loads(line)["kind"] for line in written(path).splitlines())
        assert kinds["deliver"] > 1000
        assert kinds["deliver"] == sum(c["delivered"] for c in summary["stats"]["topics"].values())
        assert emitted["deliver"] == handed["deliver"] == 0
        assert len(observed) == sum(kinds.values()) - kinds["deliver"]

    def test_payload_encoded_once_per_publish(self, monkeypatch, tmp_path):
        """Regression guard: in a 300-tick default run each published
        payload is encoded once, by its publish, and by none of its
        deliveries."""
        encodes = collections.Counter()
        encode = tracing.dump_event

        def counting(obj):
            encodes[id(obj)] += 1
            if isinstance(obj, dict) and isinstance(obj.get("payload"), dict):
                encodes[id(obj["payload"])] += 1
            return encode(obj)

        monkeypatch.setattr(tracing, "dump_event", counting)
        seen = recording(monkeypatch)  # keeps every payload alive, so each id stays its own
        simulator.run_simulation(make_config(), 300, str(tmp_path / "t.jsonl"), packaged_engine())
        events = [event for event, _ in seen]
        published = collections.Counter(id(e["payload"]) for e in events if e["kind"] == "publish")
        delivered = [e for e in events if e["kind"] == "deliver"]
        assert len(published) > 1000 and len(delivered) > 1000
        assert {key: encodes[key] for key in published} == published
        assert all(id(e["payload"]) in published for e in delivered)

    def test_reader_verdict_follows_its_delivery(self, tmp_path):
        """A verdict that a reader of deliveries emits lands right after
        the line of the delivery it read, not after the tick's last
        delivery: in a traced 40-tick default run the first delivery, of
        ``/env/sample`` seq 0, is line 9 and its violation line 10."""
        engine = packaged_engine('prop p: never(kind == "deliver" && topic == "/env/sample")\n',
                                 [{"prop": "p"}])
        path = tmp_path / "t.jsonl"
        simulator.run_simulation(make_config(), 40, str(path), engine)
        events = [json.loads(line) for line in written(path).splitlines()]
        kinds = [event["kind"] for event in events]
        first = kinds.index("deliver")
        assert (first + 1, events[first]["topic"], events[first]["seq"]) == (9, "/env/sample", 0)
        assert events[first + 1] == {"t": 1, "kind": "verdict", "prop": "p",
                                     "outcome": "violation", "verdict": VIOLATED, "mode": "log",
                                     "reason": "event at t=1 violates p"}
        assert kinds[first + 2:first + 5] == ["deliver"] * 3
        assert kinds.count("verdict") == 1 + len(engine.monitors)  # one violation, the finals

    def test_no_payload_text_kept_past_its_deliveries(self, monkeypatch, tmp_path):
        """A streaming tracer keeps a payload's text from its publish until
        the next ``deliver`` call, which hands over every pending message,
        and keeps none after a run."""
        tracer = EventTracer(sink=io.StringIO())
        payload = {"x": 1, "y": 0}
        tracer.emit({"t": 0, "kind": "publish", "seq": 0, "topic": "/pose",
                     "sender": "wheelsServer", "payload": payload})
        assert tracer._texts
        tracer.deliver(1, [("world", Message(0, "wheelsServer", "/pose", payload))])
        assert tracer._texts == {}
        tracers = []

        class Kept(EventTracer):
            def __init__(self, sink=None):
                super().__init__(sink)
                tracers.append(self)

        monkeypatch.setattr(simulator, "EventTracer", Kept)
        simulator.run_simulation(make_config(), 50, str(tmp_path / "t.jsonl"), packaged_engine())
        assert tracers[0]._texts == {}

    def test_emitted_deliver_moves_the_clocks(self):
        """A deliver event handed to ``emit`` moves the clock of an engine
        that reads no delivery, as a tick's deliveries do: a window that
        only the delivery's time shows missed is violated online, as
        ``check`` finds."""
        suite = parse_suite('prop p: always(topic("/a") => eventually[<=1](topic("/b")))\n')
        stream = [{"t": 0, "kind": "publish", "topic": "/a", "payload": {}},
                  {"t": 5, "kind": "deliver", "topic": "/b"}]
        tracer = EventTracer()
        engine = build_engine(suite, [{"prop": "p"}])
        engine.attach(tracer, MessageBus(Topology(), tracer))
        assert not engine.index.reaches("deliver")
        for event in stream:
            tracer.emit(event)
        engine.on_tick(5)
        assert engine.finalize() == check_trace(suite, stream) == {"p": VIOLATED}


# -- the reader's plan cache ---------------------------------------------------

# Events as the tracer writes them, whose rests (the line after ``t``,
# ``kind`` and ``seq``) a trace repeats: messages with a seq, and events
# with none.  The action's rest is a valid belief's too, and nested objects
# hold ``t``, ``kind`` and ``seq`` keys of their own.
POOL = [
    {"kind": "publish", "seq": 0, "topic": "/env/sample", "sender": "world",
     "payload": {"wp": "A", "wind": 7, "radiation": 0.5, "env": "Windy"}},
    {"kind": "deliver", "seq": 0, "topic": "/wheels/goal", "sender": "wheelsClient",
     "node": "wheelsServer", "payload": {"goal_id": "wheelsClient:0", "kind": "waypoint",
                                         "wp": "A", "seq": [1e16, -0.0]}},
    {"kind": "belief", "op": "add", "atom": "at(A)"},
    {"kind": "belief", "op": "del", "atom": "at(A)"},
    {"kind": "action", "action": "move_to(B)", "op": "add", "atom": "at(B)"},
    {"kind": "goal", "phase": "accept", "server": "armServer", "goal_id": "armClient:0",
     "status": "Active"},
    {"kind": "verdict", "prop": "p", "outcome": "final", "verdict": "Satisfied"},
    {"kind": "header", "format": 1, "config": {"t": 0, "kind": "x", "seq": None}},
]

# One line of a trace, changed, at a ``t`` that may be below the last
# line's: each rule a plan must keep, broken on a line whose rest may be
# cached, or a line the cache must not take.  ``earlier`` is a line before.
MUTATIONS = {
    "none": lambda line, earlier, t: line,
    "cut": lambda line, earlier, t: line[:-1],
    "trailing comma": lambda line, earlier, t: line[:-1] + ",}",
    "bad value": lambda line, earlier, t: line[:-1] + ',"x":-}',
    "no topic": lambda line, earlier, t: dump_event(
        {"t": t, "kind": "publish", "seq": 1, "sender": "world", "payload": {}}),
    "no op": lambda line, earlier, t: dump_event({"t": t, "kind": "belief", "atom": "at(A)"}),
    "no atom": lambda line, earlier, t: dump_event({"t": t, "kind": "belief", "op": "add"}),
    "no action": lambda line, earlier, t: dump_event(
        {"t": t, "kind": "action", "op": "add", "atom": "at(B)"}),
    # The rest of a line read before, so its plan may be cached.
    "earlier line": lambda line, earlier, t: dump_event({**json.loads(earlier), "t": t}),
    "t again": lambda line, earlier, t: line[:-1] + f',"t":{t}}}',
    "kind again": lambda line, earlier, t: line[:-1] + ',"kind":"belief"}',
    "verdict again": lambda line, earlier, t: line[:-1] + ',"kind":"verdict"}',
    "seq again": lambda line, earlier, t: line[:-1] + ',"seq":"s"}',
    "no comma after kind": lambda line, earlier, t: re.sub(
        r'^(\{"t":[0-9]+,"kind":"[a-z]+"),', r"\1", line),
    "no comma after head": lambda line, earlier, t: re.sub(
        r'^(\{"t":[0-9]+,"kind":"[a-z]+"(?:,"seq":[0-9]+)?),', r"\1", line),
    "other kind": lambda line, earlier, t: line.replace(
        '"kind":"belief"', '"kind":"action"', 1) if '"kind":"belief"' in line
    else line.replace(json.dumps(json.loads(line)["kind"]), '"belief"', 1),
}


def pooled_line(t: int, pick: int, seq: int) -> str:
    kind, *rest = POOL[pick].items()
    head = {"t": t, "kind": kind[1]}
    if rest and rest[0][0] == "seq":
        head["seq"] = seq
        rest = rest[1:]
    return dump_event({**head, **dict(rest)})


class TestPlanCache:
    """A line whose rest repeats an earlier line's is filed by the plan
    made for that line: the columns and every ``(line number, message)``
    are those of ``json.loads`` on every line, with the cache full at any
    size."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, 2),
                              st.integers(0, 10**18)), min_size=1, max_size=40),
           st.sampled_from(sorted(MUTATIONS)), st.integers(0, 39), st.integers(0, 39),
           st.integers(-1, 1), st.sampled_from([1, 2, 3, tracing.MAX_PLANS]))
    @example([(2, 1, 5), (2, 1, 0), (2, 0, 0)], "earlier line", 2, 0, -1, tracing.MAX_PLANS)
    @example([(0, 1, 5), (0, 0, 6)], "no topic", 1, 0, -1, tracing.MAX_PLANS)
    @example([(0, 1, 5), (0, 0, 6), (0, 1, 7)], "t again", 2, 0, -1, tracing.MAX_PLANS)
    @example([(4, 1, 0), (4, 0, 0), (2, 0, 0)], "other kind", 1, 0, 0, tracing.MAX_PLANS)
    @example([(2, 1, 0), (2, 0, 0), (4, 0, 0)], "other kind", 1, 0, 0, tracing.MAX_PLANS)
    @example([(4, 1, 0), (2, 0, 0)], "other kind", 0, 0, 0, tracing.MAX_PLANS)
    @example([(6, 1, 0), (6, 0, 0)], "verdict again", 0, 0, 0, tracing.MAX_PLANS)
    @example([(1, 1, 0), (1, 0, 1)], "seq again", 1, 0, 0, tracing.MAX_PLANS)
    @example([(0, 1, 10**18), (0, 0, 0), (5, 0, 0), (0, 0, 0)], "none", 0, 0, 0, 1)
    @example([(2, 1, 0), (2, 0, 0)], "no comma after kind", 1, 0, 0, tracing.MAX_PLANS)
    @example([(0, 1, 5), (0, 0, 6)], "no comma after head", 1, 0, 0, tracing.MAX_PLANS)
    def test_same_columns_and_errors_as_json_loads(self, tmp_path_factory, picks, mutation,
                                                   at, before, shift, cap):
        """Lines drawn from a few events, the one at ``at`` changed by
        ``mutation`` at the last line's ``t`` plus ``shift``, with at most
        ``cap`` plans kept at once."""
        lines, t = [], 1
        for pick, advance, seq in picks:
            t += advance
            lines.append(pooled_line(t, pick, seq))
        at %= len(lines)
        last_t = json.loads(lines[at - 1])["t"] if at else 1
        lines[at] = MUTATIONS[mutation](lines[at], lines[before % (at + 1)], last_t + shift)
        path = tmp_path_factory.mktemp("plans") / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(tracing, "MAX_PLANS", cap):
            got = outcome(read_trace, str(path))
        want = outcome(reference_read, str(path))
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert_columns_match(got[1], want[1])
            assert got[1].parsed <= len(lines)

    @pytest.mark.parametrize("line", [
        '{"t":01,"kind":"x"}', '{"t":1234567890123456789,"kind":"x"}',
        '{"t":١,"kind":"x"}', '{"t":1,"kind":"x","seq":١}',
        '{"t":1,"kind":"x","seq":-1}', '{"t":1,"kind":"x","seq":1.5}',
        '{"t":1,"kind":"x","seq":01}', '{"t":1,"kind":"x","seq":2,}', '{"t":1,"kind":"x",}',
        '{"t":1,"kind":"x"}}', '{"t":1,"kind":"x" ,"a":1}', '{"t":1,"kind":"x", "a":1}',
        '{"t":1,"kind":"Belief","op":"add","atom":"a"}', '{"t":1,"kind":"\\u0078"}',
        '{"t":1,"kind":"x","seq":null}', '{"t":1,"kind":"x","seq":2,"seq":3}',
        '{"t":1,"kind":"x","\\u0074":0}', '{"t":1,"kind":"belief","kind":"x"}',
        '{"t":1,"kind":"x""a":1}', '{"t":1,"kind":"x","seq":2"a":1}',
        '{"t":1,"kind":"belief""op":"add","atom":"a"}', '{"t":1,"kind":"x","seq":2"seq":3}',
    ])
    def test_lines_beside_the_head(self, tmp_path, line):
        """Lines whose start is almost the tracer's head, each twice, read
        as ``json.loads`` reads them."""
        path = tmp_path / "t.jsonl"
        path.write_text(HEADER + line + "\n" + line + "\n", encoding="utf-8")
        got, want = outcome(read_trace, str(path)), outcome(reference_read, str(path))
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert_columns_match(got[1], want[1])

    def test_more_remainders_than_the_cap(self, tmp_path):
        """Two and a half times as many distinct rests as a read keeps
        plans, each line twice in a row: each line of a kept rest but the
        first is filed by its plan, and every line of the rests past the
        cap is decoded."""
        distinct = tracing.MAX_PLANS * 5 // 2
        lines = [dump_event({"t": i // 2, "kind": "belief", "op": "add", "atom": f"a{i // 2}"})
                 for i in range(2 * distinct)]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trace = read_trace(str(path))
        assert trace.parsed == tracing.MAX_PLANS + 2 * (distinct - tracing.MAX_PLANS)
        assert_columns_match(trace, reference_read(str(path)))

    @pytest.mark.parametrize("order,parsed", [("aabbcc", 4), ("abcabc", 4), ("abab", 2),
                                              ("cabcab", 4)])
    def test_full_cache_keeps_its_plans(self, tmp_path, order, parsed):
        """With two plans kept at most, the first two rests keep theirs and
        a third rest is decoded at each of its lines."""
        lines = [dump_event({"t": t, "kind": "belief", "op": "add", "atom": atom})
                 for t, atom in enumerate(order)]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(tracing, "MAX_PLANS", 2):
            assert read_trace(str(path)).parsed == parsed

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_read_and_built_from_events_alike(self, monkeypatch, tmp_path, name):
        """The columns ``read_trace`` makes of a run's trace are those a
        ``Trace`` makes of its event dicts, and the decoder sees each
        distinct line once."""
        config, engine = RUNS[name]()
        path = tmp_path / "t.jsonl"
        seen = recording(monkeypatch)
        simulator.run_simulation(config, 300, str(path), engine)
        events = [event for event, _ in seen]
        read, built = read_trace(str(path)), Trace(enumerate(events, start=1))
        assert_columns_match(read, events)
        assert_columns_match(built, events)
        assert built.parsed == 0 < read.parsed < len(events) // 2
