"""Tests for the property language: parser, hash-consed nodes, and trace semantics."""

from __future__ import annotations

import copy
import importlib.resources
import itertools
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_semantics import atom_holds, belief_states, evaluate_naive
from roverbench.bus import MessageBus
from roverbench.messages import PAYLOAD_FIELDS, Topology
from roverbench.monitor import build_engine, check_trace
from roverbench.prop_dsl import (
    ActionAtom,
    Always,
    And,
    BeliefAtom,
    Compare,
    Eventually,
    HoldsAtom,
    Implies,
    Never,
    NonPositiveBoundError,
    Not,
    Or,
    ParseError,
    Path,
    SATISFIED,
    TopicAtom,
    UNDETERMINED,
    Until,
    UnknownFieldError,
    VIOLATED,
    _TraceView,
    _predicate_source,
    compile_event_predicate,
    evaluate,
    parse_formula,
    parse_suite,
)
from roverbench.tracing import EVENT_FIELDS, EventTracer, Trace, dump_event, read_trace
from test_tracing import assert_columns_match


def packaged_suite() -> str:
    root = importlib.resources.files("roverbench")
    return (root / "data" / "default.props").read_text(encoding="utf-8")


# -- parsing -----------------------------------------------------------------


class TestParser:
    def test_atoms(self):
        assert parse_formula('topic("/pose")') == TopicAtom("/pose")
        ast = parse_formula('payload.status == "Aborted"')
        assert ast == Compare(Path(("payload", "status")), "==", "Aborted")

    def test_and_binds_tighter_than_or(self):
        ast = parse_formula('topic("/pose") && topic("/pose") || topic("/pose")')
        assert isinstance(ast, Or)
        assert isinstance(ast.left, And)

    def test_not_binds_tightest(self):
        ast = parse_formula('!topic("/pose") && topic("/pose")')
        assert isinstance(ast, And)
        assert isinstance(ast.left, Not)

    def test_implies_is_right_associative(self):
        ast = parse_formula('topic("/pose") => topic("/pose") => topic("/pose")')
        assert isinstance(ast, Implies)
        assert isinstance(ast.right, Implies)
        assert isinstance(ast.left, TopicAtom)

    def test_until_refuses_to_chain(self):
        with pytest.raises(ParseError, match="parenthesize"):
            parse_formula('topic("/pose") until topic("/pose") until topic("/pose")')

    def test_window_bound_parses(self):
        ast = parse_formula('eventually[<=16](belief("at(A)"))')
        assert isinstance(ast, Eventually)
        assert ast.bound == 16

    def test_unbounded_eventually_has_no_bound(self):
        assert parse_formula('eventually(belief("at(A)"))').bound is None

    def test_zero_bound_rejected(self):
        with pytest.raises(NonPositiveBoundError):
            parse_formula('eventually[<=0](topic("/pose"))')

    def test_negative_bound_rejected(self):
        with pytest.raises(NonPositiveBoundError):
            parse_formula('eventually[<=-3](topic("/pose"))')

    def test_unknown_event_field_rejected_at_parse_time(self):
        with pytest.raises(UnknownFieldError):
            parse_formula("bogus == 1")

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(UnknownFieldError):
            parse_formula("payload.bogus == 1")

    def test_direction_goal_fields_rejected(self):
        """No payload carries the fields of the removed direction goal."""
        for field in ("dir", "speed", "distance"):
            with pytest.raises(UnknownFieldError):
                parse_formula(f"payload.{field} > 0")

    def test_module_is_not_an_event_field(self):
        """Ready announcements carry the module in their payload; no event
        has a top-level ``module``."""
        with pytest.raises(UnknownFieldError):
            parse_formula('module == "arm"')
        parse_formula('payload.module == "arm"')

    def test_field_error_carries_position(self):
        with pytest.raises(UnknownFieldError) as exc_info:
            parse_formula('topic("/pose") && payload.bogus == 1')
        assert exc_info.value.line == 1
        assert exc_info.value.col > 1

    def test_newline_inside_a_string_counts_as_a_line(self):
        with pytest.raises(UnknownFieldError) as exc_info:
            parse_suite('prop a: topic("x\ny")\nprop b: bogus(')
        assert (exc_info.value.line, exc_info.value.col) == (3, 9)

    def test_non_payload_fields_have_no_subfields(self):
        with pytest.raises(UnknownFieldError):
            parse_formula("t.seconds == 1")

    def test_cross_field_comparison(self):
        ast = parse_formula("server != target")
        assert ast == Compare(Path(("server",)), "!=", Path(("target",)))

    def test_topic_and_action_are_comparison_paths(self):
        """Both are event fields as well as atoms: a call is the atom, and
        anything else the field."""
        assert parse_formula('topic == "/x"') == Compare(Path(("topic",)), "==", "/x")
        assert parse_formula('action != "open_arm"') == \
            Compare(Path(("action",)), "!=", "open_arm")
        assert parse_formula('topic("/x") && topic == "/x"') == \
            And(TopicAtom("/x"), Compare(Path(("topic",)), "==", "/x"))
        with pytest.raises(UnknownFieldError):
            parse_formula('belief == "at(A)"')

    def test_list_literal_value(self):
        ast = parse_formula("payload.speeds == [0,0,0,0,0,0]")
        assert ast.value == (0, 0, 0, 0, 0, 0)

    def test_comments_and_newlines_ignored(self):
        suite = parse_suite(
            "# header comment\n\n"
            'prop first: topic("/pose")  # trailing note\n'
            'prop second: never(topic("/pose"))\n'
        )
        assert list(suite) == ["first", "second"]
        assert isinstance(suite["second"], Never)

    def test_duplicate_property_name_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_suite('prop p: topic("/pose")\nprop p: topic("/pose")\n')

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_formula('topic("/pose") topic("/pose")')

    def test_unexpected_character_rejected(self):
        with pytest.raises(ParseError):
            parse_formula('topic("/pose") @ 1')


class TestHashConsing:
    """Equal formulas are one node, however they are built, copied or
    restored, and leaves of different types stay apart."""

    def test_shipped_properties_parse_to_one_node(self):
        """Each shipped property, parsed again with its suite or alone from
        its own text, is the same node."""
        suite = parse_suite(packaged_suite())
        sources = dict(re.findall(r"^prop (\w+):(.*)$", packaged_suite(), re.M))
        assert sources.keys() == suite.keys() and len(suite) == 19
        for name, ast in parse_suite(packaged_suite()).items():
            assert suite[name] is ast, name
            assert parse_formula(sources[name]) is ast, name

    def test_pickled_and_copied_node_is_the_filed_one(self):
        for name, ast in parse_suite(packaged_suite()).items():
            assert pickle.loads(pickle.dumps(ast)) is ast, name
            assert copy.deepcopy(ast) is ast, name
            assert copy.copy(ast) is ast, name

    @pytest.mark.parametrize("first, second", [
        ("payload.wind == 1", "payload.wind == 1.0"),
        ("payload.speeds == [0]", "payload.speeds == [0.0]"),
        ("payload.wind >= 0.0", "payload.wind >= -0.0"),
    ])
    def test_leaves_of_different_types_stay_apart(self, first, second):
        a, b = parse_formula(first), parse_formula(second)
        assert a is not b and a != b
        assert parse_formula(first) is a


# -- atomic predicates -------------------------------------------------------


def publish(t: int, topic: str, **payload) -> dict:
    return {"t": t, "kind": "publish", "topic": topic, "payload": payload}


def holds(atom, event: dict) -> bool:
    """``atom`` at ``event`` by the compiled predicate, which must agree with
    ``evaluate`` over the one-event trace."""
    online = compile_event_predicate(atom)(event, frozenset())
    assert evaluate(atom, [event]) == (SATISFIED if online else VIOLATED)
    return online


class TestAtoms:
    def test_topic_matches_publish_only(self):
        """Deliver copies and blocked publishes must not satisfy topic()."""
        atom = TopicAtom("/pose")
        assert holds(atom, publish(0, "/pose", x=0, y=0))
        for kind in ("deliver", "block"):
            event = {"t": 0, "kind": kind, "topic": "/pose", "payload": {}}
            assert not holds(atom, event)

    def test_belief_matches_additions_not_removals(self):
        ast = parse_formula('belief("at(A)")')
        add = {"t": 0, "kind": "belief", "op": "add", "atom": "at(A)"}
        remove = {"t": 0, "kind": "belief", "op": "del", "atom": "at(A)"}
        assert holds(ast, add)
        assert not holds(ast, remove)

    def test_holds_reads_reconstructed_state(self):
        trace = [
            {"t": 0, "kind": "belief", "op": "add", "atom": "at(A)"},
            {"t": 1, "kind": "publish", "topic": "/pose", "payload": {}},
            {"t": 2, "kind": "belief", "op": "del", "atom": "at(A)"},
        ]
        states = belief_states(trace)
        assert [("at(A)" in s) for s in states] == [True, True, False]
        column = _TraceView(Trace(enumerate(trace))).column(parse_formula('holds("at(A)")'))
        assert [v == 2 for v in column] == [True, True, False]

    def test_action_wildcards(self):
        event = {"t": 0, "kind": "action", "action": "move_to_waypoint(B)"}
        assert holds(parse_formula('action("*")'), event)
        assert holds(parse_formula('action("move_to_waypoint(*)")'), event)
        assert holds(parse_formula('action("move_to_waypoint(B)")'), event)
        assert not holds(parse_formula('action("control_arm(*)")'), event)

    def test_missing_field_compares_false(self):
        ast = parse_formula("payload.wind >= 0")
        assert not holds(ast, publish(0, "/pose", x=1, y=2))

    def test_numeric_comparisons(self):
        ast = parse_formula("payload.wind >= 5")
        assert holds(ast, publish(0, "/env/sample", wind=7))
        assert not holds(ast, publish(0, "/env/sample", wind=4))

    def test_list_value_matches_json_list(self):
        ast = parse_formula("payload.speeds == [0,0,0,0,0,0]")
        assert holds(ast, publish(0, "/wheels/telemetry", speeds=[0] * 6))
        assert not holds(ast, publish(0, "/wheels/telemetry", speeds=[1] * 6))

    def test_cross_field_comparison_on_event(self):
        ast = parse_formula("server != target")
        event = {"t": 0, "kind": "goal", "server": "armServer", "target": "mastServer"}
        assert holds(ast, event)
        event["target"] = "armServer"
        assert not holds(ast, event)

    def test_ordering_on_non_numbers_is_false(self):
        ast = parse_formula('status > "Active"')
        event = {"t": 0, "kind": "goal", "status": "Pending"}
        assert not holds(ast, event)

    def test_compile_event_predicate_rejects_temporal(self):
        with pytest.raises(ValueError):
            compile_event_predicate(parse_formula('always(topic("/pose"))'))

    def test_compile_event_predicate_matches_atom_holds(self):
        ast = parse_formula('topic("/env/sample") && payload.wind >= 5')
        fn = compile_event_predicate(ast)
        assert fn(publish(0, "/env/sample", wind=9), frozenset())
        assert not fn(publish(0, "/env/sample", wind=1), frozenset())


# -- temporal semantics ------------------------------------------------------


class TestVerdicts:
    def test_empty_trace_is_undetermined(self):
        ast = parse_formula('always(topic("/pose"))')
        assert evaluate(ast, []) == UNDETERMINED

    def test_always_violated_by_one_counterexample(self):
        ast = parse_formula("always(payload.wind >= 0)")
        good = publish(0, "/env/sample", wind=3)
        bad = publish(1, "/env/sample", wind=-1)
        assert evaluate(ast, [good, good]) == SATISFIED
        assert evaluate(ast, [good, bad]) == VIOLATED

    def test_never_flags_first_occurrence(self):
        ast = parse_formula('never(topic("/pose"))')
        assert evaluate(ast, [publish(0, "/env/sample", wind=0)]) == SATISFIED
        assert evaluate(ast, [publish(0, "/pose", x=0, y=0)]) == VIOLATED

    def test_unbounded_eventually_never_violated_offline(self):
        """Without a hit the obligation stays open, even on a long trace."""
        ast = parse_formula('eventually(topic("/pose"))')
        trace = [publish(t, "/env/sample", wind=0) for t in range(50)]
        assert evaluate(ast, trace) == UNDETERMINED
        trace.append(publish(50, "/pose", x=0, y=0))
        assert evaluate(ast, trace) == SATISFIED

    def test_bounded_eventually_expires_by_timestamp(self):
        """The window counts ticks, not positions: a hit at t=6 misses a
        window of 5 opened at t=0."""
        ast = parse_formula('eventually[<=5](topic("/pose"))')
        filler = [publish(t, "/env/sample", wind=0) for t in range(7)]
        hit_late = filler + [publish(7, "/pose", x=0, y=0)]
        assert evaluate(ast, hit_late) == VIOLATED
        hit_in_time = filler[:4] + [publish(4, "/pose", x=0, y=0)]
        assert evaluate(ast, hit_in_time) == SATISFIED

    def test_bounded_eventually_still_open_at_trace_end(self):
        ast = parse_formula('eventually[<=10](topic("/pose"))')
        trace = [publish(t, "/env/sample", wind=0) for t in range(3)]
        assert evaluate(ast, trace) == UNDETERMINED

    def test_until_satisfied_by_release(self):
        ast = parse_formula('(!topic("/pose")) until topic("/env/sample")')
        trace = [
            {"t": 0, "kind": "action", "action": "x"},
            publish(1, "/env/sample", wind=0),
        ]
        assert evaluate(ast, trace) == SATISFIED

    def test_until_violated_by_early_failure(self):
        """The guard failing while the release also fails refutes the formula."""
        ast = parse_formula('(!topic("/pose")) until topic("/env/sample")')
        trace = [publish(0, "/pose", x=0, y=0), publish(1, "/env/sample", wind=0)]
        assert evaluate(ast, trace) == VIOLATED

    def test_until_open_when_nothing_happens(self):
        ast = parse_formula('(!topic("/pose")) until topic("/env/sample")')
        trace = [{"t": 0, "kind": "action", "action": "x"}]
        assert evaluate(ast, trace) == UNDETERMINED

    def test_response_timing_chain(self):
        """A trigger at t opens a window satisfied by a response within it."""
        ast = parse_formula('always(action("go") => eventually[<=3](belief("there")))')
        trace = [
            {"t": 0, "kind": "action", "action": "go"},
            {"t": 2, "kind": "belief", "op": "add", "atom": "there"},
            {"t": 9, "kind": "action", "action": "other"},
        ]
        assert evaluate(ast, trace) == SATISFIED
        late = [
            {"t": 0, "kind": "action", "action": "go"},
            {"t": 9, "kind": "belief", "op": "add", "atom": "there"},
        ]
        assert evaluate(ast, late) == VIOLATED


# -- cross-check of the two evaluators ---------------------------------------


def _alphabet() -> list[dict]:
    return [
        {"kind": "publish", "topic": "/pose", "payload": {"x": 1, "y": 0}},
        {"kind": "belief", "op": "add", "atom": "at(A)"},
        {"kind": "belief", "op": "del", "atom": "at(A)"},
        {"kind": "action", "action": "move_to_waypoint(A)"},
    ]


_BATTERY = [
    'topic("/pose")',
    'holds("at(A)")',
    '!holds("at(A)")',
    'always(!(action("*")))',
    'never(topic("/pose"))',
    'eventually(belief("at(A)"))',
    'eventually[<=2](topic("/pose"))',
    '(!action("*")) until belief("at(A)")',
    'always(topic("/pose") => eventually[<=4](belief("at(A)")))',
    'always(eventually(holds("at(A)")))',
    'belief("at(A)") || payload.x == 1',
    'holds("at(A)") => eventually[<=2](action("move_to_waypoint(*)"))',
]


class TestEvaluatorAgreement:
    def test_all_short_traces_agree(self):
        """The memoized evaluator and the direct recursive one return the same
        verdict for every formula over every trace up to length four (events
        two ticks apart, so bounded windows straddle positions)."""
        formulas = [parse_formula(text) for text in _BATTERY]
        alphabet = _alphabet()
        checked = 0
        for length in range(5):
            for combo in itertools.product(range(len(alphabet)), repeat=length):
                trace = []
                for i, choice in enumerate(combo):
                    event = dict(alphabet[choice])
                    event["t"] = 2 * i
                    trace.append(event)
                for text, ast in zip(_BATTERY, formulas):
                    assert evaluate(ast, trace) == evaluate_naive(ast, trace), (
                        text,
                        trace,
                    )
                    checked += 1
        assert checked == len(_BATTERY) * (1 + 4 + 16 + 64 + 256)

    def test_verdicts_cover_all_three_values(self):
        """Sanity: the cross-check corpus actually exercises every verdict."""
        formulas = [parse_formula(text) for text in _BATTERY]
        alphabet = _alphabet()
        seen = set()
        for length in range(4):
            for combo in itertools.product(range(len(alphabet)), repeat=length):
                trace = []
                for i, choice in enumerate(combo):
                    event = dict(alphabet[choice])
                    event["t"] = 2 * i
                    trace.append(event)
                for ast in formulas:
                    seen.add(evaluate(ast, trace))
        assert seen == {SATISFIED, VIOLATED, UNDETERMINED}


# -- randomized cross-check --------------------------------------------------

BELIEFS = ("at(A)", "at(B)")

atoms = st.one_of(
    st.sampled_from(("/pose", "/env/sample", "/wheels/telemetry")).map(TopicAtom),
    st.sampled_from(BELIEFS).map(BeliefAtom),
    st.sampled_from(BELIEFS).map(HoldsAtom),
    st.sampled_from(("*", "move_to_waypoint(*)", "move_to_waypoint(A)")).map(ActionAtom),
    st.sampled_from([parse_formula(text) for text in (
        'kind == "goal"', 'kind == "deliver"', 'kind != "belief"',
        "payload.speeds == [0,0]", "payload.speeds != [0,0]", "payload.wind >= 5",
        'status == "Aborted"', "server != target", "server == target")]),
)
bounds = st.integers(1, 3)
formulas = st.recursive(atoms, lambda sub: st.one_of(
    sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub),
    st.builds(Implies, sub, sub), sub.map(Always), sub.map(Never),
    st.builds(Eventually, sub), st.builds(Eventually, sub, bounds),
    st.builds(Until, sub, sub)), max_leaves=5)

# A body is an event, or a run of belief events of one atom.  Belief runs
# are drawn three times as often as any other body (``one_of`` weighs
# distinct strategies alike), and a third of them add the atom and then
# delete it, so that a trace often deletes an atom it holds.
bodies = st.one_of(
    *(st.builds(lambda ops, atom: [{"kind": "belief", "op": op, "atom": atom} for op in ops],
                st.sampled_from((("add", "del"), ("add",), ("del",))), st.sampled_from(BELIEFS))
      for _ in range(3)),
    st.builds(lambda topic: {"kind": "publish", "topic": topic, "payload": {"x": 1}},
              st.sampled_from(("/pose", "/env/sample"))),
    st.builds(lambda wind: {"kind": "publish", "topic": "/env/sample",
                            "payload": {"wind": wind}}, st.integers(3, 6)),
    st.builds(lambda speeds: {"kind": "publish", "topic": "/wheels/telemetry",
                              "payload": {"speeds": speeds}},
              st.sampled_from(([0, 0], [1, 0]))),
    st.builds(lambda topic: {"kind": "deliver", "topic": topic, "payload": {"wind": 5}},
              st.sampled_from(("/pose", "/env/sample"))),
    st.builds(lambda action: {"kind": "action", "action": action},
              st.sampled_from(("move_to_waypoint(A)", "move_to_waypoint(B)", "open_arm"))),
    st.builds(lambda server, target, status: {"kind": "goal", "phase": "accept",
                                              "server": server, "target": target,
                                              "status": status},
              st.sampled_from("wa"), st.sampled_from("wa"),
              st.sampled_from(("Aborted", "Active"))),
    st.just({"kind": "header", "format": 1}),
)


@st.composite
def traces(draw):
    """Events with non-decreasing ``t``, several to a tick or ticks apart,
    so bounded windows open and expire within a trace."""
    t, trace = 0, []
    for advance, body in draw(st.lists(st.tuples(st.sampled_from((0, 0, 1, 2)), bodies),
                                       max_size=10)):
        t += advance
        trace.extend({"t": t, **event} for event in (body if isinstance(body, list) else [body]))
    return trace


@st.composite
def suites(draw):
    """Properties over a few shared sub-formulas, each also used alone."""
    parts = draw(st.lists(formulas, min_size=1, max_size=3))
    index = st.integers(0, len(parts) - 1)
    combos = draw(st.lists(st.tuples(st.sampled_from((And, Implies, Until)), index, index),
                           max_size=3))
    suite = {f"p{i}": part for i, part in enumerate(parts)}
    for k, (op, i, j) in enumerate(combos):
        suite[f"q{k}"] = Always(op(parts[i], parts[j]))
    return suite


class TestRandomizedAgreement:
    """The column evaluator equals the direct recursive semantics on random
    formulas over every atom form and operator, and random traces."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(formulas, traces())
    @example(parse_formula('eventually[<=2](belief("at(A)"))'),
             [{"t": 0, "kind": "header"}, {"t": 2, "kind": "belief", "op": "add", "atom": "at(A)"},
              {"t": 3, "kind": "header"}])
    @example(parse_formula('!holds("at(A)") until server != target'),
             [{"t": 0, "kind": "belief", "op": "add", "atom": "at(A)"},
              {"t": 0, "kind": "goal", "server": "w", "target": "a"}])
    @example(parse_formula("always(server != target)"),
             [{"t": 0, "kind": "goal", "server": "w", "target": "w"}])
    # A tuple is no list, though its items are: it never equals a list literal.
    @example(parse_formula("eventually(payload.speeds == [0,0])"),
             [{"t": 0, "kind": "publish", "topic": "/pose", "payload": {"speeds": (0, 0)}},
              {"t": 0, "kind": "publish", "topic": "/pose", "payload": {"speeds": [0, 0]}}])
    @example(parse_formula('!topic("/pose") until eventually(holds("at(A)"))'),
             [{"t": 0, "kind": "publish", "topic": "/pose", "payload": {}}])
    def test_evaluate_matches_naive(self, node, trace):
        assert evaluate(node, trace) == evaluate_naive(node, trace)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(suites(), traces())
    def test_check_trace_matches_naive(self, suite, trace):
        assert check_trace(suite, trace) == {
            name: evaluate_naive(node, trace) for name, node in suite.items()}


# -- the columns against the events ------------------------------------------

# Every path a property can compare, the values events carry there, and the
# constants a property can write: numbers, strings and number lists.
ADDRESSABLE = ([Path((name,)) for name in sorted(EVENT_FIELDS - {"payload"})]
               + [Path(("payload", name)) for name in sorted(PAYLOAD_FIELDS)])
COLUMN_VALUES = st.one_of(
    st.sampled_from([0, 1, 5, -1, 2.5, -0.0, 0.0, True, False, None,
                     "", "a", "b", "/a", "add", "goal"]),
    st.lists(st.sampled_from([0, 1, 0.0, True]), max_size=2))
COLUMN_CONSTANTS = st.sampled_from([0, 1, 5, -1, 2.5, 0.0, "", "a", "b", "/a", "goal",
                                    (), (0,), (1, 0)])
COLUMN_KINDS = ("publish", "deliver", "block", "belief", "action", "goal", "verdict", "header")


@st.composite
def column_traces(draw) -> list[dict]:
    """Valid events of every kind, each with a random set of the addressable
    fields and a payload that may be missing, not an object, or an object
    with any of the payload fields and one no property can name."""
    t, events = 0, []
    for _ in range(draw(st.integers(0, 10))):
        t += draw(st.sampled_from((0, 0, 1, 3)))
        # Beliefs weigh more: a removal must follow an addition now and then.
        kind = draw(st.sampled_from(COLUMN_KINDS + ("belief", "belief")))
        event = {"t": t, "kind": kind}
        for path in ADDRESSABLE[:-len(PAYLOAD_FIELDS)]:
            if path.parts[0] not in ("t", "kind") and draw(st.booleans()):
                event[path.parts[0]] = draw(COLUMN_VALUES)
        if kind == "publish":
            event["topic"] = draw(st.sampled_from(("/a", "/b")))
        elif kind == "belief":
            event["op"] = draw(st.sampled_from(("add", "del")))
            event["atom"] = draw(st.sampled_from(("p", "q")))
        elif kind == "action":
            event["action"] = draw(st.sampled_from(("go(A)", "go(B)", "go", "stop")))
        shape = draw(st.integers(0, 3))
        if shape == 1:
            event["payload"] = draw(COLUMN_VALUES)
        elif shape > 1:
            names = draw(st.lists(st.sampled_from(sorted(PAYLOAD_FIELDS) + ["extra"]),
                                  max_size=4, unique=True))
            event["payload"] = {name: draw(COLUMN_VALUES) for name in names}
        events.append(event)
    return events


column_atoms = st.one_of(
    st.sampled_from(("/a", "/b")).map(TopicAtom),
    st.sampled_from(("p", "q")).map(BeliefAtom),
    st.sampled_from(("p", "q")).map(HoldsAtom),
    st.sampled_from(("*", "go(*)", "go(A)", "stop")).map(ActionAtom),
    st.builds(Compare, st.sampled_from(ADDRESSABLE),
              st.sampled_from(("==", "!=", "<", ">", "<=", ">=")),
              st.one_of(COLUMN_CONSTANTS, st.sampled_from(ADDRESSABLE))),
    st.sampled_from(COLUMN_KINDS).map(lambda kind: Compare(Path(("kind",)), "==", kind)),
)
column_formulas = st.recursive(column_atoms, lambda sub: st.one_of(
    sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub),
    st.builds(Implies, sub, sub), sub.map(Always), sub.map(Never),
    st.builds(Eventually, sub), st.builds(Eventually, sub, st.integers(1, 4)),
    st.builds(Until, sub, sub)), max_leaves=4)


def atoms_of(nodes: list) -> list:
    found, stack = [], list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (TopicAtom, BeliefAtom, HoldsAtom, ActionAtom, Compare)):
            found.append(node)
        else:
            stack += [getattr(node, side) for side in ("sub", "left", "right")
                      if hasattr(node, side)]
    return found


class TestColumnarAgreement:
    """``check`` over the columns ``read_trace`` builds equals the naive
    semantics over the events ``json.loads`` gives, on random traces of
    every event kind and comparisons on every addressable path."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(column_formulas, min_size=1, max_size=4), column_traces())
    @example([Compare(Path(("payload", "wind")), ">=", 0)],
             [{"t": 0, "kind": "publish", "topic": "/a", "payload": {"wind": -0.0}},
              {"t": 0, "kind": "deliver", "payload": {"wind": True}},
              {"t": 1, "kind": "goal", "payload": [1]}])
    @example([Compare(Path(("server",)), "!=", Path(("target",)))],
             [{"t": 0, "kind": "goal", "server": "a"}, {"t": 0, "kind": "goal", "target": "b"}])
    @example([Never(Compare(Path(("server",)), "!=", Path(("target",)))), HoldsAtom("p")],
             [{"t": 0, "kind": "goal", "server": 1, "target": 1},
              {"t": 0, "kind": "belief", "op": "add", "atom": "p"},
              {"t": 1, "kind": "goal", "server": "a", "target": "b"},
              {"t": 1, "kind": "belief", "op": "del", "atom": "p"}])
    @example([Compare(Path(("server",)), "!=", Path(("target",)))],
             [{"t": 0, "kind": "goal", "server": [0], "target": [0.0]},
              {"t": 0, "kind": "goal", "server": "a"},
              {"t": 2, "kind": "verdict", "server": "a", "target": "b"},
              {"t": 2, "kind": "goal", "server": 1, "target": True}])
    @example([Eventually(Compare(Path(("t",)), ">=", 3), 2),
              Compare(Path(("kind",)), "!=", "goal")],
             [{"t": 0, "kind": "goal"}, {"t": 1, "kind": "verdict"},
              {"t": 3, "kind": "header"}])
    def test_check_of_the_file_matches_naive(self, tmp_path_factory, nodes, events):
        """... and so do the columns, and every atom's column at every
        position, against ``atom_holds`` on the event."""
        path = tmp_path_factory.mktemp("columns") / "t.jsonl"
        path.write_text("".join(dump_event(e) + "\n" for e in events), encoding="utf-8")
        loaded = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        model = [e for e in loaded if e["kind"] != "verdict"]
        suite = {f"p{i}": node for i, node in enumerate(nodes)}
        trace = read_trace(str(path))
        assert check_trace(suite, trace) == {
            name: evaluate_naive(node, model) for name, node in suite.items()}
        assert_columns_match(trace, loaded)
        if model:
            view, states = _TraceView(trace), belief_states(model)
            for atom in atoms_of(nodes):
                assert list(view.column(atom)) == [
                    2 if atom_holds(atom, e, state) else 0 for e, state in zip(model, states)]


# -- compiled event predicates -----------------------------------------------

def tree_walk(node, event: dict, state: frozenset) -> bool:
    """The reference for a compiled predicate: the formula walked node by
    node, every atom through ``atom_holds``."""
    if isinstance(node, Not):
        return not tree_walk(node.sub, event, state)
    if isinstance(node, And):
        return tree_walk(node.left, event, state) and tree_walk(node.right, event, state)
    if isinstance(node, Or):
        return tree_walk(node.left, event, state) or tree_walk(node.right, event, state)
    if isinstance(node, Implies):
        return not tree_walk(node.left, event, state) or tree_walk(node.right, event, state)
    return atom_holds(node, event, state)


# Paths of one and two parts (the parser admits no longer path), to present,
# missing and non-dict fields.
PATHS = [Path(parts) for parts in (
    ("kind",), ("server",), ("target",), ("x",), ("missing",), ("payload", "a"),
    ("payload", "b"), ("payload", "missing"), ("x", "a"))]
# Compared constants: bool against int, tuples against lists, and strings and
# None under ordering operators.
CONSTANTS = (0, 1, 5, 2.5, -1, True, False, None, "", "a", "b", (0, 0), (1,))
# Field values: the constants, and lists, and dicts for 2-part paths.
FIELD_VALUES = st.one_of(st.sampled_from(CONSTANTS + ([0, 0], [1], (True, False))),
                         st.fixed_dictionaries({}, optional={"a": st.sampled_from(CONSTANTS)}))

compare_atoms = st.builds(
    Compare, st.sampled_from(PATHS), st.sampled_from(("==", "!=", "<", ">", "<=", ">=")),
    st.one_of(st.sampled_from(CONSTANTS), st.sampled_from(PATHS)))
event_atoms = st.one_of(
    st.sampled_from(("/a", "/b")).map(TopicAtom),
    st.sampled_from(("p", "q")).map(BeliefAtom),
    st.sampled_from(("p", "q")).map(HoldsAtom),
    st.sampled_from(("*", "go(*)", "go(A)", "stop")).map(ActionAtom),
    compare_atoms,
)
event_predicates = st.recursive(event_atoms, lambda sub: st.one_of(
    sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub),
    st.builds(Implies, sub, sub)), max_leaves=6)


@st.composite
def random_events(draw) -> dict:
    kind = draw(st.sampled_from(("publish", "belief", "action", "goal", None)))
    event = {"t": 0} if kind is None else {"t": 0, "kind": kind}
    if kind == "action":  # every action event names its action
        event["action"] = draw(st.sampled_from(("go(A)", "go(B)", "stop", "go")))
    fields = {
        "topic": st.sampled_from(("/a", "/b")), "op": st.sampled_from(("add", "del")),
        "atom": st.sampled_from(("p", "q")), "server": FIELD_VALUES, "target": FIELD_VALUES,
        "x": FIELD_VALUES,
        "payload": st.one_of(FIELD_VALUES, st.fixed_dictionaries({}, optional={
            "a": FIELD_VALUES, "b": FIELD_VALUES})),
    }
    for name, values in fields.items():
        if draw(st.booleans()):
            event[name] = draw(values)
    return event


class TestCompiledPredicates:
    """``compile_event_predicate`` emits one generated function per formula:
    it must equal the node-by-node reference everywhere, however the
    formula's text is written and however deep it nests."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(event_predicates, random_events(), st.sets(st.sampled_from(("p", "q"))))
    @example(parse_formula("payload.wind == 1"), {"t": 0, "payload": {"wind": True}}, set())
    @example(parse_formula("payload.wind == [0,0]"), {"t": 0, "payload": {"wind": [0, 0]}}, set())
    @example(parse_formula("payload.wind == [0,0]"), {"t": 0, "payload": {"wind": (0, 0)}}, set())
    @example(parse_formula("payload.wind != 1"), {"t": 0, "payload": 5}, set())
    @example(parse_formula("server != target"), {"t": 0, "server": (1,), "target": (1,)}, set())
    @example(parse_formula("server != target"), {"t": 0, "server": "w"}, set())
    @example(parse_formula('server >= "a"'), {"t": 0, "server": "b"}, set())
    @example(parse_formula("server < 1"), {"t": 0, "server": None}, set())
    @example(parse_formula("server < 5"), {"t": 0, "server": 2.5}, set())
    @example(parse_formula('action("*") && !action("go(*)")'),
             {"t": 0, "kind": "action", "action": "stop"}, set())
    @example(parse_formula('holds("p") => belief("q")'),
             {"t": 0, "kind": "belief", "op": "add", "atom": "q"}, {"p"})
    def test_matches_the_tree_walk(self, node, event, state):
        state = frozenset(state)
        assert compile_event_predicate(node)(event, state) is tree_walk(node, event, state)

    NASTY = ('say "hi"', "back\\slash", "new\nline", ") or True or (", "__import__('os')")

    @pytest.mark.parametrize("text", NASTY)
    def test_property_text_is_never_source(self, text):
        """Strings with quotes, backslashes, newlines or Python code compile,
        match their exact string only, and never appear in the source."""
        quoted = '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
        nodes = [parse_formula(f"{word}({quoted})") for word in ("topic", "belief", "holds", "action")]
        nodes += [ActionAtom(text + "(*)"), parse_formula(f"payload.env == {quoted}")]
        assert nodes[0] == TopicAtom(text)

        def holding(string):
            """Per node, an event and a state where it holds for ``string``."""
            return [({"t": 0, "kind": "publish", "topic": string, "payload": {}}, frozenset()),
                    ({"t": 0, "kind": "belief", "op": "add", "atom": string}, frozenset()),
                    ({"t": 0}, frozenset([string])),
                    ({"t": 0, "kind": "action", "action": string}, frozenset()),
                    ({"t": 0, "kind": "action", "action": string + "(B)"}, frozenset()),
                    ({"t": 0, "kind": "publish", "topic": "/x", "payload": {"env": string}},
                     frozenset())]

        for node, (event, state) in zip(nodes, holding(text)):
            assert compile_event_predicate(node)(event, state) is True
            source = _predicate_source(node)[0]
            assert not any(nasty in source for nasty in self.NASTY)
        for near in (text + " ", text[:-1], " " + text):
            for node, (event, state) in zip(nodes, holding(near)):
                assert compile_event_predicate(node)(event, state) is False

    def test_equal_formulas_share_one_function(self):
        text = 'topic("/env/sample") && payload.wind >= 5'
        assert compile_event_predicate(parse_formula(text)) is \
            compile_event_predicate(parse_formula(text))


def deep_properties() -> dict:
    """Formulas nesting far deeper than Python's recursion limit or its
    parser's limit on nested parentheses."""
    nested = "holds(\"a0\")"
    for i in range(1, 80):
        nested = f'holds("a{i % 3}") && !({nested})'
    return {
        "conjunction": "never(" + " && ".join(f'holds("a{i % 3}")' for i in range(3000)) + ")",
        "disjunction": "never(" + " || ".join(f'topic("/t{i}")' for i in range(3000)) + ")",
        "implications": "always(" + " => ".join(f'!topic("/t{i}")' for i in range(300)) + ")",
        "implications_3000": "always(" + " => ".join(f'!topic("/t{i}")'
                                                     for i in range(3000)) + ")",
        "negations": "never(" + "!" * 300 + 'topic("/t2999"))',
        "odd_negations": "always(" + "!" * 301 + 'holds("a0"))',
        "negations_2000": "never(" + "!" * 2000 + 'topic("/t2999"))',
        "odd_negations_2001": "always(" + "!" * 2001 + 'holds("a0"))',
        "alternating": f"never({nested})",
    }


class TestDeepFormulas:
    TRACES = {
        "quiet": [{"t": 0, "kind": "header"}, {"t": 1, "kind": "publish", "topic": "/u",
                                               "payload": {}}],
        "busy": [{"t": 0, "kind": "belief", "op": "add", "atom": "a0"},
                 {"t": 1, "kind": "belief", "op": "add", "atom": "a1"},
                 {"t": 1, "kind": "belief", "op": "add", "atom": "a2"},
                 {"t": 2, "kind": "publish", "topic": "/t2999", "payload": {}}],
    }

    @pytest.mark.parametrize("trace", sorted(TRACES))
    @pytest.mark.parametrize("name", sorted(deep_properties()))
    def test_online_matches_evaluate(self, name, trace):
        suite = {name: parse_formula(deep_properties()[name])}
        events = self.TRACES[trace]
        engine = build_engine(suite, [{"prop": name}])
        tracer = EventTracer()
        engine.attach(tracer, MessageBus(Topology(), tracer))
        for event in events:
            tracer.emit(dict(event))
        assert engine.finalize() == {name: evaluate(suite[name], events)}

    @pytest.mark.parametrize("name", sorted(deep_properties()))
    def test_reparse_is_the_filed_node(self, name):
        text = deep_properties()[name]
        assert parse_formula(text) is parse_formula(text)

    def test_reason_names_the_property(self):
        """A violation's reason names the property, however long its text."""
        suite = {"conjunction": parse_formula(deep_properties()["conjunction"])}
        engine = build_engine(suite, [{"prop": "conjunction"}])
        tracer = EventTracer()
        engine.attach(tracer, MessageBus(Topology(), tracer))
        for event in self.TRACES["busy"]:
            tracer.emit(dict(event))
        assert engine.monitors["conjunction"].reason == "event at t=1 violates conjunction"

    def test_verdicts_differ_between_traces(self):
        """The deep properties are not vacuous: the busy trace violates the
        conjunction, the disjunction and both runs of negations, the quiet
        one none."""
        props = {n: parse_formula(t) for n, t in deep_properties().items()}
        for name in ("conjunction", "disjunction", "negations", "negations_2000"):
            assert evaluate(props[name], self.TRACES["busy"]) == VIOLATED
            assert evaluate(props[name], self.TRACES["quiet"]) == SATISFIED

    def test_deep_nesting_splits_the_source(self):
        node = parse_formula(deep_properties()["alternating"]).sub
        assert _predicate_source(node)[0].count("def ") > 1
