"""Tests for the property language: parser, printer, and trace semantics."""

from __future__ import annotations

import importlib.resources
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_semantics import evaluate_naive
from roverbench.monitor import check_trace
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
    atom_holds,
    belief_states,
    compile_event_predicate,
    evaluate,
    parse_formula,
    parse_suite,
    to_text,
)


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

    def test_field_error_carries_position(self):
        with pytest.raises(UnknownFieldError) as exc_info:
            parse_formula('topic("/pose") && payload.bogus == 1')
        assert exc_info.value.line == 1
        assert exc_info.value.col > 1

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


class TestPrinterRoundTrip:
    def test_shipped_suite_round_trips(self):
        """Printing any shipped property and re-parsing it reproduces the AST."""
        suite = parse_suite(packaged_suite())
        assert len(suite) == 19
        for name, ast in suite.items():
            assert parse_formula(to_text(ast)) == ast, name

    def test_synthetic_formulas_round_trip(self):
        formulas = [
            '!(topic("/pose") && action("*"))',
            '(topic("/pose") || action("*")) => belief("at(A)")',
            '(!action("*")) until belief("ready(wheels)")',
            'always(eventually[<=3](holds("at(B)")))',
            'never(payload.wind < 0)',
            'payload.speeds != [0,0,0,0,0,0]',
            "server != target",
            'kind == "deliver" && topic == "/wheels/goal"',
        ]
        for text in formulas:
            ast = parse_formula(text)
            assert parse_formula(to_text(ast)) == ast, text


# -- atomic predicates -------------------------------------------------------


def publish(t: int, topic: str, **payload) -> dict:
    return {"t": t, "kind": "publish", "topic": topic, "payload": payload}


class TestAtoms:
    def test_topic_matches_publish_only(self):
        """Deliver copies and blocked publishes must not satisfy topic()."""
        atom = TopicAtom("/pose")
        assert atom_holds(atom, publish(0, "/pose", x=0, y=0), frozenset())
        for kind in ("deliver", "block"):
            event = {"t": 0, "kind": kind, "topic": "/pose", "payload": {}}
            assert not atom_holds(atom, event, frozenset())

    def test_belief_matches_additions_not_removals(self):
        ast = parse_formula('belief("at(A)")')
        add = {"t": 0, "kind": "belief", "op": "add", "atom": "at(A)"}
        remove = {"t": 0, "kind": "belief", "op": "del", "atom": "at(A)"}
        assert atom_holds(ast, add, frozenset())
        assert not atom_holds(ast, remove, frozenset())

    def test_holds_reads_reconstructed_state(self):
        trace = [
            {"t": 0, "kind": "belief", "op": "add", "atom": "at(A)"},
            {"t": 1, "kind": "publish", "topic": "/pose", "payload": {}},
            {"t": 2, "kind": "belief", "op": "del", "atom": "at(A)"},
        ]
        states = belief_states(trace)
        assert [("at(A)" in s) for s in states] == [True, True, False]

    def test_action_wildcards(self):
        event = {"t": 0, "kind": "action", "action": "move_to_waypoint(B)"}
        assert atom_holds(parse_formula('action("*")'), event, frozenset())
        assert atom_holds(parse_formula('action("move_to_waypoint(*)")'), event, frozenset())
        assert atom_holds(parse_formula('action("move_to_waypoint(B)")'), event, frozenset())
        assert not atom_holds(parse_formula('action("control_arm(*)")'), event, frozenset())

    def test_missing_field_compares_false(self):
        ast = parse_formula("payload.wind >= 0")
        assert not atom_holds(ast, publish(0, "/pose", x=1, y=2), frozenset())

    def test_numeric_comparisons(self):
        ast = parse_formula("payload.wind >= 5")
        assert atom_holds(ast, publish(0, "/env/sample", wind=7), frozenset())
        assert not atom_holds(ast, publish(0, "/env/sample", wind=4), frozenset())

    def test_list_value_matches_json_list(self):
        ast = parse_formula("payload.speeds == [0,0,0,0,0,0]")
        assert atom_holds(ast, publish(0, "/wheels/telemetry", speeds=[0] * 6), frozenset())
        assert not atom_holds(ast, publish(0, "/wheels/telemetry", speeds=[1] * 6), frozenset())

    def test_cross_field_comparison_on_event(self):
        ast = parse_formula("server != target")
        event = {"t": 0, "kind": "goal", "server": "armServer", "target": "mastServer"}
        assert atom_holds(ast, event, frozenset())
        event["target"] = "armServer"
        assert not atom_holds(ast, event, frozenset())

    def test_ordering_on_non_numbers_is_false(self):
        ast = parse_formula('status > "Active"')
        event = {"t": 0, "kind": "goal", "status": "Pending"}
        assert not atom_holds(ast, event, frozenset())

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

bodies = st.one_of(
    st.builds(lambda topic: {"kind": "publish", "topic": topic, "payload": {"x": 1}},
              st.sampled_from(("/pose", "/env/sample"))),
    st.builds(lambda wind: {"kind": "publish", "topic": "/env/sample",
                            "payload": {"wind": wind}}, st.integers(3, 6)),
    st.builds(lambda speeds: {"kind": "publish", "topic": "/wheels/telemetry",
                              "payload": {"speeds": speeds}},
              st.sampled_from(([0, 0], [1, 0]))),
    st.builds(lambda topic: {"kind": "deliver", "topic": topic, "payload": {"wind": 5}},
              st.sampled_from(("/pose", "/env/sample"))),
    st.builds(lambda op, atom: {"kind": "belief", "op": op, "atom": atom},
              st.sampled_from(("add", "del")), st.sampled_from(BELIEFS)),
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
        trace.append({"t": t, **body})
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
    @example(parse_formula('!topic("/pose") until eventually(holds("at(A)"))'),
             [{"t": 0, "kind": "publish", "topic": "/pose", "payload": {}}])
    def test_evaluate_matches_naive(self, node, trace):
        assert evaluate(node, trace) == evaluate_naive(node, trace)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(suites(), traces())
    def test_check_trace_matches_naive(self, suite, trace):
        assert check_trace(suite, trace) == {
            name: evaluate_naive(node, trace) for name, node in suite.items()}
