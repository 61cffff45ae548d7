"""Tests for monitor synthesis, online verdicts, gating, and the offline path."""

from __future__ import annotations

import importlib.resources
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_semantics import evaluate_naive, fold_belief
from recorded import recorded
from roverbench.bus import MessageBus
from roverbench.config import make_config
from roverbench.explorer import Explorer
from roverbench.messages import NODE_WORLD, Topology
from roverbench.monitor import (
    STATE_ONLY,
    DispatchIndex,
    IllegalOperatorForRuntime,
    LivenessMonitor,
    MonitorConfigError,
    MonitorEngine,
    MonitorShapeError,
    ObligationMonitor,
    SafetyMonitor,
    _try_pure,
    build_engine,
    check_trace,
    synthesize,
)
from roverbench.prop_dsl import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    ActionAtom,
    Always,
    And,
    BeliefAtom,
    Eventually,
    HoldsAtom,
    Implies,
    Never,
    Not,
    Or,
    TopicAtom,
    Until,
    evaluate,
    parse_formula,
    parse_suite,
)
from roverbench.simulator import run_simulation
from roverbench.tracing import EventTracer, read_trace


def packaged_suite() -> dict:
    root = importlib.resources.files("roverbench")
    return parse_suite((root / "data" / "default.props").read_text(encoding="utf-8"))


def pub(t: int, topic: str, **payload) -> dict:
    return {"t": t, "kind": "publish", "topic": topic, "payload": payload}


def act(t: int, name: str) -> dict:
    return {"t": t, "kind": "action", "action": name}


def bel(t: int, atom: str, op: str = "add") -> dict:
    return {"t": t, "kind": "belief", "op": op, "atom": atom}


def mon(text: str, mode: str = "log"):
    return synthesize("probe", parse_formula(text), mode)


def synthesizable(ast) -> bool:
    """Whether the property has a runtime monitor: a shape with one that is
    not unbounded liveness, which only the explorer runs."""
    try:
        return not isinstance(synthesize("probe", ast), LivenessMonitor)
    except MonitorShapeError:
        return False


# -- synthesis shapes --------------------------------------------------------


class TestSynthesis:
    def test_never_of_predicate_is_safety(self):
        monitor = mon("never(payload.wind < 0)")
        assert isinstance(monitor, SafetyMonitor)
        assert monitor.shape == "safety"

    def test_always_of_predicate_is_safety(self):
        assert isinstance(mon("always(payload.wind >= 0)"), SafetyMonitor)

    @staticmethod
    def fields(monitor) -> tuple:
        """What tells the obligation shapes apart."""
        assert isinstance(monitor, ObligationMonitor)
        return (monitor.bound, monitor.once, monitor._trigger is not None,
                monitor._guard is not None, monitor.shape)

    def test_bounded_response_shape(self):
        monitor = mon('always(action("go") => eventually[<=3](belief("done")))')
        assert self.fields(monitor) == (3, False, True, False, "deadline")

    def test_triggered_until_shape(self):
        monitor = mon('always(action("go") => ((!action("bad")) until belief("ok")))')
        assert self.fields(monitor) == (None, False, True, True, "safety")

    def test_bounded_recurrence_shape(self):
        monitor = mon('always(eventually[<=4](action("ping")))')
        assert self.fields(monitor) == (4, False, False, False, "deadline")

    def test_top_level_until_shape(self):
        monitor = mon('(!action("*")) until belief("ready(wheels)")')
        assert self.fields(monitor) == (None, True, False, True, "safety")

    def test_bare_bounded_eventually_shape(self):
        monitor = mon('eventually[<=5](belief("at(A)"))')
        assert self.fields(monitor) == (5, True, False, False, "deadline")

    @staticmethod
    def rejected_for_runtime(text: str, kind: str) -> None:
        """``synthesize`` gives the shape its liveness monitor, which only
        the explorer runs: an engine for a run refuses it."""
        assert isinstance(mon(text), LivenessMonitor)
        with pytest.raises(IllegalOperatorForRuntime) as refused:
            build_engine({"probe": parse_formula(text)}, [{"prop": "probe"}])
        assert str(refused.value) == (f"probe: unbounded {kind} cannot be monitored "
                                      "online; check it with the explorer")

    def test_unbounded_response_rejected_for_runtime(self):
        self.rejected_for_runtime('always(action("go") => eventually(belief("done")))',
                                  "response")

    def test_unbounded_recurrence_rejected_for_runtime(self):
        self.rejected_for_runtime('always(eventually(belief("at(B)")))', "recurrence")

    def test_bare_unbounded_eventually_rejected_for_runtime(self):
        self.rejected_for_runtime('eventually(belief("at(A)"))', "eventually")

    @pytest.mark.parametrize("text, kind, triggered", [
        ('eventually(belief("done"))', "eventually", False),
        ('always(eventually(belief("done")))', "recurrence", False),
        ('always(action("go") => eventually(belief("done")))', "response", True),
    ])
    def test_unbounded_shape_comes_with_its_liveness(self, text, kind, triggered):
        """The explorer decides these from the shape ``synthesize`` reports."""
        live = mon(text)
        assert isinstance(live, LivenessMonitor)
        assert live.kind == kind
        assert live.goal(bel(0, "done"), frozenset())
        assert (live.trigger is not None) == triggered

    def test_nested_temporal_shape_rejected(self):
        for text in ('eventually[<=2](always(payload.wind >= 0))',
                     'never(eventually[<=3](belief("done")))',
                     'never(action("go") until belief("done"))',
                     'never(always(payload.wind >= 0))',
                     'never(eventually(belief("done")))'):
            with pytest.raises(MonitorShapeError) as refused:
                mon(text)
            assert type(refused.value) is MonitorShapeError, text
            assert str(refused.value).startswith("probe: no incremental monitor"), text

    def test_unknown_mode_rejected(self):
        with pytest.raises(MonitorConfigError):
            mon("never(payload.wind < 0)", mode="enforce")

    def test_shipped_suite_splits_18_online_1_explorer_only(self):
        """Exactly one shipped property (the unbounded revisit liveness) has
        no runtime monitor."""
        suite = packaged_suite()
        offline_only = [n for n, ast in suite.items() if not synthesizable(ast)]
        assert offline_only == ["revisits_B"]
        assert len(suite) - len(offline_only) == 18


# -- individual monitor behavior ---------------------------------------------


class TestSafetyMonitor:
    def test_clean_run_finalizes_satisfied(self):
        monitor = mon("never(payload.wind < 0)")
        monitor.observe(pub(0, "/env/sample", wind=3), frozenset())
        assert monitor.verdict == UNDETERMINED
        assert monitor.finalize() == SATISFIED

    def test_violation_latches(self):
        monitor = mon("never(payload.wind < 0)")
        monitor.observe(pub(4, "/env/sample", wind=-1), frozenset())
        assert monitor.verdict == VIOLATED
        assert "t=4" in monitor.reason
        monitor.observe(pub(5, "/env/sample", wind=0), frozenset())
        assert monitor.verdict == VIOLATED
        assert monitor.finalize() == VIOLATED

    def test_would_violate_is_side_effect_free(self):
        monitor = mon("never(payload.wind < 0)")
        assert monitor.would_violate(pub(0, "/env/sample", wind=-2), frozenset())
        assert monitor.verdict == UNDETERMINED
        assert not monitor.would_violate(pub(0, "/env/sample", wind=2), frozenset())


class TestBoundedResponseMonitor:
    def test_trigger_opens_window_goal_discharges(self):
        monitor = mon('always(action("go") => eventually[<=3](belief("done")))')
        monitor.observe(act(2, "go"), frozenset())
        assert monitor.deadline == 5
        assert monitor.to_state(4) == (UNDETERMINED, 1)
        monitor.observe(bel(4, "done"), frozenset())
        assert monitor.deadline is None
        monitor.on_tick(9)
        assert monitor.finalize() == SATISFIED

    def test_expiry_violates_on_tick(self):
        monitor = mon('always(action("go") => eventually[<=3](belief("done")))')
        monitor.observe(act(2, "go"), frozenset())
        monitor.on_tick(5)
        assert monitor.verdict == UNDETERMINED  # deadline tick itself still ok
        monitor.on_tick(6)
        assert monitor.verdict == VIOLATED

    def test_open_obligation_finalizes_undetermined(self):
        monitor = mon('always(action("go") => eventually[<=3](belief("done")))')
        monitor.observe(act(2, "go"), frozenset())
        monitor.on_tick(4)
        assert monitor.finalize() == UNDETERMINED

    def test_one_goal_discharges_every_open_trigger(self):
        monitor = mon('always(action("go") => eventually[<=3](belief("done")))')
        monitor.observe(act(1, "go"), frozenset())
        monitor.observe(act(3, "go"), frozenset())
        assert monitor.deadline == 4  # earliest obligation governs
        monitor.observe(bel(4, "done"), frozenset())
        monitor.on_tick(99)
        assert monitor.finalize() == SATISFIED

    def test_goal_after_the_deadline_discharges_nothing(self):
        """A goal event stamped past the deadline leaves the window open, even
        seen before that tick ends, as a run's deliveries are: the tick
        reports the expiry, as ``check`` does on the same events."""
        formula = parse_formula('always(action("go") => eventually[<=3](belief("done")))')
        monitor = synthesize("probe", formula)
        events = [act(2, "go"), bel(6, "done")]
        for event in events:
            monitor.observe(event, frozenset())
        assert monitor.deadline == 5
        monitor.on_tick(6)
        assert monitor.verdict == VIOLATED
        assert monitor.reason == "no response by t=5 (window 3)"
        assert check_trace({"probe": formula}, events)["probe"] == VIOLATED


class TestBoundedRecurrenceMonitor:
    def test_gap_within_bound_is_clean(self):
        monitor = mon('always(eventually[<=2](action("ping")))')
        monitor.observe(act(0, "other"), frozenset())
        assert monitor.deadline == 2
        monitor.observe(act(2, "ping"), frozenset())
        assert monitor.deadline is None
        monitor.on_tick(3)
        assert monitor.finalize() == SATISFIED

    def test_gap_expiry_violates(self):
        monitor = mon('always(eventually[<=2](action("ping")))')
        monitor.observe(act(0, "other"), frozenset())
        monitor.on_tick(2)
        assert monitor.verdict == UNDETERMINED
        monitor.on_tick(3)
        assert monitor.verdict == VIOLATED

    def test_recurring_hits_keep_it_alive(self):
        monitor = mon('always(eventually[<=2](action("ping")))')
        for t in range(0, 10, 2):
            monitor.observe(act(t, "other"), frozenset())
            monitor.observe(act(t + 1, "ping"), frozenset())
            monitor.on_tick(t + 1)
        assert monitor.verdict == UNDETERMINED

    def test_hit_after_the_gap_discharges_nothing(self):
        monitor = mon('always(eventually[<=2](action("ping")))')
        monitor.observe(act(0, "other"), frozenset())
        monitor.observe(act(3, "ping"), frozenset())
        assert monitor.deadline == 2
        monitor.on_tick(3)
        assert monitor.verdict == VIOLATED
        assert monitor.to_state(3) == (VIOLATED, -1)


class TestDeadlineMonitor:
    def test_hit_within_window(self):
        monitor = mon('eventually[<=5](belief("at(A)"))')
        monitor.observe(pub(0, "/pose", x=0, y=0), frozenset())
        monitor.observe(bel(3, "at(A)"), frozenset())
        monitor.on_tick(9)
        assert monitor.finalize() == SATISFIED

    def test_window_anchored_at_first_event(self):
        monitor = mon('eventually[<=5](belief("at(A)"))')
        monitor.observe(pub(2, "/pose", x=0, y=0), frozenset())
        assert monitor.deadline == 7

    def test_expiry_without_hit(self):
        monitor = mon('eventually[<=5](belief("at(A)"))')
        monitor.observe(pub(0, "/pose", x=0, y=0), frozenset())
        monitor.on_tick(6)
        assert monitor.verdict == VIOLATED

    def test_no_events_finalizes_undetermined(self):
        monitor = mon('eventually[<=5](belief("at(A)"))')
        monitor.on_tick(9)  # no anchor yet, nothing to expire
        assert monitor.finalize() == UNDETERMINED

    def test_discharged_window_holds_no_due(self):
        """Once the goal is met nothing counts down, so the state stops
        changing: the explorer's graph of the property stays finite."""
        monitor = mon('eventually[<=5](belief("at(A)"))')
        monitor.observe(pub(0, "/pose", x=0, y=0), frozenset())
        monitor.observe(bel(3, "at(A)"), frozenset())
        monitor.on_tick(9)
        # (verdict, due, armed)
        assert monitor.to_state(4) == monitor.to_state(9) == (UNDETERMINED, None, False)
        assert monitor.finalize() == SATISFIED


class TestUntilMonitor:
    def test_release_then_anything(self):
        monitor = mon('(!action("*")) until belief("ready(wheels)")')
        monitor.observe(bel(1, "ready(wheels)"), frozenset())
        monitor.observe(act(2, "move_to_waypoint(A)"), frozenset())
        assert monitor.finalize() == SATISFIED

    def test_guard_break_before_release(self):
        monitor = mon('(!action("*")) until belief("ready(wheels)")')
        monitor.observe(act(0, "move_to_waypoint(A)"), frozenset())
        assert monitor.verdict == VIOLATED

    def test_pending_release_is_undetermined(self):
        monitor = mon('(!action("*")) until belief("ready(wheels)")')
        monitor.observe(bel(0, "at(o)"), frozenset())
        assert monitor.finalize() == UNDETERMINED


class TestTriggeredUntilMonitor:
    FORMULA = 'always(action("go") => ((!action("bad")) until belief("ok")))'

    def test_obligation_discharged(self):
        monitor = mon(self.FORMULA)
        monitor.observe(act(0, "go"), frozenset())
        assert monitor.to_state() == (UNDETERMINED, True)  # (verdict, open)
        monitor.observe(bel(1, "ok"), frozenset())
        assert monitor.to_state() == (UNDETERMINED, False)
        monitor.observe(act(2, "bad"), frozenset())  # after discharge: no effect
        assert monitor.finalize() == SATISFIED

    def test_open_obligation_broken(self):
        monitor = mon(self.FORMULA)
        monitor.observe(act(0, "go"), frozenset())
        monitor.observe(act(1, "bad"), frozenset())
        assert monitor.verdict == VIOLATED

    def test_guard_false_at_trigger(self):
        monitor = mon('always(action("bad") => ((!action("bad")) until belief("ok")))')
        monitor.observe(act(0, "bad"), frozenset())
        assert monitor.verdict == VIOLATED

    def test_still_open_at_end(self):
        monitor = mon(self.FORMULA)
        monitor.observe(act(0, "go"), frozenset())
        assert monitor.finalize() == UNDETERMINED


RESPONSE = 'always(action("go") => eventually[<=3](belief("done")))'
RECURRENCE = 'always(eventually[<=3](belief("done")))'
BARE = 'eventually[<=3](belief("done"))'
TRIGGERED_UNTIL = 'always(action("*") => ((!action("bad")) until belief("done")))'
UNTIL = '(!action("bad")) until belief("done")'
END_OF_TICK_6 = ("tick", 6)
OPEN = [act(2, "go")]
DISCHARGED = [act(2, "go"), bel(4, "done")]
EXPIRED = [act(2, "go"), END_OF_TICK_6]
BROKEN_AT_TRIGGER = [act(2, "bad")]
BROKEN_WHILE_OPEN = [act(2, "go"), act(3, "bad")]
EXPIRY = "no response by t=5 (window 3)"

# (shape, stage) -> (formula, events, view at the last event's time, reason,
# finalize); ("tick", t) ends tick t.  The views are what explorer keys are
# built from: (verdict, due) for a window, with ``armed`` for a bare one,
# (verdict, open) for a triggered until and (verdict, done) for an until.  The
# reasons are written into traces and counterexamples.
LIFE = {
    ("response", "before"): (RESPONSE, [], (UNDETERMINED, None), "", SATISFIED),
    ("response", "open"): (RESPONSE, OPEN, (UNDETERMINED, 3), "", UNDETERMINED),
    ("response", "discharged"): (RESPONSE, DISCHARGED,
                                 (UNDETERMINED, None), "", SATISFIED),
    ("response", "expired"): (RESPONSE, EXPIRED, (VIOLATED, -1), EXPIRY,
                              VIOLATED),
    ("recurrence", "before"): (RECURRENCE, [], (UNDETERMINED, None), "",
                               SATISFIED),
    ("recurrence", "open"): (RECURRENCE, OPEN, (UNDETERMINED, 3), "",
                             UNDETERMINED),
    ("recurrence", "discharged"): (RECURRENCE, DISCHARGED,
                                   (UNDETERMINED, None), "", SATISFIED),
    ("recurrence", "expired"): (RECURRENCE, EXPIRED, (VIOLATED, -1), EXPIRY,
                                VIOLATED),
    ("bare", "before"): (BARE, [], (UNDETERMINED, None, True), "",
                         UNDETERMINED),
    ("bare", "open"): (BARE, OPEN, (UNDETERMINED, 3, False), "",
                       UNDETERMINED),
    ("bare", "discharged"): (BARE, DISCHARGED,
                             (UNDETERMINED, None, False), "",
                             SATISFIED),
    ("bare", "expired"): (BARE, EXPIRED, (VIOLATED, -1, False), EXPIRY,
                          VIOLATED),
    ("triggered-until", "before"): (TRIGGERED_UNTIL, [], (UNDETERMINED, False),
                                    "", SATISFIED),
    ("triggered-until", "open"): (TRIGGERED_UNTIL, OPEN, (UNDETERMINED, True),
                                  "", UNDETERMINED),
    ("triggered-until", "discharged"): (TRIGGERED_UNTIL, DISCHARGED,
                                        (UNDETERMINED, False), "", SATISFIED),
    ("triggered-until", "broken-at-trigger"): (
        TRIGGERED_UNTIL, BROKEN_AT_TRIGGER, (VIOLATED, False),
        "until guard already false at its trigger (t=2)", VIOLATED),
    ("triggered-until", "broken-while-open"): (
        TRIGGERED_UNTIL, BROKEN_WHILE_OPEN, (VIOLATED, True),
        "event at t=3 breaks an open until guard", VIOLATED),
    ("triggered-until", "never-expires"): (TRIGGERED_UNTIL, EXPIRED,
                                           (UNDETERMINED, True), "",
                                           UNDETERMINED),
    ("until", "before"): (UNTIL, [], (UNDETERMINED, False), "", UNDETERMINED),
    ("until", "open"): (UNTIL, OPEN, (UNDETERMINED, False), "", UNDETERMINED),
    ("until", "discharged"): (UNTIL, DISCHARGED, (UNDETERMINED, True), "",
                              SATISFIED),
    ("until", "broken-at-trigger"): (UNTIL, BROKEN_AT_TRIGGER,
                                     (VIOLATED, False),
                                     "event at t=2 breaks the until guard", VIOLATED),
    ("until", "broken-while-open"): (UNTIL, BROKEN_WHILE_OPEN,
                                     (VIOLATED, False),
                                     "event at t=3 breaks the until guard", VIOLATED),
    ("until", "never-expires"): (UNTIL, EXPIRED, (UNDETERMINED, False), "",
                                 UNDETERMINED),
}


class TestObligationLife:
    """Each obligation shape's ``to_state`` view, reason and final verdict
    at every stage of its life: before the first event, open, discharged,
    refuted at its trigger or while open (until forms), and expired (window
    forms; an until has no deadline)."""

    @pytest.mark.parametrize("case", sorted(LIFE), ids="/".join)
    def test_view_and_reason(self, case):
        formula, events, view, reason, final = LIFE[case]
        monitor = mon(formula)
        now = 0
        for event in events:
            if isinstance(event, tuple):
                now = event[1]
                monitor.on_tick(now)
            else:
                now = event["t"]
                monitor.observe(event, frozenset())
        assert (monitor.to_state(now), monitor.reason) == (view, reason)
        assert monitor.finalize() == final


# -- engine ------------------------------------------------------------------


# The wind property anchors on topic() the way the shipped suite does: the
# atom only matches live publishes, so a blocked message's tombstone does not
# re-trip the monitor that vetoed it.
SMALL_SUITE = parse_suite(
    'prop no_negative_wind: always(topic("/env/sample") => payload.wind >= 0)\n'
    'prop quiet_start: (!action("*")) until belief("ready(wheels)")\n'
)


class TestEngine:
    def test_log_monitor_emits_violation_event(self):
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        engine = build_engine(SMALL_SUITE, [{"prop": "no_negative_wind"}])
        engine.attach(tracer, bus)
        bus.publish(NODE_WORLD, "/env/sample", {"wp": "A", "wind": -1, "radiation": 0, "env": "Fine"})
        verdict_events = [ev for ev in events if ev["kind"] == "verdict"]
        assert len(verdict_events) == 1
        assert verdict_events[0]["prop"] == "no_negative_wind"
        assert verdict_events[0]["outcome"] == "violation"
        assert verdict_events[0]["t"] == 0
        # Log mode lets the message through.
        assert len(bus.step_deliver()) == 1

    def test_block_monitor_vetoes_publish(self):
        """Block mode stops the bad message on the bus: a block tombstone is
        recorded, nothing is delivered, and the trace re-checks clean."""
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        engine = build_engine(SMALL_SUITE, [{"prop": "no_negative_wind", "mode": "block"}])
        engine.attach(tracer, bus)
        bus.publish(NODE_WORLD, "/env/sample", {"wp": "A", "wind": -1, "radiation": 0, "env": "Fine"})
        assert bus.step_deliver() == []
        kinds = [ev["kind"] for ev in events]
        assert "block" in kinds and "publish" not in kinds
        (monitor,) = engine.monitors.values()
        assert monitor.blocked == 1
        assert monitor.verdict == UNDETERMINED  # the violation never happened
        assert engine.finalize()["no_negative_wind"] == SATISFIED
        offline = check_trace(SMALL_SUITE, events, ["no_negative_wind"])
        assert offline["no_negative_wind"] == SATISFIED

    def test_blocked_verdict_event_recorded(self):
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        engine = build_engine(SMALL_SUITE, [{"prop": "no_negative_wind", "mode": "block"}])
        engine.attach(tracer, bus)
        bus.publish(NODE_WORLD, "/env/sample", {"wp": "A", "wind": -1, "radiation": 0, "env": "Fine"})
        blocked = [ev for ev in events
                   if ev["kind"] == "verdict" and ev["outcome"] == "blocked"]
        assert len(blocked) == 1
        assert blocked[0]["topic"] == "/env/sample"

    def test_block_mode_restricted_to_safety_monitors(self):
        with pytest.raises(MonitorConfigError, match="safety"):
            build_engine(SMALL_SUITE, [{"prop": "quiet_start", "mode": "block"}])

    def test_unknown_property_rejected(self):
        with pytest.raises(MonitorConfigError, match="unknown"):
            build_engine(SMALL_SUITE, [{"prop": "nonexistent"}])

    def test_duplicate_selection_rejected(self):
        with pytest.raises(MonitorConfigError, match="twice"):
            build_engine(SMALL_SUITE, [{"prop": "quiet_start"}, {"prop": "quiet_start"}])

    def test_malformed_row_rejected(self):
        with pytest.raises(MonitorConfigError):
            build_engine(SMALL_SUITE, ["quiet_start"])

    def test_finalize_emits_one_final_verdict_per_monitor(self):
        tracer = EventTracer()
        events = recorded(tracer)
        bus = MessageBus(Topology(), tracer)
        engine = build_engine(
            SMALL_SUITE, [{"prop": "no_negative_wind"}, {"prop": "quiet_start"}]
        )
        engine.attach(tracer, bus)
        verdicts = engine.finalize()
        finals = [ev for ev in events
                  if ev["kind"] == "verdict" and ev["outcome"] == "final"]
        assert [ev["prop"] for ev in finals] == ["no_negative_wind", "quiet_start"]
        assert verdicts == {"no_negative_wind": SATISFIED, "quiet_start": UNDETERMINED}

    def test_finalize_closes_the_loop(self):
        """Final verdict events must not feed back into monitors."""
        suite = parse_suite('prop no_verdicts: never(kind == "verdict")\n')
        tracer = EventTracer()
        bus = MessageBus(Topology(), tracer)
        engine = build_engine(suite, [{"prop": "no_verdicts"}])
        engine.attach(tracer, bus)
        verdicts = engine.finalize()
        assert verdicts == {"no_verdicts": SATISFIED}


class TestBeliefRemoval:
    """A del removes its atom from the state ``holds`` reads: on fixed
    traces, the engine the runs use and the offline evaluator agree."""

    # Violated exactly when an action happens while arm(Open) is believed.
    PROP = parse_formula('always(action("*") => !holds("arm(Open)"))')

    @pytest.mark.parametrize("trace,want", [
        # Added, then removed before the action.
        ([bel(1, "arm(Open)"), bel(2, "arm(Open)", "del"), act(3, "move_to_waypoint(A)")],
         SATISFIED),
        # Removed while another atom stays and a third is added.
        ([bel(1, "arm(Open)"), bel(1, "at(o)"), bel(2, "arm(Open)", "del"),
          bel(2, "at(A)"), act(3, "move_to_waypoint(B)")],
         SATISFIED),
        # Removed, then added back.
        ([bel(1, "arm(Open)"), bel(2, "arm(Open)", "del"), act(2, "move_to_waypoint(A)"),
          bel(3, "arm(Open)"), act(4, "move_to_waypoint(B)")],
         VIOLATED),
        # Never removed.
        ([bel(1, "arm(Open)"), act(3, "move_to_waypoint(A)")], VIOLATED),
    ])
    def test_engine_and_evaluate_agree(self, trace, want):
        engine = MonitorEngine([synthesize("p0", self.PROP)])
        for event in trace:
            engine.observe(event)
            engine.on_tick(event["t"])
        assert engine.finalize() == {"p0": want}
        assert evaluate(self.PROP, trace) == want


# -- online vs offline on real runs ------------------------------------------


class TestDualRoute:
    def test_verdicts_agree_on_nominal_run(self, tmp_path):
        """Every online-monitorable shipped property gets the same verdict from
        the incremental monitors and from re-evaluating the recorded trace."""
        suite = packaged_suite()
        names = [n for n, ast in suite.items() if synthesizable(ast)]
        engine = build_engine(suite, [{"prop": n} for n in names])
        config = make_config()
        trace = tmp_path / "dual_nominal.jsonl"
        summary = run_simulation(config, 120, trace_path=str(trace), monitor_engine=engine)
        offline = check_trace(suite, read_trace(str(trace)), names)
        assert summary["verdicts"] == offline

    def test_verdicts_agree_on_faulted_run(self, tmp_path):
        """A wind fault flips the nonnegativity property to Violated at the
        injection tick on both routes."""
        suite = packaged_suite()
        names = [n for n, ast in suite.items() if synthesizable(ast)]
        engine = build_engine(suite, [{"prop": n} for n in names])
        config = make_config({"env_faults": [{"tick": 10, "wp": "A", "wind": -1}]})
        trace = tmp_path / "dual_fault.jsonl"
        summary = run_simulation(config, 40, trace_path=str(trace), monitor_engine=engine)
        offline = check_trace(suite, read_trace(str(trace)), names)
        assert summary["verdicts"] == offline
        assert summary["verdicts"]["env_nonnegative"] == VIOLATED
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        violations = [ev for ev in events
                      if ev["kind"] == "verdict" and ev["outcome"] == "violation"
                      and ev["prop"] == "env_nonnegative"]
        assert violations[0]["t"] == 10

    @pytest.mark.parametrize("events", [[], [
        {"t": 0, "kind": "verdict", "prop": "p0", "outcome": "final", "verdict": SATISFIED}]])
    def test_trace_without_model_events_is_undetermined(self, events):
        """``check`` of a trace with no model events is Undetermined for
        every property, as the semantics say of the empty trace."""
        suite = {**packaged_suite(), **NO_VERDICT}
        assert check_trace(suite, events) == dict.fromkeys(suite, UNDETERMINED)
        assert {evaluate_naive(ast, []) for ast in suite.values()} == {UNDETERMINED}

    def test_online_never_judges_an_empty_stream(self):
        """A run of no ticks still hands its monitors the header."""
        engine = build_engine(NO_VERDICT, [{"prop": "p0"}])
        summary = run_simulation(make_config(), 0, None, engine)
        assert summary["stats"]["monitor_events"] == {"p0": 1}
        assert summary["verdicts"] == {"p0": SATISFIED}

    def test_late_delivery_violates_on_both_routes(self, tmp_path):
        """A goal delivery stamped a tick past its one-tick window: the
        monitor must not take it as the response that ``check`` refuses."""
        suite = parse_suite(
            'prop fast_delivery: always(topic("/wheels/goal") => eventually[<=1]'
            '(kind == "deliver" && sender == "wheelsServer" && node == "wheelsClient"))\n')
        engine = build_engine(suite, [{"prop": "fast_delivery"}])
        trace = tmp_path / "late.jsonl"
        summary = run_simulation(make_config(), 60, trace_path=str(trace),
                                 monitor_engine=engine)
        assert summary["verdicts"] == {"fast_delivery": VIOLATED}
        assert check_trace(suite, read_trace(str(trace))) == {"fast_delivery": VIOLATED}


# Suites whose engine reads deliver events or not, each with its monitor rows.
_DELIVER_SUITE = (
    'prop goals_reach_the_server: always((kind == "deliver" && '
    'topic == "/wheels/goal") => node == "wheelsServer")\n'
    'prop no_goal_delivered: never(kind == "deliver" && topic == "/wheels/goal")\n'
    'prop no_goal_atom_at_delivery: never(kind == "deliver" && topic("/wheels/goal"))\n')
TRACED_RUNS = {
    "packaged": lambda: (packaged_suite(), json.loads(
        (importlib.resources.files("roverbench") / "data" / "monitors.json")
        .read_text(encoding="utf-8"))["monitors"]),
    "deliver-keyed": lambda: (parse_suite(_DELIVER_SUITE), None),
    "recurrence": lambda: (parse_suite('prop pose_often: always(eventually[<=2]'
                                       '(topic("/pose")))\n'), None),
    "block-everything": lambda: (parse_suite(
        'prop no_publish: never(kind == "publish")\n'
        'prop arm_goal_due: eventually[<=49](topic("/arm/goal"))\n'),
        [{"prop": "no_publish", "mode": "block"}, {"prop": "arm_goal_due"}]),
}


class TestTracedAndUntraced:
    """A monitored run gives the same verdicts, monitor event counts and
    bus counters whether its trace is streamed, which writes deliver lines
    with no event unless a monitor reads them, or its events kept."""

    @pytest.mark.parametrize("name", sorted(TRACED_RUNS))
    def test_same_verdicts_and_counts(self, tmp_path, name):
        suite, rows = TRACED_RUNS[name]()
        rows = rows or [{"prop": prop} for prop in suite]
        reads_deliveries = build_engine(suite, rows).index.reaches("deliver")
        assert reads_deliveries == (name in ("deliver-keyed", "recurrence"))
        runs = []
        for trace in (None, str(tmp_path / "t.jsonl")):
            summary = run_simulation(make_config(), 200, trace, build_engine(suite, rows))
            runs.append((summary["verdicts"], summary["stats"]["topics"],
                         summary["stats"]["monitor_events"]))
        assert runs[0] == runs[1]

    def test_deadline_passed_by_the_last_deliveries(self, tmp_path):
        """A run's last model events are its last tick's deliveries, which
        no monitor here reads, stamped past the deadline: they still move
        the clock, and every route says Violated."""
        suite = parse_suite('prop due: eventually[<=9](kind == "nothing")\n')
        trace = str(tmp_path / "t.jsonl")
        for path in (None, trace):
            engine = build_engine(suite, [{"prop": "due"}])
            assert not engine.index.reaches("deliver")
            summary = run_simulation(make_config(), 10, path, engine)
            assert summary["verdicts"] == {"due": VIOLATED}
        assert check_trace(suite, read_trace(trace)) == {"due": VIOLATED}

    def test_verify_of_a_deliver_property(self):
        """The explorer's tracer keeps its events, deliver events included,
        and its engine observes each: the first goal delivery violates."""
        suite = parse_suite('prop no_goal_delivered: '
                            'never(kind == "deliver" && topic == "/wheels/goal")\n')
        report = Explorer(make_config(), suite).explore()
        assert report.verdicts == {"no_goal_delivered": VIOLATED}
        ce = report.counterexamples["no_goal_delivered"]
        assert (ce.kind, ce.reason, ce.ticks) == (
            "safety", "event at t=3 violates no_goal_delivered", [[], [], []])


# -- indexed dispatch --------------------------------------------------------


class TestDispatchKeys:
    """Each monitor's keys are the events whose step can change it."""

    def test_packaged_suite_keys(self):
        suite = packaged_suite()
        keys = {n: synthesize(n, suite[n]).keys
                for n in ("env_nonnegative", "readiness_guard_arm",
                          "correct_server_routing", "wind_posture_safety",
                          "response_goal_result_arm")}
        assert keys == {
            "env_nonnegative": {("publish", "/env/sample")},
            "readiness_guard_arm": {"action", "belief"},
            "correct_server_routing": {"goal"},
            "wind_posture_safety": {"belief"},
            "response_goal_result_arm": {("publish", "/arm/goal"), ("publish", "/arm/result")},
        }

    @pytest.mark.parametrize("text", [
        'always(eventually[<=4](action("ping")))',  # arms on any event
        "always(payload.wind >= 0)",  # reads every event
        'never(!topic("/a"))',  # true off its key
        'never(holds("x") && !topic("/a"))',  # mixes the state and the event
    ])
    def test_unproven_no_op_gets_every_event(self, text):
        assert mon(text).keys is None

    def test_bare_window_gets_its_goal_events(self):
        """A bare window is opened at the first event, which every monitor
        is handed; after it only a goal event can change the window.  Its
        verdict on a run is ``check``'s over the run's trace."""
        text = 'eventually[<=5](belief("at(A)"))'
        assert mon(text).keys == {"belief"}
        suite = {"probe": parse_formula(text)}
        verdicts = []
        for stream in ([pub(0, "/x"), pub(3, "/x"), bel(4, "at(A)"), pub(9, "/x")],
                       [pub(0, "/x"), pub(3, "/x"), bel(7, "at(A)"), pub(9, "/x")],
                       [bel(0, "at(A)"), pub(9, "/x")]):
            tracer = EventTracer()
            engine = MonitorEngine([mon(text)])
            engine.attach(tracer, MessageBus(Topology(), tracer))
            for event in stream:
                tracer.emit(event)
                engine.on_tick(event["t"])
            verdicts.append(engine.finalize()["probe"])
            assert verdicts[-1] == check_trace(suite, stream)["probe"]
        assert verdicts == [SATISFIED, VIOLATED, SATISFIED]

    def test_index_matches_kind_and_topic(self):
        index = DispatchIndex([("any publish", frozenset(["publish"])),
                               ("/x", frozenset([("publish", "/x")])),
                               ("every", None),
                               ("belief", frozenset(["belief"]))])
        assert index.targets(pub(0, "/x")) == ["any publish", "/x", "every"]
        assert index.targets(pub(0, "/y")) == ["any publish", "every"]
        assert index.targets(bel(0, "at(A)")) == ["every", "belief"]
        assert index.targets({"t": 0}) == ["every"]
        assert index.targets(bel(0, "at(A)"), first=True) == \
            ["any publish", "/x", "every", "belief"]


TOPICS = ("/env/sample", "/wheels/goal")
BELIEFS = ("arm(Closed)", "at(o)")
NAMES = ("p0", "p1", "p2", "p3", "p4", "p5")

atoms = st.one_of(
    st.sampled_from(TOPICS).map(TopicAtom),
    st.sampled_from(BELIEFS).map(BeliefAtom),
    st.sampled_from(BELIEFS).map(HoldsAtom),
    st.sampled_from(("*", "move_to_waypoint(A)")).map(ActionAtom),
    st.sampled_from([parse_formula(text) for text in (
        'kind == "goal"', 'kind == "deliver"', 'kind == "publish"', 'kind == "verdict"',
        'kind != "belief"', "payload.wind >= 5", "server != target")]),
)
predicates = st.recursive(atoms, lambda sub: st.one_of(
    sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub),
    st.builds(Implies, sub, sub)), max_leaves=4)
bounds = st.integers(1, 3)
# Every shape ``synthesize`` accepts.
formulas = st.one_of(
    predicates.map(Always),
    predicates.map(Never),
    st.builds(lambda t, g, k: Always(Implies(t, Eventually(g, k))), predicates, predicates, bounds),
    st.builds(lambda t, l, r: Always(Implies(t, Until(l, r))), predicates, predicates, predicates),
    st.builds(lambda p, k: Always(Eventually(p, k)), predicates, bounds),
    st.builds(Until, predicates, predicates),
    st.builds(Eventually, predicates, bounds),
)
suites = st.lists(formulas, min_size=1, max_size=len(NAMES)).map(
    lambda fs: dict(zip(NAMES, fs)))

# A belief event is drawn three times as often as any other body (``one_of``
# weighs distinct strategies alike), so that a del of an atom the stream
# added before is common.
bodies = st.one_of(
    *(st.builds(lambda op, atom: {"kind": "belief", "op": op, "atom": atom},
                st.sampled_from(("add", "del")), st.sampled_from(BELIEFS)) for _ in range(3)),
    st.builds(lambda topic, wind: {"kind": "publish", "topic": topic, "payload": {"wind": wind}},
              st.sampled_from(TOPICS), st.integers(3, 6)),
    st.builds(lambda topic: {"kind": "deliver", "topic": topic}, st.sampled_from(TOPICS)),
    st.builds(lambda action: {"kind": "action", "action": action},
              st.sampled_from(("move_to_waypoint(A)", "open_arm"))),
    st.builds(lambda server, target: {"kind": "goal", "phase": "accept",
                                      "server": server, "target": target},
              st.sampled_from("wa"), st.sampled_from("wa")),
    st.builds(lambda prop: {"kind": "verdict", "prop": prop, "outcome": "violation"},
              st.sampled_from(NAMES)),
    st.just({"kind": "header", "format": 1}),
)
# (ticks to advance before the event, event without its tick)
streams = st.lists(st.tuples(st.sampled_from((0, 0, 1)), bodies), max_size=40)

# Over the belief state alone, and false on the empty state: the explorer's
# first step holds a belief event that adds arm(Closed), after other events.
HOLDS_ARM = {"p0": parse_formula('always(holds("arm(Closed)"))')}
HEADER = {"kind": "header", "format": 1}
# An open until obligation broken by an event of no key of the monitor's.
UNTIL_GUARD = {"p0": parse_formula(
    'always(action("*") => (kind != "header" until belief("at(o)")))')}
# Satisfied and Undetermined on every route, though a run's trace holds
# verdict lines.
NO_VERDICT = {"p0": parse_formula('always(kind != "verdict")')}
SOME_VERDICT = {"p0": parse_formula('eventually[<=1000](kind == "verdict")')}
DUE_NOW = {"p0": parse_formula('eventually[<=1](topic("/arm/goal"))')}


# Every bounded-window shape, over streams without verdict events, which a
# lone monitor neither emits nor skips.
windows = st.one_of(
    st.builds(lambda t, g, k: Always(Implies(t, Eventually(g, k))), predicates, predicates, bounds),
    st.builds(lambda p, k: Always(Eventually(p, k)), predicates, bounds),
    st.builds(Eventually, predicates, bounds),
)
# (ticks to advance before the event, whether the tick ends after it, event
# without its tick)
model_streams = st.lists(
    st.tuples(st.sampled_from((0, 0, 1, 2)), st.booleans(),
              bodies.filter(lambda b: b["kind"] != "verdict")),
    min_size=1, max_size=30)


class TestWindowAgreesWithCheck:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(windows, model_streams)
    @example(parse_formula('always(topic("/wheels/goal") => eventually[<=1](kind == "deliver"))'),
             [(0, True, {"kind": "publish", "topic": "/wheels/goal"}),
              (2, True, {"kind": "deliver", "topic": "/wheels/goal"})])
    def test_window_matches_check(self, ast, stream):
        """A window monitor's final verdict is ``check``'s over the same
        events.  As in a run, a tick ends after some events of its own time
        stamp (a run's deliver events come before the tick's end), and the
        last tick ends before the verdict."""
        monitor = synthesize("p0", ast)
        beliefs: set = set()
        tick, events = 0, []
        for advance, tick_ends, body in stream:
            tick += advance
            event = {"t": tick, **body}
            events.append(event)
            fold_belief(beliefs, event)
            monitor.observe(event, frozenset(beliefs))
            if tick_ends:
                monitor.on_tick(tick)
        monitor.on_tick(tick)  # a run ends with its last tick
        assert monitor.finalize() == check_trace({"p0": ast}, events)["p0"]


def event_key_matches(keys, event) -> bool:
    return bool(DispatchIndex([(None, keys)]).targets(event))


class ReferenceEngine(MonitorEngine):
    """The unindexed loop: every model event to every monitor, with a fresh
    belief snapshot per event, folded from its own belief set."""

    def __init__(self, monitors):
        super().__init__(monitors)
        self.beliefs: set = set()

    def observe(self, event):
        if event["kind"] == "verdict":
            return
        self.clock = event["t"]
        fold_belief(self.beliefs, event)
        state = frozenset(self.beliefs)
        for m in self.monitors.values():
            if m.verdict != VIOLATED:
                m.observe(event, state)
                if m.verdict == VIOLATED:
                    self._emit(event["t"], m, "violation", VIOLATED, reason=m.reason)


def monitor_states(monitors, now: int) -> list:
    return [(m.name, m.to_state(now), m.verdict, m.reason) for m in monitors]


class TestIndexedDispatch:
    """Indexed dispatch changes which monitors are called, never a result:
    the engine and the explorer's step agree with the unindexed loop."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(predicates, bodies, bodies, st.sets(st.sampled_from(BELIEFS)))
    def test_partial_evaluation_is_sound(self, node, first, second, beliefs):
        """Off its keys a predicate takes its partial value; one over the
        belief state alone has the same value at any two events."""
        pred, state = _try_pure(node), frozenset(beliefs)
        first, second = {"t": 0, **first}, {"t": 0, **second}
        if pred.outside == STATE_ONLY:
            assert pred.keys == frozenset()
            assert pred(first, state) == pred(second, state)
        elif isinstance(pred.outside, bool) and not event_key_matches(pred.keys, first):
            assert pred(first, state) is pred.outside

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(suites, streams)
    @example(HOLDS_ARM, [(0, HEADER), (1, HEADER)])
    @example(HOLDS_ARM, [(0, {"kind": "verdict", "prop": "p0"}), (0, HEADER)])
    @example(UNTIL_GUARD, [(0, {"kind": "action", "action": "open_arm"}), (0, HEADER)])
    # Verdict lines are output: no route judges them, final ones included.
    @example(NO_VERDICT, [(0, HEADER), (1, HEADER)])
    @example(SOME_VERDICT, [(0, HEADER), (1, HEADER)])
    # A window expires on the clock of the model events: not at a tick that
    # only verdict lines show, and at the end for an event after the tick.
    @example(DUE_NOW, [(0, HEADER), (2, {"kind": "verdict", "prop": "p0"})])
    @example(DUE_NOW, [(0, HEADER), (2, HEADER)])
    def test_engine_matches_unindexed_loop(self, suite, stream):
        """... and its final verdicts are ``check``'s over the trace it
        emitted and the naive semantics' over that trace's model events."""
        engines, tracers, emitted = [], [], []
        for kind in (MonitorEngine, ReferenceEngine):
            tracer = EventTracer()
            emitted.append(recorded(tracer))
            engine = kind([synthesize(n, ast) for n, ast in suite.items()])
            engine.attach(tracer, MessageBus(Topology(), tracer))
            engines.append(engine)
            tracers.append(tracer)
        indexed, reference = engines
        tick = 0
        for advance, body in stream:
            if advance:
                tick += advance
                for engine in engines:
                    engine.on_tick(tick)
            for tracer in tracers:
                tracer.emit({"t": tick, **body})
            assert monitor_states(indexed.monitors.values(), tick) == \
                monitor_states(reference.monitors.values(), tick)
            assert emitted[0] == emitted[1]
        verdicts = indexed.finalize()
        assert verdicts == reference.finalize()
        assert emitted[0] == emitted[1]
        model = [ev for ev in emitted[0] if ev["kind"] != "verdict"]
        if model:
            assert verdicts == check_trace(suite, emitted[0])
            assert verdicts == {n: evaluate_naive(ast, model) for n, ast in suite.items()}

    def test_dispatched_counts_each_handed_event(self):
        """The index counts events once per event key and expands the
        counts through its targets: each monitor's count is the number of
        events handed to it, counted one by one here."""
        suite = {**packaged_suite(), "no_pose": parse_formula('never(topic("/pose"))')}
        handed: dict = {}

        class Counting(MonitorEngine):
            def observe(self, event):
                if event["kind"] != "verdict":
                    for m in self.monitors.values():
                        if self.first or event_key_matches(m.keys, event):
                            handed[m.name] = handed.get(m.name, 0) + 1
                super().observe(event)

        monitors = [m for m in (synthesizable(ast) and synthesize(n, ast)
                                for n, ast in suite.items()) if m]
        summary = run_simulation(make_config(), 200, None, Counting(monitors))
        counts = summary["stats"]["monitor_events"]
        assert summary["verdicts"]["no_pose"] == VIOLATED
        assert counts == {m.name: handed[m.name] for m in monitors}
        assert min(counts.values()) < max(counts.values())

    def test_state_only_monitor_fails_at_the_first_event(self):
        tracer = EventTracer()
        engine = build_engine(HOLDS_ARM, [{"prop": "p0"}])
        engine.attach(tracer, MessageBus(Topology(), tracer))
        tracer.emit({"t": 0, **HEADER})
        assert engine.monitors["p0"].verdict == VIOLATED
        assert "t=0" in engine.monitors["p0"].reason

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(suites)
    @example(HOLDS_ARM)
    def test_bundle_step_matches_unindexed_loop(self, suite):
        bundle, _log = Explorer(make_config(), suite)._build_bundle(None)
        events = recorded(bundle.model.tracer)
        reference = [synthesize(n, ast) for n, ast in suite.items()]
        beliefs: set = set()
        for _ in range(30):
            events.clear()
            bundle.step(None)
            # Verdicts are the engine's output, which no monitor observes.
            for event in (e for e in events if e["kind"] != "verdict"):
                fold_belief(beliefs, event)
                state = frozenset(beliefs)
                for m in reference:
                    if m.verdict != VIOLATED:
                        m.observe(event, state)
            now = bundle.model.tick
            for m in reference:
                m.on_tick(now)
            assert monitor_states(bundle.engine.monitors.values(), now) == \
                monitor_states(reference, now)
