"""Tests for the patrol agent: belief queries, plan steps, and the cycle."""

from __future__ import annotations

from roverbench.agent import (
    AgentAction,
    RoverAgent,
    SetPosture,
    WAIT,
    atom_text,
    belief_value,
    build_plans,
    mission_ready,
    move_to,
    next_waypoint,
    posture_cmd,
)
from roverbench.bus import MessageBus, StagePort
from roverbench.config import make_config
from roverbench.messages import Topology
from roverbench.tracing import EventTracer

ALL_READY = [{"kind": "ready", "module": m} for m in ("wheels", "arm", "mast")]


def make_agent(overrides: dict | None = None) -> RoverAgent:
    return RoverAgent(make_config(overrides or {}))


def at(t: int, tracer: EventTracer | None = None) -> StagePort:
    """A port for a cycle at tick ``t`` whose emits go to ``tracer``."""
    bus = MessageBus(Topology(), tracer or EventTracer())
    bus.tick = t
    return StagePort(bus, ())


def env_percept(wp: str, cls: str) -> dict:
    return {"kind": "env", "wp": wp, "class": cls}


def resolved(action: AgentAction, status: str = "Succeeded") -> dict:
    return {"kind": "resolved", "action": action, "status": status}


# -- action helpers ----------------------------------------------------------


class TestAgentAction:
    def test_text_rendering(self):
        assert move_to("B").text() == "move_to_waypoint(B)"
        assert posture_cmd("arm", "open").text() == "control_arm(open)"

    def test_effector_mapping(self):
        assert move_to("A").effector() == "wheels"
        assert posture_cmd("arm", "close").effector() == "arm"
        assert posture_cmd("mast", "open").effector() == "mast"

    def test_request_shapes(self):
        assert move_to("C").request() == {"kind": "waypoint", "wp": "C"}
        assert posture_cmd("mast", "close").request() == {"cmd": "close"}

    def test_atom_text(self):
        assert atom_text(("at", "A")) == "at(A)"
        assert atom_text(("env", "B", "Radiation")) == "env(B,Radiation)"


# -- belief queries ----------------------------------------------------------


class TestBeliefQueries:
    def test_belief_value_functional_lookup(self):
        beliefs = {("at", "B"), ("env", "B", "Radiation"), ("arm", "Closed")}
        assert belief_value(beliefs, "at") == "B"
        assert belief_value(beliefs, "env", "B") == "Radiation"
        assert belief_value(beliefs, "env", "C") is None

    def test_mission_ready_needs_all_three(self):
        beliefs = {("ready", "wheels"), ("ready", "arm")}
        assert not mission_ready(beliefs)
        beliefs.add(("ready", "mast"))
        assert mission_ready(beliefs)


# -- movement decision -------------------------------------------------------

SUCCESSOR = {"o": "A", "A": "B", "B": "C", "C": "A"}


def chain_oracle(current: str) -> list[str]:
    """Patrol successors of a stop, independently walked: follow the loop
    until it would revisit the current stop or repeat a candidate."""
    chain: list[str] = []
    wp = SUCCESSOR[current]
    while wp != current and wp not in chain:
        chain.append(wp)
        wp = SUCCESSOR[wp]
    return chain


class TestNextWaypoint:
    def test_exhaustive_over_radiation_assignments(self):
        """For every current stop and every subset of radiated waypoints the
        choice is the first non-radiated candidate on the loop, else Wait."""
        config = make_config()
        waypoints = ("o", "A", "B", "C")
        for current in waypoints:
            for mask in range(16):
                radiated = {wp for i, wp in enumerate(waypoints) if mask >> i & 1}
                beliefs = {("env", wp, "Radiation") for wp in radiated}
                beliefs |= {("env", wp, "Fine") for wp in waypoints if wp not in radiated}
                expected = next(
                    (wp for wp in chain_oracle(current) if wp not in radiated), WAIT
                )
                got = next_waypoint(config, current, beliefs)
                assert got == expected, (current, sorted(radiated))

    def test_skips_radiated_b_for_c(self):
        config = make_config()
        beliefs = {("env", "B", "Radiation")}
        assert next_waypoint(config, "A", beliefs) == "C"

    def test_all_candidates_radiated_means_wait(self):
        config = make_config()
        beliefs = {("env", "B", "Radiation"), ("env", "C", "Radiation")}
        assert next_waypoint(config, "A", beliefs) == WAIT

    def test_unknown_env_is_passable(self):
        """Only a positive radiation belief blocks a stop."""
        config = make_config()
        assert next_waypoint(config, "o", set()) == "A"
        assert next_waypoint(config, "A", {("env", "B", "Windy")}) == "B"


class TestSelectActions:
    """The movement decision as the reasoning cycle takes it: the
    start_patrol guard, then the patrol body's next stop."""

    def test_empty_until_mission_ready(self):
        agent = make_agent()
        assert agent.cycle(at(0), ALL_READY[:1]) == []
        assert agent.intention is None

    def test_moves_toward_first_clear_stop(self):
        agent = make_agent()
        assert agent.cycle(at(0), [env_percept("A", "Radiation"), *ALL_READY]) == [move_to("B")]

    def test_waits_when_everything_radiated(self):
        agent = make_agent()
        hot = [env_percept(wp, "Radiation") for wp in ("A", "B", "C")]
        assert agent.cycle(at(0), hot + ALL_READY) == []
        assert agent.intention.rule.name == "start_patrol"
        assert agent.cycle(at(1), [env_percept("C", "Fine")]) == [move_to("C")]


def opened(agent: RoverAgent, *instruments: str) -> RoverAgent:
    agent.perceive(at(0), [resolved(posture_cmd(inst, "open")) for inst in instruments])
    return agent


def arrive(agent: RoverAgent, wp: str, env: str | None, *instruments: str) -> list[AgentAction]:
    """Start the patrol, then arrive at its first stop ``wp`` with ``env``
    (None: no weather reading) perceived and ``instruments`` believed open;
    returns the arrival's actions."""
    assert agent.cycle(at(0), ALL_READY) == [move_to(wp)]
    percepts = [resolved(posture_cmd(inst, "open")) for inst in instruments]
    percepts += [] if env is None else [env_percept(wp, env)]
    return agent.cycle(at(1), percepts + [resolved(move_to(wp))])


class TestPosturePolicy:
    """The posture policy as the plans run it: ``SetPosture.wanted`` under
    the arrival guards."""

    def test_fine_opens_closed_instruments(self):
        assert SetPosture("open").wanted(make_agent()) == [
            posture_cmd("arm", "open"), posture_cmd("mast", "open")]
        assert arrive(make_agent(), "A", "Fine") == [
            posture_cmd("arm", "open"), posture_cmd("mast", "open")]

    def test_fine_skips_already_open(self):
        agent = opened(make_agent(), "arm")
        assert SetPosture("open").wanted(agent) == [posture_cmd("mast", "open")]

    def test_windy_closes_open_instruments(self):
        agent = make_agent()
        assert arrive(agent, "A", "Windy", "arm", "mast") == [
            posture_cmd("arm", "close"), posture_cmd("mast", "close")]
        assert agent.intention.rule.name == "pass_through_windy"

    def test_radiation_also_closes(self):
        agent = make_agent()
        assert arrive(agent, "A", "Radiation", "arm") == [posture_cmd("arm", "close")]
        assert agent.intention.rule.name == "move_on"

    def test_disabled_policy_is_silent(self):
        agent = opened(make_agent({"posture_policy_enabled": False}), "arm")
        assert SetPosture("open").wanted(agent) == []
        assert SetPosture("close").wanted(agent) == []
        agent = make_agent({"posture_policy_enabled": False})
        assert arrive(agent, "A", "Fine", "arm") == [move_to("B")]

    def test_no_location_no_actions(self):
        """A stop with no weather reading opens nothing: the agent moves on."""
        assert arrive(make_agent(), "A", None) == [move_to("B")]


# -- perception --------------------------------------------------------------


class TestPerceive:
    def test_env_belief_replaces_old_class(self):
        agent = make_agent()
        agent.perceive(at(0), [env_percept("B", "Radiation")])
        added, removed = agent.perceive(at(1), [env_percept("B", "Fine")])
        assert ("env", "B", "Fine") in added
        assert ("env", "B", "Radiation") in removed
        assert belief_value(agent.beliefs, "env", "B") == "Fine"

    def test_unchanged_value_emits_nothing(self):
        agent = make_agent()
        agent.perceive(at(0), [env_percept("A", "Windy")])
        added, removed = agent.perceive(at(1), [env_percept("A", "Windy")])
        assert added == [] and removed == []

    def test_ready_latches_once(self):
        agent = make_agent()
        added, _ = agent.perceive(at(0), [{"kind": "ready", "module": "arm"}])
        assert added == [("ready", "arm")]
        added, _ = agent.perceive(at(1), [{"kind": "ready", "module": "arm"}])
        assert added == []

    def test_successful_move_updates_location(self):
        agent = make_agent()
        agent.perceive(at(0), [resolved(move_to("A"))])
        assert belief_value(agent.beliefs, "at") == "A"

    def test_failed_move_keeps_location(self):
        agent = make_agent()
        agent.perceive(at(0), [resolved(move_to("A"), "Aborted")])
        assert belief_value(agent.beliefs, "at") == "o"

    def test_posture_result_updates_instrument_state(self):
        agent = make_agent()
        agent.perceive(at(0), [resolved(posture_cmd("arm", "open"))])
        assert belief_value(agent.beliefs, "arm") == "Open"
        agent.perceive(at(1), [resolved(posture_cmd("arm", "close"))])
        assert belief_value(agent.beliefs, "arm") == "Closed"

    def test_belief_events_traced_del_before_add(self):
        tracer = EventTracer()
        agent = RoverAgent(make_config())
        agent.perceive(at(0, tracer), [env_percept("B", "Radiation")])
        tracer.events.clear()
        agent.perceive(at(1, tracer), [env_percept("B", "Fine")])
        ops = [(ev["op"], ev["atom"]) for ev in tracer.events if ev["kind"] == "belief"]
        assert ops == [("del", "env(B,Radiation)"), ("add", "env(B,Fine)")]


# -- reasoning cycle ---------------------------------------------------------


class TestCycle:
    def test_quiescent_without_readiness(self):
        agent = make_agent()
        assert agent.cycle(at(0), []) == []
        assert agent.intention is None

    def test_patrol_starts_the_cycle_readiness_completes(self):
        """The readiness belief adopts the patrol plan and its first move goes
        out in the same cycle."""
        agent = make_agent()
        actions = agent.cycle(at(0), ALL_READY)
        assert actions == [move_to("A")]
        assert agent.intention is not None
        assert agent.intention.rule.name == "start_patrol"

    def test_failed_drive_is_retried_with_fresh_choice(self):
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        actions = agent.cycle(at(1), [resolved(move_to("A"), "Aborted")])
        assert actions == [move_to("A")]

    def test_arrival_somewhere_unknown_moves_on(self):
        """With no weather picture for the stop the agent just keeps patrolling."""
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        actions = agent.cycle(at(1), [resolved(move_to("A"))])
        assert actions == [move_to("B")]
        assert agent.intention.rule.name == "move_on"

    def test_arrival_at_fine_stop_opens_instruments(self):
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        actions = agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        assert actions == [posture_cmd("arm", "open"), posture_cmd("mast", "open")]
        assert agent.intention.rule.name == "collect_here"

    def test_arrival_at_windy_stop_passes_through(self):
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        actions = agent.cycle(at(1), [env_percept("A", "Windy"), resolved(move_to("A"))])
        assert actions == [move_to("B")]
        assert agent.intention.rule.name == "pass_through_windy"

    def test_dwell_holds_three_cycles_before_closing(self):
        """After the instruments open, the agent sits for the dwell and then
        closes up: three empty cycles, closes on the fourth."""
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        t = 2
        actions = agent.cycle(
            at(t), [resolved(posture_cmd("arm", "open")), resolved(posture_cmd("mast", "open"))]
        )
        empty_cycles = 0
        while not actions:
            t += 1
            empty_cycles += 1
            actions = agent.cycle(at(t), [])
        assert empty_cycles == 3
        assert actions == [posture_cmd("arm", "close"), posture_cmd("mast", "close")]

    def test_explanations_one_per_action(self):
        """Every emitted action gets one explanation naming rule and guard."""
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        emitted = 1 + 2  # one move, two opens
        assert len(agent.explanations) == emitted
        first = agent.explanations[0]
        assert first["rule"] == "start_patrol"
        assert first["guard"]["name"] == "all_ready"
        assert first["action"] == "move_to_waypoint(A)"
        assert {e["rule"] for e in agent.explanations[1:]} == {"collect_here"}

    def test_first_cycle_dumps_initial_beliefs(self):
        tracer = EventTracer()
        agent = RoverAgent(make_config())
        agent.cycle(at(0, tracer), [])
        atoms = sorted(ev["atom"] for ev in tracer.events if ev["kind"] == "belief")
        assert atoms == ["arm(Closed)", "at(o)", "mast(Closed)"]


# -- plan library variants ---------------------------------------------------


class TestPlanVariants:
    def test_default_plan_order(self):
        plans = build_plans(make_config())
        assert [p.name for p in plans] == [
            "start_patrol", "collect_here", "pass_through_windy", "move_on"
        ]
        assert not any(p.preempt for p in plans)

    def test_strict_mode_adds_preempting_evacuation(self):
        plans = build_plans(make_config({"strict_radiation_mode": True}))
        assert plans[0].name == "evacuate_radiation"
        assert plans[0].preempt

    def test_strict_mode_evacuates_mid_dwell(self):
        """Radiation appearing at the occupied stop abandons the science dwell
        and closes up immediately."""
        agent = make_agent({"strict_radiation_mode": True})
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        agent.cycle(
            at(2), [resolved(posture_cmd("arm", "open")), resolved(posture_cmd("mast", "open"))]
        )
        actions = agent.cycle(at(3), [env_percept("A", "Radiation")])
        assert actions == [posture_cmd("arm", "close"), posture_cmd("mast", "close")]
        assert agent.explanations[-1]["rule"] == "evacuate_radiation"

    def test_default_mode_keeps_dwelling_through_radiation(self):
        """Without strict mode the busy dwell ignores the radiation event."""
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        agent.cycle(
            at(2), [resolved(posture_cmd("arm", "open")), resolved(posture_cmd("mast", "open"))]
        )
        assert agent.cycle(at(3), [env_percept("A", "Radiation")]) == []
        assert agent.intention.rule.name == "collect_here"

    def test_env_blind_mutant_sees_fine_everywhere(self):
        agent = make_agent({"mutant": "env-blind"})
        agent.perceive(at(0), [env_percept("B", "Radiation")])
        assert agent.env_view("B") == "Fine"
        assert agent.pick_next("A") == "B"

    def test_premature_mutant_moves_before_readiness(self):
        """The unguarded-start mutant issues its first drive on cycle one,
        before any readiness announcement."""
        agent = make_agent({"mutant": "premature-action"})
        assert agent.cycle(at(0), []) == [move_to("A")]
        assert make_agent().cycle(at(0), []) == []


class TestFromState:
    """An agent set from another's ``to_state`` view has that view and acts
    like it: its unfinished steps are the last of its rule's body."""

    def test_collect_plan_with_a_command_to_retry(self):
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [env_percept("A", "Fine"), resolved(move_to("A"))])
        step = agent.intention.current  # SetPosture("open"), both commands sent
        step.on_resolution(agent, posture_cmd("mast", "open"), "Aborted")
        view = agent.to_state()
        other = make_agent()
        other.from_state(view)
        assert other.to_state() == view
        assert [type(s) for s in other.intention.steps] == [type(s) for s in agent.intention.steps]
        assert other.intention.current.retry == [posture_cmd("mast", "open")]
        assert other.cycle(at(2), []) == agent.cycle(at(2), []) == [posture_cmd("mast", "open")]

    def test_finished_steps_are_not_restored(self):
        agent = make_agent()
        agent.cycle(at(0), ALL_READY)
        agent.cycle(at(1), [resolved(move_to("A"))])  # move_on: its posture step is done
        other = make_agent()
        other.from_state(agent.to_state())
        assert other.to_state() == agent.to_state()
        assert len(other.intention.steps) == len(agent.intention.steps) == 1
