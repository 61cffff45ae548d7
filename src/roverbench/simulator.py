"""Deterministic tick engine: assembles the nodes and steps them in a fixed
order, delivering bus traffic between ticks.

Per tick: the environment publishes its samples, each effector server makes
progress, the agent host reasons, and then the bus delivers everything that
was published this tick so it arrives at the start of the next one.  The
explorer reads and restores a state right after delivery, when the pending
queue is empty.
"""

from __future__ import annotations

import itertools
import time

from .action_protocol import ClientEndpoint
from .agent import AgentHost, atom_text
from .bus import MessageBus, StagePort
from .config import ScenarioConfig
from .effectors import build_servers
from .environment import World
from .messages import EFFECTORS, NODE_WORLD, Topology, server_node
from .tracing import EventTracer, dump_event

TRACE_FORMAT = 1

_SCHEDULES = tuple(itertools.permutations(range(4)))

# The acting mask of ``Model.step_tick`` when every stage acts.
ALL_STAGES = (1 << 4) - 1


def _first_same_order() -> tuple:
    """``[mask][s]``: the first schedule that runs the stages in ``mask`` in
    the same relative order as schedule ``s`` does."""
    table = []
    for mask in range(ALL_STAGES + 1):
        first: dict[tuple, int] = {}
        table.append(tuple(first.setdefault(tuple(i for i in order if mask >> i & 1), s)
                           for s, order in enumerate(_SCHEDULES)))
    return tuple(table)


SAME_ORDER = _first_same_order()

class Model:
    """A fully wired system: bus, world, three servers, agent host."""

    def __init__(self, config: ScenarioConfig, tracer: EventTracer, sink=None):
        self.config = config
        self.tracer = tracer
        topology = Topology()
        if config.mutant == "misroute-bus":
            # The wiring bug under test: arm goals land on the mast server.
            topology.reroute("/arm/goal", (server_node("mast"),))
        self.bus = MessageBus(topology, tracer, inbox_limit=config.inbox_limit)
        self.world = World(config, sink=sink)
        self.servers = build_servers(config)
        self.clients = {e: ClientEndpoint(e) for e in EFFECTORS}
        self.host = AgentHost(config, self.clients)

    @property
    def tick(self) -> int:
        return self.bus.tick

    def step_tick(self, sink=None) -> int:
        """Advance one tick; return the stages that acted, as read from
        their ports, in a bit mask: bit i for ``stages[i]`` (wheels, arm,
        mast, host), which run in that order unless the schedule is a choice
        (``schedule_sensitivity`` and a sink).

        The world and each stage step through a ``StagePort`` of their own
        nodes, which enforces the stage contract: the port holds all a stage
        reaches (the tick, its inboxes, publishing as its nodes, emits and
        choices).  So a stage that does not act changes nothing another stage
        sees, and the tick's events, state and choices depend only on the
        relative order of the stages that act, bar the schedule pick."""
        bus = self.bus
        self.world.step(StagePort(bus, (NODE_WORLD,), sink))
        stages = (self.servers["wheels"], self.servers["arm"], self.servers["mast"], self.host)
        ports = [StagePort(bus, stage.nodes, sink) for stage in stages]
        order = _SCHEDULES[0]
        if self.config.schedule_sensitivity and sink is not None:
            order = _SCHEDULES[sink.choose(("schedule",), tuple(range(len(_SCHEDULES))))]
        for i in order:
            stages[i].step(ports[i])
        bus.step_deliver()
        return sum(port.acted << i for i, port in enumerate(ports))

    def to_state(self) -> tuple:
        # The components a state key files: the world, each server, the host,
        # and each node's inbox entries, servers and nodes in name order.  The
        # view shares the live objects' lists and dicts, so it is filed or
        # compared before the model steps again.  A goal id is read as
        # ``rank`` renames it.  An entry is a message's topic and payload
        # (``msg[2:]``): its sender is the topic's one publisher.  Entries are
        # left in arrival order, which is scheduling noise, not state:
        # same-tick publishes from different stages are order-independent to
        # every consumer, so the explorer's key sorts them.
        rank = self.rank
        view = [self.world.to_state(), *[s.to_state(rank) for s in self.servers.values()],
                self.host.to_state()]
        for msgs in self.bus.inboxes.values():
            view.append([m[2:] if "goal_id" not in m.payload else
                         (m.topic, {**m.payload, "goal_id": rank(m.payload["goal_id"])})
                         for m in msgs] if msgs else msgs)
        return tuple(view)

    def rank(self, goal_id: str) -> str:
        """A goal id renamed by its rank among its client's live records,
        which the client keeps in the order of their numbers.  Every goal id
        the model holds names a live record."""
        for client in self.clients.values():
            if goal_id in client.records:
                return f"{client.node}#{[*client.records].index(goal_id)}"
        raise KeyError(f"goal id {goal_id} names no live record")

    def from_state(self, view: tuple, tick: int) -> None:
        """Set a model built with no sink, whose world would draw its choices
        again, to the state a ``to_state`` view stands for, at tick ``tick``.
        Inbox entries come in key order, with fresh seqs."""
        targets = {client.node: server_node(e) for e, client in self.clients.items()}

        # A rank ``node#i`` names the goal ``node:i``, whose target is the
        # server of its client: with ``misroute-bus`` too, where an arm goal
        # lands on the mast server.
        def unrank(rank: str) -> tuple[str, str]:
            return rank.replace("#", ":"), targets[rank.partition("#")[0]]

        parts = len(self.servers)
        self.world.from_state(view[0])
        for server, state in zip(self.servers.values(), view[1:parts + 1]):
            server.from_state(state, unrank)
        self.host.from_state(view[parts + 1])
        self.bus.tick = tick
        for node, entries in zip(self.bus.inboxes, view[parts + 2:]):
            for topic, payload in entries:
                if "goal_id" in payload:
                    payload["goal_id"] = unrank(payload["goal_id"])[0]
                self.bus.queue(node, topic, payload)


def header_event(config: ScenarioConfig, ticks: int | None = None) -> dict:
    event = {"t": 0, "kind": "header", "format": TRACE_FORMAT, "config": config.to_json()}
    if ticks is not None:
        event["ticks"] = ticks
    return event


def run_simulation(config: ScenarioConfig, ticks: int, trace_path: str | None = None,
                   monitor_engine=None) -> dict:
    """Run the mission for ``ticks`` ticks; returns a run summary.  Its
    ``stats`` block holds the wall-clock figures, the per-topic bus counters
    and the events handed to each monitor; everything outside it repeats
    exactly for a config."""
    started = time.perf_counter()
    sink_file = open(trace_path, "w", encoding="utf-8") if trace_path is not None else None
    tracer = EventTracer(sink=sink_file)
    visits: list[str] = []

    def watch(event: dict) -> None:
        if event.get("kind") == "belief" and event.get("op") == "add":
            atom = event["atom"]
            if atom.startswith("at("):
                visits.append(atom[3:-1])

    tracer.add_observer(watch)
    try:
        model = Model(config, tracer)
        if monitor_engine is not None:
            monitor_engine.attach(tracer, model.bus)
        tracer.emit(header_event(config, ticks))
        for _ in range(ticks):
            model.step_tick()
            if monitor_engine is not None:
                monitor_engine.on_tick(model.tick)
        verdicts = monitor_engine.finalize() if monitor_engine is not None else {}
        if trace_path is not None:
            with open(trace_path + ".explain", "w", encoding="utf-8") as fh:
                for entry in model.host.agent.explanations:
                    fh.write(dump_event(entry) + "\n")
        summary = {
            "ticks": ticks,
            "final_tick": model.tick,
            "visited": visits,
            "beliefs": sorted(atom_text(b) for b in model.host.agent.beliefs),
            "pose": list(model.servers["wheels"].pose),
            "messages_published": sum(
                c["published"] for c in model.bus.counters.values()
            ),
            "messages_blocked": sum(c["blocked"] for c in model.bus.counters.values()),
            "verdicts": verdicts,
        }
        if trace_path is not None:
            summary["trace"] = trace_path
            summary["explanations"] = trace_path + ".explain"
        tracer.flush()
        seconds = time.perf_counter() - started
        summary["stats"] = {
            "seconds": round(seconds, 6),
            "ticks_per_s": round(ticks / seconds, 1),
            "trace_bytes": sink_file.tell() if sink_file is not None else 0,
            "topics": {topic: dict(c) for topic, c in sorted(model.bus.counters.items())},
            "monitor_events": monitor_engine.index.handed() if monitor_engine is not None else {},
        }
        return summary
    finally:
        if sink_file is not None:
            tracer.flush()
            sink_file.close()
