"""Deterministic tick engine: assembles the nodes and steps them in a fixed
order, delivering bus traffic between ticks.

Per tick: the environment publishes its samples, each effector server makes
progress, the agent host reasons, and then the bus delivers everything that
was published this tick so it arrives at the start of the next one.  State
snapshots are taken right after delivery, which keeps the pending queue empty
at every snapshot point.
"""

from __future__ import annotations

import itertools
import time

from .action_protocol import ClientEndpoint
from .agent import AgentHost, atom_text
from .bus import MessageBus
from .config import ScenarioConfig
from .effectors import build_servers
from .environment import World
from .messages import EFFECTORS, Topology, server_node
from .tracing import EventTracer, json_encoder

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

# The text of ``json.dumps(entry, sort_keys=True)``, from an encoder built once.
_ENTRY_ORDER = json_encoder(sort_keys=True)

# One line of the ``.explain`` file: ``json.dumps(entry, separators=(",", ":"))``.
_EXPLAIN_LINE = json_encoder(separators=(",", ":"))


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
        self.servers = build_servers(config, tracer)
        self.clients = {e: ClientEndpoint(e) for e in EFFECTORS}
        self.host = AgentHost(config, tracer, self.clients)

    @property
    def tick(self) -> int:
        return self.bus.tick

    def step_tick(self, sink=None) -> int:
        """Advance one tick; return the stages that acted as a bit mask, bit
        i for ``stages[i]`` (wheels, arm, mast, host), taken only when the
        schedule is a choice (``schedule_sensitivity`` and a sink), else
        every stage's bit.

        A stage (an effector server or the agent host) reads only its own
        state, its own inbox and ``bus.tick``, and acts only through
        ``bus.publish``, tracer emits and ``sink.choose``.  So a stage that
        does not emit or choose changes nothing another stage sees, and
        the tick's events, state and choices depend only on the relative
        order of the stages that act, bar the schedule pick.  Emits are
        counted in ``tracer.events``, which a tracer streaming to a file
        never grows, so with one every stage counts as acting."""
        t = self.bus.tick
        self.world.step(t, self.bus, sink)
        stages = [
            lambda: self.servers["wheels"].step(t, self.bus, sink),
            lambda: self.servers["arm"].step(t, self.bus, sink),
            lambda: self.servers["mast"].step(t, self.bus, sink),
            lambda: self.host.step(t, self.bus),
        ]
        acting = ALL_STAGES
        if self.config.schedule_sensitivity and sink is not None:
            events, acting, streams = self.tracer.events, 0, self.tracer.streams
            for i in _SCHEDULES[sink.choose(("schedule",), tuple(range(len(_SCHEDULES))))]:
                before = len(events), sink.index
                stages[i]()
                if streams or before != (len(events), sink.index):
                    acting |= 1 << i
        else:
            for stage in stages:
                stage()
        self.bus.step_deliver()
        return acting

    def to_state(self) -> dict:
        # Inbox entries are sorted, not left in arrival order: same-tick
        # publishes from different stages are order-independent to every
        # consumer, so arrival order is scheduling noise, not state.
        inboxes = {}
        for node, msgs in sorted(self.bus.inboxes.items()):
            if msgs:
                entries = [{"topic": m.topic, "sender": m.sender, "payload": m.payload}
                           for m in msgs]
                if len(entries) > 1:  # a sort computes the key of a lone entry too
                    entries.sort(key=_ENTRY_ORDER)
                inboxes[node] = entries
        return {
            "world": self.world.to_state(),
            "servers": {e: s.to_state() for e, s in sorted(self.servers.items())},
            "host": self.host.to_state(),
            "inboxes": inboxes,
        }


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
                    fh.write(_EXPLAIN_LINE(entry) + "\n")
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
            sink_file.close()
