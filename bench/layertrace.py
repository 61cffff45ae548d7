"""Layer spans for the traced benchmark run, installed from outside ``src/``.

``LayerTrace.install`` wraps the entry points of each layer of
``roverbench`` at run time: every wrapped call becomes a span with a start,
an end and the span that was open when it began.  A layer's self time is its
span's duration minus the durations of the spans it directly contains.
Counts are taken at the same boundaries.  A hook whose target no longer
exists is recorded in ``absent`` and otherwise skipped, so the traced run
keeps working while the code under it is rewritten.

Work the tracer does for its own bookkeeping inside a span (state probes for
the useful-dispatch ratio, the per-state size walk) runs in ``trace.probe``
spans, which are excluded from every layer's self time.
"""

from __future__ import annotations

import gc
import statistics
import sys
import types
from time import perf_counter

import roverbench

# (span name, module, dotted attribute) for every hooked entry point.
HOOKS = (
    ("bus.publish", "roverbench.bus", "MessageBus.publish"),
    ("bus.step_deliver", "roverbench.bus", "MessageBus.step_deliver"),
    ("tracing.emit", "roverbench.tracing", "EventTracer.emit"),
    ("tracing.encode", "roverbench.tracing", "dump_event"),
    ("tracing.read", "roverbench.tracing", "read_trace"),
    ("environment.step", "roverbench.environment", "World.step"),
    ("effectors.step", "roverbench.action_protocol", "ServerBase.step"),
    ("agent.step", "roverbench.agent", "AgentHost.step"),
    ("simulator.step_tick", "roverbench.simulator", "Model.step_tick"),
    ("simulator.to_state", "roverbench.simulator", "Model.to_state"),
    ("simulator.run", "roverbench.simulator", "run_simulation"),
    ("monitor.observe", "roverbench.monitor", "MonitorEngine.observe"),
    ("monitor.on_tick", "roverbench.monitor", "MonitorEngine.on_tick"),
    ("monitor.dispatch", "roverbench.monitor", "OnlineMonitor.observe"),
    ("monitor.check_trace", "roverbench.monitor", "check_trace"),
    ("prop_dsl.atom_holds", "roverbench.prop_dsl", "atom_holds"),
    ("prop_dsl.evaluate", "roverbench.prop_dsl", "evaluate"),
    ("explorer.clone", "roverbench.explorer", "_Bundle.clone"),
    ("explorer.step", "roverbench.explorer", "_Bundle.step"),
    ("explorer.canonical", "roverbench.explorer", "_Bundle.canonical"),
    ("explorer.liveness", "roverbench.explorer", "Explorer._decide_liveness"),
    ("explorer.roots", "roverbench.explorer", "Explorer._roots"),
    ("explorer.explore", "roverbench.explorer", "Explorer.explore"),
)

PROBE = "trace.probe"

# Spans whose every duration is kept, for percentiles.
SAMPLED = ("explorer.clone",)


def deep_size(root, skip_ids: set) -> int:
    """Bytes of every object reachable from ``root``, each counted once.
    Classes, modules, functions and code are shared program text, not state."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
              types.MethodType, types.CodeType)
    seen = set(skip_ids)
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class LayerTrace:
    """Spans and counts of one traced round, grouped by the operation
    (``phase``) that was running."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, total, self]
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, frame: list, dur: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        key = (self.phase, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if name in self.samples:
            self.samples[name].append(dur)

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, perf_counter() - t0)
        wrapper.__wrapped__ = fn
        return wrapper

    def probe(self, fn, *args):
        """Run tracer bookkeeping as a ``trace.probe`` span."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(PROBE, frame, perf_counter() - t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- hooks ---------------------------------------------------------------

    def _wrapper_for(self, name: str, original):
        timed = self.span(name, original)
        if name == "monitor.dispatch":
            def dispatch(mon, *args, **kwargs):
                before = self.probe(mon.to_state, 0)
                timed(mon, *args, **kwargs)
                if self.probe(mon.to_state, 0) != before:
                    self.count("monitor.useful")
            return dispatch
        if name == "tracing.emit":
            def emit(tracer, event, *args, **kwargs):
                result = timed(tracer, event, *args, **kwargs)
                kind = event.get("kind")
                if kind == "action":
                    self.count("agent.actions")
                elif kind == "goal" and event.get("phase") == "accept":
                    self.count("effectors.goals_accepted")
                held = len(getattr(tracer, "events", ()))
                if held > self.peaks.get(self.phase, 0):
                    self.peaks[self.phase] = held
                return result
            return emit
        if name == "bus.step_deliver":
            def step_deliver(*args, **kwargs):
                delivered = timed(*args, **kwargs)
                self.count("bus.deliver.msgs", len(delivered))
                return delivered
            return step_deliver
        if name == "explorer.liveness":
            def liveness(explorer, states, *args, **kwargs):
                skip = {id(explorer.config)}
                size = self.probe(deep_size, states, skip)
                self.count("explorer.stored_bytes", size)
                self.count("explorer.stored_states", len(states))
                return timed(explorer, states, *args, **kwargs)
            return liveness
        return timed

    def install(self) -> None:
        for name, module_name, dotted in HOOKS:
            module = sys.modules.get(module_name)
            owner_path, _, attr = dotted.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{dotted}")
                continue
            wrapper = self._wrapper_for(name, original)
            if owner is module:
                # Rebind every module-level name for the function, including
                # copies made by ``from ... import``.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != roverbench.__name__:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            else:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _sum(self, name: str, field: int, phase: str | None) -> float:
        return sum(st[field] for (ph, nm), st in self.stats.items()
                   if nm == name and (phase is None or ph == phase))

    def calls(self, name: str, phase: str | None = None) -> int:
        return int(self._sum(name, 0, phase))

    def inclusive_s(self, name: str) -> float:
        return self._sum(name, 1, None)

    def self_s(self, name: str) -> float:
        return self._sum(name, 2, None)

    def counted(self, name: str) -> int:
        return self.counts.get(name, 0)

    def layer_self_s(self) -> float:
        return sum(st[2] for (_ph, nm), st in self.stats.items() if nm != PROBE)

    def percentile_ms(self, name: str, q: float) -> float:
        values = sorted(self.samples.get(name, ()))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1e3
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return cuts[int(q) - 1] * 1e3
