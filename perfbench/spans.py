"""Layer spans recorded from outside the program.

:func:`instrument` wraps the public entry points of each layer of the
evaluation pipeline.  Every call becomes one span (name, start, end,
parent); spans stay in memory and are summarized when the sample ends.
A layer's self time is its spans' duration minus the time covered by
their direct child spans.

With ``trace=False`` only the scheduler-search counter is installed, so
the cold-is-cold self-check works in timed (untraced) samples too.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span: [name, parent index (-1 for a root), start, end].
Span = List[Any]


class SpanRecorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Work counts gathered by the wrappers (steps, ops, searches).
        self.counts: Dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span: Span = [name, parent, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name -> (self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Tuple[float, int]] = {}
        for (name, _, start, end), covered in zip(self.spans, child_time):
            seconds, calls = out.get(name, (0.0, 0))
            out[name] = (seconds + (end - start) - covered, calls + 1)
        return out

    def total_time(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def nesting_ok(self) -> bool:
        """Every span closed and lies within its parent's interval."""
        for name, parent, start, end in self.spans:
            if end is None or end < start:
                return False
            if parent >= 0:
                p = self.spans[parent]
                if not (p[2] <= start and end <= p[3]):
                    return False
        return True


def _wrap(rec: SpanRecorder, name: str, fn: Callable,
          counter: Optional[Callable[..., None]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(*args, **kwargs)
        return rec.call(name, fn, args, kwargs)

    return wrapper


def _rebind(fn: Callable, wrapper: Callable) -> None:
    """Replace ``fn`` by ``wrapper`` wherever a repro module binds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def instrument(trace: bool) -> SpanRecorder:
    """Install the layer wrappers and return their recorder.

    The wrappers replace class and module attributes for the rest of the
    process, which is why every sample runs in an interpreter of its own.
    """
    from repro.baselines.mad import MadScheduler
    from repro.dse import fingerprint as fp_mod
    from repro.dse.cache import ArtifactCache
    from repro.experiments import common
    from repro.passes import lowering, pipeline
    from repro.passes.registry import Pass
    from repro.sched import serialize
    from repro.sched.mapper import map_group
    from repro.sched.scheduler import Scheduler
    from repro.sim.engine import SimulationEngine
    from repro.workloads import WORKLOAD_BUILDERS

    rec = SpanRecorder()
    schedule = Scheduler.schedule

    def search(self, *args, **kwargs):
        rec.count("searches")
        if not trace:
            return schedule(self, *args, **kwargs)
        name = ("baselines.mad" if isinstance(self, MadScheduler)
                else "sched.search")
        return rec.call(name, schedule, (self,) + args, kwargs)

    Scheduler.schedule = functools.wraps(schedule)(search)
    if not trace:
        return rec

    def count_steps(engine, sched, *args, **kwargs):
        passes = 2 if sched.repeat > 1 else 1
        rec.count("sim.steps", len(sched.steps) * passes)

    def lowered(run):
        @functools.wraps(run)
        def wrapper(self, graph, *args, **kwargs):
            result = rec.call("passes.pipeline", run, (self, graph) + args,
                              kwargs)
            rec.count("passes.ops_out", result.graph.num_operators)
            return result
        return wrapper

    # The scheduler's verification gate is timed as a whole: its body is
    # verify_schedule plus the F002/F003/F004 checks, which the flow
    # module also calls from verify_flow_graph.
    methods = (
        (Scheduler, "replay", "sched.replay"),
        (Scheduler, "_verify_gate", "analysis.sched_verify"),
        (Pass, "apply", "passes.rewrite"),
        (ArtifactCache, "get", "dse.get"),
        (ArtifactCache, "put", "dse.put"),
    )
    for cls, attr, name in methods:
        setattr(cls, attr, _wrap(rec, name, getattr(cls, attr)))
    SimulationEngine.run = _wrap(rec, "sim.run", SimulationEngine.run,
                                 counter=count_steps)
    pipeline.PassPipeline.run = lowered(pipeline.PassPipeline.run)

    functions = (
        (common.evaluate_workload, "experiments.point"),
        (common._evaluate_once, "experiments.variant"),
        (lowering.lower_workload, "passes.lower"),
        (serialize.schedule_to_doc, "sched.to_doc"),
        (serialize.schedule_from_doc, "sched.from_doc"),
        (map_group, "sim.map"),
        (fp_mod.graph_fingerprint, "dse.fingerprint"),
        (fp_mod.schedule_fingerprint, "dse.fingerprint"),
        (fp_mod.result_fingerprint, "dse.fingerprint"),
    )
    for fn, name in functions:
        _rebind(fn, _wrap(rec, name, fn))
    # Only the pipeline's own bindings of the inter-pass verifiers.
    for attr in ("verify_graph", "verify_semantics", "verify_flow_graph"):
        setattr(pipeline, attr,
                _wrap(rec, "analysis.lower_verify", getattr(pipeline, attr)))
    for key, builder in list(WORKLOAD_BUILDERS.items()):
        WORKLOAD_BUILDERS[key] = _wrap(rec, "workloads.build", builder)
    return rec
