"""Span recording at the boundaries of the simulator's layers.

:func:`install` wraps public functions of ``repro`` with span
recorders before a workload starts: class methods, plus the module
attributes ``repro.sim.batch.run_batch`` / ``run_group`` and
``repro.obs.report.generate``.  No file of the program changes.  Each
span records its name, start, end, parent span and run id (the index
of the outermost span it sits under); spans stay in memory and are
written as JSON Lines when the pass ends.

A span's self time is its duration minus the time its child spans
cover.  Pool workers forked while the wrappers are installed inherit
them, but their spans stay in the worker and are dropped, so the
parent's time blocked on them shows up as ``ExperimentEngine.run_many``
self time (``parallel.pool_wait_s``).
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Layer metric each span's self time is added to.  The three
#: ``Processor`` methods are attributed by context in
#: :func:`layer_metrics` instead.
SPAN_LAYER: Dict[str, str] = {
    "MaterializedTrace.get": "workloads.trace_gen_s",
    "Simulator.__init__": "runner.build_s",
    "Simulator.prepare": "runner.collect_s",
    "Simulator.run": "runner.collect_s",
    "Simulator.run_remaining": "runner.collect_s",
    "run_batch": "kernel.measure_s",
    "Simulator.capture_warm_state": "checkpoint.capture_s",
    "Simulator.capture_live_state": "checkpoint.capture_s",
    "CheckpointStore.put": "checkpoint.capture_s",
    "Simulator.from_checkpoint": "checkpoint.restore_s",
    "Simulator.resume_live": "checkpoint.restore_s",
    "CheckpointStore.get": "checkpoint.restore_s",
    "PowerAccountant.sample_powers": "power.sample_s",
    "PowerAccountant.sample_powers_batch": "power.sample_s",
    "ThermalModel.step_vector": "thermal.step_s",
    "ThermalModel.step_vector_batch": "thermal.step_s",
    "ThermalManager.on_sample": "dtm.on_sample_s",
    "run_group": "batch.group_s",
    "ExperimentEngine.run_many": "parallel.pool_wait_s",
    "ResultCache.get": "parallel.cache_read_s",
    "ResultCache.put": "parallel.cache_write_s",
    "generate": "report.render_s",
    "Report.to_markdown": "report.render_s",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, run id]`` per span, in
        #: start order (so a parent always precedes its children).
        self.spans: List[list] = []
        #: Quantities counted at span boundaries (see ``grow``).
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _enter(self, name: str) -> list:
        stack = self._stack
        index = len(self.spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  stack[0] if stack else index]
        self.spans.append(record)
        stack.append(index)
        return record

    def wrap(self, owner: Any, attr: str, name: str,
             grow: Optional[tuple] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``grow=(counter, probe)`` adds ``probe(*args)`` after the call
        minus ``probe(*args)`` before it to ``counts[counter]``.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn: Callable = raw.__func__ if is_classmethod else raw
        stack = self._stack
        counts = self.counts

        @wraps(fn)
        def spanned(*args, **kwargs):
            record = self._enter(name)
            before = grow[1](*args) if grow else 0
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if grow:
                    counts[grow[0]] += grow[1](*args) - before

        setattr(owner, attr,
                classmethod(spanned) if is_classmethod else spanned)

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call into the program."""
        record = self._enter(name)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "run": run}) + "\n")


def install() -> Tracer:
    """Wrap the layer boundaries of the imported ``repro`` package."""
    from repro.core.dtm import ThermalManager
    from repro.obs import report
    from repro.pipeline.processor import Processor
    from repro.power.accounting import PowerAccountant
    from repro.sim import batch
    from repro.sim.checkpoint import CheckpointStore
    from repro.sim.parallel import ExperimentEngine, ResultCache
    from repro.sim.runner import Simulator
    from repro.thermal.rc_model import ThermalModel
    from repro.workloads.trace import MaterializedTrace

    tracer = Tracer()
    tracer.wrap(MaterializedTrace, "get", "MaterializedTrace.get",
                grow=("workloads.ops_generated",
                      lambda buffer, *_: len(buffer.ops)))
    tracer.wrap(Processor, "run", "Processor.run",
                grow=("kernel.executed_cycles", lambda proc, *_: proc.now))
    for method in ("snapshot_state", "restore_state"):
        tracer.wrap(Processor, method, f"Processor.{method}")
    classes = {cls.__name__: cls for cls in (
        Simulator, CheckpointStore, PowerAccountant, ThermalModel,
        ThermalManager, ExperimentEngine, ResultCache, report.Report)}
    for name in SPAN_LAYER:
        if "." in name and name != "MaterializedTrace.get":
            owner, attr = name.split(".", 1)
            tracer.wrap(classes[owner], attr, name)
    for name in ("run_batch", "run_group"):
        tracer.wrap(batch, name, name)
    tracer.wrap(report, "generate", "generate")
    return tracer


def layer_metrics(tracer: Tracer, wall_s: float, recorder: Any,
                  worker_cpu_s: float, blob_mb: float,
                  speed: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are self seconds of the spans named in :data:`SPAN_LAYER`,
    scaled like the end-to-end times by ``speed``, the host speed
    relative to the reference that ``worker.SpeedProbe`` measured;
    ``Processor.run`` counts as warm-up under ``Simulator.prepare`` and
    as measurement otherwise, and ``Processor.snapshot_state`` /
    ``restore_state`` count as batch work under ``run_batch`` and as
    checkpoint work otherwise.  Counts come from span counts, the
    engines' run accounting, and the simulated results.
    """
    from repro.pipeline.config import ThermalConfig

    spans = tracer.spans
    own = [s * speed for s in tracer.self_times()]
    wall_s *= speed
    in_batch = [False] * len(spans)
    metrics: Counter = Counter({layer: 0.0 for layer in (
        *SPAN_LAYER.values(), "kernel.warmup_s", "batch.snapshot_s",
        "batch.fork_restore_s")})
    calls: Counter = Counter()
    covered = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        in_batch[i] = parent >= 0 and (in_batch[parent]
                                       or parent_name == "run_batch")
        if name == "Processor.run":
            layer = ("kernel.warmup_s" if parent_name == "Simulator.prepare"
                     else "kernel.measure_s")
        elif name == "Processor.snapshot_state":
            layer = "batch.snapshot_s" if in_batch[i] else "checkpoint.capture_s"
            calls["batch.snapshots"] += in_batch[i]
        elif name == "Processor.restore_state":
            layer = ("batch.fork_restore_s" if in_batch[i]
                     else "checkpoint.restore_s")
        else:
            layer = SPAN_LAYER.get(name)
        if layer is not None:
            metrics[layer] += own[i]
            covered += own[i]

    stats = [engine.stats for engine in recorder.engines]
    occupancy: Counter = Counter()
    for s in stats:
        occupancy.update(s.batch_class_occupancy)
    interval = ThermalConfig().sensor_interval_cycles
    leader_cycles = interval * sum(k * n for k, n in occupancy.items())
    batched_runs = sum(s.batched_runs for s in stats)
    cycles = recorder.results[0].cycles if recorder.results else 0
    delivered = batched_runs * cycles
    executed = tracer.counts["kernel.executed_cycles"] + leader_cycles
    kernel_s = metrics["kernel.measure_s"] + metrics["kernel.warmup_s"]
    captures = (calls["Simulator.capture_warm_state"]
                + calls["Simulator.capture_live_state"])
    restores = (calls["Simulator.from_checkpoint"]
                + calls["Simulator.resume_live"])
    results = recorder.results
    total_cycles = sum(r.cycles for r in results)

    metrics.update({
        "workloads.ops_generated": tracer.counts["workloads.ops_generated"],
        "kernel.executed_cycles": executed,
        "kernel.cycles_per_s": executed / kernel_s if kernel_s else 0.0,
        "sim.stall_frac": (sum(r.stall_cycles for r in results)
                           / total_cycles if total_cycles else 0.0),
        "checkpoint.captures": captures,
        "checkpoint.restores": restores,
        "checkpoint.blob_mb": blob_mb,
        "checkpoint.reuse_ratio": (restores / (restores + captures)
                                   if restores + captures else 0.0),
        "power.samples": calls["PowerAccountant.sample_powers"],
        "thermal.steps": calls["ThermalModel.step_vector"],
        "dtm.calls": calls["ThermalManager.on_sample"],
        "dtm.global_stalls": sum(r.global_stalls for r in results),
        "dtm.turnoffs": sum(r.alu_turnoffs + r.rf_turnoffs
                            for r in results),
        "dtm.iq_toggles": sum(r.iq_toggles for r in results),
        "batch.groups": sum(s.batch_groups for s in stats),
        "batch.runs": batched_runs,
        "batch.forks": sum(s.fork_count for s in stats),
        "batch.merges": sum(s.merge_count for s in stats),
        "batch.offloaded_runs": sum(s.offloaded_runs for s in stats),
        "batch.snapshots": calls["batch.snapshots"],
        "batch.shared_cycle_frac": (1.0 - leader_cycles / delivered
                                    if delivered else 0.0),
        "parallel.pool_runs": sum(s.parallel_runs for s in stats),
        "parallel.inline_runs": sum(s.inline_runs for s in stats),
        "parallel.pool_fallbacks": sum(s.pool_fallbacks for s in stats),
        "parallel.retried_runs": sum(s.retried for s in stats),
        "parallel.degraded_runs": sum(s.degraded for s in stats),
        "parallel.rerender_s": recorder.rerender_s * speed,
        "parallel.worker_cpu_s": worker_cpu_s * speed,
        "trace.coverage_frac": covered / wall_s if wall_s else 0.0,
    })
    return dict(metrics)
