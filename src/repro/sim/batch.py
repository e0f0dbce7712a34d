"""Batched grid execution: one kernel invocation per warm-state group.

A figure grid is many technique variants of the same benchmark.  After
PR 3's warm-state checkpoints those variants already share one warm-up;
this module makes them share *measurement* too.  Pending runs are
grouped by a batch key — the warm-checkpoint key (benchmark, seed,
warm-relevant processor/energy/technique fields) plus everything that
must agree for lock-step execution (cycle budget, thermal
configuration) — and each group executes as a single
:func:`repro.pipeline.kernel.run_batch` invocation: every run's SoA
counters live in one :class:`~repro.pipeline.soa.RunAxisStore` matrix,
runs that execute identically share one macro-stepped execution, and
power/thermal sampling crosses the run axis in one batched call per
boundary.

The batch path *declines* work it cannot prove equivalent:

* sanitized runs (the sanitizer's boundary checks read live pipeline
  objects, which a follower does not keep current),
* traced runs (``TraceCollector`` events must interleave exactly as a
  solo run would emit them),
* groups of one (nothing to share), and
* runs whose trace cannot be replayed from a repositionable cursor.

Declined runs flow through the existing per-run kernel unchanged, and
``REPRO_BATCH=0`` declines everything — the three execution paths
(batched, per-run kernel, ``REPRO_KERNEL=0`` reference loop) produce
``dataclasses.asdict``-identical per-run results, which
``tests/pipeline/test_batch.py`` asserts across the figure matrix.

A group is the engine's unit of pool work: at ``jobs > 1`` each group
runs whole inside one worker (:func:`execute_group`), so groups of a
grid run in parallel with each other, never split across processes.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..analysis.sanitize import sanitize_enabled
from ..core.policies import IssueQueuePolicy
from ..obs.collector import trace_enabled
from ..pipeline.kernel import BatchRun, BatchStats, run_batch
from ..pipeline.soa import RunAxisStore
from .checkpoint import _stable, checkpoint_key
from .parallel import (GroupOutcome, WorkerOutcome, _execute_config,
                       _prepared_simulator)
from .runner import SimulationConfig, Simulator, _gc_paused


class BatchDeclined(Exception):
    """The group cannot run batched; fall back to per-run execution."""


def _reads_pipeline(config: SimulationConfig) -> bool:
    """Whether this run's DTM inspects live pipeline state at sampling
    boundaries (the activity-toggling policy reads queue occupancy and
    counters) — such runs execute for real inside a batch."""
    return config.techniques.issue_queue is IssueQueuePolicy.ACTIVITY_TOGGLING


def batch_key(config: SimulationConfig) -> str:
    """Grouping key: runs with equal keys can share one batched kernel
    invocation.

    The warm-checkpoint key guarantees identical post-warm-up state
    (same benchmark, seed, processor, energy, warm-relevant technique
    fields); the cycle budget, the floorplan and the full thermal
    configuration are appended because lock-step execution needs one
    boundary schedule, and batched sampling stacks per-run power
    vectors, which only runs of one floorplan can share.  Raises
    ``TypeError`` for configs :func:`checkpoint_key` cannot key.
    """
    payload = {
        "warm": checkpoint_key(config),
        "max_cycles": config.max_cycles,
        "floorplan": config.variant.value,
        "thermal": _stable(config.thermal),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _eligible(config: SimulationConfig) -> bool:
    return not (config.sanitize or sanitize_enabled()
                or config.trace_events or trace_enabled())


def plan_groups(configs: Sequence[SimulationConfig],
                pending: Sequence[int]) -> List[List[int]]:
    """Partition pending run indices into batchable groups (size >= 2).

    Indices not covered by a returned group — ineligible runs and
    groups of one — stay with the caller's per-run path.  Submission
    order is preserved within each group.
    """
    buckets: Dict[str, List[int]] = {}
    for i in pending:
        config = configs[i]
        if not _eligible(config):
            continue
        try:
            key = batch_key(config)
        except TypeError:
            continue
        buckets.setdefault(key, []).append(i)
    return [group for group in buckets.values() if len(group) >= 2]


def run_group(configs: Sequence[SimulationConfig],
              checkpoint_root: Optional[str] = None,
              stats: Optional[BatchStats] = None
              ) -> List[WorkerOutcome]:
    """Execute one batch-compatible group, batched.

    The first run warms up (or restores the cell's on-disk warm
    checkpoint); every other run restores the same warm state from
    that blob, which is the bit-identity-preserving follower
    construction the checkpoint subsystem already guarantees.  The
    leader's warm state is serialized once: here only when no store
    is in use.  Raises :class:`BatchDeclined` when the group turns out
    not to be batchable (non-replayable trace).
    """
    if len(configs) < 2:
        raise BatchDeclined("nothing to batch")
    leader, restored, captured, blob = _prepared_simulator(
        configs[0], checkpoint_root)
    if not leader.supports_checkpoint:
        raise BatchDeclined("trace is not replayable")
    if blob is None:
        leader.prepare()
        blob = leader.capture_warm_state()

    proc0 = leader.processor
    store = RunAxisStore(
        len(configs), len(proc0.int_alus), len(proc0.fp_adders),
        proc0.regfile.n_copies)
    sims = [leader] + [Simulator.from_checkpoint(config, blob)
                       for config in configs[1:]]
    runs: List[BatchRun] = []
    for i, sim in enumerate(sims):
        sim.processor.adopt_run_axis(store, i)
        runs.append(BatchRun(sim.processor, i,
                             reads_pipeline=_reads_pipeline(sim.config)))
        sim._measure_started = True

    with _gc_paused():
        run_batch(runs, store, configs[0].max_cycles,
                  configs[0].thermal.sensor_interval_cycles,
                  partial(_sample_boundary, sims), stats=stats)
    outcomes: List[WorkerOutcome] = []
    for i, sim in enumerate(sims):
        outcomes.append(WorkerOutcome(
            sim._collect(),
            sanitized=sim.sanitizer is not None,
            sanitizer_checks=(0 if sim.sanitizer is None
                              else sim.sanitizer.stats.total_checks),
            checkpoint_restored=restored if i == 0 else True,
            checkpoint_captured=captured if i == 0 else False))
    return outcomes


def execute_group(configs: Sequence[SimulationConfig],
                  checkpoint_root: Optional[str] = None) -> GroupOutcome:
    """Engine task entry point: run one group where it lands (a pool
    worker, or the engine's own process).

    A group that declines batching runs its members one by one
    through the default per-run path here instead, so the task still
    finishes as a unit.
    """
    stats = BatchStats()
    try:
        return GroupOutcome(run_group(configs, checkpoint_root,
                                      stats=stats), stats)
    except BatchDeclined:
        return GroupOutcome([_execute_config(config, checkpoint_root)
                             for config in configs], None)


def _sample_boundary(sims: Sequence[Simulator],
                     class_runs: Sequence[BatchRun]) -> None:
    """Per-boundary sampling for one execution class, batched across
    the run axis.

    Mirrors ``Simulator._on_sample`` per run — power accounting, then
    a thermal step, then the run's own DTM — but crosses the class
    with one :meth:`~repro.power.accounting.PowerAccountant.
    sample_powers_batch` / :meth:`~repro.thermal.rc_model.ThermalModel.
    step_vector_batch` call pair.  Every run keeps its own accountant,
    thermal model, and DTM, so per-run state (and therefore results)
    is untouched by the batching.
    """
    members = [sims[run.index] for run in class_runs]
    first = members[0]
    snapshots = [run.proc.activity_snapshot() for run in class_runs]
    powers = first.accountant.sample_powers_batch(
        [member.accountant for member in members[1:]],
        snapshots, first._interval_s)
    first.thermal.step_vector_batch(
        [member.thermal for member in members[1:]],
        powers, first._interval_s)
    for member, run in zip(members, class_runs):
        member.dtm.on_sample(run.proc)
