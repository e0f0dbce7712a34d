"""Batched grid execution: one kernel invocation per warm-state group.

A figure grid is many technique variants of the same benchmark.  After
PR 3's warm-state checkpoints those variants already share one warm-up;
this module makes them share *measurement* too.  Pending runs are
grouped by a batch key — the warm-checkpoint key (benchmark, seed,
warm-relevant processor/energy/technique fields) plus everything that
must agree for lock-step execution (cycle budget, thermal
configuration) — and each group executes as a single
:func:`repro.pipeline.kernel.run_batch` invocation: runs that execute
identically share one macro-stepped execution (each follower's
``Processor.counter_row`` receives its leader's activity delta as one
row add), and power/thermal sampling crosses the run axis in one
batched call per boundary.

Every pending run joins the group of its key; a run whose key no
other pending run shares runs on the per-run kernel, and
``REPRO_BATCH=0`` groups nothing.  Sanitized and traced runs batch
too: each run of a group keeps its own accountant, thermal model,
DTM, sanitizer and ``TraceCollector``, and batched sampling calls each
run's own ``sample_powers``, ``step_vector`` and ``on_sample``, which
the sanitizer shadows.  The three execution paths (batched, per-run
kernel, ``REPRO_KERNEL=0`` reference loop) produce
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
from ..pipeline.kernel import BatchRun, BatchStats, run_batch
from .checkpoint import _stable, checkpoint_key
from .parallel import GroupOutcome, WorkerOutcome, _prepared_simulator
from .runner import SimulationConfig, Simulator, _gc_paused


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
    vectors, which only runs of one floorplan can share.  The effective
    sanitize state is appended so a sanitized run never follows an
    unsanitized leader: a follower's queue check reads only the state
    it restored, and the shared execution is checked by its leader.
    """
    payload = {
        "warm": checkpoint_key(config),
        "max_cycles": config.max_cycles,
        "floorplan": config.variant.value,
        "thermal": _stable(config.thermal),
        "sanitize": bool(config.sanitize or sanitize_enabled()),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plan_groups(configs: Sequence[SimulationConfig],
                pending: Sequence[int]) -> List[List[int]]:
    """Partition pending run indices into batchable groups (size >= 2).

    Indices not covered by a returned group (groups of one) stay with
    the caller's per-run path.  Submission order is preserved within
    each group.
    """
    buckets: Dict[str, List[int]] = {}
    for i in pending:
        buckets.setdefault(batch_key(configs[i]), []).append(i)
    return [group for group in buckets.values() if len(group) >= 2]


def run_group(configs: Sequence[SimulationConfig],
              checkpoint_root: Optional[str] = None,
              stats: Optional[BatchStats] = None
              ) -> List[WorkerOutcome]:
    """Execute one group of runs with equal :func:`batch_key`, batched.

    The first run warms up (or restores the cell's on-disk warm
    checkpoint); every other run restores the same warm state from
    that blob, which is the bit-identity-preserving follower
    construction the checkpoint subsystem already guarantees.  The
    leader's warm state is serialized once: here only when no store
    is in use.  A follower counts as a checkpoint restore only when
    there is a store: without one its blob is the leader's in-memory
    warm state, not a checkpoint.
    """
    leader, restored, captured, blob = _prepared_simulator(
        configs[0], checkpoint_root)
    if blob is None:
        leader.prepare()
        blob = leader.capture_warm_state()

    sims = [leader] + [Simulator.from_checkpoint(config, blob)
                       for config in configs[1:]]
    runs: List[BatchRun] = []
    for i, sim in enumerate(sims):
        runs.append(BatchRun(sim.processor, i,
                             reads_pipeline=_reads_pipeline(sim.config)))
        sim._measure_started = True

    with _gc_paused():
        run_batch(runs, configs[0].max_cycles,
                  configs[0].thermal.sensor_interval_cycles,
                  partial(_sample_boundary, sims), stats=stats)
    outcomes: List[WorkerOutcome] = []
    for i, sim in enumerate(sims):
        outcomes.append(WorkerOutcome(
            sim._collect(),
            sanitized=sim.sanitizer is not None,
            sanitizer_checks=(0 if sim.sanitizer is None
                              else sim.sanitizer.stats.total_checks),
            checkpoint_restored=(restored if i == 0
                                 else checkpoint_root is not None),
            checkpoint_captured=captured if i == 0 else False))
    return outcomes


def execute_group(configs: Sequence[SimulationConfig],
                  checkpoint_root: Optional[str] = None) -> GroupOutcome:
    """Engine task entry point: run one group where it lands (a pool
    worker, or the engine's own process)."""
    stats = BatchStats()
    return GroupOutcome(run_group(configs, checkpoint_root, stats=stats),
                        stats)


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
