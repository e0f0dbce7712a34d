"""Parallel experiment execution engine with on-disk result caching.

Paper-figure grids are dozens of independent ``SimulationConfig`` runs
(one benchmark x technique x floorplan each).  This module fans them
over a :class:`~concurrent.futures.ProcessPoolExecutor` and memoizes
completed runs in a content-addressed cache, so re-running a bench
grid after an unrelated edit costs near nothing:

* **worker count** comes from ``REPRO_JOBS`` (default
  ``os.cpu_count()``); ``REPRO_JOBS=1`` is a deterministic inline
  fallback that never forks,
* **submission order is preserved** — results come back in the order
  configs were given, regardless of completion order,
* a **crashed worker pool is retried once** with the unfinished tasks;
  if it breaks again those tasks degrade to inline execution in the
  parent (an application exception, by contrast, propagates
  immediately),
* completed runs are **cached on disk** (``.repro-cache/`` or
  ``REPRO_CACHE_DIR``) keyed by a stable hash of the frozen config
  plus a fingerprint of the ``repro`` source tree, so any code or
  config change invalidates exactly the affected entries.  Disable
  with ``REPRO_CACHE=0``; manage with ``repro cache info|clear``.

Beyond whole-result memoization, the engine eliminates *within-grid*
redundancy with warm-state checkpoints (:mod:`repro.sim.checkpoint`):
technique variants that share a (benchmark, seed, processor, energy,
warmup) cell fork from one post-warm-up snapshot instead of each
re-running warm-up.  Disable with ``REPRO_CHECKPOINTS=0``.

The unit of pool work is a *task*: a batch group from
:func:`repro.sim.batch.plan_groups` (run by ``execute_group`` in one
worker) or one leftover run (run by the engine's runner).  Tasks go
out biggest first.  A task waits for a second *follower* wave only
when another task of the same submission captures the warm
checkpoint it needs; a checkpoint already on disk is no dependency.

Sanitized runs compose: with ``REPRO_SANITIZE=1`` each worker process
installs the runtime sanitizer inside its own simulator and reports
the number of checks performed back to the parent's
:class:`EngineStats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import (BrokenExecutor, Future, ProcessPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union)

from ..analysis.sanitize import sanitize_enabled
from ..obs.metrics import MetricsRegistry
from ..pipeline import accel
from ..pipeline.kernel import BatchStats, batch_enabled
from .checkpoint import (CacheInfo, CheckpointError, CheckpointStore,
                         _stable, checkpoint_key, checkpoints_enabled,
                         code_fingerprint)
from .results import SimulationResult
from .runner import SimulationConfig, Simulator


# ---------------------------------------------------------------------------
# job-count / cache toggles (environment driven)
# ---------------------------------------------------------------------------

def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}") from exc
    return os.cpu_count() or 1


def cache_enabled() -> bool:
    """Whether ``REPRO_CACHE`` permits on-disk result caching."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() not in (
        "0", "false", "no", "off")


# ---------------------------------------------------------------------------
# content-addressed run keys
# ---------------------------------------------------------------------------
# ``code_fingerprint``, ``_stable``, and ``CacheInfo`` live in
# .checkpoint (shared by both stores) and are re-exported here for
# callers of the original API.


def config_key(config: SimulationConfig,
               fingerprint: Optional[str] = None) -> str:
    """Content hash identifying one run: config + code version.

    The effective sanitize state is part of the key so a sanitized run
    is never answered from an unsanitized run's cache entry.
    """
    payload = {
        "config": _stable(config),
        "code": code_fingerprint() if fingerprint is None else fingerprint,
        "sanitize": bool(config.sanitize or sanitize_enabled()),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Pickle store of finished :class:`SimulationResult` objects.

    Entries live at ``<root>/<key[:2]>/<key>.pkl``; writes go through
    a temp file + :func:`os.replace` so concurrent engines never see a
    torn entry.  All operations are best-effort: an unreadable entry
    is a miss, a failed write is skipped.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[SimulationResult]:
        try:
            with open(self._path(key), "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError):
            return None
        return result if isinstance(result, SimulationResult) else None

    def put(self, key: str, result: SimulationResult) -> None:
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for bucket in self.root.glob("??"):
            try:
                bucket.rmdir()
            except OSError:
                pass
        return removed

    def info(self) -> CacheInfo:
        entries = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.pkl"):
                try:
                    size += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return CacheInfo(root=str(self.root), entries=entries,
                         size_bytes=size)


# ---------------------------------------------------------------------------
# worker entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerOutcome:
    """What one worker sends back besides the result itself."""

    result: SimulationResult
    sanitized: bool
    sanitizer_checks: int
    #: Whether this run restored from / captured a warm checkpoint.
    checkpoint_restored: bool = False
    checkpoint_captured: bool = False
    #: Wall-clock seconds per stage (see ``Simulator.stage_times``).
    stage_times: Optional[Dict[str, float]] = None


@dataclass(frozen=True)
class GroupOutcome:
    """What one batch-group task sends back: one outcome per run, in
    group order, and the group's divergence accounting (``None`` when
    the group declined batching and ran run by run)."""

    outcomes: List[WorkerOutcome]
    batch: Optional[BatchStats]


def _prepared_simulator(config: SimulationConfig,
                        checkpoint_root: Optional[str]
                        ) -> Tuple[Simulator, bool, bool]:
    """Build a simulator, restoring or capturing a warm checkpoint.

    Returns ``(simulator, restored, captured)``.  Any checkpoint
    problem — unkeyable config, corrupt blob, non-replayable trace —
    silently falls back to a fresh warm-up: checkpointing is an
    optimization, never a correctness dependency.
    """
    if checkpoint_root is None:
        return Simulator(config), False, False
    store = CheckpointStore(checkpoint_root)
    try:
        key = checkpoint_key(config)
    except TypeError:
        return Simulator(config), False, False
    blob = store.get(key)
    if blob is not None:
        try:
            return Simulator.from_checkpoint(config, blob), True, False
        except CheckpointError:
            pass  # unreadable or stale entry: fresh warm-up below
    simulator = Simulator(config)
    captured = False
    if simulator.supports_checkpoint:
        simulator.prepare()
        store.put(key, simulator.capture_warm_state())
        captured = True
    return simulator, False, captured


def _execute_config(config: SimulationConfig,
                    checkpoint_root: Optional[str] = None) -> WorkerOutcome:
    """Process-pool entry point: run one simulation to completion.

    Built around :class:`Simulator` (not ``run_simulation``) so the
    sanitizer's per-run activity — installed inside the worker when
    ``REPRO_SANITIZE=1`` — can be reported to the parent.  With a
    ``checkpoint_root`` the run restores the cell's warm checkpoint if
    present, or captures it after a fresh warm-up.
    """
    simulator, restored, captured = _prepared_simulator(
        config, checkpoint_root)
    result = simulator.run()
    sanitizer = simulator.sanitizer
    return WorkerOutcome(
        result,
        sanitized=sanitizer is not None,
        sanitizer_checks=(0 if sanitizer is None
                          else sanitizer.stats.total_checks),
        checkpoint_restored=restored,
        checkpoint_captured=captured,
        stage_times=dict(simulator.stage_times))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Cumulative accounting across :meth:`ExperimentEngine.run_many`.

    Every submitted run is counted once as a cache hit, a run executed
    in a pool worker (``parallel_runs``) or a run executed in this
    process (``inline_runs``), so ``cache_hits + parallel_runs +
    inline_runs == total`` at any job count.
    """

    total: int = 0
    cache_hits: int = 0
    parallel_runs: int = 0
    inline_runs: int = 0
    #: Runs of pool tasks lost to a dead worker and resubmitted to a
    #: fresh pool, and runs still unfinished after that retry, which
    #: then ran inline.
    retried: int = 0
    degraded: int = 0
    sanitized_runs: int = 0
    sanitizer_checks: int = 0
    #: Batched-grid execution: runs absorbed into lock-stepped kernel
    #: invocations, and how many invocations there were.  A batched
    #: run is also counted as parallel or inline, wherever its group
    #: ran.
    batched_runs: int = 0
    batch_groups: int = 0
    #: Divergence tolerance inside batched groups: gating forks, runs
    #: folded back in by re-convergence merging, and the per-boundary
    #: execution-class occupancy histogram (classes alive at a
    #: boundary -> boundaries), folded in from every group wherever it
    #: ran.
    fork_count: int = 0
    merge_count: int = 0
    batch_class_occupancy: Dict[int, int] = field(default_factory=dict)
    #: Always 0.  Kept so readers of the former in-group pool offload
    #: and adaptive serial fallback counters keep working; whole
    #: groups now go to the pool instead (DESIGN.md section 8).
    offloaded_runs: int = 0
    pool_fallbacks: int = 0
    #: Warm-checkpoint traffic: runs that restored an existing
    #: checkpoint vs. runs that captured a fresh one.
    checkpoint_restores: int = 0
    checkpoint_captures: int = 0
    #: Accelerator provenance: which execution backend ``REPRO_ACCEL``
    #: resolved to for this engine's runs (``kernel`` = the Python
    #: macro-step kernel) and the one-time JIT compile seconds — paid
    #: outside any run timing — when the numba backend was built.
    accel_backend: str = "kernel"
    accel_compile_s: float = 0.0
    #: Aggregate per-stage wall-clock seconds across executed runs
    #: (CPU time across workers, not elapsed time, when parallel).
    warmup_s: float = 0.0
    restore_s: float = 0.0
    measure_s: float = 0.0
    sample_s: float = 0.0
    #: Fleet-level aggregation of every returned result's serialized
    #: metrics (fresh, parallel, *and* cache-hit runs), merged with
    #: per-kind semantics — see :class:`repro.obs.metrics.
    #: MetricsRegistry`.  Independent of worker count or cache state.
    fleet_metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def stage_seconds(self) -> Dict[str, float]:
        """The per-stage breakdown as a plain dict (report-friendly)."""
        return {"warmup_s": self.warmup_s, "restore_s": self.restore_s,
                "measure_s": self.measure_s, "sample_s": self.sample_s}


Runner = Callable[[SimulationConfig], WorkerOutcome]
#: Indices of the runs one unit of execution covers: one run, or a
#: batch group of two or more.
Task = Tuple[int, ...]


class ExperimentEngine:
    """Runs batches of simulation configs, in parallel when it pays.

    ``jobs`` defaults to :func:`default_jobs`; ``runner`` (a picklable
    callable returning :class:`WorkerOutcome`) exists for tests that
    need crashing or instrumented workers.  Pass ``use_cache=False``
    for always-fresh runs regardless of the environment.

    Warm-state checkpointing activates when the default runner is in
    use and ``REPRO_CHECKPOINTS`` permits it: pass a
    :class:`~repro.sim.checkpoint.CheckpointStore` (or a root path) as
    ``checkpoints`` to place the store explicitly, otherwise it lives
    beside the result cache (``<cache-root>/checkpoints``) and is
    disabled when the result cache is.  ``use_checkpoints=False``
    forces every run through a fresh warm-up.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 use_cache: bool = True,
                 runner: Optional[Runner] = None,
                 checkpoints: Union[CheckpointStore, str, Path,
                                    None] = None,
                 use_checkpoints: bool = True) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self.cache: Optional[ResultCache] = None
        if use_cache and cache_enabled():
            self.cache = cache if cache is not None else ResultCache()
        self.checkpoints: Optional[CheckpointStore] = None
        if runner is None and use_checkpoints and checkpoints_enabled():
            if isinstance(checkpoints, CheckpointStore):
                self.checkpoints = checkpoints
            elif checkpoints is not None:
                self.checkpoints = CheckpointStore(checkpoints)
            elif self.cache is not None:
                self.checkpoints = CheckpointStore(
                    self.cache.root / "checkpoints")
        if runner is not None:
            self.runner: Runner = runner
        elif self.checkpoints is not None:
            self.runner = partial(
                _execute_config,
                checkpoint_root=str(self.checkpoints.root))
        else:
            self.runner = _execute_config
        #: Batched grid execution needs the default execution path (a
        #: custom runner's behavior cannot be replicated in a batch).
        self._default_runner = runner is None
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    def run_one(self, config: SimulationConfig) -> SimulationResult:
        return self.run_many([config])[0]

    def run_many(self, configs: Sequence[SimulationConfig]
                 ) -> List[SimulationResult]:
        """Execute every config; results are in submission order."""
        results: List[Optional[SimulationResult]] = [None] * len(configs)
        keys: List[Optional[str]] = [None] * len(configs)
        pending: List[int] = []
        self.stats.total += len(configs)
        for i, config in enumerate(configs):
            if self.cache is not None:
                key = config_key(config)
                keys[i] = key
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached
                    self.stats.cache_hits += 1
                    continue
            pending.append(i)

        tasks = self._plan_tasks(configs, pending)
        if self.jobs <= 1 or len(tasks) <= 1:
            # Inline tasks run groups first, then leftover runs in
            # submission order, so a run that captures its cell's
            # checkpoint always does so before a later run asks the
            # store for it — no wave split needed.
            for task in tasks:
                self._run_inline(configs, task, results)
        else:
            tasks.sort(key=lambda task: -sum(configs[i].max_cycles
                                             for i in task))
            for wave in self._checkpoint_waves(configs, tasks):
                self._run_pool(configs, wave, results)

        if self.cache is not None:
            for i in pending:
                key, result = keys[i], results[i]
                if key is not None and result is not None:
                    self.cache.put(key, result)

        out: List[SimulationResult] = []
        for result in results:
            if result is None:  # pragma: no cover - engine invariant
                raise RuntimeError("engine produced no result for a run")
            self.stats.fleet_metrics.merge_dict(result.metrics)
            out.append(result)
        # Provenance for bench/report: resolved once per run_many so
        # the stats reflect the backend that actually served this
        # submission (tests flip REPRO_ACCEL between engine calls).
        self.stats.accel_backend = accel.active_backend()
        self.stats.accel_compile_s = accel.accel_compile_s()
        return out

    # ------------------------------------------------------------------
    def _plan_tasks(self, configs: Sequence[SimulationConfig],
                    pending: Sequence[int]) -> List[Task]:
        """Split ``pending`` into tasks: every batch-compatible group
        (see :func:`repro.sim.batch.batch_key`) is one task, executed
        as one lock-stepped kernel invocation, and every other run is
        a task of its own."""
        groups: List[List[int]] = []
        if pending and self._default_runner and batch_enabled():
            from .batch import plan_groups
            groups = plan_groups(configs, pending)
        grouped = {i for group in groups for i in group}
        return ([tuple(group) for group in groups]
                + [(i,) for i in pending if i not in grouped])

    def _task_call(self, configs: Sequence[SimulationConfig], task: Task
                   ) -> Tuple[Callable[..., Union[WorkerOutcome,
                                                  GroupOutcome]], tuple]:
        """The picklable function and arguments that execute ``task``."""
        if len(task) == 1:
            return self.runner, (configs[task[0]],)
        from .batch import execute_group
        checkpoint_root = (str(self.checkpoints.root)
                           if self.checkpoints is not None else None)
        return execute_group, ([configs[i] for i in task],
                               checkpoint_root)

    def _checkpoint_waves(self, configs: Sequence[SimulationConfig],
                          tasks: Sequence[Task]) -> List[List[Task]]:
        """Split pool tasks into leader and follower waves.

        A task whose warm checkpoint another, earlier task of this
        submission captures is a *follower*: it runs in the second
        wave and restores instead of redundantly warming up in
        parallel with its leader.  A checkpoint already on disk, or a
        config that has no checkpoint key, is no dependency.  Every
        run of a task shares one checkpoint key (groups are keyed by
        it), so the first run stands for the task.
        """
        if self.checkpoints is None:
            return [list(tasks)]
        leaders: List[Task] = []
        followers: List[Task] = []
        claimed: set = set()
        for task in tasks:
            try:
                key = checkpoint_key(configs[task[0]])
            except TypeError:
                leaders.append(task)
                continue
            if key in claimed:
                followers.append(task)
                continue
            if not self.checkpoints.has(key):
                claimed.add(key)
            leaders.append(task)
        return [wave for wave in (leaders, followers) if wave]

    def _note(self, outcome: WorkerOutcome) -> None:
        if outcome.sanitized:
            self.stats.sanitized_runs += 1
            self.stats.sanitizer_checks += outcome.sanitizer_checks
        if outcome.checkpoint_restored:
            self.stats.checkpoint_restores += 1
        if outcome.checkpoint_captured:
            self.stats.checkpoint_captures += 1
        if outcome.stage_times:
            times = outcome.stage_times
            self.stats.warmup_s += times.get("warmup_s", 0.0)
            self.stats.restore_s += times.get("restore_s", 0.0)
            self.stats.measure_s += times.get("measure_s", 0.0)
            self.stats.sample_s += times.get("sample_s", 0.0)

    def _collect(self, task: Task,
                 outcome: Union[WorkerOutcome, GroupOutcome],
                 results: List[Optional[SimulationResult]],
                 pooled: bool) -> None:
        """Store a finished task's results and fold its accounting."""
        stats = self.stats
        if isinstance(outcome, GroupOutcome):
            runs, batch = outcome.outcomes, outcome.batch
        else:
            runs, batch = [outcome], None
        for i, run in zip(task, runs):
            results[i] = run.result
            self._note(run)
        if pooled:
            stats.parallel_runs += len(task)
        else:
            stats.inline_runs += len(task)
        if batch is None:
            return
        stats.batched_runs += len(task)
        stats.batch_groups += 1
        stats.fork_count += batch.fork_count
        stats.merge_count += batch.merge_count
        for occupancy, boundaries in batch.class_occupancy.items():
            stats.batch_class_occupancy[occupancy] = (
                stats.batch_class_occupancy.get(occupancy, 0)
                + boundaries)

    def _run_inline(self, configs: Sequence[SimulationConfig], task: Task,
                    results: List[Optional[SimulationResult]]) -> None:
        fn, args = self._task_call(configs, task)
        self._collect(task, fn(*args), results, pooled=False)

    def _run_pool(self, configs: Sequence[SimulationConfig],
                  tasks: Sequence[Task],
                  results: List[Optional[SimulationResult]]) -> None:
        """Fan ``tasks`` over worker pools, in the order given.

        A broken pool (a worker died without reporting — segfault,
        ``os._exit``, OOM kill) leaves its unfinished tasks to one
        fresh-pool retry, then to inline execution.  Application
        exceptions raised by a task propagate immediately.
        """
        remaining = list(tasks)
        for attempt in range(2):
            if not remaining:
                return
            if attempt == 1:
                self.stats.retried += sum(len(task) for task in remaining)
            broken = False
            error: Optional[BaseException] = None
            try:
                with ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(remaining))) as pool:
                    futures: Dict[Future, Task] = {}
                    for task in remaining:
                        fn, args = self._task_call(configs, task)
                        futures[pool.submit(fn, *args)] = task
                    for future in wait(futures).done:
                        exc = future.exception()
                        if isinstance(exc, BrokenExecutor):
                            broken = True
                        elif exc is not None:
                            error = exc
                        else:
                            task = futures[future]
                            self._collect(task, future.result(), results,
                                          pooled=True)
                            remaining.remove(task)
            except BrokenExecutor:  # pragma: no cover - racy submit path
                broken = True
            if error is not None:
                raise error
            if not broken:
                return
        self.stats.degraded += sum(len(task) for task in remaining)
        for task in remaining:
            self._run_inline(configs, task, results)


def run_experiments(configs: Sequence[SimulationConfig],
                    engine: Optional[ExperimentEngine] = None
                    ) -> List[SimulationResult]:
    """Run a grid through ``engine`` (or a fresh default engine)."""
    if engine is None:
        engine = ExperimentEngine()
    return engine.run_many(configs)
