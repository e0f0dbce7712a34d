"""Batched grid execution: identity, grouping, decline, throughput.

The batched kernel path (``repro.sim.batch`` + ``run_batch`` in
``repro.pipeline.kernel``) locks a whole technique grid of one
benchmark in step through one process.  It must be a perfect stand-in
for per-run execution: every run's :class:`SimulationResult` —
counters, metrics, timelines, energies — ``dataclasses.asdict``-equal
to both the per-run kernel (``REPRO_BATCH=0``) and the reference
per-cycle loop (``REPRO_KERNEL=0``), across the figure-6/7/8 grids,
with sanitize/trace declines and checkpoint restores in the mix.
"""

import dataclasses
import gc
import random
import time

import numpy as np
import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import (ALUPolicy, IssueQueuePolicy,
                                 RegFilePolicy, TechniqueConfig)
from repro.pipeline import kernel as kernel_mod
from repro.pipeline.kernel import BatchStats, batch_enabled
from repro.pipeline.soa import RunAxisStore
from repro.sim import batch as batch_mod
from repro.sim.batch import batch_key, plan_groups, run_group
from repro.sim.checkpoint import CheckpointStore
from repro.sim.parallel import ExperimentEngine, ResultCache, WorkerOutcome
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant


def config(benchmark="gzip", variant=FloorplanVariant.ALU,
           techniques=None, **overrides):
    base = dict(benchmark=benchmark, variant=variant,
                max_cycles=2_500, warmup_cycles=1_000)
    if techniques is not None:
        base["techniques"] = techniques
    base.update(overrides)
    return SimulationConfig(**base)


def fig6_grid(**overrides):
    """Issue-queue study: toggling vs base, two benchmarks."""
    return [config(bench, FloorplanVariant.ISSUE_QUEUE,
                   TechniqueConfig(issue_queue=policy), **overrides)
            for bench in ("gzip", "mesa")
            for policy in (IssueQueuePolicy.ACTIVITY_TOGGLING,
                           IssueQueuePolicy.BASE)]


def fig7_grid(**overrides):
    """ALU study: the hot constrained floorplan forks execution
    classes mid-measurement (fine-grain and base diverge at the first
    throttled boundary)."""
    return [config(bench, FloorplanVariant.ALU,
                   TechniqueConfig(alus=policy), **overrides)
            for bench in ("perlbmk", "mesa")
            for policy in (ALUPolicy.ROUND_ROBIN, ALUPolicy.FINE_GRAIN,
                           ALUPolicy.BASE)]


def fig8_grid(benchmark="gzip", **overrides):
    """Register-file study: the port mapping only decides which copy
    each read port drains, and reads are counted per port, so the four
    policies share one warm state and batch as one group — they differ
    only once fine-grain turnoff acts during measurement."""
    return [config(benchmark, FloorplanVariant.REGFILE,
                   TechniqueConfig(regfile=RegFilePolicy(kind, fine)),
                   **overrides)
            for kind in (MappingKind.BALANCED, MappingKind.PRIORITY)
            for fine in (True, False)]


GRIDS = {"fig6": fig6_grid, "fig7": fig7_grid, "fig8": fig8_grid}


def run_grid(monkeypatch, configs, batch="1", kernel="1", jobs=1):
    monkeypatch.setenv("REPRO_BATCH", batch)
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    engine = ExperimentEngine(jobs=jobs, use_cache=False,
                              use_checkpoints=False)
    return engine.run_many(configs), engine.stats


def assert_all_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestBatchEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batch_enabled() is True

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        assert batch_enabled() is False


class TestPlanGroups:
    def test_groups_by_warm_key(self):
        configs = fig6_grid()
        groups = plan_groups(configs, range(len(configs)))
        # One group per benchmark; toggling joins its benchmark's
        # group (it leads the group's *execution class*, which is an
        # intra-batch concern, not a grouping one).
        assert sorted(sorted(g) for g in groups) == [[0, 1], [2, 3]]

    def test_round_robin_warm_key_differs(self):
        configs = fig7_grid()
        groups = plan_groups(configs, range(len(configs)))
        # Round-robin rotation warms differently, so each benchmark's
        # group holds only fine-grain + base.
        assert sorted(sorted(g) for g in groups) == [[1, 2], [4, 5]]

    def test_singletons_and_ineligible_stay_out(self):
        configs = [config("gzip"), config("mesa"),
                   config("gzip", sanitize=True),
                   config("gzip", trace_events=True)]
        assert plan_groups(configs, range(len(configs))) == []

    def test_only_pending_indices_considered(self):
        configs = fig8_grid() + fig8_grid("mesa")
        groups = plan_groups(configs, [0, 1, 4])
        assert sorted(sorted(g) for g in groups) == [[0, 1]]
        # The two benchmarks warm differently and never group.
        assert plan_groups(configs, [1, 6]) == []

    def test_batch_key_separates_cycle_budgets(self):
        a = config("gzip")
        b = config("gzip", max_cycles=5_000)
        assert batch_key(a) != batch_key(b)
        assert batch_key(a) == batch_key(config("gzip"))

    def test_batch_key_separates_floorplans(self):
        """Runs that share a warm state but not a floorplan never
        group: batched sampling stacks per-run power vectors, whose
        length is the floorplan's block count."""
        configs = [config("gzip", FloorplanVariant.ISSUE_QUEUE),
                   config("gzip", FloorplanVariant.ALU),
                   config("gzip", FloorplanVariant.ALU)]
        assert plan_groups(configs, range(len(configs))) == [[1, 2]]


class TestBatchIdentity:
    """The three execution paths agree run for run, grid for grid."""

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_matches_per_run_kernel(self, monkeypatch, name):
        configs = GRIDS[name]()
        batched, stats = run_grid(monkeypatch, configs, batch="1")
        per_run, off_stats = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(batched, per_run)
        assert stats.batched_runs > 0
        assert off_stats.batched_runs == 0

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_matches_reference_loop(self, monkeypatch, name):
        configs = GRIDS[name]()
        batched, _ = run_grid(monkeypatch, configs, batch="1")
        reference, _ = run_grid(monkeypatch, configs,
                                batch="0", kernel="0")
        assert_all_identical(batched, reference)

    def test_expected_group_shapes(self, monkeypatch):
        _, stats6 = run_grid(monkeypatch, fig6_grid())
        assert (stats6.batch_groups, stats6.batched_runs) == (2, 4)
        _, stats7 = run_grid(monkeypatch, fig7_grid())
        assert (stats7.batch_groups, stats7.batched_runs) == (2, 4)
        _, stats8 = run_grid(monkeypatch, fig8_grid())
        assert (stats8.batch_groups, stats8.batched_runs) == (1, 4)

    def test_mappings_of_a_forking_benchmark_share_a_group(
            self, monkeypatch):
        """perlbmk's four register-file configurations, both mapping
        kinds with and without turnoff, run as one group whose runs
        fork once their gating differs, and still match per-run and
        reference-loop execution."""
        configs = fig8_grid("perlbmk")
        batched, stats = run_grid(monkeypatch, configs)
        assert (stats.batch_groups, stats.batched_runs) == (1, 4)
        assert stats.fork_count >= 1
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(batched, per_run)
        reference, _ = run_grid(monkeypatch, configs, batch="0",
                                kernel="0")
        assert_all_identical(batched, reference)

    def test_mid_interval_warm_state(self, monkeypatch):
        """A warm-up that is NOT a multiple of the sensing interval:
        the shared warm restore must resume toward the next *absolute*
        boundary in every run of the group."""
        configs = fig8_grid(warmup_cycles=1_117)
        batched, stats = run_grid(monkeypatch, configs, batch="1")
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert stats.batched_runs == len(configs)
        assert_all_identical(batched, per_run)

    def test_batch_from_disk_checkpoints(self, monkeypatch, tmp_path):
        """The group leader restoring the cell's on-disk warm
        checkpoint yields the same grid as warming from scratch."""
        configs = fig8_grid()
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold_engine = ExperimentEngine(jobs=1, use_cache=False,
                                       use_checkpoints=True)
        cold = cold_engine.run_many(configs)
        warm_engine = ExperimentEngine(jobs=1, use_cache=False,
                                       use_checkpoints=True)
        warm = warm_engine.run_many(configs)
        assert_all_identical(cold, warm)
        assert warm_engine.stats.batched_runs == len(configs)


class TestSeparability:
    """Per-run observability survives batching: each run's metrics
    payload and thermal timelines are exactly what a solo run of the
    same config reports (regression for cross-run bleed through the
    shared run-axis store or the broadcast deltas)."""

    def test_per_run_metrics_and_timelines(self, monkeypatch):
        configs = fig8_grid()
        batched, stats = run_grid(monkeypatch, configs, batch="1")
        assert stats.batched_runs == len(configs)
        for cfg, result in zip(configs, batched):
            solo = Simulator(cfg).run()
            assert result.metrics == solo.metrics
            assert result.timelines == solo.timelines
            assert (result.timeline_interval_cycles
                    == solo.timeline_interval_cycles)

    def test_runs_differ_from_each_other(self, monkeypatch):
        """Sanity: the four RF policies do produce distinct metrics —
        identity above is not vacuous."""
        batched, _ = run_grid(monkeypatch, fig8_grid(), batch="1")
        payloads = [dataclasses.asdict(r) for r in batched]
        assert any(p != payloads[0] for p in payloads[1:])


class TestDecline:
    """Ineligible work flows through the per-run path unchanged."""

    @pytest.mark.parametrize("flag", ["sanitize", "trace_events"])
    def test_flagged_configs_decline(self, monkeypatch, flag):
        configs = fig8_grid(**{flag: True})
        flagged, stats = run_grid(monkeypatch, configs, batch="1")
        assert stats.batched_runs == 0
        serial, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(flagged, serial)

    @pytest.mark.parametrize("env, value", [
        ("REPRO_SANITIZE", "1"), ("REPRO_TRACE", "1")])
    def test_env_flags_decline(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        _, stats = run_grid(monkeypatch, fig8_grid(), batch="1")
        assert stats.batched_runs == 0

    def test_mixed_grid_splits(self, monkeypatch):
        """A grid mixing eligible and sanitized runs batches the
        former and falls back for the latter, with identical output."""
        configs = fig8_grid() + [config("gzip", sanitize=True)]
        mixed, stats = run_grid(monkeypatch, configs, batch="1")
        assert stats.batched_runs == 4
        serial, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(mixed, serial)


class TestEngineBookkeeping:
    def test_pool_skipped_when_batch_covers_grid(self, monkeypatch):
        """With the whole grid in one batch group the submission is one
        task, which runs inline even at jobs > 1."""
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        engine = ExperimentEngine(jobs=2, use_cache=False,
                                  use_checkpoints=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("worker pool must not start")

        monkeypatch.setattr(engine, "_run_pool", no_pool)
        results = engine.run_many(fig8_grid()[:2])
        assert len(results) == 2
        assert engine.stats.batched_runs == 2
        assert engine.stats.batch_groups == 1
        assert engine.stats.parallel_runs == 0
        assert engine.stats.inline_runs == 2

    def test_groups_go_to_pool_whole(self, monkeypatch):
        """A two-group grid at jobs=2 sends each group to the pool as
        one task, and every run is counted as pooled and batched.  One
        group per benchmark, each mixing the two mapping kinds."""
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        engine = ExperimentEngine(jobs=2, use_cache=False,
                                  use_checkpoints=False)
        waves = []
        run_pool = engine._run_pool

        def spy(configs, tasks, results):
            waves.append(list(tasks))
            run_pool(configs, tasks, results)

        monkeypatch.setattr(engine, "_run_pool", spy)
        configs = fig8_grid()[1:3] + fig8_grid("mesa")[1:3]
        results = engine.run_many(configs)
        assert waves == [[(0, 1), (2, 3)]]
        stats = engine.stats
        assert stats.parallel_runs == stats.batched_runs == 4
        assert stats.batch_groups == 2
        assert stats.inline_runs == 0
        serial, _ = run_grid(monkeypatch, configs)
        assert_all_identical(results, serial)

    def test_custom_runner_bypasses_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        calls = []

        def runner(cfg):
            calls.append(cfg.benchmark)
            return WorkerOutcome(Simulator(cfg).run(),
                                 sanitized=False, sanitizer_checks=0)

        engine = ExperimentEngine(jobs=1, use_cache=False,
                                  use_checkpoints=False, runner=runner)
        engine.run_many(fig8_grid())
        assert len(calls) == 4
        assert engine.stats.batched_runs == 0


class TestRunAxisStore:
    def test_views_alias_rows(self):
        store = RunAxisStore(3, n_int_alus=4, n_fp_adders=2,
                             n_rf_copies=2)
        view = store.view(1, "int_ops")
        view += np.arange(4)
        assert store.row(1).sum() == 6
        assert store.row(0).sum() == 0 and store.row(2).sum() == 0

    def test_adopted_processor_writes_through(self):
        sim = Simulator(config("gzip"))
        sim.prepare()
        proc = sim.processor
        store = RunAxisStore(2, len(proc.int_alus),
                             len(proc.fp_adders), proc.regfile.n_copies)
        before = proc.activity_snapshot()
        proc.adopt_run_axis(store, 1)
        assert proc.activity_snapshot() == before
        assert proc._int_bank.ops.base is store.data
        assert store.row(0).sum() == 0  # other rows untouched


def divergence_grid(**overrides):
    """One warm-state group whose follower can be forced to diverge:
    fine-grain + base on one benchmark (round-robin warms apart)."""
    return [config("gzip", FloorplanVariant.ALU,
                   TechniqueConfig(alus=policy), **overrides)
            for policy in (ALUPolicy.FINE_GRAIN, ALUPolicy.BASE)]


def install_gating_schedule(monkeypatch, schedule):
    """Inject a ``{(boundary_now, run_pos): off_flag}`` gating schedule
    into BOTH execution paths: the batched boundary hook (after each
    class's sampling + DTM, exactly where real DTM divergence appears)
    and ``Simulator._on_sample`` for solo runs whose ``_sched_pos``
    attribute is set.  Toggling the last FP adder's turnoff flag is a
    pure gating change on an int-heavy benchmark."""

    def apply(proc, pos):
        flag = schedule.get((proc.now, pos))
        if flag is not None and proc.fp_adders[-1].busy != flag:
            proc.fp_adders[-1].busy = flag
            proc._busy_count[0] += 1 if flag else -1

    orig_boundary = batch_mod._sample_boundary

    def boundary(sims, class_runs):
        orig_boundary(sims, class_runs)
        for run in class_runs:
            apply(run.proc, run.index)

    monkeypatch.setattr(batch_mod, "_sample_boundary", boundary)
    orig_sample = Simulator._on_sample

    def on_sample(self, processor):
        orig_sample(self, processor)
        pos = getattr(self, "_sched_pos", None)
        if pos is not None:
            apply(processor, pos)

    monkeypatch.setattr(Simulator, "_on_sample", on_sample)


def solo_results(configs):
    """Per-run reference executions with the schedule applied."""
    results = []
    for pos, cfg in enumerate(configs):
        sim = Simulator(cfg)
        sim._sched_pos = pos
        results.append(sim.run())
    return results


def assert_outcomes_match(outcomes, results):
    assert len(outcomes) == len(results)
    for outcome, result in zip(outcomes, results):
        assert (dataclasses.asdict(outcome.result)
                == dataclasses.asdict(result))


class TestDivergence:
    """Forced divergence: a follower that forks off its leader must
    stay bit-identical to solo execution, with honest stats."""

    # Boundaries sit at multiples of the 250-cycle sensor interval;
    # warm-up ends at 1000 (or mid-interval at 1117), so 1250 is the
    # first measured boundary.  Run 1 (base) diverges at 1250 and
    # flips its gating three more times on its own class.
    SCHEDULE = {(1250, 1): True, (1500, 1): False,
                (2000, 1): True, (2250, 1): False}

    @pytest.mark.parametrize("warmup", [1_000, 1_117])
    def test_fork_identity(self, monkeypatch, warmup):
        """Including a mid-interval warm restore: the follower forks
        off once, at the first measured boundary, and every run stays
        asdict-identical to running alone."""
        configs = divergence_grid(warmup_cycles=warmup)
        install_gating_schedule(monkeypatch, self.SCHEDULE)
        stats = BatchStats()
        outcomes = run_group(configs, stats=stats)
        assert stats.fork_count == 1
        assert set(stats.class_occupancy) == {2}
        assert_outcomes_match(outcomes, solo_results(configs))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_divergence_schedules(self, monkeypatch, seed):
        """Random gating-divergence schedules across seeds: whatever
        fork pattern falls out, results match the per-run reference
        bit for bit."""
        rng = random.Random(seed)
        schedule = {}
        state = {0: False, 1: False}
        for now in range(1_250, 3_500, 250):
            for pos in (0, 1):
                if rng.random() < 0.4:
                    state[pos] = not state[pos]
                    schedule[(now, pos)] = state[pos]
        configs = divergence_grid()
        install_gating_schedule(monkeypatch, schedule)
        stats = BatchStats()
        outcomes = run_group(configs, stats=stats)
        assert_outcomes_match(outcomes, solo_results(configs))

    def test_schedule_matches_reference_loop(self, monkeypatch):
        """The same forced fork holds against the REPRO_KERNEL=0
        per-cycle reference loop."""
        configs = divergence_grid()
        install_gating_schedule(monkeypatch, self.SCHEDULE)
        outcomes = run_group(configs, stats=BatchStats())
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert_outcomes_match(outcomes, solo_results(configs))

    def test_engine_surfaces_divergence_stats(self, monkeypatch):
        """EngineStats carries the fork count and per-boundary
        execution-class occupancy up from the batched groups."""
        configs = divergence_grid()
        install_gating_schedule(monkeypatch, self.SCHEDULE)
        engine = ExperimentEngine(jobs=1, use_cache=False,
                                  use_checkpoints=False)
        engine.run_many(configs)
        stats = engine.stats
        assert stats.fork_count == 1
        assert stats.merge_count == 0
        assert stats.batch_class_occupancy
        assert sum(stats.batch_class_occupancy.values()) > 0


class TestFaultAfterFork:
    """A fault raised inside a group after one of its runs forked, an
    error or an interrupt, fails the submission cleanly, inline and in
    a pool worker: nothing partial is cached, every checkpoint left
    reads back, and a rerun equals per-run execution."""

    @pytest.mark.parametrize(
        "jobs, fault",
        [(1, RuntimeError), (2, RuntimeError),
         (1, KeyboardInterrupt), (2, KeyboardInterrupt)],
        ids=["1", "2", "interrupt-1", "interrupt-2"])
    def test_fault_leaves_no_partial_entry(self, monkeypatch, tmp_path,
                                           jobs, fault):
        for env in ("REPRO_BATCH", "REPRO_KERNEL", "REPRO_CACHE",
                    "REPRO_CHECKPOINTS"):
            monkeypatch.setenv(env, "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # The fine-grain/base group plus a solo run, so that at jobs=2
        # the group is one of two pool tasks.
        configs = divergence_grid() + [config("mesa")]
        original = batch_mod._sample_boundary
        install_gating_schedule(monkeypatch, {(1250, 1): True})
        scheduled = batch_mod._sample_boundary

        def faulty(sims, class_runs):
            # Run 1 leads a class of its own only once it has forked.
            run = class_runs[0]
            if run.index == 1 and run.proc.now == 2_000:
                raise fault("injected boundary fault")
            scheduled(sims, class_runs)

        monkeypatch.setattr(batch_mod, "_sample_boundary", faulty)
        faulted = ExperimentEngine(jobs=jobs)
        with pytest.raises(fault, match="injected boundary fault"):
            faulted.run_many(configs)
        # At jobs=2 the solo run finished in the pool beside the group.
        assert faulted.stats.parallel_runs == (1 if jobs == 2 else 0)
        assert faulted.stats.inline_runs == 0
        assert ResultCache(tmp_path).info().entries == 0
        assert not list(tmp_path.rglob("*.tmp*"))
        store = CheckpointStore(tmp_path / "checkpoints")
        left = sorted(store.root.glob("??/*.pkl"))
        assert left
        for path in left:
            assert store.get(path.stem) is not None

        monkeypatch.setattr(batch_mod, "_sample_boundary", original)
        engine = ExperimentEngine(jobs=jobs)
        rerun = engine.run_many(configs)
        assert engine.stats.checkpoint_restores >= len(left)
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(rerun, per_run)


def issue_queue_grid(*policies):
    """gzip on the issue-queue floorplan, one run per policy."""
    return [config("gzip", FloorplanVariant.ISSUE_QUEUE,
                   TechniqueConfig(issue_queue=policy))
            for policy in policies]


class TestReaderLeads:
    """The pipeline-reading toggler leads its group's shared class from
    the start: its followers fork off it only once its gating differs
    from theirs."""

    # Run 0 (the toggler) flips its gating at boundary 1750, the third
    # measured one; every run still following it forks there.
    SCHEDULE = {(1750, 0): True}

    @pytest.mark.parametrize("bases", [1, 2], ids=["pair", "two-bases"])
    def test_followers_fork_off_the_reader(self, monkeypatch, bases):
        """``two-bases`` forks two followers at one boundary."""
        configs = issue_queue_grid(IssueQueuePolicy.ACTIVITY_TOGGLING,
                                   *[IssueQueuePolicy.BASE] * bases)
        install_gating_schedule(monkeypatch, self.SCHEDULE)
        executed = []  # (now, processor) at the start of every chunk
        run_chunk = kernel_mod._run_chunk

        def spy(proc, n_cycles):
            executed.append((proc.now, proc))
            return run_chunk(proc, n_cycles)

        monkeypatch.setattr(kernel_mod, "_run_chunk", spy)
        stats = BatchStats()
        outcomes = run_group(configs, stats=stats)
        monkeypatch.setattr(kernel_mod, "_run_chunk", run_chunk)
        # Only the toggler executes before the flip, every run after.
        assert len({id(p) for now, p in executed if now < 1750}) == 1
        assert len({id(p) for _, p in executed}) == 1 + bases
        assert stats.fork_count == bases
        # One class at 1250 and 1500; one per run from 1750 to 3250.
        assert stats.class_occupancy == {1: 2, 1 + bases: 7}
        assert_outcomes_match(outcomes, solo_results(configs))
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert_outcomes_match(outcomes, solo_results(configs))


def figure_grid(**overrides):
    """The figure-6/7/8 technique matrix over two benchmarks: a
    toggling/base issue-queue pair, a round-robin + fine-grain/base
    ALU triple, and the four register-file configurations each.  The
    pipeline-reading toggler leads both pairs, submitted first in the
    gzip pair and second in the mesa pair."""
    toggling, base = (IssueQueuePolicy.ACTIVITY_TOGGLING,
                      IssueQueuePolicy.BASE)
    grid = []
    for bench, pair in (("gzip", (toggling, base)),
                        ("mesa", (base, toggling))):
        grid += [config(bench, FloorplanVariant.ISSUE_QUEUE,
                        TechniqueConfig(issue_queue=policy), **overrides)
                 for policy in pair]
        grid += [config(bench, FloorplanVariant.ALU,
                        TechniqueConfig(alus=policy), **overrides)
                 for policy in (ALUPolicy.ROUND_ROBIN, ALUPolicy.FINE_GRAIN,
                                ALUPolicy.BASE)]
        grid += [config(bench, FloorplanVariant.REGFILE,
                        TechniqueConfig(regfile=RegFilePolicy(kind, fine)),
                        **overrides)
                 for kind in (MappingKind.BALANCED, MappingKind.PRIORITY)
                 for fine in (True, False)]
    return grid


class TestParallelGroups:
    """At jobs > 1 each batch group runs whole in a pool worker: the
    results and the divergence accounting read as at jobs=1."""

    def test_pool_groups_match_serial(self, monkeypatch):
        configs = figure_grid()
        parallel, par = run_grid(monkeypatch, configs, jobs=2)
        serial, ser = run_grid(monkeypatch, configs, jobs=1)
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(parallel, serial)
        assert_all_identical(parallel, per_run)
        for field in ("batched_runs", "batch_groups", "fork_count",
                      "batch_class_occupancy"):
            assert getattr(par, field) == getattr(ser, field), field
        assert par.batched_runs > 0 and par.batch_class_occupancy
        assert par.parallel_runs == len(configs)
        assert ser.inline_runs == len(configs)
        for stats in (par, ser):
            assert (stats.cache_hits + stats.parallel_runs
                    + stats.inline_runs == stats.total)
            assert (stats.merge_count == stats.offloaded_runs
                    == stats.pool_fallbacks == 0)


class TestWorkCounts:
    """The simulated work of a figure grid, pinned exactly.  Work is
    deterministic per seed, so these counts catch on any host what a
    wall-clock floor could only guess at: the kernel disabled (warm-ups
    and solo runs step through the reference loop), batching lost
    (every run steps its own cycles) or checkpoint restores lost
    (every run warms up).  Host-speed regressions are left to the
    repo benchmark (``perf/``)."""

    # (kernel chunks, cycles they stepped, checkpoint captures,
    # restores).  The cold pass warms up 4 checkpoint cells (per
    # benchmark, round-robin and the rest); the warm pass restores all
    # 18 runs and steps measured cycles only.
    COLD = (118, 32_500, 4, 14)
    WARM = (114, 28_500, 0, 18)

    def test_figure_grid_cold_then_warm(self, monkeypatch, tmp_path):
        for env in ("REPRO_BATCH", "REPRO_KERNEL", "REPRO_CHECKPOINTS"):
            monkeypatch.setenv(env, "1")
        stepped = []  # cycles each kernel chunk ran
        run_chunk = kernel_mod._run_chunk

        def spy(proc, n_cycles):
            ran, finished = run_chunk(proc, n_cycles)
            stepped.append(ran)
            return ran, finished

        monkeypatch.setattr(kernel_mod, "_run_chunk", spy)
        configs = figure_grid()
        for expected in (self.COLD, self.WARM):
            stepped.clear()
            engine = ExperimentEngine(jobs=1, use_cache=False,
                                      checkpoints=tmp_path)
            results = engine.run_many(configs)
            stats = engine.stats
            assert (len(stepped), sum(stepped), stats.checkpoint_captures,
                    stats.checkpoint_restores) == expected
            assert (stats.batch_groups, stats.batched_runs,
                    stats.fork_count) == (6, 16, 4)
            assert stats.batch_class_occupancy == {1: 36, 2: 9, 3: 2,
                                                   4: 7}
            assert sum(r.cycles for r in results) == 45_000


class TestThroughput:
    def test_grid_throughput_floor(self, monkeypatch):
        """Acceptance: the batched fig-8 grid sustains >= 30k grid
        cycles/s (sum of all runs' measured cycles over the wall
        clock), matching the single-run floor while carrying four
        runs."""
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        configs = fig8_grid(max_cycles=20_000, warmup_cycles=2_000)
        engine = ExperimentEngine(jobs=1, use_cache=False,
                                  use_checkpoints=False)
        engine.run_many(configs)  # warm interpreter/caches
        walls = []
        for _ in range(2):
            gc.collect()
            fresh = ExperimentEngine(jobs=1, use_cache=False,
                                     use_checkpoints=False)
            start = time.perf_counter()
            results = fresh.run_many(configs)
            walls.append(time.perf_counter() - start)
        total_cycles = sum(r.cycles for r in results)
        best = total_cycles / min(walls)
        assert best >= 30_000, (
            f"grid throughput regressed: {best:,.0f} grid cycles/s")
