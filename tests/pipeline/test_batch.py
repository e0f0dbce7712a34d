"""Batched grid execution: identity, grouping, throughput.

The batched kernel path (``repro.sim.batch`` + ``run_batch`` in
``repro.pipeline.kernel``) locks a whole technique grid of one
benchmark in step through one process.  It must be a perfect stand-in
for per-run execution: every run's :class:`SimulationResult` —
counters, metrics, timelines, energies — ``dataclasses.asdict``-equal
to both the per-run kernel (``REPRO_BATCH=0``) and the reference
per-cycle loop (``REPRO_KERNEL=0``), across the figure-6/7/8 grids,
sanitized and traced as well as plain, with checkpoint restores in
the mix.
"""

import dataclasses
import gc
import random
import time

import pytest

from repro.analysis.sanitize import SanitizerError
from repro.core.mapping import MappingKind
from repro.core.policies import (ALUPolicy, IssueQueuePolicy,
                                 RegFilePolicy, TechniqueConfig)
from repro.pipeline import kernel as kernel_mod
from repro.pipeline.kernel import BatchStats, batch_enabled
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


def run_grid(monkeypatch, configs, batch="1", kernel="1", jobs=1,
             checkpoints=None):
    """Run ``configs`` uncached; with a ``checkpoints`` root the engine
    keeps its warm checkpoints there, otherwise it keeps none."""
    monkeypatch.setenv("REPRO_BATCH", batch)
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    engine = ExperimentEngine(jobs=jobs, use_cache=False,
                              checkpoints=checkpoints)
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

    def test_sanitized_runs_group_apart(self):
        """Sanitized and plain runs of one key form separate groups (a
        sanitized run never follows an unsanitized leader); tracing is
        no key field, and a run whose key is alone stays out."""
        configs = [config("gzip"), config("gzip", sanitize=True),
                   config("mesa"), config("gzip", trace_events=True),
                   config("gzip", sanitize=True)]
        assert plan_groups(configs, range(len(configs))) == [[0, 3],
                                                             [1, 4]]
        assert batch_key(configs[0]) != batch_key(configs[1])

    def test_sanitize_env_joins_the_sanitized_group(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        configs = [config("gzip"), config("gzip", sanitize=True)]
        assert plan_groups(configs, range(len(configs))) == [[0, 1]]

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

    def test_figures_of_a_benchmark_share_a_group(self, monkeypatch):
        """One benchmark's eight non-round-robin Figure 6/7/8 configs
        share a warm state and form one group across their three
        floorplans (batched sampling makes one call pair per
        floorplan), which runs ``asdict``-identical to per-run
        execution and to the reference loop."""
        configs = [c for c in figure_grid()
                   if c.benchmark == "gzip"
                   and c.techniques.alus is not ALUPolicy.ROUND_ROBIN]
        assert len({c.variant for c in configs}) == 3
        assert plan_groups(configs, range(8)) == [list(range(8))]
        batched, stats = run_grid(monkeypatch, configs)
        assert (stats.batch_groups, stats.batched_runs) == (1, 8)
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(batched, per_run)
        reference, _ = run_grid(monkeypatch, configs, batch="0",
                                kernel="0")
        assert_all_identical(batched, reference)


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
        checkpoint yields the same grid as warming from scratch.  The
        cold pass captures the cell's one checkpoint and its three
        followers restore it; the warm pass restores it in all four
        runs."""
        configs = fig8_grid()
        cold, cold_stats = run_grid(monkeypatch, configs,
                                    checkpoints=tmp_path)
        warm, warm_stats = run_grid(monkeypatch, configs,
                                    checkpoints=tmp_path)
        assert (cold_stats.checkpoint_captures,
                cold_stats.checkpoint_restores) == (1, 3)
        assert (warm_stats.checkpoint_captures,
                warm_stats.checkpoint_restores) == (0, 4)
        assert warm_stats.batched_runs == len(configs)
        assert_all_identical(cold, warm)
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert_all_identical(warm, per_run)

    def test_storeless_group_counts_no_checkpoints(self, monkeypatch):
        """Without a store the followers restore the leader's
        in-memory warm state, which is no checkpoint: the engine
        counts no captures and no restores."""
        configs = fig8_grid()
        _, stats = run_grid(monkeypatch, configs)
        assert (stats.batch_groups, stats.batched_runs) == (1, 4)
        assert (stats.checkpoint_captures,
                stats.checkpoint_restores) == (0, 0)

    def test_leader_warm_state_pickled_once(self, monkeypatch, tmp_path):
        """A group's followers restore the blob the leader's store
        entry holds: its warm state is serialized once with a cold
        store and not at all with a warm one."""
        configs = fig8_grid()
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        captures = []
        capture = Simulator.capture_warm_state

        def spy(sim):
            captures.append(sim.config)
            return capture(sim)

        monkeypatch.setattr(Simulator, "capture_warm_state", spy)
        for expected in (1, 0):
            captures.clear()
            outcomes = run_group(configs, str(tmp_path))
            assert len(captures) == expected
            assert_all_identical([o.result for o in outcomes], per_run)


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


def flagged_grid(monkeypatch, name, flag):
    """Grid ``name`` with ``flag`` raised: a config field, or an
    environment variable set for the rest of the test."""
    if flag.startswith("REPRO_"):
        monkeypatch.setenv(flag, "1")
        return GRIDS[name]()
    return GRIDS[name](**{flag: True})


def checkpoint_restores(result):
    return result.metrics.get("trace.events.checkpoint_restore",
                              {}).get("value", 0)


class TestFlaggedGrids:
    """Sanitized and traced runs batch like plain ones: each run of a
    group keeps its own sanitizer and trace collector, and batched
    sampling calls each run's own sampling and DTM hooks.  A batched
    follower is built from its leader's warm blob, and a traced run
    counts that restore, so every comparison here gives each side a
    fresh checkpoint store."""

    #: Runs each grid batches: figure 7's round-robin runs warm apart
    #: from the rest, one per benchmark, and run alone.
    BATCHED = {"fig6": 4, "fig7": 4, "fig8": 4}

    @pytest.mark.parametrize("flag", ["sanitize", "trace_events",
                                      "REPRO_SANITIZE", "REPRO_TRACE"])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_flagged_grid_batches(self, monkeypatch, tmp_path, name,
                                  flag):
        configs = flagged_grid(monkeypatch, name, flag)
        batched, stats = run_grid(monkeypatch, configs,
                                  checkpoints=tmp_path / "batched")
        per_run, off = run_grid(monkeypatch, configs, batch="0",
                                checkpoints=tmp_path / "per-run")
        reference, ref = run_grid(monkeypatch, configs, batch="0",
                                  kernel="0",
                                  checkpoints=tmp_path / "reference")
        assert stats.batched_runs == self.BATCHED[name]
        assert off.batched_runs == 0
        assert_all_identical(batched, per_run)
        assert_all_identical(batched, reference)
        assert (stats.sanitizer_checks == off.sanitizer_checks
                == ref.sanitizer_checks)
        assert stats.sanitized_runs == off.sanitized_runs
        sanitized = flag in ("sanitize", "REPRO_SANITIZE")
        assert (stats.sanitizer_checks > 0) is sanitized
        if not sanitized:
            assert sum(checkpoint_restores(r) for r in batched) > 0

    def test_follower_traces_its_restore(self, monkeypatch, tmp_path):
        """Without a store, a batched follower still restores from its
        leader's blob and counts one restore, where a per-run run
        counts none; with a store each side restores the same runs."""
        configs = fig8_grid(trace_events=True)
        batched, _ = run_grid(monkeypatch, configs)
        per_run, _ = run_grid(monkeypatch, configs, batch="0")
        assert [checkpoint_restores(r) for r in batched] == [0, 1, 1, 1]
        assert [checkpoint_restores(r) for r in per_run] == [0, 0, 0, 0]
        stored, _ = run_grid(monkeypatch, configs, batch="0",
                             checkpoints=tmp_path)
        assert_all_identical(batched, stored)

    def test_mixed_grid(self, monkeypatch, tmp_path):
        """Plain, sanitized and traced runs of one forking benchmark in
        one submission: the sanitized ones batch as a group of their
        own, the traced one joins the plain group and forks off its
        untraced leader."""
        configs = (fig8_grid("perlbmk")[:2]
                   + fig8_grid("perlbmk", sanitize=True)[2:]
                   + fig8_grid("perlbmk", trace_events=True)[3:])
        mixed, stats = run_grid(monkeypatch, configs,
                                checkpoints=tmp_path / "batched")
        assert (stats.batch_groups, stats.batched_runs) == (2, 5)
        # The runs without turnoff fork off their group's leader once
        # the leader turns a copy off.  The plain group's two (the
        # traced run among them) diverge alike and fork into one
        # class; the sanitized group forks one.
        assert stats.fork_count == 2
        assert stats.sanitized_runs == 2
        serial, off = run_grid(monkeypatch, configs, batch="0",
                               checkpoints=tmp_path / "per-run")
        assert_all_identical(mixed, serial)
        assert stats.sanitizer_checks == off.sanitizer_checks > 0

    def test_tampered_kernel_fails_inside_run_batch(self, monkeypatch):
        """The sanitizer checks batched execution: a kernel that
        credits one op to a turned-off ALU per chunk fails a sanitized
        figure-7 grid with ``issue_to_off_unit`` raised from inside
        ``run_batch``."""
        run_chunk = kernel_mod._run_chunk

        def tampered(proc, n_cycles):
            ran, finished = run_chunk(proc, n_cycles)
            for unit in proc.int_alus:
                if unit.busy:
                    unit.counters.ops += 1
                    break
            return ran, finished

        monkeypatch.setattr(kernel_mod, "_run_chunk", tampered)
        with pytest.raises(SanitizerError,
                           match="issue_to_off_unit") as info:
            run_grid(monkeypatch, fig7_grid(sanitize=True))
        assert any(entry.name == "run_batch" for entry in info.traceback)


class TestEngineBookkeeping:
    def test_pool_skipped_when_batch_covers_grid(self, monkeypatch):
        """With the whole grid in one batch group the submission is one
        task, which runs inline even at jobs > 1."""
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        engine = ExperimentEngine(jobs=2, use_cache=False)

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
        engine = ExperimentEngine(jobs=2, use_cache=False)
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

        engine = ExperimentEngine(jobs=1, use_cache=False, runner=runner)
        engine.run_many(fig8_grid())
        assert len(calls) == 4
        assert engine.stats.batched_runs == 0


class TestCounterRow:
    """Every SoA counter of a processor is a view of its one
    ``counter_row``, which the batched kernel moves as a whole."""

    def views(self, proc):
        return [proc._int_bank.ops, proc._fp_add_bank.ops,
                proc._fp_mul_bank.ops, proc.int_iq._c, proc.fp_iq._c,
                proc.regfile._port_reads, proc.regfile._writes]

    def test_counter_arrays_view_the_row(self):
        proc = Simulator(config("gzip")).processor
        views = self.views(proc)
        assert len(views) == 7
        for view in views:
            assert view.base is proc.counter_row
        assert sum(view.size for view in views) == proc.counter_row.size

    def test_view_writes_land_in_the_row(self):
        proc = Simulator(config("gzip")).processor
        proc.int_alus[2].counters.ops = 5
        proc.fp_mul.counters.ops = 2
        proc.int_iq.counters.counter_evals[0] += 3
        proc.fp_iq.counters.compaction_moves[1] = 7
        row = proc.counter_row
        assert sorted(row[row != 0].tolist()) == [2, 3, 5, 7]

    def test_rows_of_two_processors_are_independent(self):
        a = Simulator(config("gzip")).processor
        b = Simulator(config("gzip")).processor
        a.counter_row += 1
        a.regfile.write()
        assert not b.counter_row.any()
        assert b.regfile.counters.writes == [0] * b.regfile.n_copies
        assert a.regfile.counters.writes == [2] * a.regfile.n_copies


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

    def test_followers_diverging_alike_share_a_class(self, monkeypatch):
        """Two followers whose gating diverges alike at one boundary
        fork into one class: the first adopts the leader's state and
        leads it, and the second follows it until the two part.  Every
        run stays asdict-identical to running alone, on the kernel and
        on the reference loop."""
        configs = divergence_grid() + [config(
            "gzip", FloorplanVariant.REGFILE,
            TechniqueConfig(alus=ALUPolicy.BASE))]
        # Runs 1 and 2 diverge alike at 1250, both flip back at 1500
        # (one class still, apart from run 0's), and part at 2000.
        install_gating_schedule(monkeypatch, {
            (1250, 1): True, (1250, 2): True,
            (1500, 1): False, (1500, 2): False, (2000, 2): True})
        executed = []  # (now, processor) at the start of every chunk
        run_chunk = kernel_mod._run_chunk

        def spy(proc, n_cycles):
            executed.append((proc.now, proc))
            return run_chunk(proc, n_cycles)

        monkeypatch.setattr(kernel_mod, "_run_chunk", spy)
        stats = BatchStats()
        outcomes = run_group(configs, stats=stats)
        monkeypatch.setattr(kernel_mod, "_run_chunk", run_chunk)
        assert len({id(p) for now, p in executed if now < 1250}) == 1
        assert len({id(p) for now, p in executed if now < 2000}) == 2
        assert len({id(p) for _, p in executed}) == 3
        assert stats.fork_count == 2
        assert stats.class_occupancy == {2: 3, 3: 6}
        assert_outcomes_match(outcomes, solo_results(configs))
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert_outcomes_match(outcomes, solo_results(configs))

    def test_engine_surfaces_divergence_stats(self, monkeypatch):
        """EngineStats carries the fork count and per-boundary
        execution-class occupancy up from the batched groups."""
        configs = divergence_grid()
        install_gating_schedule(monkeypatch, self.SCHEDULE)
        engine = ExperimentEngine(jobs=1, use_cache=False)
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
        for env in ("REPRO_BATCH", "REPRO_KERNEL", "REPRO_CACHE"):
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
        """``two-bases`` forks two followers at one boundary; their
        gating is alike, so they fork into one class, in which the
        second follows the first."""
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
        # Only the toggler executes before the flip; after it, the
        # toggler and the first base do.
        assert len({id(p) for now, p in executed if now < 1750}) == 1
        assert len({id(p) for _, p in executed}) == 2
        assert stats.fork_count == 1
        # One class at 1250 and 1500; two from 1750 to 3250.
        assert stats.class_occupancy == {1: 2, 2: 7}
        assert_outcomes_match(outcomes, solo_results(configs))
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert_outcomes_match(outcomes, solo_results(configs))


def figure_grid(**overrides):
    """The figure-6/7/8 technique matrix over two benchmarks: a
    toggling/base issue-queue pair, a round-robin + fine-grain/base
    ALU triple, and the four register-file configurations each.  The
    pipeline-reading toggler leads each benchmark's group, submitted
    first in the gzip pair and second in the mesa pair."""
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
    # 18 runs and steps measured cycles only.  Each benchmark's eight
    # non-round-robin runs form one group across the three figures.
    COLD = (69, 20_250, 4, 14)
    WARM = (65, 16_250, 0, 18)

    def test_figure_grid_cold_then_warm(self, monkeypatch, tmp_path):
        for env in ("REPRO_BATCH", "REPRO_KERNEL"):
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
                    stats.fork_count) == (2, 16, 3)
            assert stats.batch_class_occupancy == {1: 9, 3: 2, 4: 7}
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
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_many(configs)  # warm interpreter/caches
        walls = []
        for _ in range(2):
            gc.collect()
            fresh = ExperimentEngine(jobs=1, use_cache=False)
            start = time.perf_counter()
            results = fresh.run_many(configs)
            walls.append(time.perf_counter() - start)
        total_cycles = sum(r.cycles for r in results)
        best = total_cycles / min(walls)
        assert best >= 30_000, (
            f"grid throughput regressed: {best:,.0f} grid cycles/s")
