"""Tests for the parallel experiment execution engine.

Covers the contract ISSUE-critical paths: serial/parallel result
equivalence, submission-order preservation, cache round trips and
invalidation, broken-pool retry and inline degradation, and the
sanitizer composing with worker processes.
"""

import dataclasses
import os

import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import RegFilePolicy, TechniqueConfig
from repro.sim import batch as batch_mod
from repro.sim.experiments import issue_queue_experiment
from repro.sim.parallel import (ExperimentEngine, ResultCache,
                                WorkerOutcome, _execute_config,
                                config_key, default_jobs, run_experiments)
from repro.sim.runner import SimulationConfig
from repro.thermal.floorplan import FloorplanVariant


def small_config(**overrides):
    base = dict(benchmark="gzip", max_cycles=3_000, warmup_cycles=1_000)
    base.update(overrides)
    return SimulationConfig(**base)


def small_grid():
    return [small_config(benchmark="gzip"),
            small_config(benchmark="mesa"),
            small_config(benchmark="perlbmk")]


# ---------------------------------------------------------------------------
# picklable worker stand-ins (module level so the pool can import them)
# ---------------------------------------------------------------------------

def _crash_once_runner(config):
    """Kill the worker process hard on the first call ever, then behave."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(13)
    return _execute_config(config)


def _crash_in_worker_runner(config):
    """Kill any process that is not the parent (inline runs succeed)."""
    if os.getpid() != int(os.environ["REPRO_TEST_PARENT_PID"]):
        os._exit(17)
    return _execute_config(config)


def _raising_runner(config):
    raise ValueError("boom from worker")


# ---------------------------------------------------------------------------
# job count / configuration
# ---------------------------------------------------------------------------

class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------

class TestConfigKey:
    def test_deterministic(self):
        assert config_key(small_config()) == config_key(small_config())

    def test_sensitive_to_config(self):
        assert (config_key(small_config(seed=1))
                != config_key(small_config(seed=2)))
        assert (config_key(small_config(max_cycles=3_000))
                != config_key(small_config(max_cycles=4_000)))

    def test_sensitive_to_code_fingerprint(self):
        config = small_config()
        assert (config_key(config, fingerprint="0" * 64)
                != config_key(config, fingerprint="1" * 64))

    def test_sensitive_to_sanitize_env(self, monkeypatch):
        config = small_config()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = config_key(config)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert config_key(config) != plain


# ---------------------------------------------------------------------------
# serial / parallel equivalence
# ---------------------------------------------------------------------------

class TestEquivalence:
    def test_serial_and_parallel_results_identical(self):
        grid = small_grid()
        serial = ExperimentEngine(jobs=1, use_cache=False).run_many(grid)
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_many(grid)
        assert len(serial) == len(parallel) == len(grid)
        for one, other in zip(serial, parallel):
            assert dataclasses.asdict(one) == dataclasses.asdict(other)

    def test_submission_order_preserved(self):
        grid = small_grid()
        results = ExperimentEngine(jobs=4, use_cache=False).run_many(grid)
        assert [r.benchmark for r in results] == [c.benchmark for c in grid]

    def test_single_pending_run_stays_inline(self):
        engine = ExperimentEngine(jobs=4, use_cache=False)
        engine.run_many([small_config()])
        assert engine.stats.inline_runs == 1
        assert engine.stats.parallel_runs == 0

    def test_jobs_one_never_forks(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_many(small_grid())
        assert engine.stats.inline_runs == 3
        assert engine.stats.parallel_runs == 0


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_second_run_served_from_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        grid = small_grid()
        first = engine.run_many(grid)
        assert engine.stats.cache_hits == 0
        second = engine.run_many(grid)
        assert engine.stats.cache_hits == len(grid)
        assert engine.stats.cache_hit_rate == 0.5
        for one, other in zip(first, second):
            assert dataclasses.asdict(one) == dataclasses.asdict(other)

    def test_config_change_misses(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        engine.run_many([small_config(seed=1)])
        engine.run_many([small_config(seed=2)])
        assert engine.stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """Garbage, a replaced byte, or one bit flipped anywhere in a
        stored entry reads as a miss, and the grid re-runs to the fresh
        result."""
        cache = ResultCache(tmp_path)
        config = small_config()
        key = config_key(config)
        engine = ExperimentEngine(jobs=1, cache=cache)
        fresh = engine.run_many([config])[0]
        path = cache._path(key)
        entry = path.read_bytes()
        renamed = entry.replace(b"gzip", b"gz\xffp")
        assert renamed != entry
        step = -(-len(entry) // 16)
        flipped = [entry[:at] + bytes([entry[at] ^ 1]) + entry[at + 1:]
                   for at in range(0, len(entry), step)]
        for corrupt in (b"not a pickle", renamed, *flipped):
            path.write_bytes(corrupt)
            assert cache.get(key) is None
        path.write_bytes(renamed)
        rerun = engine.run_many([config])[0]
        assert engine.stats.cache_hits == 0
        assert dataclasses.asdict(rerun) == dataclasses.asdict(fresh)

    def test_clear_and_info(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(jobs=1, cache=cache)
        engine.run_many(small_grid())
        info = cache.info()
        assert info.entries == 3
        assert info.size_bytes > 0
        assert cache.clear() == 3
        assert cache.info().entries == 0

    def test_cache_disabled_by_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        assert engine.cache is None

    def test_cache_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache().root == tmp_path / "alt"


# ---------------------------------------------------------------------------
# crash handling
# ---------------------------------------------------------------------------

class TestCrashHandling:
    def test_crashed_worker_is_retried(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TEST_CRASH_FLAG",
                           str(tmp_path / "crashed"))
        engine = ExperimentEngine(jobs=2, use_cache=False,
                                  runner=_crash_once_runner)
        results = engine.run_many(small_grid())
        assert engine.stats.retried >= 1
        assert engine.stats.degraded == 0
        assert [r.benchmark for r in results] == ["gzip", "mesa", "perlbmk"]

    def test_persistent_crash_degrades_to_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        engine = ExperimentEngine(jobs=2, use_cache=False,
                                  runner=_crash_in_worker_runner)
        grid = small_grid()[:2]
        results = engine.run_many(grid)
        assert engine.stats.degraded == 2
        assert engine.stats.inline_runs == 2
        assert [r.benchmark for r in results] == ["gzip", "mesa"]

    def test_application_exception_propagates(self):
        engine = ExperimentEngine(jobs=2, use_cache=False,
                                  runner=_raising_runner)
        with pytest.raises(ValueError, match="boom from worker"):
            engine.run_many(small_grid()[:2])


def two_group_grid():
    """Four register-file runs that batch as two groups of two: one
    group per benchmark, each mixing the two mapping kinds (the
    mapping does not shape warm state)."""
    return [small_config(benchmark=bench, variant=FloorplanVariant.REGFILE,
                         techniques=TechniqueConfig(
                             regfile=RegFilePolicy(kind, fine)))
            for bench in ("gzip", "mesa")
            for kind, fine in ((MappingKind.BALANCED, True),
                               (MappingKind.PRIORITY, False))]


class TestGroupTaskDeath:
    """A pool worker killed while it runs a batch-group task: the
    group is retried on a fresh pool, then run inline, and the grid
    still comes back identical to jobs=1 with no temp file left."""

    def kill_workers(self, monkeypatch, flag=None):
        """Make the batched sampling hook ``os._exit`` in any process
        but this one (only the first time, when ``flag`` names a file
        that marks the first death)."""
        parent = os.getpid()
        sample = batch_mod._sample_boundary

        def dying_sample(sims, class_runs):
            if os.getpid() != parent and (flag is None
                                          or not flag.exists()):
                if flag is not None:
                    flag.touch()
                os._exit(19)
            sample(sims, class_runs)

        monkeypatch.setattr(batch_mod, "_sample_boundary", dying_sample)

    def run_and_check(self, tmp_path):
        grid = two_group_grid()
        engine = ExperimentEngine(jobs=2,
                                  cache=ResultCache(tmp_path / "cache"))
        results = engine.run_many(grid)
        serial = ExperimentEngine(jobs=1, use_cache=False,
                                  use_checkpoints=False).run_many(grid)
        for a, b in zip(results, serial):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert not [path for path in tmp_path.rglob("*")
                    if ".tmp" in path.name]
        assert list((tmp_path / "cache" / "checkpoints").rglob("*.pkl"))
        stats = engine.stats
        assert stats.batched_runs == len(grid)
        assert (stats.cache_hits + stats.parallel_runs
                + stats.inline_runs == stats.total == len(grid))
        return stats

    def test_persistent_death_retries_then_runs_inline(self, monkeypatch,
                                                       tmp_path):
        self.kill_workers(monkeypatch)
        stats = self.run_and_check(tmp_path)
        assert stats.retried == stats.degraded == 4
        assert stats.inline_runs == 4
        assert stats.parallel_runs == 0

    def test_single_death_is_retried_in_a_fresh_pool(self, monkeypatch,
                                                     tmp_path):
        self.kill_workers(monkeypatch, flag=tmp_path / "died")
        stats = self.run_and_check(tmp_path)
        assert stats.retried >= 2
        assert stats.degraded == 0
        assert stats.parallel_runs == 4


# ---------------------------------------------------------------------------
# sanitizer composes with worker processes
# ---------------------------------------------------------------------------

class TestSanitizerInWorkers:
    def test_workers_install_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_many(small_grid()[:2])
        assert engine.stats.parallel_runs == 2
        assert engine.stats.sanitized_runs == 2
        assert engine.stats.sanitizer_checks > 0

    def test_inline_runs_report_sanitizer_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_many([small_config()])
        assert engine.stats.sanitized_runs == 1
        assert engine.stats.sanitizer_checks > 0

    def test_worker_outcome_reports_checks(self):
        outcome = _execute_config(small_config(sanitize=True))
        assert isinstance(outcome, WorkerOutcome)
        assert outcome.sanitized
        assert outcome.sanitizer_checks > 0


# ---------------------------------------------------------------------------
# experiments route through the engine
# ---------------------------------------------------------------------------

class TestExperimentsRouting:
    def test_issue_queue_grid_uses_engine_and_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        first = issue_queue_experiment(benchmarks=["gzip"],
                                       max_cycles=3_000, engine=engine)
        second = issue_queue_experiment(benchmarks=["gzip"],
                                        max_cycles=3_000, engine=engine)
        assert engine.stats.cache_hits == 2
        assert (dataclasses.asdict(first.base["gzip"])
                == dataclasses.asdict(second.base["gzip"]))

    def test_run_experiments_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results = run_experiments([small_config()])
        assert len(results) == 1
        assert results[0].benchmark == "gzip"
