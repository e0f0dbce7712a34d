"""Tests for warm-state checkpointing.

The load-bearing property is *bit-identical equivalence*: a run
restored from a warm checkpoint must produce exactly the same
:class:`SimulationResult` — every counter and every temperature — as a
run that warmed up from scratch, for every technique and with the
sanitizer both off and on.  The rest covers the checkpoint key's
sharing/invalidation contract, the blob store, and the engine
integration (leader captures, follower restores, corruption falls
back).
"""

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import signal
from pathlib import Path

import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import (ALL_TECHNIQUES, BASELINE, ALUPolicy,
                                 IssueQueuePolicy, RegFilePolicy,
                                 TechniqueConfig)
from repro.pipeline.config import ProcessorConfig, ThermalConfig
from repro.sim.checkpoint import (CheckpointError, CheckpointStore,
                                  checkpoint_key, read_entry, write_entry)
from repro.sim.parallel import (ExperimentEngine, ResultCache,
                                _execute_config)
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant


def small_config(**overrides):
    base = dict(benchmark="gzip", max_cycles=3_000, warmup_cycles=1_000)
    base.update(overrides)
    return SimulationConfig(**base)


def capture_blob(config):
    """Warm a donor simulator and capture its checkpoint."""
    donor = Simulator(config)
    donor.prepare()
    return donor.capture_warm_state()


# ---------------------------------------------------------------------------
# fresh vs restored equivalence
# ---------------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("bench", ["gzip", "mesa"])
    @pytest.mark.parametrize("techniques", [BASELINE, ALL_TECHNIQUES],
                             ids=["baseline", "all-techniques"])
    @pytest.mark.parametrize("sanitize", [False, True],
                             ids=["plain", "sanitized"])
    def test_restored_run_is_bit_identical(self, bench, techniques,
                                           sanitize):
        config = small_config(benchmark=bench, techniques=techniques,
                              variant=FloorplanVariant.ALU,
                              sanitize=sanitize)
        # The donor is never sanitized: the checkpoint key ignores the
        # sanitize flag, so a sanitized run must be able to restore a
        # checkpoint captured by an unsanitized one (and vice versa).
        blob = capture_blob(dataclasses.replace(config, sanitize=False))
        fresh = Simulator(config).run()
        restored_sim = Simulator.from_checkpoint(config, blob)
        restored = restored_sim.run()
        assert dataclasses.asdict(fresh) == dataclasses.asdict(restored)
        if sanitize:
            assert restored_sim.sanitizer is not None
            assert restored_sim.sanitizer.stats.total_checks > 0

    def test_variants_share_one_checkpoint(self):
        """Techniques with equal warm-relevant fields fork from the
        same blob and still match their own fresh runs."""
        base = small_config(variant=FloorplanVariant.ALU)
        variants = [
            dataclasses.replace(
                base, techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN)),
            dataclasses.replace(
                base, techniques=TechniqueConfig(
                    issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING)),
        ]
        blob = capture_blob(base)
        for config in variants:
            assert checkpoint_key(config) == checkpoint_key(base)
            fresh = Simulator(config).run()
            restored = Simulator.from_checkpoint(config, blob).run()
            assert (dataclasses.asdict(fresh)
                    == dataclasses.asdict(restored))

    @pytest.mark.parametrize("bench", ["gzip", "perlbmk"])
    def test_warm_blob_is_the_same_for_every_mapping(self, bench):
        """The register file counts reads per ALU read port, so the
        three mapping kinds capture byte-identical warm state."""
        blobs = [capture_blob(small_config(
                     benchmark=bench, variant=FloorplanVariant.REGFILE,
                     techniques=TechniqueConfig(
                         regfile=RegFilePolicy(kind))))
                 for kind in (MappingKind.PRIORITY, MappingKind.BALANCED,
                              MappingKind.COMPLETELY_BALANCED)]
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    @pytest.mark.parametrize("kernel", ["1", "0"],
                             ids=["kernel", "reference"])
    def test_restore_across_mappings_is_bit_identical(self, monkeypatch,
                                                      kernel):
        """A run restored from a checkpoint another mapping captured
        equals its own fresh run: the warm-up power it replays from the
        stored snapshots is folded through its own mapping."""
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        donor = small_config(benchmark="perlbmk",
                             variant=FloorplanVariant.REGFILE)
        blob = capture_blob(donor)
        reads = set()
        for kind in (MappingKind.BALANCED, MappingKind.COMPLETELY_BALANCED):
            config = dataclasses.replace(
                donor, techniques=TechniqueConfig(
                    regfile=RegFilePolicy(kind, fine_grain_turnoff=True)))
            fresh = Simulator(config).run()
            restored = Simulator.from_checkpoint(config, blob).run()
            assert (dataclasses.asdict(fresh)
                    == dataclasses.asdict(restored))
            reads.add(str(fresh.metrics["regfile.reads"]))
        assert len(reads) == 2

    def test_restore_fills_stage_times(self):
        config = small_config()
        restored = Simulator.from_checkpoint(config, capture_blob(config))
        restored.run()
        assert set(restored.stage_times) == {"restore_s", "measure_s",
                                             "sample_s"}
        fresh = Simulator(config)
        fresh.run()
        assert set(fresh.stage_times) == {"warmup_s", "measure_s",
                                          "sample_s"}


# ---------------------------------------------------------------------------
# capture preconditions
# ---------------------------------------------------------------------------

class TestCapture:
    def test_capture_requires_prepare(self):
        with pytest.raises(CheckpointError, match="prepare"):
            Simulator(small_config()).capture_warm_state()

    def test_capture_after_run_is_rejected(self):
        simulator = Simulator(small_config())
        simulator.run()
        with pytest.raises(CheckpointError, match="measurement"):
            simulator.capture_warm_state()

    def test_custom_trace_is_not_checkpointable(self):
        from repro.workloads.spec2000 import workload
        simulator = Simulator(small_config(),
                              trace=workload("gzip", seed=1))
        simulator.prepare()
        with pytest.raises(CheckpointError, match="replayable"):
            simulator.capture_warm_state()


class TestLiveState:
    """Mid-measurement handoff: a run captured at a sampling boundary,
    resumed in a fresh simulator and finished there is the run that
    never stopped."""

    @pytest.mark.parametrize("config", [
        small_config(benchmark="perlbmk", variant=FloorplanVariant.ALU,
                     techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN)),
        small_config(benchmark="mesa",
                     variant=FloorplanVariant.ISSUE_QUEUE,
                     techniques=TechniqueConfig(
                         issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING)),
    ], ids=["fine-grain-alu", "activity-toggling"])
    def test_resume_matches_uninterrupted_run(self, config):
        interval = config.thermal.sensor_interval_cycles
        first_leg = 3 * interval
        donor = Simulator(config)
        donor.prepare()
        donor.processor.run(first_leg, on_sample=donor._on_sample,
                            sample_interval=interval)
        assert donor.processor.now % interval == 0  # at a boundary
        resumed = Simulator.resume_live(config,
                                        donor.capture_live_state())
        result = resumed.run_remaining(config.max_cycles - first_leg)
        assert (dataclasses.asdict(result)
                == dataclasses.asdict(Simulator(config).run()))

    def test_corrupt_live_state_raises(self):
        with pytest.raises(CheckpointError, match="live state"):
            Simulator.resume_live(small_config(), b"garbage")


def _write_terminated_before_replace(path):
    """Child process: ``SIGTERM`` itself once the temp file is written,
    just before it is moved into place."""
    replace = os.replace

    def terminated_replace(src, dst):
        os.kill(os.getpid(), signal.SIGTERM)
        replace(src, dst)

    os.replace = terminated_replace
    write_entry(Path(path), b"payload")
    os._exit(0)


# ---------------------------------------------------------------------------
# key sharing and invalidation
# ---------------------------------------------------------------------------

class TestCheckpointKey:
    def test_deterministic(self):
        assert (checkpoint_key(small_config())
                == checkpoint_key(small_config()))

    def test_ignores_measurement_only_fields(self):
        base = small_config()
        for changed in (
                dataclasses.replace(base, max_cycles=9_000),
                dataclasses.replace(base, variant=FloorplanVariant.ALU),
                dataclasses.replace(base, technique_label="renamed"),
                dataclasses.replace(base, sanitize=True),
                dataclasses.replace(
                    base, thermal=ThermalConfig(max_temperature_k=360.0)),
                dataclasses.replace(
                    base, techniques=TechniqueConfig(
                        alus=ALUPolicy.FINE_GRAIN)),
                dataclasses.replace(
                    base, techniques=TechniqueConfig(
                        regfile=RegFilePolicy(MappingKind.BALANCED))),
                dataclasses.replace(
                    base, techniques=TechniqueConfig(
                        regfile=RegFilePolicy(
                            MappingKind.COMPLETELY_BALANCED))),
        ):
            assert checkpoint_key(changed) == checkpoint_key(base)

    def test_warm_relevant_fields_change_key(self):
        base = small_config()
        for changed in (
                dataclasses.replace(base, benchmark="mesa"),
                dataclasses.replace(base, seed=2),
                dataclasses.replace(base, warmup_cycles=2_000),
                dataclasses.replace(
                    base, processor=ProcessorConfig(num_int_alus=4)),
                dataclasses.replace(
                    base, techniques=TechniqueConfig(
                        alus=ALUPolicy.ROUND_ROBIN)),
        ):
            assert checkpoint_key(changed) != checkpoint_key(base)

    def test_source_fingerprint_changes_key(self):
        config = small_config()
        assert (checkpoint_key(config, fingerprint="0" * 64)
                != checkpoint_key(config, fingerprint="1" * 64))


# ---------------------------------------------------------------------------
# the blob store
# ---------------------------------------------------------------------------

class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ab" * 32, b"payload")
        assert store.has("ab" * 32)
        assert store.get("ab" * 32) == b"payload"

    def test_missing_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert not store.has("cd" * 32)

    def test_clear_and_info(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("ab" * 32, b"x")
        store.put("cd" * 32, b"yz")
        info = store.info()
        assert info.entries == 2
        # Each entry is its payload behind a SHA-256 digest.
        assert info.size_bytes == 3 + 2 * hashlib.sha256().digest_size
        assert store.clear() == 2
        assert store.info().entries == 0

    @pytest.mark.parametrize("store_cls", [CheckpointStore, ResultCache],
                             ids=["checkpoints", "results"])
    def test_clear_removes_interrupted_write(self, tmp_path, store_cls):
        """A writer killed between its temp write and ``os.replace``
        leaves ``<key>.pkl.tmp<pid>``; clear() removes it and its
        bucket directory."""
        store = store_cls(tmp_path)
        key = "ef" * 32
        bucket = tmp_path / key[:2]
        bucket.mkdir()
        leftover = bucket / f"{key}.pkl.tmp99999"
        leftover.write_bytes(b"torn")
        assert store.clear() == 0
        assert not leftover.exists()
        assert not bucket.exists()

    @pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"),
                        reason="needs POSIX signal masks")
    def test_writer_terminated_mid_write_leaves_no_temp_file(
            self, tmp_path):
        """A process pool terminates its other workers (``SIGTERM``)
        when one dies.  A writer terminated between its temp write and
        ``os.replace`` finishes the entry first and leaves no temp
        file."""
        path = tmp_path / "ab" / "entry.pkl"
        child = multiprocessing.get_context("fork").Process(
            target=_write_terminated_before_replace, args=(str(path),))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGTERM
        assert read_entry(path) == b"payload"
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_corrupt_blob_raises_checkpoint_error(self):
        config = small_config()
        for blob in (b"garbage", pickle.dumps({"version": 999}),
                     pickle.dumps(["not", "a", "dict"])):
            with pytest.raises(CheckpointError):
                Simulator.from_checkpoint(config, blob)


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

def technique_grid():
    """Two benchmarks x three techniques sharing warm state."""
    techniques = [BASELINE, ALL_TECHNIQUES,
                  TechniqueConfig(issue_queue=IssueQueuePolicy.
                                  ACTIVITY_TOGGLING)]
    return [small_config(benchmark=bench, techniques=t,
                         variant=FloorplanVariant.ALU)
            for bench in ("gzip", "mesa") for t in techniques]


class TestEngineIntegration:
    def test_grid_shares_checkpoints_and_matches_fresh(self, tmp_path):
        grid = technique_grid()
        engine = ExperimentEngine(jobs=1,
                                  cache=ResultCache(tmp_path / "results"),
                                  checkpoints=tmp_path / "ckpt")
        checkpointed = engine.run_many(grid)
        assert engine.stats.checkpoint_captures == 2  # one per benchmark
        assert engine.stats.checkpoint_restores == 4  # the other runs
        fresh = ExperimentEngine(jobs=1, use_cache=False).run_many(grid)
        for a, b in zip(checkpointed, fresh):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_second_grid_restores_everything(self, tmp_path):
        grid = technique_grid()
        first = ExperimentEngine(jobs=1, use_cache=False,
                                 checkpoints=tmp_path)
        first.run_many(grid)
        second = ExperimentEngine(jobs=1, use_cache=False,
                                  checkpoints=tmp_path)
        second.run_many(grid)
        assert second.stats.checkpoint_restores == len(grid)
        assert second.stats.checkpoint_captures == 0

    def test_parallel_grid_matches_inline(self, tmp_path):
        grid = technique_grid()
        pool = ExperimentEngine(jobs=2, use_cache=False,
                                checkpoints=tmp_path / "pool")
        inline = ExperimentEngine(jobs=1, use_cache=False)
        for a, b in zip(pool.run_many(grid), inline.run_many(grid)):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_corrupt_entry_falls_back_to_fresh_warmup(self, tmp_path):
        """One bit flipped anywhere in a stored entry reads as a miss;
        an intact entry holding a bad blob falls back to a fresh
        warm-up."""
        config = small_config()
        key = checkpoint_key(config)
        store = CheckpointStore(tmp_path)
        store.put(key, capture_blob(config))
        path = store._path(key)
        entry = path.read_bytes()
        step = -(-len(entry) // 16)
        for at in range(0, len(entry), step):
            path.write_bytes(entry[:at] + bytes([entry[at] ^ 1])
                             + entry[at + 1:])
            assert store.get(key) is None
        store.put(key, b"garbage")
        outcome = _execute_config(config, checkpoint_root=str(tmp_path))
        assert not outcome.checkpoint_restored
        assert outcome.checkpoint_captured  # fresh capture replaced it
        fresh = Simulator(config).run()
        assert (dataclasses.asdict(outcome.result)
                == dataclasses.asdict(fresh))

    def test_checkpoints_on_exactly_with_a_store(self, tmp_path,
                                                 monkeypatch):
        """An engine keeps checkpoints in the store it is given, or
        else in the one beside its result cache; with neither
        (``REPRO_CACHE=0`` or ``use_cache=False``) it keeps none."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert (ExperimentEngine(jobs=1).checkpoints.root
                == tmp_path / "cache" / "checkpoints")
        assert (ExperimentEngine(jobs=1, use_cache=False,
                                 checkpoints=tmp_path / "ckpt")
                .checkpoints.root == tmp_path / "ckpt")
        assert ExperimentEngine(jobs=1, use_cache=False).checkpoints is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ExperimentEngine(jobs=1).checkpoints is None

    def test_custom_runner_bypasses_checkpoints(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path),
                                  runner=_execute_config)
        assert engine.checkpoints is None


class TestCheckpointWaves:
    """Pool waves at jobs > 1: a task waits for the second wave only
    when another task of the same submission captures its warm
    checkpoint."""

    def run_spied(self, monkeypatch, grid, store):
        engine = ExperimentEngine(jobs=2, use_cache=False, checkpoints=store)
        waves = []
        run_pool = engine._run_pool

        def spy(configs, tasks, results):
            waves.append(list(tasks))
            run_pool(configs, tasks, results)

        monkeypatch.setattr(engine, "_run_pool", spy)
        results = engine.run_many(grid)
        fresh = ExperimentEngine(jobs=1, use_cache=False).run_many(grid)
        for a, b in zip(results, fresh):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        return waves, engine.stats

    def test_checkpoints_on_disk_make_one_wave(self, tmp_path,
                                               monkeypatch):
        grid = technique_grid()
        ExperimentEngine(jobs=1, use_cache=False,
                         checkpoints=tmp_path).run_many(grid)
        waves, stats = self.run_spied(monkeypatch, grid, tmp_path)
        assert len(waves) == 1
        assert stats.checkpoint_captures == 0
        assert stats.checkpoint_restores == len(grid)

    def test_uncaptured_shared_key_splits_waves(self, tmp_path,
                                                monkeypatch):
        """Two gzip runs that batch apart (different cycle budgets) but
        share a warm checkpoint nobody has captured split into leader
        and follower waves, the bigger one leading although submitted
        last; mesa, whose checkpoint is already on disk, depends on
        nobody and goes out with the leader."""
        grid = [small_config(benchmark="gzip", max_cycles=2_500),
                small_config(benchmark="mesa"),
                small_config(benchmark="gzip")]
        store = CheckpointStore(tmp_path)
        store.put(checkpoint_key(grid[1]), capture_blob(grid[1]))
        waves, stats = self.run_spied(monkeypatch, grid, store)
        assert waves == [[(1,), (2,)], [(0,)]]
        assert stats.checkpoint_captures == 1
        assert stats.checkpoint_restores == 2
