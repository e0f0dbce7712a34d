"""Kernel-vs-reference bit-identity and macro-step semantics.

The macro-stepped kernel (:mod:`repro.pipeline.kernel`) must be a
perfect stand-in for the reference per-cycle loop: every counter,
metric, timeline, and energy figure of a :class:`SimulationResult`
identical, across the full technique × floorplan matrix and with the
sanitizer and tracer both off and on.  ``REPRO_KERNEL=0`` selects the
reference loop; the default runs the kernel.
"""

import dataclasses
import gc
import time

import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import (ALL_TECHNIQUES, BASELINE, ALUPolicy,
                                 IssueQueuePolicy, RegFilePolicy,
                                 TechniqueConfig)
from repro.pipeline.isa import DEFAULT_LATENCY, OpClass
from repro.pipeline.kernel import _merge_digest, kernel_enabled
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant
from repro.workloads.generator import SyntheticWorkload, WorkloadProfile
from repro.workloads.trace import MaterializedTrace, ReplayTrace


def small_config(**overrides):
    base = dict(benchmark="gzip", max_cycles=2_500, warmup_cycles=1_000)
    base.update(overrides)
    return SimulationConfig(**base)


def run_pair(monkeypatch, config):
    """Run ``config`` through the reference loop and the kernel."""
    monkeypatch.setenv("REPRO_KERNEL", "0")
    reference = Simulator(config).run()
    monkeypatch.setenv("REPRO_KERNEL", "1")
    kernel = Simulator(config).run()
    return reference, kernel


def assert_identical(reference, kernel):
    assert (dataclasses.asdict(reference)
            == dataclasses.asdict(kernel))


class TestKernelEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_enabled() is True

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert kernel_enabled() is False

    def test_env_one_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "1")
        assert kernel_enabled() is True


#: Figure 6: issue-queue study.  Figure 7: ALU study.  Figure 8: the
#: four register-file configurations.  Each runs on its own figure's
#: constrained floorplan and on the BASE floorplan.
TECHNIQUE_MATRIX = {
    "fig6-base": (TechniqueConfig(issue_queue=IssueQueuePolicy.BASE),
                  FloorplanVariant.ISSUE_QUEUE),
    "fig6-toggling": (
        TechniqueConfig(issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING),
        FloorplanVariant.ISSUE_QUEUE),
    "fig7-base": (TechniqueConfig(alus=ALUPolicy.BASE),
                  FloorplanVariant.ALU),
    "fig7-fine-grain": (TechniqueConfig(alus=ALUPolicy.FINE_GRAIN),
                        FloorplanVariant.ALU),
    "fig7-round-robin": (TechniqueConfig(alus=ALUPolicy.ROUND_ROBIN),
                         FloorplanVariant.ALU),
    "fig8-fg-balanced": (
        TechniqueConfig(regfile=RegFilePolicy(
            MappingKind.BALANCED, fine_grain_turnoff=True)),
        FloorplanVariant.REGFILE),
    "fig8-fg-priority": (
        TechniqueConfig(regfile=RegFilePolicy(
            MappingKind.PRIORITY, fine_grain_turnoff=True)),
        FloorplanVariant.REGFILE),
    "fig8-balanced-only": (
        TechniqueConfig(regfile=RegFilePolicy(
            MappingKind.BALANCED, fine_grain_turnoff=False)),
        FloorplanVariant.REGFILE),
    "fig8-priority-only": (
        TechniqueConfig(regfile=RegFilePolicy(
            MappingKind.PRIORITY, fine_grain_turnoff=False)),
        FloorplanVariant.REGFILE),
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(TECHNIQUE_MATRIX))
    def test_technique_on_figure_floorplan(self, monkeypatch, name):
        techniques, variant = TECHNIQUE_MATRIX[name]
        config = small_config(techniques=techniques, variant=variant)
        assert_identical(*run_pair(monkeypatch, config))

    @pytest.mark.parametrize("name", sorted(TECHNIQUE_MATRIX))
    def test_technique_on_base_floorplan(self, monkeypatch, name):
        techniques, _ = TECHNIQUE_MATRIX[name]
        config = small_config(techniques=techniques,
                              variant=FloorplanVariant.BASE)
        assert_identical(*run_pair(monkeypatch, config))

    @pytest.mark.parametrize("sanitize", [False, True],
                             ids=["plain", "sanitized"])
    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    def test_sanitize_and_trace_combinations(self, monkeypatch,
                                             sanitize, trace):
        config = small_config(techniques=ALL_TECHNIQUES,
                              variant=FloorplanVariant.ALU,
                              sanitize=sanitize, trace_events=trace)
        assert_identical(*run_pair(monkeypatch, config))

    @pytest.mark.parametrize("bench", ["mesa", "perlbmk", "mcf"])
    def test_other_benchmarks(self, monkeypatch, bench):
        """mcf is memory-bound: most of its active cycles are quiescent
        stretches the kernel fast-forwards."""
        config = small_config(benchmark=bench, techniques=ALL_TECHNIQUES,
                              variant=FloorplanVariant.ISSUE_QUEUE)
        assert_identical(*run_pair(monkeypatch, config))

    def test_stall_heavy_run(self, monkeypatch):
        """A hot constrained floorplan forces global stalls, covering
        the kernel's bulk stall skip."""
        config = small_config(benchmark="perlbmk", techniques=BASELINE,
                              variant=FloorplanVariant.ALU,
                              max_cycles=6_000, warmup_cycles=2_000)
        reference, kernel = run_pair(monkeypatch, config)
        assert_identical(reference, kernel)

    def test_longer_run_all_techniques(self, monkeypatch):
        config = small_config(techniques=ALL_TECHNIQUES,
                              variant=FloorplanVariant.ALU,
                              max_cycles=8_000, warmup_cycles=2_000)
        assert_identical(*run_pair(monkeypatch, config))


class TestInternalState:
    """Beyond the results: the processor state a run ends in, select
    counters and round-robin offsets included, matches the reference
    loop's.  Runs that spend long stretches quiescent (mcf) or in
    toggled queues (mesa toggles within 40k cycles, so the kernel's
    compaction also runs in toggled mode) exercise the fast paths."""

    @staticmethod
    def run_both(monkeypatch, config, trace=None):
        """(result, final state) under the reference loop and the
        kernel; ``trace`` builds a fresh trace per run."""
        outcomes = []
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_KERNEL", flag)
            sim = Simulator(config, trace=trace() if trace else None)
            result = dataclasses.asdict(sim.run())
            proc = sim.processor
            arrays = [proc.int_iq._c, proc.fp_iq._c, proc._int_bank.ops,
                      proc._fp_add_bank.ops, proc._fp_mul_bank.ops,
                      proc.regfile._reads, proc.regfile._writes]
            outcomes.append((result, _merge_digest(proc),
                             [a.tolist() for a in arrays]))
        return outcomes

    @pytest.mark.parametrize("bench,techniques,cycles", [
        ("mcf", ALL_TECHNIQUES, 8_000),
        ("mesa", TechniqueConfig(
            issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING), 40_000)],
        ids=["mcf", "mesa-toggling"])
    def test_final_state_identical(self, monkeypatch, bench, techniques,
                                   cycles):
        config = small_config(benchmark=bench, techniques=techniques,
                              variant=FloorplanVariant.ISSUE_QUEUE,
                              max_cycles=cycles, warmup_cycles=2_000)
        reference, kernel = self.run_both(monkeypatch, config)
        assert reference == kernel
        if bench == "mesa":
            assert kernel[0]["iq_toggles"] > 0

    def test_fp_entries_waiting_through_quiescent_stretches(
            self, monkeypatch):
        """A 40-cycle FP multiply keeps FP entries waiting in their
        queue through quiescent stretches, so the fast-forward also
        advances the FP select counters and round-robin offset."""
        monkeypatch.setitem(DEFAULT_LATENCY, OpClass.FP_MUL, 40)
        profile = WorkloadProfile(
            "fp-chain", {OpClass.FP_MUL: 0.6, OpClass.FP_ADD: 0.3,
                         OpClass.INT_ALU: 0.1},
            dep_mean=1.0, independent_frac=0.0)
        config = small_config(techniques=TechniqueConfig(
            alus=ALUPolicy.ROUND_ROBIN), max_cycles=3_000)
        reference, kernel = self.run_both(
            monkeypatch, config, lambda: ReplayTrace(MaterializedTrace(
                SyntheticWorkload(profile, seed=1))))
        assert reference == kernel


class TestSamplingAlignment:
    """Sampling boundaries are absolute cycle numbers, not offsets from
    wherever the measured loop happened to start."""

    def _sample_cycles(self, sim):
        seen = []
        inner = sim._on_sample
        def spy(proc):
            seen.append(proc.now)
            inner(proc)
        sim._on_sample = spy
        return seen

    @pytest.mark.parametrize("kernel", ["0", "1"],
                             ids=["reference", "kernel"])
    def test_samples_land_on_absolute_boundaries(self, monkeypatch,
                                                 kernel):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        # A warm-up that is NOT a multiple of the sensing interval:
        # measurement starts mid-interval.
        config = small_config(warmup_cycles=1_117, max_cycles=2_000)
        sim = Simulator(config)
        interval = config.thermal.sensor_interval_cycles
        seen = self._sample_cycles(sim)
        sim.run()
        assert seen, "run produced no samples"
        assert all(cycle % interval == 0 for cycle in seen)

    @pytest.mark.parametrize("kernel", ["0", "1"],
                             ids=["reference", "kernel"])
    def test_mid_interval_restore_is_bit_identical(self, monkeypatch,
                                                   kernel):
        """Regression: restoring a checkpoint captured at a
        non-boundary cycle must resume the countdown toward the next
        *absolute* boundary, matching a fresh run exactly."""
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        config = small_config(warmup_cycles=1_117, max_cycles=2_000)
        donor = Simulator(config)
        donor.prepare()
        assert donor.processor.now % config.thermal.sensor_interval_cycles
        blob = donor.capture_warm_state()
        fresh = Simulator(config).run()
        restored_sim = Simulator.from_checkpoint(config, blob)
        seen = self._sample_cycles(restored_sim)
        restored = restored_sim.run()
        assert dataclasses.asdict(fresh) == dataclasses.asdict(restored)
        interval = config.thermal.sensor_interval_cycles
        assert all(cycle % interval == 0 for cycle in seen)

    def test_restore_matches_across_paths(self, monkeypatch):
        """Fresh-reference vs restored-kernel: the strictest cross
        pairing of checkpointing and kernelization."""
        config = small_config(warmup_cycles=1_117, max_cycles=2_000)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        donor = Simulator(config)
        donor.prepare()
        blob = donor.capture_warm_state()
        fresh_reference = Simulator(config).run()
        monkeypatch.setenv("REPRO_KERNEL", "1")
        restored_kernel = Simulator.from_checkpoint(config, blob).run()
        assert (dataclasses.asdict(fresh_reference)
                == dataclasses.asdict(restored_kernel))


class TestThroughput:
    def test_single_run_throughput_floor(self, monkeypatch):
        """Acceptance: >= 30k cycles/s on the gzip 20k-cycle benchmark
        (2x the recorded pre-kernel baseline of 15,283)."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        config = SimulationConfig(
            benchmark="gzip",
            variant=FloorplanVariant.ALU,
            techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN),
            max_cycles=20_000)
        Simulator(config).run()  # warm interpreter/caches
        walls = []
        for _ in range(3):
            # Collect the previous run's garbage outside the timed
            # window (the run itself pauses the GC); best-of-3 rejects
            # scheduler noise on shared single-core machines.
            gc.collect()
            start = time.perf_counter()
            Simulator(config).run()
            walls.append(time.perf_counter() - start)
        best = config.max_cycles / min(walls)
        assert best >= 30_000, (
            f"single-run throughput regressed: {best:,.0f} cycles/s")
