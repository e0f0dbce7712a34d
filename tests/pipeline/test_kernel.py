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
import pickle
import random
import time

import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import (ALL_TECHNIQUES, BASELINE, ALUPolicy,
                                 IssueQueuePolicy, RegFilePolicy,
                                 TechniqueConfig)
from repro.pipeline.alu import _InFlight
from repro.pipeline.isa import DEFAULT_LATENCY, OpClass
from repro.pipeline.issue_queue import IQEntry
from repro.pipeline.kernel import kernel_enabled
from repro.pipeline.rob import ROBEntry
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


def state_digest(proc):
    """Pickle digest of the processor's pipeline state, for comparing
    two runs' final states.

    Masked before pickling: per-run SoA counters (compared as arrays
    by the callers), stall/throttle deadlines normalized to
    cycles-remaining (an expired deadline is inert), and set-valued
    state (rename ``ready``, regfile ``off``, issue-queue
    entry ``waiting_tags``) replaced by sorted tuples, because a set's
    pickle bytes depend on its insertion history.
    """
    state = dict(proc.snapshot_state())
    now = proc.now
    for key in ("stalled_until", "throttled_until"):
        left = state[key] - now
        state[key] = left if left > 0 else 0
    for key in ("int_iq", "fp_iq"):
        queue = dict(state[key], counters=None)
        queue["slots"] = [canon_entry(e) for e in queue["slots"]]
        queue["pending_removal"] = [canon_entry(e) for e in
                                    queue["pending_removal"]]
        state[key] = queue
    for key in ("int_alus", "fp_adders"):
        state[key] = [dict(unit, counters=None) for unit in state[key]]
    state["fp_mul"] = dict(state["fp_mul"], counters=None)
    regfile = dict(state["regfile"], counters=None)
    regfile["off"] = tuple(sorted(regfile["off"]))
    state["regfile"] = regfile
    rename = dict(state["rename"])
    rename["ready"] = tuple(sorted(rename["ready"]))
    state["rename"] = rename
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def canon_entry(entry):
    """Order-canonical content tuple for one issue-queue slot."""
    if entry is None:
        return None
    return (entry.op, entry.rob_index, entry.issued_at,
            tuple(sorted(entry.waiting_tags)))


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

    @pytest.mark.parametrize("techniques", [
        *(TECHNIQUE_MATRIX[name][0] for name in sorted(TECHNIQUE_MATRIX)),
        ALL_TECHNIQUES], ids=[*sorted(TECHNIQUE_MATRIX), "all-techniques"])
    def test_technique_on_base_floorplan(self, monkeypatch, techniques):
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
        the kernel's bulk stall skip, with every technique off and with
        the default techniques (register-file fine-grain turnoff on)."""
        for techniques in (BASELINE, TechniqueConfig()):
            config = small_config(benchmark="perlbmk",
                                  techniques=techniques,
                                  variant=FloorplanVariant.ALU,
                                  max_cycles=6_000, warmup_cycles=2_000)
            assert_identical(*run_pair(monkeypatch, config))

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
                      proc.regfile._port_reads, proc.regfile._writes]
            outcomes.append((result, state_digest(proc),
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
        advances the FP queue's occupancy count and round-robin
        offset."""
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


def warm_processor(config, until):
    """The processor of ``config`` after warm-up, stepped one cycle at
    a time until ``until(proc)`` holds."""
    sim = Simulator(config)
    sim.prepare()
    proc = sim.processor
    for _ in range(5_000):
        if until(proc):
            return proc
        proc.run(1)
    raise AssertionError("the wanted pipeline state never occurred")


def straddles(queue):
    """Un-issued entries sit on both physical halves of ``queue``."""
    return {phys < queue.mid for phys, e in enumerate(queue.slots)
            if e is not None and e.issued_at is None} == {True, False}


def final_state(proc):
    """Everything a run must agree on, however it was sliced."""
    arrays = [proc.int_iq._c, proc.fp_iq._c, proc.regfile._port_reads,
              proc.regfile._writes]
    for bank in (proc._int_bank, proc._fp_add_bank, proc._fp_mul_bank):
        arrays.append(bank.ops)
    select = [(list(s.counters.grants_per_tree), s._rr_offset)
              for s in (proc.int_select, proc.fp_add_select,
                        proc.fp_mul_select)]
    return (state_digest(proc), [a.tolist() for a in arrays], select,
            dataclasses.asdict(proc.stats))


class TestChunkSlicing:
    """A chunk (one ``_run_chunk`` call) re-derives its ready lists,
    ranks and counters from the processor at its hoist, so where a run
    is cut into chunks must change nothing.  Both queues are toggled
    with un-issued entries on both physical halves, so the first hoist
    ranks a rotated logical order (ranking by physical slot instead
    is wrong only here)."""

    CYCLES = 4_000

    @pytest.mark.parametrize("alus", [ALUPolicy.ROUND_ROBIN,
                                      ALUPolicy.BASE],
                             ids=["round-robin", "fixed-priority"])
    def test_slicing_changes_nothing(self, monkeypatch, alus):
        config = small_config(benchmark="wupwise",
                              techniques=TechniqueConfig(alus=alus),
                              variant=FloorplanVariant.ALU,
                              warmup_cycles=2_000)
        rng = random.Random(1)
        slices = []
        while sum(slices) < self.CYCLES:
            slices.append(min(rng.randint(1, 400),
                              self.CYCLES - sum(slices)))
        states = {}
        for label, kernel, cuts in (("whole", "1", [self.CYCLES]),
                                    ("sliced", "1", slices),
                                    ("reference", "0", [self.CYCLES])):
            monkeypatch.setenv("REPRO_KERNEL", "1")
            proc = warm_processor(config, lambda p: (
                straddles(p.int_iq) and straddles(p.fp_iq)))
            proc.toggle_issue_queues()
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            for cycles in cuts:
                proc.run(cycles)
            assert proc.rename._free_set == set(proc.rename._free)
            states[label] = final_state(proc)
        assert len(slices) > 10
        assert states["whole"] == states["reference"]
        assert states["sliced"] == states["reference"]


class TestKernelRecords:
    def test_records_set_every_field(self, monkeypatch):
        """The kernel builds ROB, issue-queue and in-flight records
        with ``object.__new__`` and one slot store per field; a field
        added to one of these classes must be stored there too."""
        monkeypatch.setenv("REPRO_KERNEL", "1")

        def reachable(proc):
            found = {ROBEntry: [e for e in proc.rob._entries
                                if e is not None],
                     IQEntry: [], _InFlight: []}
            for queue in (proc.int_iq, proc.fp_iq):
                found[IQEntry] += [e for e in queue.slots
                                   if e is not None]
                found[IQEntry] += queue._pending_removal
            for unit in proc._all_units:
                found[_InFlight] += unit._pipeline
            return found

        proc = warm_processor(
            small_config(benchmark="wupwise"),
            lambda p: all(reachable(p).values()))
        for cls, records in reachable(proc).items():
            for record in records:
                assert type(record) is cls
                for field in dataclasses.fields(cls):
                    assert hasattr(record, field.name), (
                        f"{cls.__name__}.{field.name} not set")

    def test_read_from_turned_off_copy_raises_like_reference(
            self, monkeypatch):
        """A copy marked off behind the regfile's back leaves its ALUs
        unblocked: the kernel's one-comparison-per-op check raises the
        reference loop's error for the same op."""
        messages = []
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_KERNEL", flag)
            sim = Simulator(small_config())
            sim.prepare()
            sim.processor.regfile._off.add(0)
            with pytest.raises(RuntimeError,
                               match="turned-off register-file copy"
                               ) as raised:
                sim.processor.run(2_000)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


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
