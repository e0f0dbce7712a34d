"""Tests for the runtime sanitizer: clean runs stay silent, tampering
with any watched invariant raises immediately."""

import dataclasses
import pickle
from dataclasses import replace

import pytest

from repro.analysis.sanitize import (Sanitizer, SanitizerError,
                                     sanitize_enabled)
from repro.core.policies import ALUPolicy, TechniqueConfig
from repro.pipeline.alu import FunctionalUnit
from repro.pipeline.isa import MicroOp, OpClass
from repro.sim.runner import SimulationConfig, Simulator, run_simulation
from repro.thermal.floorplan import FloorplanVariant


def small_config(**overrides):
    params = dict(benchmark="gzip", max_cycles=3_000, warmup_cycles=1_000,
                  sanitize=True)
    params.update(overrides)
    return SimulationConfig(**params)


class TestEnable:
    def test_env_values(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_enabled()
        for value in ("", "0", "no", "off"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()

    def test_env_enables_full_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_simulation(small_config(sanitize=False))
        assert result.committed > 0


class TestCleanRun:
    def test_sanitized_run_completes_without_violations(self):
        sim = Simulator(small_config())
        result = sim.run()
        stats = sim.sanitizer.stats
        assert result.committed > 0
        assert stats.samples > 0
        assert stats.energy_checks > 0
        assert stats.temperature_checks > 0
        assert stats.queue_checks > 0
        assert stats.regfile_checks > 0
        assert stats.issue_checks > 0
        assert stats.violations == []

    def test_sanitized_run_matches_unsanitized(self):
        """The hooks observe; they must not perturb the simulation."""
        plain = run_simulation(small_config(sanitize=False))
        checked = run_simulation(small_config(sanitize=True))
        assert plain.committed == checked.committed
        assert plain.mean_temps == checked.mean_temps


class TestEnergyConservation:
    def test_tampered_total_raises(self):
        sim = Simulator(small_config())
        sim._warmup()
        sim.accountant.total_energy_j += 1.0
        with pytest.raises(SanitizerError, match="energy_conservation"):
            sim._on_sample(sim.processor)

    def test_dropped_block_energy_raises(self):
        sim = Simulator(small_config())
        sim._warmup()
        sim.processor.run(500)
        sim.accountant.block_energy_j["Icache"] = 0.0
        sim.accountant.block_energy_j.pop("Dcache", None)
        with pytest.raises(SanitizerError, match="energy_conservation"):
            sim._on_sample(sim.processor)


class TestTemperatureBounds:
    def test_runaway_power_raises(self):
        sim = Simulator(small_config())
        powers = {name: 1e6 for name in sim.floorplan.names}
        with pytest.raises(SanitizerError, match="temperature_bounds"):
            sim.thermal.step(powers, 1.0)

    def test_normal_step_passes(self):
        sim = Simulator(small_config())
        sim.thermal.step(sim.accountant.leakage_powers(), 1e-4)
        assert sim.sanitizer.stats.temperature_checks > 0
        assert sim.sanitizer.stats.violations == []


class TestQueueCoherence:
    def test_duplicate_uop_raises(self):
        sim = Simulator(small_config())
        op = MicroOp(0, OpClass.INT_ALU, dst=1, src1=2, src2=3)
        for _ in range(2):
            sim.processor.int_iq.insert(op, rob_index=0,
                                        waiting_tags={999})
        with pytest.raises(SanitizerError, match="queue_duplicates"):
            sim.dtm.on_sample(sim.processor)


class TestRegfileCoherence:
    def test_turnoff_without_busy_marking_raises(self):
        sim = Simulator(small_config())
        # Bypass Processor.turn_off_regfile_copy, which would mark the
        # mapped ALUs busy: the sanitizer must notice the gap.
        sim.processor.regfile.turn_off(0)
        with pytest.raises(SanitizerError, match="regfile_turnoff"):
            sim.dtm.on_sample(sim.processor)

    def test_proper_turnoff_passes(self):
        sim = Simulator(small_config())
        sim.processor.turn_off_regfile_copy(0)
        sim.dtm.on_sample(sim.processor)
        assert sim.sanitizer.stats.violations == []

    def test_alu_release_under_off_copy_passes(self):
        """The ALU controller releasing an ALU that a turned-off copy
        still blocks leaves it busy."""
        sim = Simulator(small_config())
        sim.processor.turn_off_regfile_copy(0)
        sim.processor.set_alu_busy(0, True)
        sim.processor.set_alu_busy(0, False)
        sim.dtm.on_sample(sim.processor)
        assert sim.sanitizer.stats.violations == []


class TestIssueToOffUnit:
    """Busy flags change only at boundaries, so the check runs there:
    a unit busy after one boundary must show no new ops at the next."""

    def test_start_on_busy_unit_raises(self):
        """A unit held busy across a boundary that then receives an op
        fails the next boundary."""
        sim = Simulator(small_config())
        unit = sim.processor.int_alus[0]
        unit.set_busy(True)
        sim.dtm.on_sample(sim.processor)
        assert unit.busy
        op = MicroOp(0, OpClass.INT_ALU, dst=1, src1=2, src2=3)
        unit.start(op, rob_index=0, now=0)
        with pytest.raises(SanitizerError, match="issue_to_off_unit"
                           ) as raised:
            sim.dtm.on_sample(sim.processor)
        assert "IntExec0 received 1 uop(s)" in str(raised.value)

    def test_start_on_free_unit_passes(self, monkeypatch):
        """A unit the boundary releases may take ops in the next
        interval."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator(small_config(sanitize=False))
        unit = sim.processor.int_alus[0]
        dtm_on_sample = sim.dtm.on_sample

        def release_at_boundary(proc):
            dtm_on_sample(proc)
            unit.set_busy(False)

        sim.dtm.on_sample = release_at_boundary
        unit.set_busy(True)
        sanitizer = Sanitizer()
        sanitizer.attach(sim)
        sim.dtm.on_sample(sim.processor)
        op = MicroOp(0, OpClass.INT_ALU, dst=1, src1=2, src2=3)
        unit.start(op, rob_index=0, now=0)
        sim.dtm.on_sample(sim.processor)
        assert sanitizer.stats.violations == []

    def test_issue_checks_count_units_per_boundary(self):
        sim = Simulator(small_config())
        n_units = len(sim.processor._all_units)
        for boundary in range(1, 4):
            sim.dtm.on_sample(sim.processor)
            assert sim.sanitizer.stats.issue_checks == boundary * n_units


class TestProductionPath:
    def test_sanitized_kernel_never_calls_unit_start(self, monkeypatch):
        """A sanitized run executes the kernel's own issue code: with
        ``FunctionalUnit.start`` raising, a hot fine-grain run that
        turns ALUs off completes, equal to the unsanitized run."""
        monkeypatch.setenv("REPRO_KERNEL", "1")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        def start(*args, **kwargs):
            raise AssertionError("FunctionalUnit.start called")

        monkeypatch.setattr(FunctionalUnit, "start", start)
        config = small_config(
            benchmark="perlbmk", variant=FloorplanVariant.ALU,
            techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN),
            max_cycles=6_000, warmup_cycles=2_000)
        plain = run_simulation(replace(config, sanitize=False))
        sim = Simulator(config)
        checked = sim.run()
        assert checked.alu_turnoffs > 0
        assert sim.sanitizer.stats.issue_checks > 0
        assert dataclasses.asdict(checked) == dataclasses.asdict(plain)


class TestErrorShape:
    def test_error_names_invariant_and_is_recorded(self):
        sanitizer = Sanitizer()
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer._fail("energy_conservation", "details")
        assert excinfo.value.invariant == "energy_conservation"
        assert "[energy_conservation]" in str(excinfo.value)
        assert sanitizer.stats.violations == ["energy_conservation: details"]

    def test_error_survives_pickling(self):
        """A violation raised in a pool worker travels back pickled."""
        error = SanitizerError("queue_duplicates", "IntQ holds #7 twice")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SanitizerError
        assert copy.invariant == "queue_duplicates"
        assert copy.message == "IntQ holds #7 twice"
        assert str(copy) == str(error) == (
            "[queue_duplicates] IntQ holds #7 twice")
