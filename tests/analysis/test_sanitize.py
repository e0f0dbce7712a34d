"""Tests for the runtime sanitizer: clean runs stay silent, tampering
with any watched invariant raises immediately."""

import pytest

from repro.analysis.sanitize import (Sanitizer, SanitizerError,
                                     sanitize_enabled)
from repro.pipeline.isa import MicroOp, OpClass
from repro.sim.runner import SimulationConfig, Simulator, run_simulation


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
    def test_start_on_busy_unit_raises(self):
        sim = Simulator(small_config())
        unit = sim.processor.int_alus[0]
        unit.set_busy(True)
        op = MicroOp(0, OpClass.INT_ALU, dst=1, src1=2, src2=3)
        with pytest.raises(SanitizerError, match="issue_to_off_unit"):
            unit.start(op, rob_index=0, now=0)

    def test_start_on_free_unit_passes(self):
        sim = Simulator(small_config())
        unit = sim.processor.int_alus[0]
        op = MicroOp(0, OpClass.INT_ALU, dst=1, src1=2, src2=3)
        unit.start(op, rob_index=0, now=0)
        assert sim.sanitizer.stats.issue_checks == 1


class TestErrorShape:
    def test_error_names_invariant_and_is_recorded(self):
        sanitizer = Sanitizer()
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer._fail("energy_conservation", "details")
        assert excinfo.value.invariant == "energy_conservation"
        assert "[energy_conservation]" in str(excinfo.value)
        assert sanitizer.stats.violations == ["energy_conservation: details"]
