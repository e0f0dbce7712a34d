"""Unit tests for experiment helper logic (no simulation runs)."""

import pytest

from repro.sim.experiments import (ALUExperiment, IssueQueueExperiment,
                                   RF_CONFIGS, RegFileExperiment,
                                   _constrained)
from repro.sim.results import SimulationResult


def result(committed, cycles=1000, stall_cycles=0):
    return SimulationResult(
        benchmark="x", technique_label="t", cycles=cycles,
        committed=committed, stall_cycles=stall_cycles, global_stalls=0,
        stall_reasons={}, iq_toggles=0, alu_turnoffs=0, rf_turnoffs=0,
        mean_temps={"IntQ0": 350.0, "IntQ1": 351.0,
                    **{f"IntExec{i}": 350.0 + i for i in range(6)},
                    "IntReg0": 352.0, "IntReg1": 351.0},
        max_temps={})


class TestConstrained:
    def test_stall_fraction_threshold(self):
        assert _constrained(result(100, cycles=1000, stall_cycles=100))
        assert not _constrained(result(100, cycles=1000, stall_cycles=5))


class TestIssueQueueAggregation:
    def exp(self):
        return IssueQueueExperiment(
            toggling={"a": result(1200), "b": result(500)},
            base={"a": result(1000), "b": result(500)})

    def test_speedup(self):
        assert self.exp().speedup("a") == pytest.approx(0.2)

    def test_average_speedup(self):
        assert self.exp().average_speedup() == pytest.approx(0.1)

    def test_table4_orders_tail_first(self):
        rows = self.exp().table4_rows(("a",))
        for _, _, tail, head in rows:
            assert tail >= head


class TestALUAggregation:
    def exp(self):
        return ALUExperiment(
            round_robin={"a": result(1210)},
            fine_grain={"a": result(1200)},
            base={"a": result(1000)})

    def test_fine_grain_vs_round_robin(self):
        assert self.exp().fine_grain_vs_round_robin() == pytest.approx(
            1200 / 1210 - 1)

    def test_figure7_rows(self):
        rows = self.exp().figure7_rows()
        assert rows[0][1:] == (1.21, 1.2, 1.0)


class TestRegFileAggregation:
    def exp(self):
        results = {label: {"a": result(1000 + 100 * i)}
                   for i, label in enumerate(RF_CONFIGS)}
        return RegFileExperiment(results=results)

    def test_average_speedup_between_configs(self):
        exp = self.exp()
        labels = list(RF_CONFIGS)
        gain = exp.average_speedup(labels[1], labels[0])
        assert gain == pytest.approx(1100 / 1000 - 1)

    def test_figure8_rows_order(self):
        rows = self.exp().figure8_rows()
        assert rows[0][0] == "a"
        assert len(rows[0][1]) == len(RF_CONFIGS)


class TestZeroBaseIPC:
    """A short run spent wholly in a global stall commits nothing; a
    speedup over it is undefined, rendered "n/a", and left out of the
    averages with a count."""

    def iq(self):
        return IssueQueueExperiment(
            toggling={"a": result(1200), "b": result(0)},
            base={"a": result(1000), "b": result(0)})

    def test_issue_queue(self):
        exp = self.iq()
        assert exp.speedup("b") is None
        assert exp.average_speedup() == pytest.approx(0.2)
        lines = exp.format().splitlines()
        assert lines[4].split() == ["b", "0.000", "0.000", "n/a"]
        assert lines[-1] == ("1 benchmark(s) with a base IPC of 0 left "
                             "out of the averages (b).")

    def test_alu(self):
        exp = ALUExperiment(
            round_robin={"a": result(1210), "b": result(0)},
            fine_grain={"a": result(1200), "b": result(0)},
            base={"a": result(1000), "b": result(0)})
        assert exp.speedup("b") is None
        assert exp.average_speedup() == pytest.approx(0.2)
        assert exp.fine_grain_vs_round_robin() == pytest.approx(
            1200 / 1210 - 1)
        text = exp.format()
        assert "n/a" in text
        assert "with a base IPC of 0" in text
        assert "with a round-robin IPC of 0" in text

    def test_regfile(self):
        results = {label: {"a": result(1000 + 100 * i), "b": result(0)}
                   for i, label in enumerate(RF_CONFIGS)}
        exp = RegFileExperiment(results=results)
        assert exp.average_speedup(
            "fine-grain + priority", "priority only") == pytest.approx(
                1100 / 1300 - 1)
        assert "with a priority only IPC of 0" in exp.format()

    def test_all_undefined_average_is_none(self):
        exp = IssueQueueExperiment(toggling={"b": result(0)},
                                   base={"b": result(0)})
        assert exp.average_speedup() is None
        assert "average speedup (all): n/a" in exp.format()

    def test_no_zero_base_renders_as_before(self):
        text = IssueQueueExperiment(
            toggling={"a": result(1200)}, base={"a": result(1000)}).format()
        assert "n/a" not in text
        assert "left out" not in text
