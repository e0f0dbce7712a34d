"""Tests for the power accountant."""

import pytest

from repro.pipeline.processor import Processor
from repro.power.accounting import PowerAccountant
from repro.thermal.floorplan import FloorplanVariant, ev6_floorplan
from repro.workloads import workload

INTERVAL_S = 1000 / 4.2e9


def accountant_and_processor(bench="gzip"):
    plan = ev6_floorplan(FloorplanVariant.BASE)
    w = workload(bench)
    p = Processor(w)
    acc = PowerAccountant(plan, mapping=p.mapping)
    l1, l2 = w.warm_footprint()
    p.memory.warm(l1, l2)
    return acc, p


class TestPowerAccountant:
    def test_requires_baseline(self):
        acc, p = accountant_and_processor()
        with pytest.raises(RuntimeError):
            acc.sample(p.activity_snapshot(), INTERVAL_S)

    def test_interval_validated(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        with pytest.raises(ValueError):
            acc.sample(p.activity_snapshot(), 0.0)

    def test_idle_interval_is_leakage_only(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        powers = acc.sample(p.activity_snapshot(), INTERVAL_S)
        assert powers == acc.leakage_powers()

    def test_active_interval_exceeds_leakage(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        p.run(1000)
        powers = acc.sample(p.activity_snapshot(), INTERVAL_S)
        leak = acc.leakage_powers()
        assert powers["IntExec0"] > leak["IntExec0"]
        assert powers["Icache"] > leak["Icache"]
        assert powers["IntQ0"] > leak["IntQ0"]

    def test_every_block_has_power(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        p.run(500)
        powers = acc.sample(p.activity_snapshot(), INTERVAL_S)
        assert set(powers) == set(acc.floorplan.names)
        assert all(v > 0 for v in powers.values())

    def test_alu_power_follows_priority_ladder(self):
        acc, p = accountant_and_processor("parser")
        acc.reset(p.activity_snapshot())
        p.run(4000)
        powers = acc.sample(p.activity_snapshot(), 4000 / 4.2e9)
        assert powers["IntExec0"] > powers["IntExec5"]

    def test_consecutive_samples_diff_correctly(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        p.run(1000)
        first = acc.sample(p.activity_snapshot(), INTERVAL_S)
        # No further work: next sample must fall back to leakage.
        second = acc.sample(p.activity_snapshot(), INTERVAL_S)
        assert second == acc.leakage_powers()
        assert first != second

    def test_typical_powers_bounds(self):
        acc, _ = accountant_and_processor()
        with pytest.raises(ValueError):
            acc.typical_powers(1.5)
        powers = acc.typical_powers(0.5)
        leak = acc.leakage_powers()
        assert all(powers[n] > leak[n] for n in powers)


class TestVectorPath:
    def test_sample_powers_matches_dict(self):
        """The vector fast path and the dict view agree element for
        element, in floorplan.names order."""
        acc, p = accountant_and_processor()
        acc2, _ = accountant_and_processor()
        snap0 = p.activity_snapshot()
        acc.reset(snap0)
        acc2.reset(snap0)
        p.run(1000)
        snap1 = p.activity_snapshot()
        vector = acc.sample_powers(snap1, INTERVAL_S)
        powers = acc2.sample(snap1, INTERVAL_S)
        assert list(vector) == [powers[name]
                                for name in acc.floorplan.names]

    def test_energy_totals_agree_between_paths(self):
        acc, p = accountant_and_processor()
        acc.reset(p.activity_snapshot())
        p.run(2000)
        acc.sample_powers(p.activity_snapshot(), INTERVAL_S)
        assert acc.total_energy_j == pytest.approx(
            sum(acc.block_energy_j.values()), rel=1e-9)

    def test_leakage_vector_cached(self):
        """leakage is constant, so the cached vector matches the dict
        recomputation exactly."""
        acc, _ = accountant_and_processor()
        leak = acc.leakage_powers()
        assert list(acc._leak_vec_w) == [leak[name]
                                         for name in acc.floorplan.names]
