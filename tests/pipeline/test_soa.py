"""Unit tests for the SoA counter storage (`repro.pipeline.soa`).

`tests/pipeline/test_kernel.py` proves the macro-step kernel is
bit-identical end to end; these tests pin the *storage contract* the
kernel and the object layer both rely on: bank slots are independent,
the per-object counter views write through to the shared arrays, and
snapshot/restore round-trips are exact.
"""

import numpy as np
import pytest

from repro.pipeline.alu import make_fp_adders, make_int_alus
from repro.pipeline.issue_queue import (CompactingIssueQueue,
                                        IssueQueueCounters)
from repro.pipeline.soa import (IQC_BROADCASTS, IQC_COMPACTION_MOVES_0,
                                IQC_COMPACTION_MOVES_1, IQC_NFIELDS,
                                UnitBank, new_iq_counter_array)


class TestUnitBank:
    def test_arrays_are_preallocated_int64(self):
        bank = UnitBank(6)
        for arr in (bank.ops, bank.busy_cycles, bank.turnoff_events):
            assert arr.dtype == np.int64
            assert arr.shape == (6,)
            assert not arr.any()

    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError):
            UnitBank(0)

    def test_vectorized_add_matches_scalar_bumps(self):
        vec, scalar = UnitBank(4), UnitBank(4)
        delta = [3, 0, 7, 1]
        vec.ops += np.asarray(delta)
        for slot, n in enumerate(delta):
            for _ in range(n):
                scalar.ops[slot] += 1
        assert vec.ops.tolist() == scalar.ops.tolist()


class TestUnitCounterViews:
    def test_units_share_one_bank_with_independent_slots(self):
        alus = make_int_alus(6)
        assert len({id(u._bank) for u in alus}) == 1
        alus[2].counters.ops = 5
        alus[4].counters.busy_cycles = 9
        assert alus[2]._bank.ops.tolist() == [0, 0, 5, 0, 0, 0]
        assert [u.counters.ops for u in alus] == [0, 0, 5, 0, 0, 0]
        assert [u.counters.busy_cycles for u in alus] == [0, 0, 0, 0, 9, 0]

    def test_view_reads_are_plain_ints(self):
        adder = make_fp_adders(4)[1]
        adder.counters.ops += 2
        assert type(adder.counters.ops) is int
        assert adder.counters.values() == {
            "ops": 2, "busy_cycles": 0, "turnoff_events": 0}

    def test_banks_are_per_make_call(self):
        a, b = make_int_alus(6), make_int_alus(6)
        a[0].counters.ops = 3
        assert b[0].counters.ops == 0


class TestIssueQueueCounterArray:
    def queue(self):
        return CompactingIssueQueue(n_entries=8, compact_width=4)

    def test_array_layout(self):
        arr = new_iq_counter_array()
        assert arr.dtype == np.int64
        assert arr.shape == (IQC_NFIELDS,)

    def test_half_pair_writes_through(self):
        q = self.queue()
        q.counters.compaction_moves[0] += 2
        q.counters.compaction_moves[1] = 7
        assert q._c[IQC_COMPACTION_MOVES_0] == 2
        assert q._c[IQC_COMPACTION_MOVES_1] == 7
        assert q.counters.compaction_moves == [2, 7]
        assert list(q.counters.compaction_moves) == [2, 7]
        assert len(q.counters.compaction_moves) == 2

    def test_scalar_slots_write_through(self):
        q = self.queue()
        q._c[IQC_BROADCASTS] = 11
        assert q.counters.broadcasts == 11
        assert type(q.counters.broadcasts) is int

    def test_snapshot_restore_round_trip(self):
        q = self.queue()
        q._c[:] = np.arange(1, IQC_NFIELDS + 1)
        dto = q.counters.snapshot()
        assert isinstance(dto, IssueQueueCounters)

        other = self.queue()
        other.counters.restore(dto)
        assert other._c.tolist() == q._c.tolist()
        # The DTO is a value copy, not a live view.
        q._c[IQC_BROADCASTS] = 0
        assert dto.broadcasts != 0


class TestRegFileCounterViews:
    def test_reads_writes_come_back_as_lists(self):
        from repro.core.mapping import balanced_mapping
        from repro.pipeline.regfile import RegisterFileBank

        bank = RegisterFileBank(balanced_mapping(6, 2))
        bank.read_for_issue(alu=0, n_operands=2)
        bank.write()
        reads = bank.counters.reads
        assert type(reads) is list and sum(reads) == 2
        assert bank.counters.writes == [1] * bank.n_copies
        assert bank._port_reads.dtype == np.int64
        assert bank._writes.dtype == np.int64
