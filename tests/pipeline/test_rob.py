"""Tests for the active list and load/store queue."""

import pytest

from repro.pipeline.isa import MicroOp, OpClass
from repro.pipeline.rob import ActiveList, LoadStoreQueue, ROBEntry


def entry(seq, opclass=OpClass.INT_ALU):
    return ROBEntry(op=MicroOp(seq, opclass, dst=1), dst_tag=100 + seq,
                    freed_tag=seq)


class TestActiveList:
    def test_allocate_returns_index(self):
        rob = ActiveList(4)
        assert rob.allocate(entry(0)) == 0
        assert rob.allocate(entry(1)) == 1

    def test_full_rejected(self):
        rob = ActiveList(2)
        rob.allocate(entry(0))
        rob.allocate(entry(1))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.allocate(entry(2))

    def test_ready_count_stops_at_incomplete(self):
        rob = ActiveList(4)
        for i in range(3):
            rob.allocate(entry(i))
        rob.mark_done(0)
        rob.mark_done(2)  # out of order completion
        assert rob.ready_count(4) == 1
        rob.mark_done(1)
        assert rob.ready_count(4) == 3
        assert rob.ready_count(2) == 2  # capped at the commit width

    def test_retire_in_order(self):
        rob = ActiveList(4)
        for i in range(3):
            rob.allocate(entry(i))
        for i in range(3):
            rob.mark_done(i)
        retired = rob.retire(2)
        assert [e.op.seq for e in retired] == [0, 1]
        assert len(rob) == 1

    def test_retire_incomplete_raises(self):
        rob = ActiveList(4)
        rob.allocate(entry(0))
        with pytest.raises(RuntimeError):
            rob.retire(1)

    def test_wraps_around(self):
        rob = ActiveList(2)
        for round_trip in range(5):
            index = rob.allocate(entry(round_trip))
            rob.mark_done(index)
            rob.retire(1)
        assert len(rob) == 0

    def test_get_missing_raises(self):
        rob = ActiveList(4)
        with pytest.raises(IndexError):
            rob.get(0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ActiveList(0)


class TestLoadStoreQueue:
    def test_occupancy(self):
        lsq = LoadStoreQueue(2)
        lsq.allocate()
        assert len(lsq) == 1
        lsq.release()
        assert len(lsq) == 0

    def test_full(self):
        lsq = LoadStoreQueue(1)
        lsq.allocate()
        assert lsq.full
        with pytest.raises(RuntimeError):
            lsq.allocate()

    def test_underflow(self):
        lsq = LoadStoreQueue(1)
        with pytest.raises(RuntimeError):
            lsq.release()

    def test_needs_entry(self):
        assert LoadStoreQueue.needs_entry(
            MicroOp(0, OpClass.LOAD, dst=1, src1=2, mem_addr=0))
        assert LoadStoreQueue.needs_entry(
            MicroOp(0, OpClass.STORE, src1=1, src2=2, mem_addr=0))
        assert not LoadStoreQueue.needs_entry(
            MicroOp(0, OpClass.INT_ALU, dst=1))
