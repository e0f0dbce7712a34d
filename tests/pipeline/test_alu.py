"""Tests for functional units."""

import pytest

from repro.pipeline.alu import (FP_ADD_OPCLASSES, INT_OPCLASSES,
                                FunctionalUnit, make_fp_adders,
                                make_fp_multiplier, make_int_alus)
from repro.pipeline.isa import MicroOp, OpClass


def alu():
    return FunctionalUnit(0, INT_OPCLASSES, "IntExec0")


class TestCapabilities:
    def test_int_alu_accepts_int_classes(self):
        unit = alu()
        for opclass in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.LOAD,
                        OpClass.STORE, OpClass.BRANCH):
            assert unit.can_execute(opclass)

    def test_int_alu_rejects_fp(self):
        assert not alu().can_execute(OpClass.FP_ADD)

    def test_start_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            alu().start(MicroOp(0, OpClass.FP_ADD, dst=1), 0, now=1)


class TestTiming:
    def test_single_cycle_op_finishes_next_cycle(self):
        unit = alu()
        finish = unit.start(MicroOp(0, OpClass.INT_ALU, dst=1), 0, now=5)
        assert finish == 6
        assert unit.drain(5) == []
        done = unit.drain(6)
        assert len(done) == 1
        assert done[0].op.seq == 0

    def test_single_cycle_ops_are_pipelined(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_ALU, dst=1), 0, now=1)
        assert unit.can_accept(2)
        unit.start(MicroOp(1, OpClass.INT_ALU, dst=2), 1, now=2)
        assert unit.in_flight() == 2

    def test_multiplier_occupies_unit(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_MUL, dst=1, src1=2, src2=3),
                   0, now=1)
        assert not unit.can_accept(2)
        assert not unit.can_accept(3)
        assert unit.can_accept(4)

    def test_start_while_occupied_raises(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_MUL, dst=1, src1=2, src2=3),
                   0, now=1)
        with pytest.raises(RuntimeError):
            unit.start(MicroOp(1, OpClass.INT_MUL, dst=4, src1=5, src2=6),
                       1, now=2)

    def test_load_extra_latency(self):
        unit = alu()
        finish = unit.start(MicroOp(0, OpClass.LOAD, dst=1, src1=2,
                                    mem_addr=64), 0, now=1,
                            extra_latency=14)
        assert finish == 16

    def test_drain_leaves_unfinished_work(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_ALU, dst=1), 0, now=1)
        unit.start(MicroOp(1, OpClass.LOAD, dst=2, src1=3, mem_addr=0),
                   1, now=1, extra_latency=10)
        assert len(unit.drain(2)) == 1
        assert unit.in_flight() == 1

    def test_ops_counted(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_ALU, dst=1), 0, now=1)
        assert unit.counters.ops == 1


class TestBusyFlag:
    def test_busy_does_not_block_drain(self):
        unit = alu()
        unit.start(MicroOp(0, OpClass.INT_ALU, dst=1), 0, now=1)
        unit.set_busy(True)
        assert len(unit.drain(2)) == 1


class TestFactories:
    def test_int_alus_named_by_priority(self):
        units = make_int_alus(6)
        assert [u.name for u in units] == [f"IntExec{i}" for i in range(6)]

    def test_fp_adders(self):
        units = make_fp_adders(4)
        assert all(u.opclasses == FP_ADD_OPCLASSES for u in units)

    def test_fp_multiplier(self):
        unit = make_fp_multiplier()
        assert unit.can_execute(OpClass.FP_MUL)
        assert not unit.can_execute(OpClass.FP_ADD)
