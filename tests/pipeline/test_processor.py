"""End-to-end tests of the out-of-order core."""

import pytest

from repro.pipeline.branch import GSharePredictor
from repro.pipeline.isa import MicroOp, OpClass, Program
from repro.pipeline.issue_queue import QueueMode
from repro.pipeline.processor import Processor
from repro.workloads import workload


def chain_ops(n):
    """Each op depends on the previous one: IPC must approach 1."""
    for seq in range(n):
        yield MicroOp(seq, OpClass.INT_ALU, dst=1, src1=1, src2=1)


def independent_ops(n):
    """No dependences at all: IPC should approach the issue width."""
    for seq in range(n):
        dst = 1 + (seq % 20)
        yield MicroOp(seq, OpClass.INT_ALU, dst=dst)


def moderate_ilp_ops(n, strands=2):
    """``strands`` interleaved serial chains: sustained ILP equals the
    strand count, so the low-priority ALUs are rarely needed."""
    for seq in range(n):
        reg = 1 + (seq % strands)
        yield MicroOp(seq, OpClass.INT_ALU, dst=reg, src1=reg)


class TestTiming:
    def test_dependent_chain_ipc_near_one(self):
        p = Processor(chain_ops(2000))
        p.run(10_000)
        assert p.finished
        assert p.stats.committed == 2000
        assert 0.8 <= p.stats.ipc <= 1.05

    def test_independent_ops_reach_high_ipc(self):
        p = Processor(independent_ops(6000))
        p.run(10_000)
        assert p.finished
        assert p.stats.ipc > 3.0

    def test_program_mode_executes_correctly(self):
        source = """
            addi r1, r0, 0
            addi r2, r0, 10
        loop:
            ld   r3, r1, 0
            add  r4, r4, r3
            addi r1, r1, 8
            addi r2, r2, -1
            bne  r2, r0, loop
            st   r4, r0, 512
            halt
        """
        memory = {i * 8: i for i in range(10)}
        trace = Program(source).run(memory=memory)
        p = Processor(trace, predictor=GSharePredictor())
        p.run(50_000)
        assert p.finished
        # The timing model observed the store of the correct sum.
        assert memory[512] == sum(range(10))

    def test_static_priority_concentrates_alu_use(self):
        p = Processor(moderate_ilp_ops(6000))
        p.run(10_000)
        ops = [u.counters.ops for u in p.int_alus]
        assert ops == sorted(ops, reverse=True)
        assert ops[0] > 2 * max(1, ops[-1])

    def test_round_robin_balances_alu_use(self):
        p = Processor(independent_ops(6000), round_robin_alus=True)
        p.run(10_000)
        ops = [u.counters.ops for u in p.int_alus]
        assert max(ops) < 1.5 * min(ops)


class TestDTMHooks:
    def test_global_stall_freezes_commit(self):
        p = Processor(independent_ops(2000))
        p.run(100)
        committed = p.stats.committed
        p.global_stall(51)
        p.run(50)
        assert p.stats.committed == committed
        assert p.stats.stall_cycles == 50

    def test_alu_busy_redirects_issue(self):
        p = Processor(independent_ops(6000))
        p.set_alu_busy(0, True)
        p.run(5000)
        assert p.int_alus[0].counters.ops == 0
        assert p.int_alus[1].counters.ops > 0

    def test_regfile_copy_turnoff_blocks_its_alus(self):
        p = Processor(independent_ops(6000))
        p.turn_off_regfile_copy(0)
        p.run(3000)
        blocked = p.mapping.alus_on_copy(0)
        for alu in blocked:
            assert p.int_alus[alu].counters.ops == 0
        assert p.regfile.counters.reads[0] == 0

    def test_regfile_copy_turn_on_restores(self):
        p = Processor(independent_ops(6000))
        p.turn_off_regfile_copy(0)
        p.run(500)
        p.turn_on_regfile_copy(0)
        before = p.int_alus[0].counters.ops
        p.run(2000)
        assert p.int_alus[0].counters.ops > before

    def test_regfile_turn_on_keeps_held_alu_busy(self):
        """An ALU the ALU controller holds off stays busy when the copy
        that also blocked it turns back on."""
        p = Processor(independent_ops(10))
        p.set_alu_busy(0, True)
        p.turn_off_regfile_copy(0)
        p.turn_on_regfile_copy(0)
        assert [u.busy for u in p.int_alus] == [True] + [False] * 5

    def test_alu_release_keeps_blocked_alu_busy(self):
        """Releasing the ALU controller's hold leaves an ALU busy while
        a turned-off copy still blocks it."""
        p = Processor(independent_ops(10))
        p.turn_off_regfile_copy(0)
        p.set_alu_busy(0, True)
        p.set_alu_busy(0, False)
        assert p.int_alus[0].busy
        p.turn_on_regfile_copy(0)
        assert not any(u.busy for u in p.int_alus)

    def test_gating_overlay_carries_both_owners(self):
        """A fork overlays its own gating tuple on another processor's
        state; the ALU controller's hold must survive it."""
        p = Processor(independent_ops(10))
        p.set_alu_busy(0, True)
        p.turn_off_regfile_copy(0)
        q = Processor(independent_ops(10))
        q.apply_gating(p.capture_gating())
        assert q.capture_gating() == p.capture_gating()
        q.turn_on_regfile_copy(0)
        assert [u.busy for u in q.int_alus] == [True] + [False] * 5

    def test_toggle_issue_queues(self):
        p = Processor(independent_ops(1000))
        p.toggle_issue_queues()
        assert p.int_iq.mode is p.fp_iq.mode is QueueMode.TOGGLED
        p.run(3000)
        assert p.finished


class TestActivitySnapshot:
    def test_counts_monotone(self):
        p = Processor(workload("gzip"))
        p.run(300)
        first = p.activity_snapshot()
        p.run(300)
        second = p.activity_snapshot()
        assert second.committed >= first.committed
        assert second.fetched >= first.fetched
        assert all(b >= a for a, b in zip(first.alu_ops, second.alu_ops))
        assert all(b >= a for a, b in zip(first.rf_port_reads,
                                          second.rf_port_reads))

    def test_snapshot_is_decoupled(self):
        p = Processor(workload("gzip"))
        p.run(300)
        snap = p.activity_snapshot()
        committed = snap.committed
        p.run(300)
        assert snap.committed == committed

    def test_synthetic_workload_runs(self):
        p = Processor(workload("mcf"))
        p.run(2000)
        assert p.stats.committed > 0
