"""The out-of-order processor: ties every substrate into a cycle loop.

Stage order within :meth:`Processor.step` (one call = one cycle):

1. commit       — retire completed active-list head entries
2. writeback    — drain functional units, wake dependants, resolve branches
3. issue        — select-network arbitration, register reads, unit start
4. queue tick   — issue-queue compaction (the activity the paper studies)
5. dispatch     — rename and insert fetched ops into queues / ROB / LSQ
6. fetch        — pull from the trace

Dynamic thermal management never lives here: the processor only exposes
the mechanisms (global stall, per-unit busy flags, queue toggle,
register-file copy turnoff) that :mod:`repro.core.dtm` drives from
temperature sensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ..core.mapping import PortMapping, priority_mapping
from ..obs.events import CoreStall
from .alu import (FP_ADD_OPCLASSES, FP_MUL_OPCLASSES,
                  FunctionalUnit, make_fp_adders, make_fp_multiplier,
                  make_int_alus)
from .branch import BranchPredictor, TracePredictor
from .caches import MemoryHierarchy
from .config import ProcessorConfig
from .frontend import FetchUnit
from .isa import FP_OPCLASSES, NUM_INT_ARCH_REGS, MicroOp, OpClass
from .issue_queue import CompactingIssueQueue, IQEntry
from .kernel import kernel_enabled, run_kernel
from .regfile import RegisterFileBank, RenameTable
from .rob import ActiveList, LoadStoreQueue, ROBEntry
from .select import SelectNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.collector import TraceCollector
    from .soa import RunAxisStore

#: Rename-table row offset for FP architectural registers.
FP_RENAME_OFFSET = NUM_INT_ARCH_REGS


@dataclass
class ProcessorStats:
    """Aggregate run statistics."""

    cycles: int = 0
    committed: int = 0
    stall_cycles: int = 0
    throttled_cycles: int = 0
    issued: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


@dataclass
class ActivitySnapshot:
    """Cumulative activity counts for the power model (one point in
    time; the accountant diffs consecutive snapshots)."""

    cycles: int
    committed: int
    int_iq: "object"
    fp_iq: "object"
    alu_ops: List[int]
    fp_add_ops: List[int]
    fp_mul_ops: int
    #: Register-file reads per ALU read port (``2 * alu + port``); the
    #: power accountant folds them into copies through the mapping.
    rf_port_reads: List[int]
    rf_writes: List[int]
    fp_reg_accesses: int
    l1d_accesses: int
    l2_accesses: int
    fetched: int


class Processor:
    """A 6-wide out-of-order core running a micro-op trace."""

    def __init__(self, trace: Iterator[MicroOp],
                 config: Optional[ProcessorConfig] = None,
                 mapping: Optional[PortMapping] = None,
                 predictor: Optional[BranchPredictor] = None,
                 round_robin_alus: bool = False) -> None:
        self.config = config or ProcessorConfig()
        cfg = self.config
        self.mapping = mapping or priority_mapping(
            cfg.num_int_alus, cfg.num_regfile_copies)
        if self.mapping.n_alus != cfg.num_int_alus:
            raise ValueError("mapping ALU count disagrees with config")

        self.now = 0
        self.stats = ProcessorStats()
        self.stalled_until = 0
        self.throttled_until = 0
        #: Optional :class:`~repro.obs.collector.TraceCollector`; set by
        #: the simulator when tracing is on.  ``None`` keeps the stall
        #: hooks free of tracing work.
        self.collector: Optional["TraceCollector"] = None

        self.fetch = FetchUnit(trace, cfg.fetch_width,
                               predictor or TracePredictor(),
                               cfg.branch_mispredict_penalty)
        self.rename = RenameTable(2 * NUM_INT_ARCH_REGS,
                                  cfg.num_physical_regs)
        self.rob = ActiveList(cfg.active_list_entries)
        self.lsq = LoadStoreQueue(cfg.lsq_entries)
        self.memory = MemoryHierarchy(cfg)

        self.int_iq = CompactingIssueQueue(cfg.int_queue_entries,
                                           cfg.issue_width,
                                           replay_window=cfg.replay_window)
        self.fp_iq = CompactingIssueQueue(cfg.fp_queue_entries,
                                          cfg.issue_width,
                                          replay_window=cfg.replay_window)
        self.int_alus = make_int_alus(cfg.num_int_alus)
        self.fp_adders = make_fp_adders(cfg.num_fp_adders)
        self.fp_mul = make_fp_multiplier()
        self.int_select = SelectNetwork(cfg.int_queue_entries,
                                        cfg.num_int_alus,
                                        round_robin=round_robin_alus)
        self.fp_add_select = SelectNetwork(cfg.fp_queue_entries,
                                           cfg.num_fp_adders,
                                           round_robin=round_robin_alus)
        self.fp_mul_select = SelectNetwork(cfg.fp_queue_entries, 1)
        self.regfile = RegisterFileBank(self.mapping)
        #: Integer ALUs the ALU fine-grain controller holds off.  The
        #: register file is the busy flag's other owner (it blocks the
        #: ALUs wired to a turned-off copy); an ALU is busy while
        #: either owner holds it.
        self._alu_held = [False] * cfg.num_int_alus
        self._all_units = [*self.int_alus, *self.fp_adders, self.fp_mul]
        # Shared SoA counter banks (repro.pipeline.soa.UnitBank): one
        # per functional-unit class, built by the alu.py factories.
        self._int_bank = self.int_alus[0]._bank
        self._fp_add_bank = self.fp_adders[0]._bank
        self._fp_mul_bank = self.fp_mul._bank
        #: Count of currently turned-off units, maintained by
        #: ``FunctionalUnit.set_busy`` — when zero (the common case),
        #: the per-cycle busy accounting skips the unit scan.
        self._busy_count = [0]
        for unit in self._all_units:
            unit._bank_busy = self._busy_count
        self.fp_reg_accesses = 0
        # Per-cycle hot-path copies of immutable config fields.
        self._issue_width = cfg.issue_width
        self._commit_width = cfg.commit_width

    # ------------------------------------------------------------------
    # DTM mechanism hooks
    # ------------------------------------------------------------------
    def global_stall(self, cycles: int, reason: str = "") -> None:
        """Halt the whole core (temporal technique: cool-down stall)."""
        if cycles < 0:
            raise ValueError("stall length must be non-negative")
        self.stalled_until = max(self.stalled_until, self.now + cycles)
        if self.collector is not None:
            self.collector.emit(CoreStall(
                cycle=self.now, reason=reason,
                until_cycle=self.stalled_until, temporal="stall"))

    @property
    def is_stalled(self) -> bool:
        return self.now < self.stalled_until

    def throttle(self, cycles: int, reason: str = "") -> None:
        """Duty-cycle throttling: gate fetch/dispatch/issue on alternate
        cycles for ``cycles`` cycles (a gentler temporal technique than
        the full stall — the core keeps half its throughput)."""
        if cycles < 0:
            raise ValueError("throttle length must be non-negative")
        self.throttled_until = max(self.throttled_until,
                                   self.now + cycles)
        if self.collector is not None:
            self.collector.emit(CoreStall(
                cycle=self.now, reason=reason,
                until_cycle=self.throttled_until, temporal="throttle"))

    @property
    def is_throttled(self) -> bool:
        return self.now < self.throttled_until

    def set_alu_busy(self, index: int, value: bool) -> None:
        """Fine-grain turnoff hold on integer ALU ``index``.  Releasing
        it leaves the ALU busy while a turned-off register-file copy
        still blocks it."""
        self._alu_held[index] = value
        self._refresh_alu_busy(index)

    def set_fp_adder_busy(self, index: int, value: bool) -> None:
        self.fp_adders[index].set_busy(value)

    def toggle_issue_queues(self) -> None:
        """Activity toggling: flip head/tail mode of both queues."""
        self.int_iq.toggle()
        self.fp_iq.toggle()

    def turn_off_regfile_copy(self, copy: int) -> None:
        for alu in self.regfile.turn_off(copy):
            self._refresh_alu_busy(alu)

    def turn_on_regfile_copy(self, copy: int) -> None:
        """Re-enable ``copy``; each of its ALUs stays busy while
        another off copy blocks it or the ALU controller holds it."""
        for alu in self.regfile.turn_on(copy):
            self._refresh_alu_busy(alu)

    def _refresh_alu_busy(self, index: int) -> None:
        self.int_alus[index].set_busy(
            self._alu_held[index]
            or index in self.regfile.blocked_alus())

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def step(self) -> None:  # repro: hot-loop
        """Advance one cycle."""
        now = self.now + 1
        self.now = now
        stats = self.stats
        stats.cycles += 1
        if now < self.stalled_until:
            stats.stall_cycles += 1
            return
        self._commit()
        self._writeback()
        if self._busy_count[0]:
            for unit in self._all_units:
                if unit.busy:
                    unit._bank.busy_cycles[unit._slot] += 1
        if now < self.throttled_until and now % 2:
            stats.throttled_cycles += 1
            return  # gated cycle: in-flight work drained, nothing new
        self._issue()
        self.int_iq.tick()
        self.fp_iq.tick()
        self._dispatch()
        fetch = self.fetch
        fetch.begin_cycle()
        fetch.fetch_cycle(now)

    def run(self, max_cycles: int,
            on_sample=None, sample_interval: int = 0) -> ProcessorStats:
        """Run for up to ``max_cycles`` or until the trace drains.

        ``on_sample(processor)`` fires every ``sample_interval`` cycles
        (the thermal sensing hook).  Executes through the macro-stepped
        kernel (:mod:`repro.pipeline.kernel`) unless ``REPRO_KERNEL=0``
        selects this reference loop; both produce bit-identical state.
        """
        if kernel_enabled():
            return run_kernel(self, max_cycles, on_sample,
                              sample_interval)
        fetch = self.fetch
        rob = self.rob
        sampling = bool(sample_interval) and on_sample is not None
        # Countdown to the next sample, recomputed from the absolute
        # cycle number at every entry: ``step`` advances ``now`` by
        # exactly one, so this fires on the same cycles as
        # ``now % sample_interval == 0`` without a modulo per cycle —
        # and stays aligned to absolute interval boundaries even when
        # the run starts mid-interval (e.g. after restoring a warm
        # checkpoint taken at a non-boundary cycle).
        countdown = (sample_interval - self.now % sample_interval
                     if sampling else 0)
        for _ in range(max_cycles):
            self.step()
            if sampling:
                countdown -= 1
                if not countdown:
                    on_sample(self)
                    countdown = sample_interval
            if fetch.drained and len(rob) == 0:
                break
        return self.stats

    @property
    def finished(self) -> bool:
        return (self.fetch.drained and len(self.rob) == 0)

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _commit(self) -> None:  # repro: hot-loop
        n = self.rob.ready_count(self._commit_width)
        if not n:
            return
        rename = self.rename
        lsq = self.lsq
        for entry in self.rob.retire(n):
            op = entry.op
            opclass = op.opclass
            if opclass is OpClass.STORE:
                if op.mem_addr is not None:
                    self.memory.store(op.mem_addr)
                lsq.release()
            elif opclass is OpClass.LOAD:
                lsq.release()
            rename.release(entry.freed_tag)
        self.stats.committed += n

    def _writeback(self) -> None:  # repro: hot-loop
        now = self.now
        rob = self.rob
        for unit in self._all_units:
            if now < unit._next_finish:
                continue
            for done in unit.drain(now):
                op = done.op
                entry = rob.get(done.rob_index)
                entry.done = True
                if op.opclass is OpClass.BRANCH:
                    self.fetch.branch_resolved(op.seq, now)
                tag = entry.dst_tag
                if tag is not None:
                    self.rename.mark_ready(tag)
                    self.int_iq.wakeup(tag)
                    self.fp_iq.wakeup(tag)
                    if op.opclass in FP_OPCLASSES:
                        self.fp_reg_accesses += 1
                    else:
                        self.regfile.write()

    def _issue(self) -> None:
        budget = self._issue_width
        int_iq, fp_iq = self.int_iq, self.fp_iq
        # Occupancy checks on the queues' own fields (== len(q) != 0)
        # keep two dunder calls off the per-cycle path.
        if int_iq._top != int_iq._holes:
            budget -= self._issue_int(budget)
        if budget > 0 and fp_iq._top != fp_iq._holes:
            self._issue_fp(budget)

    def _issue_int(self, budget: int) -> int:  # repro: hot-loop
        now = self.now
        # The reference loop keeps the readable per-cycle form; the
        # macro-step kernel hoists this state (repro.pipeline.kernel).
        # An ALU a turned-off register-file copy blocks is busy.
        busy = [alu.busy or now < alu._blocked_until  # repro: noqa[REP007]
                for alu in self.int_alus]
        # No ``eligible`` filter: dispatch routes every FP op to the FP
        # queue, so each int-queue entry is INT_OPCLASSES by
        # construction and the per-slot predicate would always pass.
        grants = self.int_select.arbitrate(
            self.int_iq, busy, limit=budget)
        issued = 0
        for alu_index, phys in enumerate(grants):
            if phys is None:
                continue
            entry = self.int_iq.grant(phys)
            extra = 0
            op = entry.op
            if op.opclass is OpClass.LOAD and op.mem_addr is not None:
                extra = self.memory.load_latency(op.mem_addr)
            n_operands = ((op.src1 is not None) + (op.src2 is not None))
            self.regfile.read_for_issue(alu_index, n_operands)
            self.int_alus[alu_index].start(op, entry.rob_index, self.now,
                                           extra_latency=extra)
            self.rob.get(entry.rob_index).issued = True
            self.stats.issued += 1
            issued += 1
        return issued

    def _issue_fp(self, budget: int) -> int:
        issued = 0
        busy_add = [u.busy or not u.can_accept(self.now)
                    for u in self.fp_adders]
        grants = self.fp_add_select.arbitrate(
            self.fp_iq, busy_add,
            eligible=lambda p: self._fp_slot_eligible(p, FP_ADD_OPCLASSES),
            limit=budget)
        for unit_index, phys in enumerate(grants):
            if phys is None:
                continue
            entry = self.fp_iq.grant(phys)
            op = entry.op
            self.fp_reg_accesses += ((op.src1 is not None)
                                     + (op.src2 is not None))
            self.fp_adders[unit_index].start(op, entry.rob_index,
                                             self.now)
            self.rob.get(entry.rob_index).issued = True
            self.stats.issued += 1
            issued += 1
        if issued < budget:
            busy_mul = [self.fp_mul.busy
                        or not self.fp_mul.can_accept(self.now)]
            grants = self.fp_mul_select.arbitrate(
                self.fp_iq, busy_mul,
                eligible=lambda p: self._fp_slot_eligible(
                    p, FP_MUL_OPCLASSES))
            if grants[0] is not None:
                entry = self.fp_iq.grant(grants[0])
                op = entry.op
                self.fp_reg_accesses += ((op.src1 is not None)
                                         + (op.src2 is not None))
                self.fp_mul.start(op, entry.rob_index, self.now)
                self.rob.get(entry.rob_index).issued = True
                self.stats.issued += 1
                issued += 1
        return issued

    def _fp_slot_eligible(self, phys: int, opclasses) -> bool:
        entry = self.fp_iq.slots[phys]
        return entry is not None and entry.op.opclass in opclasses

    def _dispatch(self) -> None:  # repro: hot-loop
        ops = self.fetch.pop_ready(self._issue_width)
        if not ops:
            return
        rob = self.rob
        rename = self.rename
        lsq = self.lsq
        int_iq, fp_iq = self.int_iq, self.fp_iq
        for i, op in enumerate(ops):
            opclass = op.opclass
            queue = fp_iq if opclass in FP_OPCLASSES else int_iq
            needs_lsq = (opclass is OpClass.LOAD
                         or opclass is OpClass.STORE)
            if (rob.full or not queue.can_insert()
                    or (needs_lsq and lsq.full)
                    or (op.dst is not None
                        and rename.free_count() == 0)):
                self.fetch.unpop(ops[i:])  # structural stall
                return
            renamed = rename.rename(op, fp_offset=FP_RENAME_OFFSET)
            rob_index = rob.allocate(ROBEntry(
                op=op, dst_tag=renamed.dst_tag,
                freed_tag=renamed.freed_tag))
            if needs_lsq:
                lsq.allocate()
            queue.insert(op, rob_index,
                         rename.waiting_tags(renamed.src_tags))

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Live references to every component's mutable state.

        The caller must serialize the whole dict in **one** pass (one
        ``pickle.dumps``) before the pipeline advances another cycle:
        micro-ops are shared between the fetch buffer, issue queues,
        active list and functional-unit pipelines, and a single pass is
        what preserves that identity through a round trip.
        """
        return {
            "now": self.now,
            "stats": self.stats,
            "stalled_until": self.stalled_until,
            "throttled_until": self.throttled_until,
            "fp_reg_accesses": self.fp_reg_accesses,
            "alu_held": self._alu_held,
            "fetch": self.fetch.snapshot_state(),
            "rename": self.rename.snapshot_state(),
            "rob": self.rob.snapshot_state(),
            "lsq": self.lsq.snapshot_state(),
            "memory": self.memory.snapshot_state(),
            "int_iq": self.int_iq.snapshot_state(),
            "fp_iq": self.fp_iq.snapshot_state(),
            "int_alus": [u.snapshot_state() for u in self.int_alus],
            "fp_adders": [u.snapshot_state() for u in self.fp_adders],
            "fp_mul": self.fp_mul.snapshot_state(),
            "int_select": self.int_select.snapshot_state(),
            "fp_add_select": self.fp_add_select.snapshot_state(),
            "fp_mul_select": self.fp_mul_select.snapshot_state(),
            "regfile": self.regfile.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a deserialized :meth:`snapshot_state` payload.

        Components are mutated **in place** — the DTM controller and
        the sanitizer hold references to these objects, so replacing
        them would silently detach the control loop.
        """
        self.now = state["now"]
        self.stats = state["stats"]
        self.stalled_until = state["stalled_until"]
        self.throttled_until = state["throttled_until"]
        self.fp_reg_accesses = state["fp_reg_accesses"]
        self._alu_held = list(state["alu_held"])
        self.fetch.restore_state(state["fetch"])
        self.rename.restore_state(state["rename"])
        self.rob.restore_state(state["rob"])
        self.lsq.restore_state(state["lsq"])
        self.memory.restore_state(state["memory"])
        self.int_iq.restore_state(state["int_iq"])
        self.fp_iq.restore_state(state["fp_iq"])
        for unit, unit_state in zip(self.int_alus, state["int_alus"]):
            unit.restore_state(unit_state)
        for unit, unit_state in zip(self.fp_adders, state["fp_adders"]):
            unit.restore_state(unit_state)
        self.fp_mul.restore_state(state["fp_mul"])
        self.int_select.restore_state(state["int_select"])
        self.fp_add_select.restore_state(state["fp_add_select"])
        self.fp_mul_select.restore_state(state["fp_mul_select"])
        self.regfile.restore_state(state["regfile"])
        # Units restore their busy flags directly (bypassing
        # ``set_busy``), so the shared tally is recomputed here.
        self._busy_count[0] = sum(
            1 for unit in self._all_units if unit.busy)

    # ------------------------------------------------------------------
    # batched-grid interface (repro.pipeline.kernel.run_batch)
    # ------------------------------------------------------------------
    def adopt_run_axis(self, store: "RunAxisStore", run: int) -> None:
        """Rebind every SoA counter of this processor to row ``run``
        of a shared :class:`~repro.pipeline.soa.RunAxisStore`.

        Current counter values are carried into the store, and the
        hot-path aliases (``FunctionalUnit._ops_arr``) are re-pointed,
        so both the reference loop and the macro-step kernel keep
        working unchanged — they just write through row views now.
        """
        self._int_bank.adopt_storage(
            store.view(run, "int_ops"),
            store.view(run, "int_busy_cycles"),
            store.view(run, "int_turnoff_events"))
        self._fp_add_bank.adopt_storage(
            store.view(run, "fp_add_ops"),
            store.view(run, "fp_add_busy_cycles"),
            store.view(run, "fp_add_turnoff_events"))
        self._fp_mul_bank.adopt_storage(
            store.view(run, "fp_mul_ops"),
            store.view(run, "fp_mul_busy_cycles"),
            store.view(run, "fp_mul_turnoff_events"))
        for unit in self._all_units:
            unit._ops_arr = unit._bank.ops
        self.int_iq.adopt_counter_storage(store.view(run, "int_iq"))
        self.fp_iq.adopt_counter_storage(store.view(run, "fp_iq"))
        self.regfile.adopt_counter_storage(
            store.view(run, "rf_port_reads"), store.view(run, "rf_writes"))

    def capture_gating(self) -> Tuple[Any, ...]:
        """The DTM-controlled gating state, as a comparable tuple.

        Two runs of one batch class whose gating tuples match after an
        ``on_sample`` boundary keep executing identically (the
        macro-step contract: DTM mutates only this state, and only at
        boundaries); a mismatch is the moment of divergence.  Both
        owners of the integer ALUs' busy flags are in it (the ALU
        controller's holds and the turned-off copies), and a blocked
        ALU is busy, so equal busy flags mean equal issue under any
        port mapping.
        """
        return (self.stalled_until, self.throttled_until,
                self.int_iq.mode, self.fp_iq.mode,
                tuple(unit.busy for unit in self._all_units),
                tuple(self._alu_held),
                frozenset(self.regfile._off))

    def apply_gating(self, gating: Tuple[Any, ...]) -> None:
        """Overlay a :meth:`capture_gating` tuple onto this processor.

        Used when a batched run forks off its class: the leader's
        pipeline state is restored wholesale, then the run's own DTM
        decisions — which are exactly the gating tuple — are re-applied
        on top.  Busy flags are set directly (their ``turnoff_events``
        bumps already happened on this run's own counter row), and the
        shared busy tally and register-file block set are recomputed.
        """
        (self.stalled_until, self.throttled_until,
         int_mode, fp_mode, busy_flags, alu_held, off_copies) = gating
        for queue, mode in ((self.int_iq, int_mode), (self.fp_iq, fp_mode)):
            if queue.mode is not mode:
                queue.mode = mode
                queue._rebuild_order()
        for unit, flag in zip(self._all_units, busy_flags):
            unit.busy = flag
        self._busy_count[0] = sum(
            1 for unit in self._all_units if unit.busy)
        self._alu_held = list(alu_held)
        regfile = self.regfile
        regfile._off = set(off_copies)
        regfile._recompute_blocked()

    # ------------------------------------------------------------------
    # power-model interface
    # ------------------------------------------------------------------
    def activity_snapshot(self) -> ActivitySnapshot:
        """Cumulative activity counters for the power accountant."""
        return ActivitySnapshot(
            cycles=self.stats.cycles,
            committed=self.stats.committed,
            int_iq=self.int_iq.counters.snapshot(),
            fp_iq=self.fp_iq.counters.snapshot(),
            alu_ops=self._int_bank.ops.tolist(),
            fp_add_ops=self._fp_add_bank.ops.tolist(),
            fp_mul_ops=int(self._fp_mul_bank.ops[0]),
            rf_port_reads=self.regfile.counters.port_reads,
            rf_writes=self.regfile.counters.writes,
            fp_reg_accesses=self.fp_reg_accesses,
            l1d_accesses=self.memory.l1d.stats.accesses,
            l2_accesses=self.memory.l2.stats.accesses,
            fetched=self.fetch.fetched,
        )
