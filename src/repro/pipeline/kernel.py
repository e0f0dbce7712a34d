"""Macro-stepped execution kernel for the measurement hot path.

:meth:`Processor.step` is semantically one cycle, but executing it as
six method calls per cycle makes the Python interpreter — attribute
lookups, argument binding, list allocations — the dominant cost of a
run.  This module fuses the whole cycle into one loop body that runs a
**macro-step** (one thermal sensing interval, ``sensor_interval_cycles``
cycles) at a time:

* every attribute chain the cycle body touches is hoisted into a local
  exactly once per macro-step and flushed back when the step ends;
* scalar counters (stats, fetch bookkeeping, issue-queue/regfile
  activity) accumulate in plain locals and land in the SoA arrays
  (:mod:`repro.pipeline.soa`) as a handful of vectorized adds per
  macro-step instead of per-cycle attribute bumps;
* the stall/throttle gates and the sampling check live *outside*
  the per-cycle body: a fully stalled stretch is bulk-skipped in O(1),
  and sampling reduces to slicing the run into boundary-aligned chunks.

The fusion is legal because of the **macro-step contract**: everything
the hoisted state depends on (busy flags, regfile turnoffs, queue mode,
stall/throttle windows) is only mutated by the DTM controller, which
runs exclusively in the ``on_sample`` boundary hook — so it is constant
within a macro-step, and every local is re-hoisted after each boundary.
Within a cycle the kernel preserves the reference stage order and its
exact side-effect order (memory-hierarchy LRU touches, wakeup
broadcasts…), which is what makes the result bit-identical to the
reference loop.

``REPRO_KERNEL=0`` disables the kernel and runs the original
per-cycle reference loop in :meth:`Processor.run`; the test suite
asserts bit-identical ``SimulationResult`` payloads between the two
across the full technique × floorplan matrix.
"""

from __future__ import annotations

import os
import pickle
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .alu import _NEVER, _InFlight
from .isa import DEFAULT_LATENCY, NUM_INT_ARCH_REGS, OpClass
from .issue_queue import IQEntry, QueueMode
from .rob import ROBEntry
from .soa import (IQC_BROADCASTS, IQC_COMPACTION_MOVES_0,
                  IQC_COUNTER_EVALS_0, IQC_COUNTER_EVALS_1, IQC_CYCLES,
                  IQC_INSERTS, IQC_LONG_MOVES_0, IQC_OCCUPANCY_SUM,
                  IQC_PAYLOAD_OPS, IQC_SELECT_GRANTS)
from ..workloads.trace import ReplayTrace as _ReplayTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .issue_queue import CompactingIssueQueue
    from .processor import Processor, ProcessorStats

_TOGGLED = QueueMode.TOGGLED

#: Rename-table row offset for FP architectural registers (mirrors
#: ``processor.FP_RENAME_OFFSET``; duplicated to avoid a module cycle).
_FP_OFFSET = NUM_INT_ARCH_REGS


def kernel_enabled() -> bool:
    """Whether ``Processor.run`` should use the macro-step kernel.

    Read from the environment on every call so tests can flip
    ``REPRO_KERNEL`` between runs without rebuilding anything.
    """
    return os.environ.get("REPRO_KERNEL", "1") != "0"


def run_kernel(proc: "Processor", max_cycles: int,
               on_sample=None, sample_interval: int = 0
               ) -> "ProcessorStats":
    """Drop-in replacement for the reference ``Processor.run`` loop.

    Slices the run into macro-steps bounded by absolute sampling
    boundaries (``now % sample_interval == 0``) and fires ``on_sample``
    exactly where the reference loop does — including after a
    chunk whose final cycle both drains the pipeline and lands on a
    boundary (the reference samples before its drain check).
    """
    sampling = bool(sample_interval) and on_sample is not None
    remaining = max_cycles
    while remaining > 0:
        if sampling:
            to_boundary = sample_interval - proc.now % sample_interval
            chunk = to_boundary if to_boundary < remaining else remaining
        else:
            to_boundary = -1
            chunk = remaining
        ran, finished = _run_chunk(proc, chunk)
        remaining -= ran
        if sampling and ran == chunk and chunk == to_boundary:
            on_sample(proc)
        if finished:
            break
    return proc.stats


def _run_chunk(proc: "Processor", n_cycles: int) -> Tuple[int, bool]:
    """Execute up to ``n_cycles`` cycles with fully hoisted state.

    Returns ``(cycles_ran, finished)`` where ``finished`` mirrors the
    reference loop's drain break (trace exhausted, fetch buffer empty,
    active list empty).  All mutated scalars are written back in the
    ``finally`` block, so the processor object is consistent even if a
    model invariant raises mid-chunk.

    Issue is readiness-driven: each queue keeps its un-issued entries
    with empty waiting sets in a ready list (INT, FP-add, FP-mul),
    sorted by a per-chunk *rank*.  A queue's mode only changes at
    boundaries, both compaction paths keep survivors in relative
    order, and dispatch inserts at the tail, so select order within a
    chunk is rank order: the logical position at the hoist, then a
    dispatch counter starting past every position.  Dispatch appends,
    a wakeup insorts, a grant deletes the granted prefix.  Counters
    that follow from the grants (queue grants, unit ops, register-file
    reads) are derived once, in the flush.
    """
    # ---- hoist: everything the cycle body touches ---------------------
    now = proc.now
    end = now + n_cycles
    start_cycle = now
    finished = False

    st = proc.stats
    st_cycles = st.cycles
    st_committed = st.committed
    st_stall = st.stall_cycles
    st_throttled = st.throttled_cycles

    stalled_until = proc.stalled_until
    throttled_until = proc.throttled_until
    commit_width = proc._commit_width
    issue_width = proc._issue_width

    rob = proc.rob
    rob_entries = rob._entries
    rob_capacity = rob.capacity
    rob_head = rob._head
    rob_tail = rob._tail
    rob_count = rob._count

    lsq = proc.lsq
    lsq_count = lsq._count
    lsq_capacity = lsq.capacity

    rename = proc.rename
    amap = rename._map
    free_list = rename._free
    free_pop = free_list.pop
    ready_set = rename._ready
    ready_add = ready_set.add
    ready_discard = ready_set.discard

    fetch = proc.fetch
    f_buffer = fetch.buffer
    f_pop = f_buffer.popleft
    f_push = f_buffer.append
    f_capacity = fetch.buffer_capacity
    f_width = fetch.fetch_width
    f_fetched = fetch.fetched
    f_exhausted = fetch.exhausted
    f_blocking = fetch._blocking_branch
    f_resume = fetch._resume_at
    f_count = fetch._count_this_cycle
    penalty = fetch.mispredict_penalty
    trace = fetch.trace
    trace_next = trace.__next__
    pred_mis = fetch.predictor.mispredicted
    # Replayable traces (the normal case) are fetched by direct list
    # indexing — ``__next__``'s cursor bump and try/except cost a
    # method call per fetched op.  ``t_ops`` doubles as the fast-path
    # flag; custom iterator traces keep the generic loop.
    if type(trace) is _ReplayTrace:
        t_ops = trace._ops
        t_get = trace.buffer.get
        t_pos = trace.position
        t_len = len(t_ops)
    else:
        t_ops = None
        t_pos = 0

    memory = proc.memory
    mem_load_latency = memory.load_latency
    mem_store = memory.store

    units = proc._all_units
    n_units = len(units)
    int_alus = proc.int_alus
    n_int = len(int_alus)
    int_blocked = [u._blocked_until for u in int_alus]
    fp_adders = proc.fp_adders
    n_fp = len(fp_adders)
    fp_mul = proc.fp_mul
    mul_j = n_units - 1
    # Unit execution state, hoisted: in-flight lists are mutated (and
    # on drain, rebound) locally and written back in the flush; the
    # next-finish sentinels let writeback skip an idle unit on one
    # list index instead of an attribute load.
    pipelines = [u._pipeline for u in units]
    nf = [u._next_finish for u in units]
    # Earliest pending finish across all units: writeback skips the
    # whole per-unit scan on cycles where nothing can drain.  Kept
    # current at every site that lowers a unit's next-finish.
    min_nf = min(nf)
    latency_of = DEFAULT_LATENCY
    # Records are built without ``__init__``: a slot store per field
    # costs less than a dataclass call.
    new = object.__new__
    # Busy flags only flip at sample boundaries and ``_blocked_until``
    # is only written by INT_MUL issue, which FP units never execute —
    # so the FP gating inputs are chunk-constant.
    fp_busy_static = [u.busy for u in fp_adders]
    fp_blocked = [u._blocked_until for u in fp_adders]
    fpm_busy = fp_mul.busy
    fpm_blocked = fp_mul._blocked_until

    regfile = proc.regfile
    off_set = regfile._off
    # An ALU a turned-off register-file copy blocks is busy.
    int_busy_static = [u.busy for u in int_alus]
    mapping = proc.mapping
    copies_for = [mapping.copies_for(i) for i in range(n_int)]
    # Per ALU, the first read port wired to a turned-off copy (2 when
    # none is): an op reading more operands than that would read it.
    first_off = []
    for ports in copies_for:
        port = 0
        while port < len(ports) and ports[port] not in off_set:
            port += 1
        first_off.append(port)
    # Per ALU, ops issued with 0, 1 and 2 register operands: the
    # flush turns them into per-port reads.
    operand_tally = [[0, 0, 0] for _ in range(n_int)]
    rf_write_events = 0
    fp_acc = proc.fp_reg_accesses

    int_iq = proc.int_iq
    i_now = int_iq._now
    i_cap = int_iq.n_entries
    int_waiters = int_iq._waiters
    int_waiters_get = int_waiters.get
    int_waiters_pop = int_waiters.pop
    i_low = _low_before(int_iq)
    ic_ticks = ic_occ = ic_bcasts = 0
    #: Compaction charges [ce0, ce1, cm0, cm1, lm0, lm1].
    ic_acc = [0] * 6

    fp_iq = proc.fp_iq
    fq_now = fp_iq._now
    fq_cap = fp_iq.n_entries
    fp_waiters = fp_iq._waiters
    fp_waiters_get = fp_waiters.get
    fp_waiters_pop = fp_waiters.pop
    fq_low = _low_before(fp_iq)
    fc_ticks = fc_occ = fc_bcasts = 0
    fc_acc = [0] * 6

    int_sel = proc.int_select
    int_rr = int_sel.round_robin
    int_rr_off = int_sel._rr_offset
    igpt = int_sel.counters.grants_per_tree
    igpt_start = list(igpt)
    fp_sel = proc.fp_add_select
    fp_rr = fp_sel.round_robin
    fp_rr_off = fp_sel._rr_offset
    fgpt = fp_sel.counters.grants_per_tree
    fgpt_start = list(fgpt)
    mul_sel = proc.fp_mul_select
    mgpt = mul_sel.counters.grants_per_tree
    mgpt_start = mgpt[0]

    OC_LOAD = OpClass.LOAD
    OC_STORE = OpClass.STORE
    OC_BRANCH = OpClass.BRANCH
    OC_INT_MUL = OpClass.INT_MUL
    OC_FP_ADD = OpClass.FP_ADD
    OC_FP_MUL = OpClass.FP_MUL

    # Ready lists in select order.  ``*_rank`` maps each un-issued
    # entry to its rank and drops it at grant; the ready lists hold
    # the un-issued entries with empty waiting sets, sorted by rank.
    # Dispatch ranks start at the queue size, past every logical
    # position, so ``*_seq - *_cap`` counts the chunk's inserts.
    i_rank: Dict[IQEntry, int] = {}
    i_ready: List[IQEntry] = []
    order = int_iq._order
    slots = int_iq.slots
    for pos in range(int_iq._top):
        e = slots[order[pos]]
        if e is not None and e.issued_at is None:
            i_rank[e] = pos
            if not e.waiting_tags:
                i_ready.append(e)
    i_rank_of = i_rank.__getitem__
    i_unrank = i_rank.__delitem__
    i_seq = i_cap
    f_rank: Dict[IQEntry, int] = {}
    fa_ready: List[IQEntry] = []
    fm_ready: List[IQEntry] = []
    order = fp_iq._order
    slots = fp_iq.slots
    for pos in range(fp_iq._top):
        e = slots[order[pos]]
        if e is not None and e.issued_at is None:
            f_rank[e] = pos
            if not e.waiting_tags:
                if e.op.opclass is OC_FP_ADD:
                    fa_ready.append(e)
                else:
                    fm_ready.append(e)
    f_rank_of = f_rank.__getitem__
    f_unrank = f_rank.__delitem__
    f_seq = fq_cap

    # ---- loop top: global stall, quiescent fast-forward --------------
    # (Above the ``while``: a sample taken at the loop's back-edge
    # reports the ``while`` line.)
    try:
        while now < end:
            nxt = now + 1
            if nxt < stalled_until:
                # Global stall: the reference body only bumps the cycle
                # and stall counters and re-checks the drain condition,
                # and nothing inside a stalled cycle can change that
                # condition — so the whole stalled stretch collapses.
                if f_exhausted and rob_count == 0 and not f_buffer:
                    now = nxt
                    st_cycles += 1
                    st_stall += 1
                    finished = True
                    break
                last = stalled_until - 1
                if last > end:
                    last = end
                n_stall = last - now
                now = last
                st_cycles += n_stall
                st_stall += n_stall
                continue
            if (nxt < min_nf and not i_ready and not fa_ready
                    and not fm_ready
                    and throttled_until <= nxt and not f_exhausted
                    and not int_iq._pending_removal
                    and not fp_iq._pending_removal
                    and not int_iq._holes and not fp_iq._holes
                    and (not rob_count
                         or not rob_entries[rob_head].done)):
                # Quiescent stretch: nothing can write back (before
                # min_nf), commit (head not done), issue (no ready
                # entry), or compact (no holes, nothing issued), and
                # none of that changes until the next writeback.  If
                # fetch and dispatch are blocked too, every cycle up
                # to the next event (writeback, fetch resume, chunk
                # end) only ticks counters: collapse the stretch.
                stop = min_nf if min_nf <= end else end + 1
                if f_resume is not None:
                    if f_resume < stop:
                        stop = f_resume
                    idle = True
                else:
                    idle = (f_blocking is not None
                            or len(f_buffer) >= f_capacity)
                if idle and f_buffer:
                    # The head op must hit a structural stall.
                    op = f_buffer[0]
                    oc = op.opclass
                    if oc is OC_FP_ADD or oc is OC_FP_MUL:
                        full = fp_iq._top >= fq_cap
                    else:
                        full = int_iq._top >= i_cap
                    idle = (full or rob_count == rob_capacity
                            or ((oc is OC_LOAD or oc is OC_STORE)
                                and lsq_count == lsq_capacity)
                            or (op.dst is not None and not free_list))
                if idle and stop > nxt:
                    span = stop - nxt
                    now = stop - 1
                    st_cycles += span
                    f_count = 0
                    i_now += span
                    ic_ticks += span
                    occ = int_iq._top
                    if occ:
                        ic_occ += occ * span
                        if int_rr:
                            int_rr_off = (int_rr_off + span) % n_int
                    fq_now += span
                    fc_ticks += span
                    occ = fp_iq._top
                    if occ:
                        # issue_width > 0, so the FP-add select pass
                        # sees every cycle.
                        fc_occ += occ * span
                        if fp_rr:
                            fp_rr_off = (fp_rr_off + span) % n_fp
                    continue
            now = nxt
            st_cycles += 1

            # ---- commit (fused ready_count + retire) -----------------
            if rob_count:
                n_commit = 0
                limit = rob_count if rob_count < commit_width \
                    else commit_width
                pos = rob_head
                while n_commit < limit:
                    entry = rob_entries[pos]
                    if entry is None or not entry.done:
                        break
                    op = entry.op
                    oc = op.opclass
                    if oc is OC_STORE:
                        if op.mem_addr is not None:
                            mem_store(op.mem_addr)
                        lsq_count -= 1
                    elif oc is OC_LOAD:
                        lsq_count -= 1
                    tag = entry.freed_tag
                    if tag is not None:
                        free_list.append(tag)
                        ready_discard(tag)
                    rob_entries[pos] = None
                    pos += 1
                    if pos == rob_capacity:
                        pos = 0
                    n_commit += 1
                if n_commit:
                    rob_head = pos
                    rob_count -= n_commit
                    st_committed += n_commit

            # ---- writeback (inlined ``FunctionalUnit.drain``) --------
            if now >= min_nf:
                min_nf = _NEVER
                for j in range(n_units):
                    fin_j = nf[j]
                    if now < fin_j:
                        if fin_j < min_nf:
                            min_nf = fin_j
                        continue
                    remaining = []
                    next_finish = _NEVER
                    for done in pipelines[j]:
                        fin = done.finish_cycle
                        if fin > now:
                            remaining.append(done)
                            if fin < next_finish:
                                next_finish = fin
                            continue
                        op = done.op
                        entry = rob_entries[done.rob_index]
                        entry.done = True
                        oc = op.opclass
                        if oc is OC_BRANCH and f_blocking == op.seq:
                            f_blocking = None
                            f_resume = now + penalty
                        tag = entry.dst_tag
                        if tag is not None:
                            ready_add(tag)
                            ic_bcasts += 1
                            bucket = int_waiters_pop(tag, None)
                            if bucket is not None:
                                for waiter in bucket:
                                    wt = waiter.waiting_tags
                                    wt.discard(tag)
                                    if not wt:
                                        insort(i_ready, waiter,
                                               key=i_rank_of)
                            fc_bcasts += 1
                            bucket = fp_waiters_pop(tag, None)
                            if bucket is not None:
                                for waiter in bucket:
                                    wt = waiter.waiting_tags
                                    wt.discard(tag)
                                    if not wt:
                                        if waiter.op.opclass is OC_FP_ADD:
                                            insort(fa_ready, waiter,
                                                   key=f_rank_of)
                                        else:
                                            insort(fm_ready, waiter,
                                                   key=f_rank_of)
                            if oc is OC_FP_ADD or oc is OC_FP_MUL:
                                fp_acc += 1
                            else:
                                rf_write_events += 1
                    pipelines[j] = remaining
                    nf[j] = next_finish
                    if next_finish < min_nf:
                        min_nf = next_finish

            if throttled_until > now and now & 1:
                st_throttled += 1
            else:
                # ---- issue (fused select + grant + unit start) -------
                budget = issue_width
                if int_iq._top != int_iq._holes:
                    n_ready = len(i_ready)
                    if n_ready:
                        cap = budget if budget < n_ready else n_ready
                        taken = 0
                        pairs = []
                        if int_rr:
                            # Two-phase: the rotated serialization
                            # assigns the grants, but the reference
                            # processes them in ascending ALU order
                            # (cache-touch order must match).
                            for k in range(n_int):
                                if taken >= cap:
                                    break
                                t = (k + int_rr_off) % n_int
                                if (int_busy_static[t]
                                        or now < int_blocked[t]):
                                    continue
                                pairs.append((t, i_ready[taken]))
                                igpt[t] += 1
                                taken += 1
                            pairs.sort()
                        else:
                            for t in range(n_int):
                                if taken >= cap:
                                    break
                                if (int_busy_static[t]
                                        or now < int_blocked[t]):
                                    continue
                                pairs.append((t, i_ready[taken]))
                                igpt[t] += 1
                                taken += 1
                        del i_ready[:taken]
                        i_pending = int_iq._pending_removal
                        for t, e in pairs:
                            i_unrank(e)
                            e.issued_at = i_now
                            i_pending.append(e)
                            op = e.op
                            oc = op.opclass
                            extra = 0
                            if oc is OC_LOAD and op.mem_addr is not None:
                                extra = mem_load_latency(op.mem_addr)
                            n_operands = ((op.src1 is not None)
                                          + (op.src2 is not None))
                            if n_operands > first_off[t]:
                                raise RuntimeError(
                                    f"read from turned-off register-file "
                                    f"copy {copies_for[t][first_off[t]]}; "
                                    f"ALU {t} should have been marked "
                                    f"busy")
                            operand_tally[t][n_operands] += 1
                            base = latency_of[oc]
                            if oc is OC_INT_MUL:
                                int_blocked[t] = now + base
                            fin = now + base + extra
                            w = new(_InFlight)
                            w.op = op
                            w.rob_index = e.rob_index
                            w.finish_cycle = fin
                            pipelines[t].append(w)
                            if fin < nf[t]:
                                nf[t] = fin
                            if fin < min_nf:
                                min_nf = fin
                        budget -= taken
                    if int_rr:
                        int_rr_off = (int_rr_off + 1) % n_int
                if budget > 0 and fp_iq._top != fp_iq._holes:
                    n_ready = len(fa_ready)
                    taken = 0
                    if n_ready:
                        cap = budget if budget < n_ready else n_ready
                        pairs = []
                        if fp_rr:
                            for k in range(n_fp):
                                if taken >= cap:
                                    break
                                t = (k + fp_rr_off) % n_fp
                                if (fp_busy_static[t]
                                        or now < fp_blocked[t]):
                                    continue
                                pairs.append((t, fa_ready[taken]))
                                fgpt[t] += 1
                                taken += 1
                            pairs.sort()
                        else:
                            for t in range(n_fp):
                                if taken >= cap:
                                    break
                                if (fp_busy_static[t]
                                        or now < fp_blocked[t]):
                                    continue
                                pairs.append((t, fa_ready[taken]))
                                fgpt[t] += 1
                                taken += 1
                        del fa_ready[:taken]
                        f_pending = fp_iq._pending_removal
                        for t, e in pairs:
                            f_unrank(e)
                            e.issued_at = fq_now
                            f_pending.append(e)
                            op = e.op
                            fp_acc += ((op.src1 is not None)
                                       + (op.src2 is not None))
                            j = n_int + t
                            fin = now + latency_of[OC_FP_ADD]
                            w = new(_InFlight)
                            w.op = op
                            w.rob_index = e.rob_index
                            w.finish_cycle = fin
                            pipelines[j].append(w)
                            if fin < nf[j]:
                                nf[j] = fin
                            if fin < min_nf:
                                min_nf = fin
                    if fp_rr:
                        fp_rr_off = (fp_rr_off + 1) % n_fp
                    if taken < budget:
                        # FP multiplier pass: add grants never touch
                        # mul entries, so its request set is the
                        # mul-ready list as it stands.
                        if fm_ready and not (fpm_busy
                                             or now < fpm_blocked):
                            e = fm_ready.pop(0)
                            f_unrank(e)
                            mgpt[0] += 1
                            e.issued_at = fq_now
                            fp_iq._pending_removal.append(e)
                            op = e.op
                            fp_acc += ((op.src1 is not None)
                                       + (op.src2 is not None))
                            fin = now + latency_of[OC_FP_MUL]
                            w = new(_InFlight)
                            w.op = op
                            w.rob_index = e.rob_index
                            w.finish_cycle = fin
                            pipelines[mul_j].append(w)
                            if fin < nf[mul_j]:
                                nf[mul_j] = fin
                            if fin < min_nf:
                                min_nf = fin

                # ---- queue tick (compaction) -------------------------
                i_now += 1
                ic_ticks += 1
                ic_occ += int_iq._top - int_iq._holes
                if int_iq._holes or int_iq._pending_removal:
                    _compact_queue(int_iq, i_now, ic_acc, i_low)
                fq_now += 1
                fc_ticks += 1
                fc_occ += fp_iq._top - fp_iq._holes
                if fp_iq._holes or fp_iq._pending_removal:
                    _compact_queue(fp_iq, fq_now, fc_acc, fq_low)

                # ---- dispatch (peek-based rename + insert) -----------
                if f_buffer:
                    n_disp = len(f_buffer)
                    if n_disp > issue_width:
                        n_disp = issue_width
                    for _ in range(n_disp):
                        op = f_buffer[0]
                        oc = op.opclass
                        if oc is OC_FP_ADD or oc is OC_FP_MUL:
                            queue = fp_iq
                            q_cap = fq_cap
                            offset = _FP_OFFSET
                        else:
                            queue = int_iq
                            q_cap = i_cap
                            offset = 0
                        needs_lsq = oc is OC_LOAD or oc is OC_STORE
                        if (rob_count == rob_capacity
                                or queue._top >= q_cap
                                or (needs_lsq
                                    and lsq_count == lsq_capacity)
                                or (op.dst is not None
                                    and not free_list)):
                            break  # structural stall: op stays buffered
                        f_pop()
                        s1 = op.src1
                        s2 = op.src2
                        # ``wlist`` mirrors the set in insertion order
                        # so waiter registration below iterates a
                        # deterministic sequence, not the set.
                        waiting = set()
                        wlist = []
                        if s1 is not None:
                            tag = amap[offset + s1]
                            if tag not in ready_set:
                                waiting.add(tag)
                                wlist.append(tag)
                        if s2 is not None:
                            tag = amap[offset + s2]
                            if tag not in ready_set and tag not in waiting:
                                waiting.add(tag)
                                wlist.append(tag)
                        dst = op.dst
                        if dst is not None:
                            dst_tag = free_pop()
                            freed = amap[offset + dst]
                            amap[offset + dst] = dst_tag
                            ready_discard(dst_tag)
                        else:
                            dst_tag = None
                            freed = None
                        r = new(ROBEntry)
                        r.op = op
                        r.dst_tag = dst_tag
                        r.freed_tag = freed
                        r.done = False
                        rob_entries[rob_tail] = r
                        rob_index = rob_tail
                        rob_tail += 1
                        if rob_tail == rob_capacity:
                            rob_tail = 0
                        rob_count += 1
                        if needs_lsq:
                            lsq_count += 1
                        iq_entry = new(IQEntry)
                        iq_entry.op = op
                        iq_entry.rob_index = rob_index
                        iq_entry.waiting_tags = waiting
                        iq_entry.issued_at = None
                        queue.slots[queue._order[queue._top]] = iq_entry
                        queue._top += 1
                        if queue is int_iq:
                            i_rank[iq_entry] = i_seq
                            i_seq += 1
                            if not wlist:
                                i_ready.append(iq_entry)
                            for tag in wlist:
                                bucket = int_waiters_get(tag)
                                if bucket is None:
                                    int_waiters[tag] = [iq_entry]
                                else:
                                    bucket.append(iq_entry)
                        else:
                            f_rank[iq_entry] = f_seq
                            f_seq += 1
                            if wlist:
                                for tag in wlist:
                                    bucket = fp_waiters_get(tag)
                                    if bucket is None:
                                        fp_waiters[tag] = [iq_entry]
                                    else:
                                        bucket.append(iq_entry)
                            elif oc is OC_FP_ADD:
                                fa_ready.append(iq_entry)
                            else:
                                fm_ready.append(iq_entry)

                # ---- fetch -------------------------------------------
                f_count = 0
                if f_resume is not None and now >= f_resume:
                    f_resume = None
                if f_resume is None and f_blocking is None:
                    if t_ops is not None:
                        # Replay fast path: endless stream, direct
                        # indexing (the cursor flushes back in finally).
                        while (len(f_buffer) < f_capacity
                               and f_count < f_width):
                            if t_pos < t_len:
                                op = t_ops[t_pos]
                            else:
                                op = t_get(t_pos)
                                t_len = len(t_ops)
                            t_pos += 1
                            f_push(op)
                            f_fetched += 1
                            f_count += 1
                            if op.opclass is OC_BRANCH:
                                if pred_mis(op, op.taken):
                                    op.mispredicted = True
                                    f_blocking = op.seq
                                    break
                                op.mispredicted = False
                    else:
                        while (len(f_buffer) < f_capacity
                               and f_count < f_width):
                            try:
                                op = trace_next()
                            except StopIteration:
                                f_exhausted = True
                                break
                            f_push(op)
                            f_fetched += 1
                            f_count += 1
                            if op.opclass is OC_BRANCH:
                                if pred_mis(op, op.taken):
                                    op.mispredicted = True
                                    f_blocking = op.seq
                                    break
                                op.mispredicted = False

            if f_exhausted and rob_count == 0 and not f_buffer:
                finished = True
                break
    finally:
        # ---- flush: write every hoisted scalar back ------------------
        # Each grant bumps one select tree's count and issues one op to
        # that tree's unit, so the trees' deltas are the grant counts.
        int_ops = [igpt[t] - igpt_start[t] for t in range(n_int)]
        fp_ops = [fgpt[t] - fgpt_start[t] for t in range(n_fp)]
        mul_ops = mgpt[0] - mgpt_start
        i_grants = sum(int_ops)
        f_grants = sum(fp_ops) + mul_ops
        proc.now = now
        st.cycles = st_cycles
        st.committed = st_committed
        st.stall_cycles = st_stall
        st.throttled_cycles = st_throttled
        # The free set is the list's O(1) double-release guard for the
        # reference loop; the kernel never consults it.
        rename._free_set = set(free_list)
        rob._head = rob_head
        rob._tail = rob_tail
        rob._count = rob_count
        lsq._count = lsq_count
        fetch.fetched = f_fetched
        fetch.exhausted = f_exhausted
        fetch._blocking_branch = f_blocking
        fetch._resume_at = f_resume
        fetch._count_this_cycle = f_count
        if t_ops is not None:
            trace.position = t_pos
        proc.fp_reg_accesses = fp_acc
        int_iq._now = i_now
        fp_iq._now = fq_now
        c = int_iq._c
        c[IQC_CYCLES] += ic_ticks
        c[IQC_OCCUPANCY_SUM] += ic_occ
        c[IQC_BROADCASTS] += ic_bcasts
        c[IQC_INSERTS] += i_seq - i_cap
        c[IQC_SELECT_GRANTS] += i_grants
        c[IQC_PAYLOAD_OPS] += i_grants
        c[IQC_COUNTER_EVALS_0] += ic_acc[0]
        c[IQC_COUNTER_EVALS_1] += ic_acc[1]
        c[IQC_COMPACTION_MOVES_0] += ic_acc[2]
        c[IQC_COMPACTION_MOVES_0 + 1] += ic_acc[3]
        c[IQC_LONG_MOVES_0] += ic_acc[4]
        c[IQC_LONG_MOVES_0 + 1] += ic_acc[5]
        c = fp_iq._c
        c[IQC_CYCLES] += fc_ticks
        c[IQC_OCCUPANCY_SUM] += fc_occ
        c[IQC_BROADCASTS] += fc_bcasts
        c[IQC_INSERTS] += f_seq - fq_cap
        c[IQC_SELECT_GRANTS] += f_grants
        c[IQC_PAYLOAD_OPS] += f_grants
        c[IQC_COUNTER_EVALS_0] += fc_acc[0]
        c[IQC_COUNTER_EVALS_1] += fc_acc[1]
        c[IQC_COMPACTION_MOVES_0] += fc_acc[2]
        c[IQC_COMPACTION_MOVES_0 + 1] += fc_acc[3]
        c[IQC_LONG_MOVES_0] += fc_acc[4]
        c[IQC_LONG_MOVES_0 + 1] += fc_acc[5]
        int_sel._rr_offset = int_rr_off
        fp_sel._rr_offset = fp_rr_off
        # An op reads its operands through the ALU's two ports in
        # order: one operand fires port 0, two fire both.
        rf_read_acc: List[int] = []
        for _, one, two in operand_tally:
            rf_read_acc += (one + two, two)
        if any(rf_read_acc):
            regfile._port_reads += rf_read_acc
        if rf_write_events:
            regfile._writes += rf_write_events
        for j in range(n_units):
            unit = units[j]
            unit._pipeline = pipelines[j]
            unit._next_finish = nf[j]
        for t in range(n_int):
            int_alus[t]._blocked_until = int_blocked[t]
        if i_grants:
            proc._int_bank.ops += int_ops
        if any(fp_ops):
            proc._fp_add_bank.ops += fp_ops
        if mul_ops:
            proc._fp_mul_bank.ops[0] += mul_ops
    return now - start_cycle, finished


def _low_before(queue: "CompactingIssueQueue") -> List[int]:
    """``low[x]``: how many of the logical positions ``[0, x)`` live in
    the lower physical half, for the queue's current mode (constant
    within a macro-step: only the DTM toggles a queue).  Normal mode
    maps logical ``l`` to physical ``l``; toggled mode maps logical
    ``l >= mid`` to physical ``l - mid``."""
    mid = queue.mid
    upper = queue.n_entries - mid
    if queue.mode is _TOGGLED:
        return [0] * (mid + 1) + list(range(1, upper + 1))
    return list(range(mid + 1)) + [mid] * upper


# repro: hot-loop
def _compact_queue(queue: "CompactingIssueQueue", now: int,
                   acc: List[int], low: List[int]) -> None:
    """One compaction tick of ``queue`` at queue cycle ``now``, adding
    its per-half charges to ``acc`` (``[ce0, ce1, cm0, cm1, lm0,
    lm1]``, the tally order of
    :meth:`CompactingIssueQueue._compact`); ``low`` is
    :func:`_low_before` of the queue.

    With no holes every logical position below the tail is occupied,
    and the reference pass reduces to arithmetic on a few positions:

    * the entries that leave are the *expiring cohort*: the prefix of
      the issue-ordered pending list whose replay window has run out.
      If it holds at most ``compact_width`` entries, each survivor
      shifts down by the number of cohort entries below it, which
      deletes the cohort from the logical order and leaves no holes;
    * an entry evaluates its counter stages when an invalid-marked
      (issued) entry sits below it, i.e. above the first issued
      position; it moves when a cohort entry sits below it; in
      toggled mode a move is long when it crosses logical position
      ``mid`` (physical slot 0) and is charged to the lower half it
      starts in.

    With nothing expiring (the dense case) only the evaluations apply.
    Holes, or a cohort wider than ``compact_width``, fall back to the
    queue's own :meth:`CompactingIssueQueue._compact`.
    """
    # ---- queue tick: the kernel's compaction (stage marker) ----------
    pending = queue._pending_removal
    expiring = 0
    if not queue._holes:
        window = queue.replay_window
        for e in pending:
            if now - e.issued_at < window:
                break
            expiring += 1
    if queue._holes or expiring > queue.compact_width:
        queue._now = now
        t0, t1, t2, t3, t4, t5 = queue._compact()
        acc[0] += t0
        acc[1] += t1
        acc[2] += t2
        acc[3] += t3
        acc[4] += t4
        acc[5] += t5
        return
    slots = queue.slots
    order = queue._order
    top = queue._top
    # The lowest issued position (pending is non-empty, so one exists).
    first = 0
    while slots[order[first]].issued_at is None:
        first += 1
    # Evaluating entries: every one above ``first``, cohort excluded.
    ce0 = low[top] - low[first + 1]
    ce_n = top - first - 1
    if not expiring:
        acc[0] += ce0
        acc[1] += ce_n - ce0
        return
    mid = queue.mid
    toggled = queue.mode is _TOGGLED
    if toggled:
        # Work in logical order: swap the halves (logical l lives at
        # physical (l + mid) mod n), and swap them back after the
        # cohort is deleted.
        slots[:mid], slots[mid:] = slots[mid:], slots[:mid]
    # c1: the lowest cohort position; rest_low: how many of the other
    # cohort entries sit on the lower physical half.  Each entry is
    # found by identity, and deleting it shifts every later slot down
    # one place, exactly the survivors' compaction shift.
    index = slots.index
    if expiring == 1:
        c1 = index(pending[0])
        rest_low = 0
        del slots[c1]
        slots.append(None)
    else:
        c1 = top
        rest_low = 0
        for i in range(expiring):
            c = index(pending[i])
            rest_low += low[c + 1] - low[c]
            if c < c1:
                c1 = c
        rest_low -= low[c1 + 1] - low[c1]
        remove = slots.remove
        for i in range(expiring):
            remove(pending[i])
            slots.append(None)
    if toggled:
        slots[:mid], slots[mid:] = slots[mid:], slots[:mid]
    ce0 -= rest_low
    ce_n -= expiring - 1
    if c1 > first:
        ce0 -= low[c1 + 1] - low[c1]
        ce_n -= 1
    acc[0] += ce0
    acc[1] += ce_n - ce0
    # Movers: the entries above c1 that stay, landing on [c1, dst_top).
    dst_top = top - expiring
    moves = dst_top - c1
    cm0 = low[top] - low[c1 + 1] - rest_low
    acc[2] += cm0
    acc[3] += moves - cm0
    if toggled:
        # Long moves: movers landing below mid, minus the movers that
        # started below it (logical < mid is the upper physical half,
        # so the cohort entries there are the ones not in rest_low).
        landing = (mid if mid < dst_top else dst_top) - c1
        if landing > 0:
            started = ((mid if mid < top else top) - c1 - 1
                       - (expiring - 1 - rest_low))
            acc[4] += landing - started
    queue._top = dst_top
    del pending[:expiring]


# ---------------------------------------------------------------------------
# Batched grid execution
# ---------------------------------------------------------------------------
#
# A figure grid runs many technique variants of one benchmark from one
# shared warm state.  Under the macro-step contract the DTM mutates
# gating state only at on_sample boundaries, so two variants execute
# *identically* — cycle for cycle, counter for counter — until the
# first boundary where their DTM decisions differ.  The batched path
# exploits that: runs are grouped into execution-equivalence classes;
# each class's leader executes chunks for real while each follower's
# counter row (``Processor.counter_row``, which holds every SoA counter
# of that run) receives the leader's activity delta as one vectorized
# add per chunk.  Divergence is held as per-run state (the
# gating tuple) rather than control flow: every run's own DTM still
# observes its own thermal sensors and makes its own decisions each
# boundary, and the moment a follower's post-DTM gating tuple differs
# from its leader's, the follower forks — the leader's pipeline state
# is restored into it, its own counter row and gating decisions are
# overlaid, and it continues as a class of its own.


def batch_enabled() -> bool:
    """Whether the experiment engine may lock-step compatible run
    groups through one batched kernel invocation (``REPRO_BATCH``).

    Read from the environment on every call so tests can flip the
    variable between runs without rebuilding anything.
    """
    return os.environ.get("REPRO_BATCH", "1") != "0"


class BatchStats:
    """Observable bookkeeping of batched execution.

    One instance can accumulate across several batched groups (the
    experiment engine folds these into ``EngineStats``).
    """

    __slots__ = ("fork_count", "class_occupancy")

    def __init__(self) -> None:
        #: Followers that diverged from their leader and became
        #: execution classes of their own.
        self.fork_count = 0
        #: ``{live execution classes -> boundaries observed at that
        #: occupancy}`` — the divergence trajectory of the grid.
        self.class_occupancy: Dict[int, int] = {}


class BatchRun:
    """One run's slot in a batched kernel invocation.

    ``index`` is the run's position in its group.  ``reads_pipeline``
    marks runs whose DTM inspects live pipeline state during
    ``on_sample`` (the activity-toggling policy reads queue occupancy
    and counters): such runs always execute for real — a follower's
    pipeline objects are stale between boundaries — so they never
    follow.  The first of them leads the group's shared class; any
    further ones lead singleton classes.
    """

    __slots__ = ("proc", "index", "reads_pipeline")

    def __init__(self, proc: "Processor", index: int,
                 reads_pipeline: bool = False) -> None:
        self.proc = proc
        self.index = index
        self.reads_pipeline = reads_pipeline


class _ExecClass:
    """Runs currently sharing one execution (leader executes,
    followers receive broadcast deltas)."""

    __slots__ = ("leader", "followers", "remaining", "prev_row",
                 "done", "at_boundary", "finished")

    def __init__(self, leader: BatchRun, followers: List[BatchRun],
                 remaining: int) -> None:
        self.leader = leader
        self.followers = followers
        self.remaining = remaining
        # Leader-row snapshot delimiting the next broadcast delta;
        # refreshed after every boundary.
        self.prev_row = (leader.proc.counter_row.copy() if followers
                         else None)
        self.done = False
        self.at_boundary = False
        self.finished = False


def run_batch(runs: List[BatchRun],
              max_cycles: int, sample_interval: int,
              on_boundary,
              stats: Optional[BatchStats] = None) -> None:
    """Step every run of one warm-state group through the macro-step
    loop in lock-step.

    All runs must share the same ``now`` (one restored warm state)
    and the same replayable trace buffer.
    ``on_boundary(class_runs)`` is called once per execution class at
    every sampling boundary with the class leader first — the caller
    samples power/thermal state for those runs (batched across the
    run axis) and runs each run's DTM.  Boundary placement, the
    sample-fire condition, and the drain break mirror
    :func:`run_kernel` exactly, so per-run results are bit-identical
    to the per-run kernel (and, transitively, the reference loop).

    Execution classes advance **one sensing interval per wave** so
    every live class stands at the same boundary together; ``stats``
    records how many classes were alive at each boundary.
    """
    if sample_interval <= 0:
        raise ValueError("batched execution requires a sampling interval")
    if not runs:
        return
    now0 = runs[0].proc.now
    for run in runs:
        if run.proc.now != now0:
            raise ValueError("batched runs must start in lock-step")
    if stats is None:
        stats = BatchStats()
    # A pipeline-reading run never follows, but it may lead: a leader
    # executes for real, so its DTM reads live state.  The first one
    # leads the shared class; any further ones run alone.
    readers = [r for r in runs if r.reads_pipeline]
    sharers = readers[:1] + [r for r in runs if not r.reads_pipeline]
    classes = [_ExecClass(sharers[0], sharers[1:], max_cycles)]
    classes += [_ExecClass(r, [], max_cycles) for r in readers[1:]]
    while True:
        live = [cls for cls in classes if not cls.done]
        if not live:
            return
        # --- advance: every live class runs one boundary-aligned chunk
        for cls in live:
            leader = cls.leader
            proc = leader.proc
            to_boundary = sample_interval - proc.now % sample_interval
            chunk = (to_boundary if to_boundary < cls.remaining
                     else cls.remaining)
            ran, finished = _run_chunk(proc, chunk)
            cls.remaining -= ran
            if cls.followers:
                # Broadcast this chunk's execution delta to every run
                # still sharing the leader's execution.
                delta = proc.counter_row - cls.prev_row
                for follower in cls.followers:
                    follower.proc.counter_row += delta
            cls.at_boundary = ran == chunk and chunk == to_boundary
            cls.finished = finished
        # --- boundary: sample/DTM per class, then fork divergents
        forked: List[_ExecClass] = []
        hit_boundary = False
        for cls in live:
            if not cls.at_boundary:
                continue
            hit_boundary = True
            proc = cls.leader.proc
            for follower in cls.followers:
                _sync_scalars(follower.proc, proc)
            on_boundary([cls.leader, *cls.followers])
            if cls.followers:
                gate = proc.capture_gating()
                kept: List[BatchRun] = []
                for follower in cls.followers:
                    if follower.proc.capture_gating() == gate:
                        kept.append(follower)
                        continue
                    # Diverged: fork into a class of its own.
                    _adopt_leader_state(follower, proc)
                    forked.append(_ExecClass(follower, [], cls.remaining))
                    stats.fork_count += 1
                cls.followers = kept
                if kept:
                    cls.prev_row = proc.counter_row.copy()
        classes.extend(forked)
        # --- completion: budget exhausted or pipeline drained
        for cls in live + forked:
            if cls.done:
                continue
            if cls.finished or cls.remaining <= 0:
                _finalize_class(cls)
                cls.done = True
        # --- record the wave
        if hit_boundary:
            occupancy = sum(1 for cls in classes if not cls.done)
            # Occupancy 0 only occurs at the boundary where the group's
            # last classes complete — a group exit, not a wave.
            if occupancy:
                stats.class_occupancy[occupancy] = (
                    stats.class_occupancy.get(occupancy, 0) + 1)


def _finalize_class(cls: _ExecClass) -> None:
    """Class completed (drain or cycle budget) with followers still
    attached: give each follower the leader's final pipeline state
    (identical by construction) with its own counters and gating
    overlaid."""
    for follower in cls.followers:
        _adopt_leader_state(follower, cls.leader.proc)
    cls.followers = []


def _sync_scalars(follower: "Processor", leader: "Processor") -> None:
    """Copy the scalar activity state a boundary consumer reads.

    A follower's counter row is kept correct by the broadcast; the
    handful of scalars :meth:`Processor.activity_snapshot` reads (and
    ``now``, which stall deadlines are computed against) live outside
    the counter row and are identical to the leader's by construction.
    """
    follower.now = leader.now
    follower.stats.cycles = leader.stats.cycles
    follower.stats.committed = leader.stats.committed
    follower.fp_reg_accesses = leader.fp_reg_accesses
    follower.fetch.fetched = leader.fetch.fetched
    follower.memory.l1d.stats.accesses = leader.memory.l1d.stats.accesses
    follower.memory.l2.stats.accesses = leader.memory.l2.stats.accesses


def _adopt_leader_state(run: BatchRun, leader: "Processor") -> None:
    """Give ``run`` the leader's full pipeline state, preserving the
    run's own counters and DTM gating decisions.

    The leader snapshot is post-DTM, but the DTM mutates only gating
    state, so restoring it and then overlaying this run's own gating
    tuple reconstructs exactly the state this run would have reached
    executing alone.  The run's trace cursor is repositioned to the
    leader's; one pickle round trip per adopting run keeps forked
    siblings from sharing mutable state.
    """
    proc = run.proc
    own_row = proc.counter_row.copy()
    gating = proc.capture_gating()
    proc.restore_state(pickle.loads(pickle.dumps(leader.snapshot_state())))
    # restore_state wrote the leader's counter values into this run's
    # row; put the run's own counters back.
    proc.counter_row[:] = own_row
    proc.apply_gating(gating)
    proc.fetch.trace.seek(leader.fetch.trace.position)
