"""Compacting issue queue with two head/tail configurations (paper §2.1).

The queue keeps un-issued instructions in priority order by *position*:
the head holds the oldest (highest-priority) instruction and newly
dispatched instructions enter at the tail.  When instructions issue and
are removed, *compaction* shifts younger entries toward the head to
defragment the queue, which is what makes the select logic simple — and
what concentrates activity (and therefore heat) in the tail region,
because a tail entry moves whenever *any* older instruction issues
while a head entry moves only when instructions below it issue.

Entries are stored in **physical** slot order.  A mode flag determines
how physical slots map to logical priority positions:

* ``QueueMode.NORMAL`` — head at physical slot 0, tail grows upward;
  compaction shifts entries toward slot 0.  The upper physical half is
  the high-activity tail region.
* ``QueueMode.TOGGLED`` — head at physical slot ``n/2`` (the paper's
  Figure 3): logical position ``l`` lives at physical slot
  ``(l + n/2) mod n``.  Entries still compact toward lower physical
  slots and wrap from slot 0 to slot ``n-1`` (charging the paper's
  *long compaction* wire energy).  The lower physical half now holds
  the newer instructions, so compaction activity moves there.

Toggling the mode does **not** move any entries — exactly as in the
hardware proposal, only the interpretation of positions (and the select
root's priority) changes, so instruction priorities are transiently
stale after a toggle until the affected instructions drain.

Activity counts live in one preallocated ``int64`` array per queue
(struct-of-arrays; slot layout in :mod:`repro.pipeline.soa`) so the
macro-step kernel can flush a whole interval's deltas in a few array
adds.  ``queue.counters`` is an :class:`IssueQueueCounterView` over
that array preserving the existing read API; boundary consumers take
plain-int :class:`IssueQueueCounters` snapshots, and :mod:`repro.power`
converts snapshot deltas to energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .isa import MicroOp
from .soa import (IQC_BROADCASTS, IQC_COMPACTION_MOVES_0, IQC_CYCLES,
                  IQC_COUNTER_EVALS_0, IQC_COUNTER_EVALS_1, IQC_INSERTS,
                  IQC_LONG_MOVES_0, IQC_MUX_SELECTS_0, IQC_OCCUPANCY_SUM,
                  IQC_PAYLOAD_OPS, IQC_SELECT_GRANTS, IQC_TOGGLES,
                  new_iq_counter_array)


class QueueMode(enum.Enum):
    """Head/tail configuration of the compacting queue."""

    NORMAL = 0
    TOGGLED = 1


@dataclass(slots=True, eq=False)
class IQEntry:
    """One occupied issue-queue slot (slotted: wakeup and compaction
    touch every entry every cycle).  Entries compare by identity, so
    the kernel's compaction can find one with ``list.index`` without
    a field-by-field ``__eq__`` per slot it passes."""

    op: MicroOp
    rob_index: int
    #: Physical register tags this entry still waits on.
    waiting_tags: Set[int]
    #: Cycle at which the entry was granted issue, or None.
    issued_at: Optional[int] = None

    @property
    def ready(self) -> bool:
        return not self.waiting_tags and self.issued_at is None


@dataclass
class IssueQueueCounters:
    """Plain-int snapshot of one queue's cumulative activity counts,
    split per physical half where the underlying wires live.  Index 0
    is the lower physical half.  (Live state is the SoA array behind
    :class:`IssueQueueCounterView`; this DTO is what checkpoints and
    the power accountant's snapshot diffs carry.)"""

    #: Actual entry movements (defragmentation shifts).
    compaction_moves: List[int] = field(default_factory=lambda: [0, 0])
    #: Destination slots receiving a new value.
    mux_selects: List[int] = field(default_factory=lambda: [0, 0])
    #: Movements that crossed the physical wrap (long wires).
    long_moves: List[int] = field(default_factory=lambda: [0, 0])
    #: Entry-cycles with compaction logic enabled: a valid entry whose
    #: clock gating cannot fire because an invalid entry sits below it
    #: (the paper's gating rules 1 and 2).  Dynamic logic precharges
    #: every such cycle, so this - not the move count - is what the
    #: data/mux/counter energies multiply.
    counter_evals: List[int] = field(default_factory=lambda: [0, 0])
    broadcasts: int = 0
    payload_ops: int = 0
    select_grants: int = 0
    inserts: int = 0
    cycles: int = 0
    toggles: int = 0
    #: Sum of per-cycle occupancy (for windowed averages).
    occupancy_sum: int = 0

    def snapshot(self) -> "IssueQueueCounters":
        return IssueQueueCounters(
            list(self.compaction_moves), list(self.mux_selects),
            list(self.long_moves), list(self.counter_evals),
            self.broadcasts, self.payload_ops, self.select_grants,
            self.inserts, self.cycles, self.toggles,
            self.occupancy_sum,
        )


class _HalfPair:
    """Two-element write-through view over adjacent SoA counter slots
    (index 0 = lower physical half).  Supports indexing, iteration, and
    list comparison so call sites treating a per-half counter as a
    two-element list keep working — including in-place element updates
    (``counters.counter_evals[0] += n`` lands in the array)."""

    __slots__ = ("_c", "_base")

    def __init__(self, array: Any, base: int) -> None:
        self._c = array
        self._base = base

    def __getitem__(self, index: int) -> int:
        return int(self._c[self._base + range(2)[index]])

    def __setitem__(self, index: int, value: int) -> None:
        self._c[self._base + range(2)[index]] = value

    def __len__(self) -> int:
        return 2

    def __iter__(self):
        c, base = self._c, self._base
        yield int(c[base])
        yield int(c[base + 1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _HalfPair):
            other = list(other)
        return list(self) == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(list(self))


class IssueQueueCounterView:
    """View over one queue's SoA counter array, exposing the same
    attributes as :class:`IssueQueueCounters` (per-half counters come
    back as two-element :class:`_HalfPair` write-through views)."""

    __slots__ = ("_c",)

    def __init__(self, array: Any) -> None:
        self._c = array

    @property
    def compaction_moves(self) -> _HalfPair:
        return _HalfPair(self._c, IQC_COMPACTION_MOVES_0)

    @property
    def mux_selects(self) -> _HalfPair:
        return _HalfPair(self._c, IQC_MUX_SELECTS_0)

    @property
    def long_moves(self) -> _HalfPair:
        return _HalfPair(self._c, IQC_LONG_MOVES_0)

    @property
    def counter_evals(self) -> _HalfPair:
        return _HalfPair(self._c, IQC_COUNTER_EVALS_0)

    @property
    def broadcasts(self) -> int:
        return int(self._c[IQC_BROADCASTS])

    @property
    def payload_ops(self) -> int:
        return int(self._c[IQC_PAYLOAD_OPS])

    @property
    def select_grants(self) -> int:
        return int(self._c[IQC_SELECT_GRANTS])

    @property
    def inserts(self) -> int:
        return int(self._c[IQC_INSERTS])

    @property
    def cycles(self) -> int:
        return int(self._c[IQC_CYCLES])

    @property
    def toggles(self) -> int:
        return int(self._c[IQC_TOGGLES])

    @property
    def occupancy_sum(self) -> int:
        return int(self._c[IQC_OCCUPANCY_SUM])

    def snapshot(self) -> IssueQueueCounters:
        """Plain-int DTO of the current counts (one array pass)."""
        v = self._c.tolist()
        return IssueQueueCounters(
            v[IQC_COMPACTION_MOVES_0:IQC_COMPACTION_MOVES_0 + 2],
            v[IQC_MUX_SELECTS_0:IQC_MUX_SELECTS_0 + 2],
            v[IQC_LONG_MOVES_0:IQC_LONG_MOVES_0 + 2],
            v[IQC_COUNTER_EVALS_0:IQC_COUNTER_EVALS_1 + 1],
            v[IQC_BROADCASTS], v[IQC_PAYLOAD_OPS],
            v[IQC_SELECT_GRANTS], v[IQC_INSERTS], v[IQC_CYCLES],
            v[IQC_TOGGLES], v[IQC_OCCUPANCY_SUM],
        )

    def restore(self, values: IssueQueueCounters) -> None:
        """Adopt a snapshot DTO's counts into the live array."""
        c = self._c
        c[IQC_COMPACTION_MOVES_0:IQC_COMPACTION_MOVES_0 + 2] = (
            values.compaction_moves)
        c[IQC_MUX_SELECTS_0:IQC_MUX_SELECTS_0 + 2] = values.mux_selects
        c[IQC_LONG_MOVES_0:IQC_LONG_MOVES_0 + 2] = values.long_moves
        c[IQC_COUNTER_EVALS_0:IQC_COUNTER_EVALS_1 + 1] = (
            values.counter_evals)
        c[IQC_BROADCASTS] = values.broadcasts
        c[IQC_PAYLOAD_OPS] = values.payload_ops
        c[IQC_SELECT_GRANTS] = values.select_grants
        c[IQC_INSERTS] = values.inserts
        c[IQC_CYCLES] = values.cycles
        c[IQC_TOGGLES] = values.toggles
        c[IQC_OCCUPANCY_SUM] = values.occupancy_sum


class CompactingIssueQueue:
    """A compacting issue queue with activity-toggling support."""

    def __init__(self, n_entries: int, compact_width: int,
                 replay_window: int = 2) -> None:
        if n_entries < 4 or n_entries % 2:
            raise ValueError("queue needs an even entry count >= 4")
        if compact_width < 1:
            raise ValueError("compact_width must be >= 1")
        self.n_entries = n_entries
        self.mid = n_entries // 2
        self.compact_width = compact_width
        self.replay_window = replay_window
        self.mode = QueueMode.NORMAL
        self.slots: List[Optional[IQEntry]] = [None] * n_entries
        #: SoA counter storage (slot layout in repro.pipeline.soa).
        self._c = new_iq_counter_array()
        self.counters = IssueQueueCounterView(self._c)
        self._now = 0
        #: logical position -> physical slot, for the current mode.
        self._order: List[int] = list(range(n_entries))
        #: logical position one past the youngest entry (the tail).
        self._top = 0
        #: number of empty slots at logical positions below the tail.
        self._holes = 0
        #: entries granted issue but not yet drained from the queue.
        self._pending_removal: List[IQEntry] = []
        #: tag -> entries still waiting on it.  A broadcast wakes only
        #: the entries registered for its tag instead of scanning every
        #: slot; each registration receives exactly one broadcast (a
        #: physical tag has one producer per allocation, and rename
        #: cannot recycle the tag before that producer writes back).
        self._waiters: Dict[int, List[IQEntry]] = {}

    def adopt_counter_storage(self, row: Any) -> None:
        """Rebind counter storage to an externally-owned 15-slot row
        (a :class:`~repro.pipeline.soa.RunAxisStore` segment), carrying
        the current values over.  The public ``counters`` view is
        rebuilt so boundary consumers keep reading live storage."""
        if row.shape != self._c.shape or row.dtype != self._c.dtype:
            raise ValueError("counter storage shape/dtype mismatch")
        row[:] = self._c
        self._c = row
        self.counters = IssueQueueCounterView(row)

    # ------------------------------------------------------------------
    # position mapping
    # ------------------------------------------------------------------
    def phys(self, logical: int) -> int:
        """Physical slot index of logical priority position ``logical``."""
        if not 0 <= logical < self.n_entries:
            raise IndexError(logical)
        return self._order[logical]

    def logical(self, phys: int) -> int:
        """Logical priority position of physical slot ``phys``."""
        if not 0 <= phys < self.n_entries:
            raise IndexError(phys)
        if self.mode is QueueMode.NORMAL:
            return phys
        return (phys - self.mid) % self.n_entries

    def half_of(self, phys: int) -> int:
        """Physical half (0 = lower) holding physical slot ``phys``."""
        return 0 if phys < self.mid else 1

    def _rebuild_order(self) -> None:
        if self.mode is QueueMode.NORMAL:
            self._order = list(range(self.n_entries))
        else:
            self._order = [(l + self.mid) % self.n_entries
                           for l in range(self.n_entries)]
        # Recompute tail and holes for the new logical geometry.
        top = 0
        occupied = 0
        for logical in range(self.n_entries):
            if self.slots[self._order[logical]] is not None:
                top = logical + 1
                occupied += 1
        self._top = top
        self._holes = top - occupied

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._top - self._holes

    def entries(self) -> Iterator[Tuple[int, IQEntry]]:
        """Yield ``(logical_position, entry)`` in priority order."""
        order, slots = self._order, self.slots
        for logical in range(self._top):
            entry = slots[order[logical]]
            if entry is not None:
                yield logical, entry

    def can_insert(self, count: int = 1) -> bool:
        """Whether ``count`` instructions can dispatch this cycle.

        Dispatch inserts strictly at the tail; holes below the tail are
        unusable until compaction reclaims them, so a fragmented queue
        can refuse inserts even when not full — matching hardware.
        """
        return self._top + count <= self.n_entries

    def insert(self, op: MicroOp, rob_index: int,
               waiting_tags: Set[int]) -> IQEntry:
        """Dispatch one instruction at the tail.

        Raises :class:`RuntimeError` when the tail has reached the end
        of the queue (callers gate on :meth:`can_insert`).
        """
        if self._top >= self.n_entries:
            raise RuntimeError("issue queue tail at capacity")
        entry = IQEntry(op=op, rob_index=rob_index,
                        waiting_tags=set(waiting_tags))
        self.slots[self._order[self._top]] = entry
        self._top += 1
        self._c[IQC_INSERTS] += 1
        if entry.waiting_tags:
            waiters = self._waiters
            for tag in entry.waiting_tags:
                bucket = waiters.get(tag)
                if bucket is None:
                    waiters[tag] = [entry]
                else:
                    bucket.append(entry)
        return entry

    # ------------------------------------------------------------------
    # wakeup / select interface
    # ------------------------------------------------------------------
    def wakeup(self, tag: int) -> None:
        """Broadcast a completing physical-register tag to all entries.

        The hardware broadcast reaches every occupied slot; here the
        ``_waiters`` index delivers the identical state change (clear
        ``tag`` from exactly the entries waiting on it) without the
        per-slot scan.  The broadcast *count* — what the power model
        charges — is per call, same as before.
        """
        self._c[IQC_BROADCASTS] += 1
        entries = self._waiters.pop(tag, None)
        if entries is not None:
            for entry in entries:
                entry.waiting_tags.discard(tag)

    def request_vector(self) -> List[bool]:
        """Per-physical-slot issue requests (select-tree input)."""
        return [entry is not None and entry.ready for entry in self.slots]

    def ready_physical_in_priority(self) -> List[int]:
        """Physical slots with requesting entries, priority order.

        This is what the serialized select trees compute collectively:
        tree ``k`` grants the ``k``-th element (see
        :mod:`repro.pipeline.select` for the equivalence argument).
        """
        order, slots = self._order, self.slots
        out = []
        for logical in range(self._top):
            phys = order[logical]
            entry = slots[phys]
            if (entry is not None and entry.issued_at is None
                    and not entry.waiting_tags):
                out.append(phys)
        return out

    def grant(self, phys: int) -> IQEntry:
        """Select granted physical slot ``phys``; returns the entry."""
        entry = self.slots[phys]
        if entry is None or not entry.ready:
            raise RuntimeError(f"grant to non-requesting slot {phys}")
        entry.issued_at = self._now
        self._pending_removal.append(entry)
        c = self._c
        c[IQC_SELECT_GRANTS] += 1
        c[IQC_PAYLOAD_OPS] += 1
        return entry

    # ------------------------------------------------------------------
    # per-cycle maintenance
    # ------------------------------------------------------------------
    def tick(self) -> None:  # repro: hot-loop
        """Advance one cycle: retire replay-safe issued entries and
        compact, charging activity to the physical halves involved.

        An entry is *marked invalid* the moment it issues (it lingers
        for the replay window before its slot is reclaimed), so the
        per-cycle gating charge applies from the issue cycle onward.
        """
        self._now += 1
        c = self._c
        c[IQC_CYCLES] += 1
        c[IQC_OCCUPANCY_SUM] += self._top - self._holes
        if self._holes == 0 and not self._pending_removal:
            return  # fully compacted, nothing marked invalid: all gated
        ce0, ce1, cm0, cm1, mx0, mx1, lm0, lm1 = self._compact()
        if ce0:
            c[IQC_COUNTER_EVALS_0] += ce0
        if ce1:
            c[IQC_COUNTER_EVALS_1] += ce1
        if cm0:
            c[IQC_COMPACTION_MOVES_0] += cm0
        if cm1:
            c[IQC_COMPACTION_MOVES_0 + 1] += cm1
        if mx0:
            c[IQC_MUX_SELECTS_0] += mx0
        if mx1:
            c[IQC_MUX_SELECTS_0 + 1] += mx1
        if lm0:
            c[IQC_LONG_MOVES_0] += lm0
        if lm1:
            c[IQC_LONG_MOVES_0 + 1] += lm1

    def _compact(self) -> Tuple[int, int, int, int, int, int, int, int]:
        # repro: hot-loop
        """One compaction step.  Returns the per-half activity tallies
        ``(ce0, ce1, cm0, cm1, mx0, mx1, lm0, lm1)`` — counter evals,
        compaction moves, mux selects, long moves — instead of flushing
        them to the SoA array itself: :meth:`tick` applies them per
        call, while the macro-step kernel accumulates them in plain
        locals and flushes once per chunk (a numpy scalar add per tick
        would dominate its loop)."""
        window = self.replay_window
        now = self._now
        order, slots = self._order, self.slots
        pending = self._pending_removal
        ce0 = ce1 = 0
        if (self._holes == 0 and pending
                and now - pending[0].issued_at < window):
            # Dense queue and nothing expires this cycle (``pending``
            # is in issue order, so its head is the oldest): no entry
            # can move and the slot arrays stay as they are.  Only the
            # gating charges apply — every entry above an
            # invalid-marked (issued) slot evaluates its counter
            # stages (rules 1 and 2).
            mid = self.mid
            top = self._top
            first = top
            for logical in range(top):
                if slots[order[logical]].issued_at is not None:
                    first = logical
                    break
            # Every entry above the lowest invalid-marked slot evaluates,
            # including other issued entries.
            for logical in range(first + 1, top):
                if order[logical] < mid:
                    ce0 += 1
                else:
                    ce1 += 1
            return ce0, ce1, 0, 0, 0, 0, 0, 0
        cm0 = cm1 = mx0 = mx1 = lm0 = lm1 = 0
        compact_width = self.compact_width
        n = self.n_entries
        mid = self.mid
        toggled = self.mode is QueueMode.TOGGLED
        boundary = n - mid  # logical position living at physical slot 0
        # The rebuilt slot array IS the modelled compaction shift.
        new_slots: List[Optional[IQEntry]] = [None] * n  # repro: noqa[REP007]
        #: slots reclaimable this cycle (holes + replay-safe entries).
        reclaimable_below = 0
        #: invalid-marked slots (holes + every issued entry): these
        #: defeat the clock gating of every entry above them.
        marked_below = 0
        top = 0
        occupied = 0
        removed = False
        for logical in range(self._top):
            src_phys = order[logical]
            entry = slots[src_phys]
            if entry is None:
                reclaimable_below += 1
                marked_below += 1
                continue
            issued_at = entry.issued_at
            issued = issued_at is not None
            if issued and now - issued_at >= window:
                reclaimable_below += 1
                marked_below += 1
                removed = True
                continue
            src_low = src_phys < mid
            if marked_below:
                # Gating rules 1 and 2: an invalid entry below means
                # this entry's data lines, mux selects, and counter
                # stages all evaluate this cycle.
                if src_low:
                    ce0 += 1
                else:
                    ce1 += 1
            shift = reclaimable_below
            if shift > compact_width:
                shift = compact_width
            dst_logical = logical - shift
            dst_phys = order[dst_logical]
            new_slots[dst_phys] = entry
            top = dst_logical + 1
            occupied += 1
            if issued:
                marked_below += 1  # marked invalid while awaiting replay
            if shift:
                if src_low:
                    cm0 += 1
                else:
                    cm1 += 1
                if dst_phys < mid:
                    mx0 += 1
                else:
                    mx1 += 1
                if toggled and logical >= boundary > dst_logical:
                    if src_low:
                        lm0 += 1
                    else:
                        lm1 += 1
        self.slots = new_slots
        self._top = top
        self._holes = top - occupied
        if removed:
            # Replay-window expiry; runs only on removal cycles.
            self._pending_removal = [  # repro: noqa[REP007]
                e for e in self._pending_removal
                if now - e.issued_at < window]
        return ce0, ce1, cm0, cm1, mx0, mx1, lm0, lm1

    # ------------------------------------------------------------------
    # activity toggling (the paper's technique)
    # ------------------------------------------------------------------
    def toggle(self) -> None:
        """Switch head/tail configuration without moving entries."""
        self.mode = (QueueMode.TOGGLED if self.mode is QueueMode.NORMAL
                     else QueueMode.NORMAL)
        self._c[IQC_TOGGLES] += 1
        self._rebuild_order()

    def flush(self) -> None:
        """Drop all entries (pipeline squash)."""
        self.slots = [None] * self.n_entries
        self._pending_removal = []
        self._waiters = {}
        self._top = 0
        self._holes = 0

    def occupancy_by_half(self) -> Tuple[int, int]:
        """Number of occupied slots in each physical half."""
        low = sum(1 for p in range(self.mid) if self.slots[p] is not None)
        return low, len(self) - low

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Live references to the queue's mutable state; the caller
        serializes them (entry identity with the ROB and functional
        units is preserved by serializing the whole processor state in
        one pass).  Counters are captured by value — the live SoA array
        stays owned by this queue."""
        return {
            "slots": self.slots,
            "counters": self.counters.snapshot(),
            "mode": self.mode,
            "now": self._now,
            "top": self._top,
            "holes": self._holes,
            "pending_removal": self._pending_removal,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a deserialized :meth:`snapshot_state` payload in
        place; the wakeup waiters index is rebuilt from the entries."""
        self.slots = list(state["slots"])
        self.counters.restore(state["counters"])
        self.mode = state["mode"]
        self._now = state["now"]
        self._rebuild_order()
        self._top = state["top"]
        self._holes = state["holes"]
        self._pending_removal = list(state["pending_removal"])
        waiters: Dict[int, List[IQEntry]] = {}
        for entry in self.slots:
            if entry is not None:
                for tag in entry.waiting_tags:
                    waiters.setdefault(tag, []).append(entry)
        self._waiters = waiters
