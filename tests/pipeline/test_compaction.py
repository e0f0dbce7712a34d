"""The kernel's compaction against the reference queue.

:func:`repro.pipeline.kernel._compact_queue` derives a compaction
tick's slot moves and per-half charges from a few logical positions
when the queue has no holes, and falls back to
:meth:`CompactingIssueQueue._compact` otherwise.  These tests drive
random insert / grant / wakeup / toggle / tick sequences through two
queues fed identically — one ticked by the reference :meth:`tick`, one
by the kernel's tick — and require identical state and counters after
every tick.
"""

import random

import pytest

from repro.pipeline.isa import MicroOp, OpClass
from repro.pipeline.issue_queue import CompactingIssueQueue
from repro.pipeline.kernel import _compact_queue, _low_before
from repro.pipeline.soa import (IQC_COMPACTION_MOVES_0, IQC_COUNTER_EVALS_0,
                                IQC_CYCLES, IQC_LONG_MOVES_0,
                                IQC_OCCUPANCY_SUM)

#: Where each ``acc`` slot of ``_compact_queue`` lands (kernel flush).
ACC_SLOTS = (IQC_COUNTER_EVALS_0, IQC_COUNTER_EVALS_0 + 1,
             IQC_COMPACTION_MOVES_0, IQC_COMPACTION_MOVES_0 + 1,
             IQC_LONG_MOVES_0, IQC_LONG_MOVES_0 + 1)


class CountingQueue(CompactingIssueQueue):
    """Counts calls of the reference compaction (the fallback)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fallbacks = 0

    def _compact(self):
        self.fallbacks += 1
        return super()._compact()


def kernel_tick(queue, stats):
    """The kernel's queue tick, flushed to the counters at once."""
    queue._now += 1
    c = queue._c
    c[IQC_CYCLES] += 1
    c[IQC_OCCUPANCY_SUM] += queue._top - queue._holes
    if not (queue._holes or queue._pending_removal):
        return
    before = queue.fallbacks
    pending = len(queue._pending_removal)
    acc = [0] * len(ACC_SLOTS)
    _compact_queue(queue, queue._now, acc, _low_before(queue))
    for slot, value in zip(ACC_SLOTS, acc):
        c[slot] += value
    if queue.fallbacks == before:
        stats["cohort" if len(queue._pending_removal) < pending
              else "dense"] += 1
    else:
        stats["fallback"] += 1


def state(queue):
    def entry(e):
        if e is None:
            return None
        return (e.op.seq, e.rob_index, e.issued_at,
                tuple(sorted(e.waiting_tags)))
    return ([entry(e) for e in queue.slots], queue._top, queue._holes,
            [entry(e) for e in queue._pending_removal], queue.mode,
            queue._now, queue._c.tolist())


def drive(seed, stats):
    rng = random.Random(seed)
    n = rng.choice(range(8, 34, 2))
    width = rng.randint(1, 6)
    window = rng.randint(1, 4)
    ref = CountingQueue(n, width, window)
    ker = CountingQueue(n, width, window)
    tags = list(range(1, 9))
    seq = 0
    for _ in range(600):
        roll = rng.random()
        if roll < 0.35:
            for _ in range(rng.randint(1, 4)):
                if not ref.can_insert():
                    break
                waiting = set(rng.sample(tags, rng.choice((0, 0, 1, 2))))
                op = MicroOp(seq, OpClass.INT_ALU)
                ref.insert(op, seq, waiting)
                ker.insert(op, seq, waiting)
                seq += 1
        elif roll < 0.55:
            # Up to 8 grants in one cycle: cohorts wider than
            # compact_width reach the fallback.
            ready = ref.ready_physical_in_priority()
            rng.shuffle(ready)
            for phys in ready[:rng.randint(1, 8)]:
                ref.grant(phys)
                ker.grant(phys)
        elif roll < 0.62:
            tag = rng.choice(tags)
            ref.wakeup(tag)
            ker.wakeup(tag)
        elif roll < 0.65:
            ref.toggle()
            ker.toggle()
        else:
            ref.tick()
            kernel_tick(ker, stats)
            assert state(ker) == state(ref)
    return stats


def test_kernel_compaction_matches_reference():
    stats = {"cohort": 0, "dense": 0, "fallback": 0}
    for seed in range(150):
        drive(seed, stats)
    # Every path was taken, the fast ones most.
    assert stats["cohort"] > 1000
    assert stats["dense"] > 1000
    assert stats["fallback"] > 100


@pytest.mark.parametrize("toggled", [False, True])
def test_cohort_deleted_in_place(toggled):
    """A two-entry cohort leaves one queue with the survivors shifted
    down and the same list object."""
    ref = CountingQueue(8, 2, 1)
    ker = CountingQueue(8, 2, 1)
    for queue in (ref, ker):
        if toggled:
            queue.toggle()
        for i in range(6):
            queue.insert(MicroOp(i, OpClass.INT_ALU), i, set())
        for logical in (1, 4):
            queue.grant(queue.phys(logical))
    slots = ker.slots
    ref.tick()
    stats = {"cohort": 0, "dense": 0, "fallback": 0}
    kernel_tick(ker, stats)
    assert stats["cohort"] == 1
    assert ker.slots is slots
    assert state(ker) == state(ref)
    assert [e.op.seq for _, e in ker.entries()] == [0, 2, 3, 5]
