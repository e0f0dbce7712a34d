"""Tests for the compacting issue queue, including property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.isa import MicroOp, OpClass
from repro.pipeline.issue_queue import CompactingIssueQueue, QueueMode


def op(seq):
    return MicroOp(seq, OpClass.INT_ALU, dst=1, src1=2, src2=3)


def make_queue(n=8, width=2, replay=1):
    return CompactingIssueQueue(n, width, replay_window=replay)


def drain_ticks(queue, count=4):
    for _ in range(count):
        queue.tick()


class TestConstruction:
    def test_odd_entries_rejected(self):
        with pytest.raises(ValueError):
            CompactingIssueQueue(7, 2)

    def test_tiny_rejected(self):
        with pytest.raises(ValueError):
            CompactingIssueQueue(2, 1)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CompactingIssueQueue(8, 0)


class TestPositionMapping:
    def test_normal_identity(self):
        q = make_queue(8)
        assert [q.phys(i) for i in range(8)] == list(range(8))

    def test_toggled_offset(self):
        q = make_queue(8)
        q.toggle()
        assert [q.phys(i) for i in range(8)] == [4, 5, 6, 7, 0, 1, 2, 3]

    def test_logical_inverts_phys(self):
        q = make_queue(16)
        for mode_toggles in range(2):
            for logical in range(16):
                assert q.logical(q.phys(logical)) == logical
            q.toggle()

    def test_half_of(self):
        q = make_queue(8)
        assert q.half_of(0) == 0
        assert q.half_of(3) == 0
        assert q.half_of(4) == 1
        assert q.half_of(7) == 1

    def test_bounds_checked(self):
        q = make_queue(8)
        with pytest.raises(IndexError):
            q.phys(8)
        with pytest.raises(IndexError):
            q.logical(-9)


class TestInsertAndOccupancy:
    def test_insert_fills_in_order(self):
        q = make_queue(8)
        for i in range(3):
            q.insert(op(i), i, set())
        positions = [(l, e.op.seq) for l, e in q.entries()]
        assert positions == [(0, 0), (1, 1), (2, 2)]

    def test_capacity(self):
        q = make_queue(8)
        for i in range(8):
            assert q.can_insert()
            q.insert(op(i), i, set())
        assert not q.can_insert()
        with pytest.raises(RuntimeError):
            q.insert(op(9), 9, set())

    def test_multi_insert_capacity_check(self):
        q = make_queue(8)
        for i in range(6):
            q.insert(op(i), i, set())
        assert q.can_insert(2)
        assert not q.can_insert(3)

    def test_len_counts_entries(self):
        q = make_queue(8)
        q.insert(op(0), 0, set())
        q.insert(op(1), 1, set())
        assert len(q) == 2


class TestWakeupAndRequests:
    def test_waiting_entry_not_ready(self):
        q = make_queue(8)
        q.insert(op(0), 0, {42})
        assert q.ready_physical_in_priority() == []

    def test_wakeup_enables_request(self):
        q = make_queue(8)
        q.insert(op(0), 0, {42})
        q.wakeup(42)
        assert q.ready_physical_in_priority() == [0]

    def test_wakeup_counts_broadcast(self):
        q = make_queue(8)
        q.wakeup(1)
        q.wakeup(2)
        assert q.counters.broadcasts == 2

    def test_ready_order_is_priority_order(self):
        q = make_queue(8)
        for i in range(4):
            q.insert(op(i), i, set())
        assert q.ready_physical_in_priority() == [0, 1, 2, 3]

    def test_request_vector_matches_ready(self):
        q = make_queue(8)
        q.insert(op(0), 0, set())
        q.insert(op(1), 1, {9})
        vec = q.request_vector()
        assert vec[0] is True
        assert vec[1] is False


class TestGrantAndCompaction:
    def test_grant_marks_issued(self):
        q = make_queue(8)
        q.insert(op(0), 0, set())
        entry = q.grant(0)
        assert entry.issued_at is not None
        assert q.ready_physical_in_priority() == []

    def test_grant_requires_ready(self):
        q = make_queue(8)
        q.insert(op(0), 0, {7})
        with pytest.raises(RuntimeError):
            q.grant(0)

    def test_issued_entry_removed_after_replay_window(self):
        q = make_queue(8, replay=2)
        q.insert(op(0), 0, set())
        q.grant(0)
        q.tick()
        assert len(q) == 1  # still inside the replay window
        q.tick()
        q.tick()
        assert len(q) == 0

    def test_compaction_shifts_younger_entries_down(self):
        q = make_queue(8, width=2, replay=1)
        for i in range(4):
            q.insert(op(i), i, set())
        q.grant(0)
        drain_ticks(q)
        positions = [(l, e.op.seq) for l, e in q.entries()]
        assert positions == [(0, 1), (1, 2), (2, 3)]

    def test_compaction_width_limits_shift(self):
        q = make_queue(8, width=1, replay=1)
        for i in range(5):
            q.insert(op(i), i, set())
        q.grant(0)
        q.grant(1)
        # Two slots freed but each entry may shift at most one per cycle.
        drain_ticks(q, 2)
        assert [e.op.seq for _, e in q.entries()] == [2, 3, 4]
        first = next(iter(q.entries()))[0]
        assert first == 0

    def test_compaction_counters_charged_to_halves(self):
        q = make_queue(8, width=2, replay=1)
        for i in range(8):
            q.insert(op(i), i, set())
        q.grant(0)
        drain_ticks(q)
        counters = q.counters
        assert sum(counters.compaction_moves) > 0
        assert sum(counters.counter_evals) > 0

    def test_no_activity_when_idle(self):
        q = make_queue(8)
        q.insert(op(0), 0, {5})
        before = q.counters.snapshot()
        drain_ticks(q, 3)
        after = q.counters
        assert after.compaction_moves == before.compaction_moves
        assert after.counter_evals == before.counter_evals

    def test_gating_charge_applies_while_invalid_sits_below(self):
        # An issued (invalid-marked) entry below defeats the clock
        # gating of entries above it on every cycle of the replay
        # window (paper 2.1), even before any movement happens.
        q = make_queue(8, width=2, replay=3)
        for i in range(4):
            q.insert(op(i), i, set())
        q.grant(0)
        q.tick()
        evals_after_one = sum(q.counters.counter_evals)
        q.tick()
        evals_after_two = sum(q.counters.counter_evals)
        assert evals_after_one == 3  # three valid entries above
        assert evals_after_two > evals_after_one


class TestToggling:
    def test_toggle_does_not_move_entries(self):
        q = make_queue(8)
        for i in range(3):
            q.insert(op(i), i, set())
        before = list(q.slots)
        q.toggle()
        assert q.slots == before

    def test_toggle_relabels_priorities(self):
        q = make_queue(8)
        q.insert(op(0), 0, set())
        q.toggle()
        # The entry at physical slot 0 is now logical position 4.
        assert [(l, e.op.seq) for l, e in q.entries()] == [(4, 0)]

    def test_insert_after_toggle_lands_in_upper_half(self):
        q = make_queue(8)
        q.toggle()
        q.insert(op(0), 0, set())
        assert q.slots[4] is not None

    def test_wraparound_compaction_charges_long_moves(self):
        q = make_queue(8, width=2, replay=1)
        q.toggle()
        for i in range(6):
            q.insert(op(i), i, set())
        # Entries occupy logical 0..5 -> physical 4..7, 0, 1.
        q.grant(4)  # head entry at physical 4
        drain_ticks(q, 3)
        assert sum(q.counters.long_moves) > 0

    def test_double_toggle_restores_mode(self):
        q = make_queue(8)
        q.toggle()
        q.toggle()
        assert q.mode is QueueMode.NORMAL

    def test_occupancy_by_half(self):
        q = make_queue(8)
        for i in range(5):
            q.insert(op(i), i, set())
        assert q.occupancy_by_half() == (4, 1)

    def test_flush_empties_queue(self):
        q = make_queue(8)
        for i in range(5):
            q.insert(op(i), i, set())
        q.grant(0)
        q.flush()
        assert len(q) == 0
        assert q.can_insert(8)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def queue_script(draw):
    """A random interleaving of inserts, grants, ticks, and toggles."""
    return draw(st.lists(
        st.sampled_from(["insert", "grant", "tick", "toggle"]),
        min_size=1, max_size=60))


@given(queue_script())
@settings(max_examples=120, deadline=None)
def test_queue_never_loses_or_duplicates_entries(script):
    q = CompactingIssueQueue(8, 2, replay_window=1)
    live = {}  # seq -> issued?
    seq = 0
    issued_not_removed = set()
    for action in script:
        if action == "insert":
            if q.can_insert():
                q.insert(op(seq), seq, set())
                live[seq] = False
                seq += 1
        elif action == "grant":
            ready = q.ready_physical_in_priority()
            if ready:
                entry = q.grant(ready[0])
                live[entry.op.seq] = True
                issued_not_removed.add(entry.op.seq)
        elif action == "tick":
            q.tick()
        elif action == "toggle":
            q.toggle()
        # Invariant: every un-issued entry is still present exactly once.
        present = [e.op.seq for _, e in q.entries()]
        assert len(present) == len(set(present))
        waiting = {s for s, isd in live.items() if not isd}
        assert waiting <= set(present)


@given(queue_script())
@settings(max_examples=120, deadline=None)
def test_unissued_entries_stay_in_age_order(script):
    """Within one mode epoch, un-issued entries appear in insertion
    order when walked in priority order (compaction preserves order;
    toggles may relabel but never reorder relative positions)."""
    q = CompactingIssueQueue(8, 2, replay_window=1)
    seq = 0
    toggled_recently = False
    for action in script:
        if action == "insert" and q.can_insert():
            q.insert(op(seq), seq, set())
            seq += 1
        elif action == "grant":
            ready = q.ready_physical_in_priority()
            if ready:
                q.grant(ready[0])
        elif action == "tick":
            q.tick()
        elif action == "toggle":
            q.toggle()
            toggled_recently = True
        if not toggled_recently:
            seqs = [e.op.seq for _, e in q.entries()
                    if e.issued_at is None]
            assert seqs == sorted(seqs)


@given(st.integers(min_value=0, max_value=7),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_phys_logical_roundtrip(logical, toggled):
    q = make_queue(8)
    if toggled:
        q.toggle()
    assert q.logical(q.phys(logical)) == logical
