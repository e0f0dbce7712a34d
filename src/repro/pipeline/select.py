"""Select trees and issue arbitration (paper §2.1–§2.2, Figure 2).

Each ALU has one hierarchical select tree over the issue-queue slots.
A tree is built from arity-4 arbiter nodes with a two-input root whose
children cover the two physical halves of the queue.  Requests flow up;
the root sends one grant back down, always to the *bottom-most*
(lowest-physical-index) requesting input at every node — which encodes
"oldest first" because the compacting queue keeps older instructions at
lower positions relative to the head.

Only the root is mode-aware: in the queue's NORMAL configuration the
lower half is higher priority; in the TOGGLED configuration (head moved
to the middle of the queue) the upper half is higher priority.  The
subtrees never change — this is the paper's argument that activity
toggling adds almost no select-logic complexity.

The trees for a W-wide machine are *serialized* in static priority
order [Palacharla et al.]: tree ``k`` masks its request vector with the
grants of trees ``0..k-1``.  Because tree ``k`` is hard-wired to ALU
``k``, the serialization is what makes ALU utilization asymmetric.

Because every tree implements the same priority function over the same
request vector, the serialized cascade collectively grants the ``k``-th
highest-priority request to the ``k``-th non-busy tree —
:class:`SelectNetwork` exploits that equivalence for speed while
:class:`SelectTree` models one hardware tree faithfully (the test suite
asserts the two agree on random request vectors).

:class:`SelectNetwork` also implements the idealized *round-robin*
policy the paper uses as an upper bound (rotating which tree serializes
first each cycle) and honours per-ALU ``busy`` bits, which is the whole
hardware cost of fine-grain turnoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .issue_queue import CompactingIssueQueue, QueueMode


@dataclass
class SelectCounters:
    """Cumulative grants per select tree: the tree's unit executes each
    granted op, so the kernel derives unit op counts from these."""

    grants_per_tree: List[int] = field(default_factory=list)


class SelectTree:
    """One hierarchical arbiter hard-wired to one ALU."""

    def __init__(self, n_entries: int, leaf_arity: int = 4) -> None:
        if n_entries % 2:
            raise ValueError("n_entries must be even (two root subtrees)")
        if leaf_arity < 2:
            raise ValueError("leaf_arity must be >= 2")
        self.n_entries = n_entries
        self.leaf_arity = leaf_arity
        self.half = n_entries // 2

    def select(self, requests: Sequence[bool], mode: QueueMode) -> Optional[int]:
        """Return the granted physical slot, or ``None``.

        ``requests`` is indexed by physical slot.  The walk mirrors the
        hardware: each subtree independently reduces to its highest-
        priority requester (lowest physical index); the root picks
        between halves according to ``mode``.
        """
        if len(requests) != self.n_entries:
            raise ValueError("request vector length mismatch")
        low = self._subtree_select(requests, 0, self.half)
        high = self._subtree_select(requests, self.half, self.n_entries)
        if mode is QueueMode.NORMAL:
            first, second = low, high
        else:
            first, second = high, low
        return first if first is not None else second

    def _subtree_select(self, requests: Sequence[bool],
                        start: int, stop: int) -> Optional[int]:
        span = stop - start
        if span <= self.leaf_arity:
            for phys in range(start, stop):
                if requests[phys]:
                    return phys
            return None
        child_span = max(self.leaf_arity, span // self.leaf_arity)
        pos = start
        while pos < stop:
            granted = self._subtree_select(
                requests, pos, min(pos + child_span, stop))
            if granted is not None:
                return granted
            pos += child_span
        return None


class SelectNetwork:
    """W serialized select trees, one per ALU, with busy masking."""

    def __init__(self, n_entries: int, n_alus: int,
                 round_robin: bool = False) -> None:
        if n_alus < 1:
            raise ValueError("need at least one ALU")
        self.n_entries = n_entries
        self.n_alus = n_alus
        self.round_robin = round_robin
        self.trees = [SelectTree(n_entries) for _ in range(n_alus)]
        self.counters = SelectCounters(grants_per_tree=[0] * n_alus)
        self._rr_offset = 0

    def arbitrate(self, queue: CompactingIssueQueue,
                  busy: Sequence[bool],
                  eligible: Optional[Callable[[int], bool]] = None,
                  limit: Optional[int] = None,
                  ) -> List[Optional[int]]:
        """Run one select cycle.

        ``busy[k]`` suppresses tree ``k`` entirely (the fine-grain
        turnoff hook: an overheated ALU is marked busy).  ``eligible``
        optionally filters physical slots (e.g. an op class only some
        units execute).  ``limit`` caps the number of grants (the
        machine's issue-width budget).  Returns ``grants`` where
        ``grants[k]`` is the physical slot issued to ALU ``k`` or
        ``None``.
        """
        if len(busy) != self.n_alus:
            raise ValueError("busy vector length mismatch")
        ready = queue.ready_physical_in_priority()
        if eligible is not None:
            ready = [p for p in ready if eligible(p)]

        order = range(self.n_alus)
        if self.round_robin:
            offset = self._rr_offset
            order = [(i + offset) % self.n_alus for i in range(self.n_alus)]
            self._rr_offset = (offset + 1) % self.n_alus

        grants: List[Optional[int]] = [None] * self.n_alus
        budget = len(ready) if limit is None else min(limit, len(ready))
        taken = 0
        grants_per_tree = self.counters.grants_per_tree
        for tree_index in order:
            if taken >= budget:
                break
            if busy[tree_index]:
                continue  # busy signal: no grant, no masking needed
            grants[tree_index] = ready[taken]
            grants_per_tree[tree_index] += 1
            taken += 1
        return grants

    def arbitrate_with_trees(self, queue: CompactingIssueQueue,
                             busy: Sequence[bool],
                             eligible: Optional[Callable[[int], bool]] = None,
                             ) -> List[Optional[int]]:
        """Reference implementation walking every hardware tree with
        serialized masking; used by tests to validate the fast path."""
        if len(busy) != self.n_alus:
            raise ValueError("busy vector length mismatch")
        requests = queue.request_vector()
        if eligible is not None:
            requests = [r and eligible(p) for p, r in enumerate(requests)]
        order = list(range(self.n_alus))
        if self.round_robin:
            order = order[self._rr_offset:] + order[:self._rr_offset]
        grants: List[Optional[int]] = [None] * self.n_alus
        for tree_index in order:
            if busy[tree_index]:
                continue
            granted = self.trees[tree_index].select(requests, queue.mode)
            if granted is None:
                continue
            grants[tree_index] = granted
            requests[granted] = False
            # logical priority is identical across trees, so masking the
            # winner is the only inter-tree interaction
        return grants

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """The round-robin rotation is warm state: two runs with the
        same policy diverge if it is not restored."""
        return {"counters": self.counters, "rr_offset": self._rr_offset}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.counters = state["counters"]
        self._rr_offset = state["rr_offset"]
