"""Active list (reorder buffer) and load/store queue.

The active list holds every in-flight instruction in program order and
retires up to ``commit_width`` completed instructions per cycle from
its head.  The LSQ is modelled as occupancy (entries held from dispatch
to commit); memory disambiguation is not needed because the pipeline is
trace driven (addresses are architecturally correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .isa import MicroOp, OpClass


@dataclass(slots=True)
class ROBEntry:
    """One active-list slot."""

    op: MicroOp
    dst_tag: Optional[int]
    freed_tag: Optional[int]
    done: bool = False


class ActiveList:
    """Circular in-order reorder buffer."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: List[Optional[ROBEntry]] = [None] * capacity
        self._head = 0
        self._tail = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def allocate(self, entry: ROBEntry) -> int:
        """Append at the tail; returns the entry's index."""
        if self.full:
            raise RuntimeError("active list full")
        index = self._tail
        self._entries[index] = entry
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        return index

    def get(self, index: int) -> ROBEntry:
        entry = self._entries[index]
        if entry is None:
            raise IndexError(f"no active entry at {index}")
        return entry

    def mark_done(self, index: int) -> None:
        self.get(index).done = True

    def ready_count(self, limit: int) -> int:
        """Number of completed entries at the head, oldest first,
        capped at ``limit`` (the commit width): how many entries
        :meth:`retire` may remove this cycle."""
        ready = 0
        pos = self._head
        entries = self._entries
        capacity = self.capacity
        remaining = min(self._count, limit)
        while ready < remaining:
            entry = entries[pos]
            if entry is None or not entry.done:
                break
            ready += 1
            pos += 1
            if pos == capacity:
                pos = 0
        return ready

    def retire(self, count: int) -> List[ROBEntry]:
        """Remove ``count`` completed entries from the head."""
        retired: List[ROBEntry] = []
        for _ in range(count):
            entry = self._entries[self._head]
            if entry is None or not entry.done:
                raise RuntimeError("retiring an incomplete entry")
            retired.append(entry)
            self._entries[self._head] = None
            self._head = (self._head + 1) % self.capacity
            self._count -= 1
        return retired

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {"entries": self._entries, "head": self._head,
                "tail": self._tail, "count": self._count}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._entries = list(state["entries"])
        self._head = state["head"]
        self._tail = state["tail"]
        self._count = state["count"]


class LoadStoreQueue:
    """Occupancy model of the unified LSQ."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def allocate(self) -> None:
        if self.full:
            raise RuntimeError("LSQ full")
        self._count += 1

    def release(self) -> None:
        if self._count == 0:
            raise RuntimeError("LSQ underflow")
        self._count -= 1

    @staticmethod
    def needs_entry(op: MicroOp) -> bool:
        return op.opclass in (OpClass.LOAD, OpClass.STORE)

    def snapshot_state(self) -> Dict[str, Any]:
        return {"count": self._count}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._count = state["count"]
