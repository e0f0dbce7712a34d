"""Register-file copies, rename, and the physical register file.

Two structures live here:

* :class:`RenameTable` — architectural-to-physical register rename with
  a free list, providing the wakeup tags the issue queue waits on.
* :class:`RegisterFileBank` — the replicated integer register file the
  paper studies.  Each copy is its own thermal block; reads route
  through the hard-wired :class:`~repro.core.mapping.PortMapping`
  while writes go to **all** copies (values must be coherent across
  copies, paper §2.3).  Reads are counted per ALU read port and only
  folded into per-copy totals where they become energy or metrics, so
  the counters a run accumulates do not depend on the mapping.
  Fine-grain turnoff disables reads from a hot copy by marking its
  mapped ALUs busy; writes continue during cooling (the paper's first
  stale-copy solution: the turnoff threshold sits slightly below the
  critical threshold, and a cooling copy seeing only writes receives
  about a third of its normal accesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.mapping import PortMapping
from .isa import FP_OPCLASSES, MicroOp


class RenameError(RuntimeError):
    """Raised when rename runs out of physical registers."""


@dataclass(slots=True)
class RenamedOp:
    """Operand tags produced by rename for one micro-op."""

    dst_tag: Optional[int]
    src_tags: Tuple[int, ...]
    freed_tag: Optional[int]


class RenameTable:
    """Map table + free list over a unified physical register file.

    Integer and FP architectural registers occupy disjoint rows of the
    map table (FP rows are offset), sharing one physical register pool
    for simplicity.
    """

    def __init__(self, n_arch_regs: int, n_physical: int) -> None:
        if n_physical < 2 * n_arch_regs:
            raise ValueError("physical register file too small")
        self.n_arch = n_arch_regs
        self._map: List[int] = list(range(n_arch_regs))
        self._free: List[int] = list(range(n_arch_regs, n_physical))
        # Mirror of ``_free`` for the O(1) double-release guard; the
        # list stays authoritative (pop order is the allocation order).
        self._free_set: Set[int] = set(self._free)
        self._ready: Set[int] = set(range(n_arch_regs))

    def free_count(self) -> int:
        return len(self._free)

    def lookup(self, arch: int) -> int:
        return self._map[arch]

    def is_ready(self, tag: int) -> bool:
        return tag in self._ready

    def rename(self, op: MicroOp, fp_offset: int = 0) -> RenamedOp:
        """Rename one op; returns its tags.

        The previous mapping of the destination becomes ``freed_tag``
        and is released when the op commits.  Raises
        :class:`RenameError` when the free list is empty.
        """
        offset = fp_offset if op.opclass in FP_OPCLASSES else 0
        amap = self._map
        s1, s2 = op.src1, op.src2
        if s1 is None:
            src_tags: Tuple[int, ...] = (
                () if s2 is None else (amap[offset + s2],))
        elif s2 is None:
            src_tags = (amap[offset + s1],)
        else:
            src_tags = (amap[offset + s1], amap[offset + s2])
        dst_tag = None
        freed = None
        if op.dst is not None:
            if not self._free:
                raise RenameError("out of physical registers")
            dst_tag = self._free.pop()
            self._free_set.remove(dst_tag)
            freed = amap[offset + op.dst]
            amap[offset + op.dst] = dst_tag
            self._ready.discard(dst_tag)
        return RenamedOp(dst_tag=dst_tag, src_tags=src_tags, freed_tag=freed)

    def mark_ready(self, tag: int) -> None:
        self._ready.add(tag)

    def waiting_tags(self, tags: Tuple[int, ...]) -> Set[int]:
        """Subset of ``tags`` whose producers have not broadcast yet."""
        ready = self._ready
        return {t for t in tags if t not in ready}

    def release(self, tag: Optional[int]) -> None:
        """Return a physical register to the free list (at commit)."""
        if tag is None:
            return
        if tag in self._free_set:
            raise ValueError(f"double release of physical register {tag}")
        self._free.append(tag)
        self._free_set.add(tag)
        self._ready.discard(tag)

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {"map": self._map, "free": self._free,
                "ready": self._ready}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._map = list(state["map"])
        self._free = list(state["free"])
        self._free_set = set(self._free)
        self._ready = set(state["ready"])


class RegFileCounters:
    """Cumulative accesses per register-file copy: a read view over the
    bank's SoA arrays (``reads``/``writes`` come back as plain lists,
    so existing ``counters.reads == [2, 2]`` comparisons still hold).
    Reads are stored per ALU read port; ``reads`` folds them into
    copies through the bank's port mapping."""

    __slots__ = ("_port_reads", "_writes", "_mapping")

    def __init__(self, port_reads: Any, writes: Any,
                 mapping: PortMapping) -> None:
        self._port_reads = port_reads
        self._writes = writes
        self._mapping = mapping

    @property
    def port_reads(self) -> List[int]:
        """Reads per ALU read port (index ``2 * alu + port``)."""
        return self._port_reads.tolist()

    @property
    def reads(self) -> List[int]:
        return self._mapping.copy_reads(self._port_reads.tolist())

    @property
    def writes(self) -> List[int]:
        return self._writes.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegFileCounters(reads={self.reads}, writes={self.writes})"


class RegisterFileBank:
    """Replicated integer register file with hard-wired read ports."""

    def __init__(self, mapping: PortMapping) -> None:
        self.mapping = mapping
        self.n_copies = mapping.n_copies
        #: SoA access counters: reads indexed by ALU read port
        #: (``2 * alu + port``), writes by copy.
        self._port_reads = np.zeros(2 * mapping.n_alus, dtype=np.int64)
        self._writes = np.zeros(self.n_copies, dtype=np.int64)
        self.counters = RegFileCounters(self._port_reads, self._writes,
                                        mapping)
        self._off: Set[int] = set()
        #: Cached union of the mapped ALUs of every turned-off copy,
        #: maintained by turn_off/turn_on — issue reads it every cycle.
        self._blocked: Set[int] = set()

    def adopt_counter_storage(self, port_reads: Any, writes: Any) -> None:
        """Rebind the access counters to externally-owned per-port and
        per-copy arrays (:class:`~repro.pipeline.soa.RunAxisStore`
        segments), carrying the current values over."""
        for new, old in ((port_reads, self._port_reads),
                         (writes, self._writes)):
            if new.shape != old.shape or new.dtype != old.dtype:
                raise ValueError("counter storage shape/dtype mismatch")
        port_reads[:] = self._port_reads
        writes[:] = self._writes
        self._port_reads = port_reads
        self._writes = writes
        self.counters = RegFileCounters(port_reads, writes, self.mapping)

    # ------------------------------------------------------------------
    # access accounting
    # ------------------------------------------------------------------
    def read_for_issue(self, alu: int, n_operands: int) -> None:
        """Charge the read-port accesses for issuing to ALU ``alu``.

        Each operand uses one of the ALU's two hard-wired ports; with
        one operand only the first port fires.
        """
        if not 0 <= n_operands <= 2:
            raise ValueError("ops read zero, one, or two registers")
        ports = self.mapping.copies_for(alu)
        for port in range(n_operands):
            copy = ports[port]
            if copy in self._off:
                raise RuntimeError(
                    f"read from turned-off register-file copy {copy}; "
                    f"ALU {alu} should have been marked busy")
            self._port_reads[2 * alu + port] += 1

    def write(self) -> None:
        """Charge one register write to every copy (values are
        replicated; a cooling copy still accepts writes)."""
        self._writes += 1

    # ------------------------------------------------------------------
    # fine-grain turnoff
    # ------------------------------------------------------------------
    def turn_off(self, copy: int) -> List[int]:
        """Disable reads from ``copy``; returns the ALUs to mark busy."""
        if not 0 <= copy < self.n_copies:
            raise IndexError(copy)
        self._off.add(copy)
        self._recompute_blocked()
        return self.mapping.alus_on_copy(copy)

    def turn_on(self, copy: int) -> List[int]:
        """Re-enable ``copy``; returns the ALUs that may unblock
        (callers must check their other port's copy too)."""
        self._off.discard(copy)
        self._recompute_blocked()
        return self.mapping.alus_on_copy(copy)

    def is_off(self, copy: int) -> bool:
        return copy in self._off

    def all_off(self) -> bool:
        return len(self._off) == self.n_copies

    def blocked_alus(self) -> Set[int]:
        """ALUs unusable because one of their port copies is off.

        Returns the maintained set (treat as read-only); it changes
        only on turn_off/turn_on, not per cycle.
        """
        return self._blocked

    def _recompute_blocked(self) -> None:
        blocked: Set[int] = set()
        for copy in sorted(self._off):
            blocked.update(self.mapping.alus_on_copy(copy))
        self._blocked = blocked

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Counters and turned-off copies: nothing that depends on the
        port mapping (the blocked ALUs are derived on restore), so a
        warm state restores into a run of any mapping."""
        return {"counters": {"port_reads": self.counters.port_reads,
                             "writes": self.counters.writes},
                "off": self._off}

    def restore_state(self, state: Dict[str, Any]) -> None:
        values = state["counters"]
        self._port_reads[:] = values["port_reads"]
        self._writes[:] = values["writes"]
        self._off = set(state["off"])
        self._recompute_blocked()
