"""Register-file port mapping strategies (paper §2.3, Figure 4).

Processors replicate the register file so each copy needs fewer read
ports; every ALU's two read ports are *hard-wired* to one (or two)
copies.  Because ALUs are utilized asymmetrically (static select
priority), the choice of which ALUs wire to which copy decides how
heat distributes across copies:

* **Priority mapping** — all high-priority ALUs on copy 0, all
  low-priority ALUs on copy 1.  Concentrates reads in copy 0 (its
  ports run hot and *efficiently*); combined with fine-grain turnoff
  this achieves utilization symmetry both within and across copies —
  the paper's recommended, counter-intuitive design.
* **Balanced mapping** (simplified balanced) — interleaves priorities
  (ALUs 0,2,4 on copy 0; 1,3,5 on copy 1).  Heats the copies evenly
  (symmetric across copies) but leaves low-priority ports idle within
  each copy, so with fine-grain turnoff it wastes port bandwidth.
* **Completely-balanced mapping** — each ALU reads one operand from
  each copy.  Perfectly symmetric but needs long cross-chip wires, and
  fine-grain turnoff of one copy would block *every* ALU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


class MappingKind(enum.Enum):
    PRIORITY = "priority"
    BALANCED = "balanced"
    COMPLETELY_BALANCED = "completely_balanced"


@dataclass(frozen=True)
class PortMapping:
    """Hard-wired assignment of each ALU's two read ports to copies.

    ``ports[alu]`` is a tuple of copy indices, one per read port.
    """

    kind: MappingKind
    n_alus: int
    n_copies: int
    ports: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.ports) != self.n_alus:
            raise ValueError("one port tuple required per ALU")
        for alu_ports in self.ports:
            if len(alu_ports) != 2:
                raise ValueError("each ALU has exactly two read ports")
            for copy in alu_ports:
                if not 0 <= copy < self.n_copies:
                    raise ValueError(f"copy index {copy} out of range")

    def copies_for(self, alu: int) -> Tuple[int, ...]:
        """Copy index accessed by each of the ALU's two read ports."""
        return self.ports[alu]

    def alus_on_copy(self, copy: int) -> List[int]:
        """ALUs with at least one read port wired to ``copy``.

        These are the ALUs that must be marked busy to turn the copy
        off (fine-grain turnoff, paper §2.3).
        """
        return [alu for alu, alu_ports in enumerate(self.ports)
                if copy in alu_ports]

    def copy_reads(self, port_reads: Sequence[int]) -> List[int]:
        """Fold per-read-port counts into per-copy totals.

        ``port_reads[2 * alu + port]`` counts the reads through read
        port ``port`` of ALU ``alu``; each lands on the copy that port
        is wired to.  The register file counts reads per port, so
        everything upstream of this fold is the same for every
        mapping.
        """
        totals = [0] * self.n_copies
        for alu, alu_ports in enumerate(self.ports):
            for port, copy in enumerate(alu_ports):
                totals[copy] += port_reads[2 * alu + port]
        return totals

    def read_ports_per_copy(self) -> List[int]:
        """Number of read ports wired to each copy."""
        counts = [0] * self.n_copies
        for alu_ports in self.ports:
            for copy in alu_ports:
                counts[copy] += 1
        return counts

    @property
    def supports_turnoff(self) -> bool:
        """Whether any single copy can be turned off while some ALU
        still has both its ports live (false for completely-balanced,
        where every ALU straddles both copies)."""
        all_alus = set(range(self.n_alus))
        return any(set(self.alus_on_copy(c)) != all_alus
                   for c in range(self.n_copies))


def priority_mapping(n_alus: int, n_copies: int = 2) -> PortMapping:
    """Group ALUs by select priority: ALUs ``[0, n/k)`` on copy 0, etc."""
    _validate(n_alus, n_copies)
    per_copy = n_alus // n_copies
    ports = tuple((alu // per_copy, alu // per_copy) for alu in range(n_alus))
    return PortMapping(MappingKind.PRIORITY, n_alus, n_copies, ports)


def balanced_mapping(n_alus: int, n_copies: int = 2) -> PortMapping:
    """Interleave priorities across copies (ALU ``i`` on copy ``i % k``)."""
    _validate(n_alus, n_copies)
    ports = tuple((alu % n_copies, alu % n_copies) for alu in range(n_alus))
    return PortMapping(MappingKind.BALANCED, n_alus, n_copies, ports)


def completely_balanced_mapping(n_alus: int, n_copies: int = 2) -> PortMapping:
    """One read port of every ALU on each copy (requires n_copies == 2)."""
    _validate(n_alus, n_copies)
    if n_copies != 2:
        raise ValueError("completely-balanced mapping is defined for "
                         "two copies (one port on each)")
    ports = tuple((0, 1) for _ in range(n_alus))
    return PortMapping(MappingKind.COMPLETELY_BALANCED, n_alus, n_copies,
                       ports)


_FACTORIES = {
    MappingKind.PRIORITY: priority_mapping,
    MappingKind.BALANCED: balanced_mapping,
    MappingKind.COMPLETELY_BALANCED: completely_balanced_mapping,
}


def make_mapping(kind: MappingKind, n_alus: int,
                 n_copies: int = 2) -> PortMapping:
    """Build a mapping of the given kind."""
    return _FACTORIES[kind](n_alus, n_copies)


def _validate(n_alus: int, n_copies: int) -> None:
    if n_copies < 1:
        raise ValueError("need at least one register-file copy")
    if n_alus < n_copies or n_alus % n_copies:
        raise ValueError("ALU count must be a positive multiple of the "
                         "copy count")
