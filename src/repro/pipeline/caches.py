"""Cache hierarchy and memory substrate.

A set-associative, LRU, write-allocate cache model.  Only timing and
access counts matter to the study (the pipeline is trace driven), so
the caches track tags, not data.  :class:`MemoryHierarchy` composes an
L1 data cache and a unified L2 in front of a fixed-latency memory and
returns the total load-to-use latency for each access, which the
backend adds to a load's execution latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .config import CacheConfig, ProcessorConfig


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # Each set is an ordered list of tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self._offset_bits = (config.block_bytes - 1).bit_length()
        # Geometry constants, denormalized off the (frozen) config so
        # the access path avoids a property evaluation per lookup.
        self._n_sets = config.n_sets
        self._assoc = config.assoc

    def _index_tag(self, addr: int) -> tuple:
        block = addr >> self._offset_bits
        return block % self._n_sets, block // self._n_sets

    def access(self, addr: int) -> bool:  # repro: hot-loop
        """Access ``addr``; return True on hit.  Misses allocate."""
        if addr < 0:
            raise ValueError("negative address")
        block = addr >> self._offset_bits
        n_sets = self._n_sets
        ways = self._sets[block % n_sets]
        tag = block // n_sets
        stats = self.stats
        stats.accesses += 1
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        stats.misses += 1
        if len(ways) >= self._assoc:
            ways.pop(0)
        ways.append(tag)
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or stats."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {"sets": self._sets, "stats": self.stats}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._sets = [list(ways) for ways in state["sets"]]
        self.stats = state["stats"]


class MemoryHierarchy:
    """L1D + unified L2 + fixed-latency memory.

    :meth:`load_latency` returns the full latency for a load and
    :meth:`store` records a store access (stores retire from the LSQ
    and are not on the load-to-use critical path, so their latency is
    not modelled beyond occupancy).
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.l1d = Cache(config.l1d, "l1d")
        self.l2 = Cache(config.l2, "l2")
        # Pre-summed latencies for the three load outcomes.
        self._l1_lat = config.l1d.latency
        self._l2_lat = config.l1d.latency + config.l2.latency
        self._mem_lat = (config.l1d.latency + config.l2.latency
                         + config.memory_latency)

    def load_latency(self, addr: int) -> int:  # repro: hot-loop
        """Total load latency in cycles for a load to ``addr``."""
        if self.l1d.access(addr):
            return self._l1_lat
        if self.l2.access(addr):
            return self._l2_lat
        return self._mem_lat

    def store(self, addr: int) -> None:
        """Record a committed store (write-allocate into L1/L2)."""
        if not self.l1d.access(addr):
            self.l2.access(addr)

    def warm(self, l1_addresses=(), l2_addresses=()) -> None:
        """Pre-touch address footprints (the analogue of the paper's
        1-billion-instruction L2 warm-up during fast-forward), then
        reset the statistics so measurement starts clean."""
        for addr in l2_addresses:
            self.l2.access(addr)
        for addr in l1_addresses:
            self.l2.access(addr)
            self.l1d.access(addr)
        self.l1d.reset_stats()
        self.l2.reset_stats()

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {"l1d": self.l1d.snapshot_state(),
                "l2": self.l2.snapshot_state()}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.l1d.restore_state(state["l1d"])
        self.l2.restore_state(state["l2"])
