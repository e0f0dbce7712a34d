"""Activity toggling for the compacting issue queue (paper §2.1.1).

The controller watches the temperatures of the two physical halves of
an issue queue and toggles the queue's head/tail configuration so that
compaction activity lands in the cooler half — before either half
overheats.  Toggling is correct regardless of queue contents (priority
order is a performance heuristic, not a correctness requirement).

The controller composes three rules, all driven by the 0.5 K
imbalance threshold of the paper plus state the hardware already has
(the tail pointer and the per-half gating activity counters):

1. **Balancing toggle** — when the hotter half is the one receiving
   compaction activity, the imbalance exceeds the threshold, and the
   queue is below half occupancy (so the wrap wires stay idle after
   the toggle), flip the configuration.
2. **Saturation revert** — when sitting in the toggled configuration
   with a queue past half occupancy, return to the conventional
   configuration immediately: entries would otherwise straddle the
   wrap and pay the long-compaction wire energy on every issue (the
   paper's power-density disadvantage), while a saturated queue
   spreads activity over both halves anyway.  The toggled
   configuration therefore only ever persists at low occupancy, where
   it is free.

Activity toggling cannot *guarantee* the queue stays cool: broadcast
must continue to all entries for correctness, so a bursty application
can overheat both halves anyway, at which point the temporal fallback
(a global cooling stall, handled by :mod:`repro.core.dtm`) kicks in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from ..pipeline.issue_queue import CompactingIssueQueue, QueueMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.collector import QueueTracer


@dataclass
class ToggleStats:
    """Observable behaviour of one toggling controller."""

    toggles: int = 0
    samples: int = 0
    max_imbalance_k: float = 0.0


class ActivityToggler:
    """Drives one issue queue's head/tail mode from its half temps."""

    def __init__(self, queue: CompactingIssueQueue,
                 threshold_k: float = 0.5,
                 refractory_samples: int = 2,
                 tracer: Optional["QueueTracer"] = None) -> None:
        if threshold_k <= 0:
            raise ValueError("threshold must be positive")
        if refractory_samples < 0:
            raise ValueError("refractory period must be non-negative")
        self.queue = queue
        self.threshold_k = threshold_k
        self.refractory_samples = refractory_samples
        #: Optional :class:`~repro.obs.collector.QueueTracer`; when
        #: set, every toggle emits a cycle-stamped ``ToggleEvent``.
        self.tracer = tracer
        self.stats = ToggleStats()
        self._cooldown = 0
        self._last_activity = self._activity_counts()
        counters = self.queue.counters
        self._occ_history: Deque[Tuple[int, int]] = deque(
            [(counters.occupancy_sum, counters.cycles)], maxlen=4)
        self._last_longs = sum(counters.long_moves)

    def _activity_counts(self) -> List[int]:
        """Cumulative compaction-logic activity per physical half."""
        c = self.queue.counters
        return [c.counter_evals[h] + c.long_moves[h] for h in (0, 1)]

    def snapshot_state(self) -> dict:
        """The controller's mutable observation state (the queue
        itself is restored separately via the processor snapshot)."""
        return {"stats": self.stats, "cooldown": self._cooldown,
                "last_activity": list(self._last_activity),
                "occ_history": list(self._occ_history),
                "last_longs": self._last_longs}

    def restore_state(self, state: dict) -> None:
        self.stats = state["stats"]
        self._cooldown = state["cooldown"]
        self._last_activity = list(state["last_activity"])
        self._occ_history = deque(state["occ_history"], maxlen=4)
        self._last_longs = state["last_longs"]

    def _toggle(self, half_temps: Tuple[float, float]) -> bool:
        self.queue.toggle()
        self.stats.toggles += 1
        self._cooldown = self.refractory_samples
        if self.tracer is not None:
            self.tracer.toggled(self.queue.mode.name.lower(), half_temps)
        return True

    def observe(self, half_temps: Tuple[float, float]) -> bool:
        """Feed one sensor sample; returns True if the queue toggled.

        ``half_temps`` is (lower physical half, upper physical half).
        """
        low, high = half_temps
        self.stats.samples += 1
        current = self._activity_counts()
        delta = [current[0] - self._last_activity[0],
                 current[1] - self._last_activity[1]]
        self._last_activity = current

        imbalance = abs(high - low)
        if imbalance > self.stats.max_imbalance_k:
            self.stats.max_imbalance_k = imbalance
        if self._cooldown > 0:
            self._cooldown -= 1
            return False

        hot_half = 1 if high > low else 0
        active_half = 1 if delta[1] > delta[0] else 0
        hot_is_active = (hot_half == active_half
                         and delta[hot_half] > 0)
        # Multi-sample average occupancy: a transient drain (mispredict
        # or miss recovery) must not look like a persistently
        # low-occupancy queue, so the toggle-in decision averages over
        # the last few sensing intervals.
        counters = self.queue.counters
        occ_sum, cyc = counters.occupancy_sum, counters.cycles
        prev_sum, prev_cyc = self._occ_history[0]
        self._occ_history.append((occ_sum, cyc))
        elapsed = max(1, cyc - prev_cyc)
        occupancy = (occ_sum - prev_sum) / elapsed
        longs = sum(counters.long_moves)
        wire_activity = longs - self._last_longs
        self._last_longs = longs
        mid = self.queue.mid

        # Rule 2: revert to the wire-free configuration when the queue
        # approaches half occupancy from below or the long-compaction
        # wires started burning.  This uses *instantaneous* signals so
        # a phase change is caught at the first sample after it
        # happens, unlike the toggle-in rule which deliberately
        # averages; a revert gets a longer refractory period so a
        # whipsawing queue settles in the conventional configuration.
        if (self.queue.mode is QueueMode.TOGGLED
                and (len(self.queue) > mid - 4 or wire_activity > 20)):
            self._toggle(half_temps)
            self._cooldown = 3 * self.refractory_samples
            return True

        # Rule 1: ordinary balancing toggle.
        if imbalance <= self.threshold_k:
            return False
        if not hot_is_active:
            return False  # current mode is already cooling the hot half
        if occupancy > mid - 6 or len(self.queue) > mid - 2:
            # A toggle now would soon leave entries on both sides of
            # the wrap, putting the long-compaction wires in
            # continuous use (the paper's power-density disadvantage)
            # and throttling dispatch while the relabelled tail drifts
            # back down.
            return False
        return self._toggle(half_temps)
