"""Low-overhead event collection: ring buffer, export, tracer adapters.

:class:`TraceCollector` is the single sink every component emits into.
It preallocates a fixed-size ring of event slots so steady-state
emission is an index store plus a counter bump — no per-event list
growth, no allocation beyond the event object itself.  When the ring
wraps, the *oldest* events are dropped (and counted in ``dropped``);
per-kind totals in ``counts`` always cover everything emitted, so
summaries stay exact even after a wrap.

Tracing is off by default.  Components hold ``None`` instead of a
collector, making every emission site a single ``is not None`` check;
the acceptance bar is that an untraced run is bit-identical to a build
without the obs layer and stays within the CI perf floor.

The tracer adapters (:class:`QueueTracer`, :class:`UnitTracer`) are
what the core controllers actually hold: they bind a collector to the
static context the controller itself lacks — the floorplan block
names and the processor's cycle clock — so the controllers stay free
of floorplan and timing knowledge.
"""

from __future__ import annotations

import json
import os
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Type, Union)

from .events import ToggleEvent, TraceEvent, UnitTurnoff, UnitTurnon

__all__ = ["TraceCollector", "QueueTracer", "UnitTracer",
           "trace_enabled", "DEFAULT_CAPACITY"]

#: Default ring size: generously above what a DTM-heavy 200k-cycle run
#: emits (hundreds of events), small enough to preallocate instantly.
DEFAULT_CAPACITY = 65_536


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks for event tracing regardless of
    the per-run ``SimulationConfig.trace_events`` flag."""
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1", "true", "yes", "on")


class TraceCollector:
    """Preallocated ring buffer of :class:`TraceEvent` objects."""

    __slots__ = ("_ring", "_next", "_size", "dropped", "counts")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._next = 0
        self._size = 0
        #: Events overwritten after the ring filled (oldest-first).
        self.dropped = 0
        #: Per-kind totals over everything ever emitted (survives wraps).
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self._ring)

    @property
    def total_emitted(self) -> int:
        return self._size + self.dropped

    def __len__(self) -> int:
        return self._size

    def emit(self, event: TraceEvent) -> None:
        """Record one event (O(1), overwrites the oldest when full)."""
        ring = self._ring
        index = self._next
        if self._size == len(ring):
            self.dropped += 1
        else:
            self._size += 1
        ring[index] = event
        self._next = (index + 1) % len(ring)
        counts = self.counts
        counts[event.kind] = counts.get(event.kind, 0) + 1

    def clear(self) -> None:
        self._ring = [None] * len(self._ring)
        self._next = 0
        self._size = 0
        self.dropped = 0
        self.counts = {}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (in-memory export)."""
        size = self._size
        ring = self._ring
        start = (self._next - size) % len(ring)
        out: List[TraceEvent] = []
        for offset in range(size):
            event = ring[(start + offset) % len(ring)]
            assert event is not None  # within the retained window
            out.append(event)
        return out

    def events_of(self, kind: Union[str, Type[TraceEvent]]
                  ) -> List[TraceEvent]:
        """Retained events of one kind (name or event class)."""
        wanted = kind if isinstance(kind, str) else kind.kind
        return [e for e in self.events() if e.kind == wanted]

    def export_jsonl(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write retained events as JSON Lines; returns the count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_dict(),
                                        separators=(",", ":")))
                handle.write("\n")
        return len(events)

    def summary(self) -> str:
        """One line per kind: ``toggle ×14`` style totals."""
        if not self.counts:
            return "no events"
        parts = [f"{kind} ×{count}"
                 for kind, count in sorted(self.counts.items())]
        text = ", ".join(parts)
        if self.dropped:
            text += f" ({self.dropped} oldest dropped)"
        return text


# ---------------------------------------------------------------------------
# tracer adapters held by the core controllers
# ---------------------------------------------------------------------------

#: Callable returning the current processor cycle.
Clock = Callable[[], int]


class QueueTracer:
    """Binds one issue queue's toggling controller to the collector."""

    __slots__ = ("collector", "queue", "clock")

    def __init__(self, collector: TraceCollector, queue: str,
                 clock: Clock) -> None:
        self.collector = collector
        self.queue = queue
        self.clock = clock

    def toggled(self, mode: str, half_temps_k: Tuple[float, float]) -> None:
        self.collector.emit(ToggleEvent(
            cycle=self.clock(), queue=self.queue, mode=mode,
            half_temps_k=half_temps_k))


class UnitTracer:
    """Binds one fine-grain controller's copies to floorplan blocks."""

    __slots__ = ("collector", "blocks", "clock")

    def __init__(self, collector: TraceCollector,
                 blocks: Sequence[str], clock: Clock) -> None:
        self.collector = collector
        self.blocks = tuple(blocks)
        self.clock = clock

    def turnoff(self, copy: int, temperature_k: float) -> None:
        self.collector.emit(UnitTurnoff(
            cycle=self.clock(), block=self.blocks[copy], copy=copy,
            temperature_k=temperature_k))

    def turnon(self, copy: int,
               temperature_k: Optional[float] = None) -> None:
        self.collector.emit(UnitTurnon(
            cycle=self.clock(), block=self.blocks[copy], copy=copy,
            temperature_k=temperature_k))
