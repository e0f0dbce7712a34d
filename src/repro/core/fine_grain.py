"""Fine-grain turnoff of resource copies (paper §2.2–§2.3).

Instead of stalling the whole processor when one resource copy crosses
the thermal threshold, fine-grain turnoff marks just that copy *busy*:

* an overheated ALU's select tree grants nothing, so instructions flow
  to lower-priority (cooler) ALUs — the hardware cost is only the busy
  signal select trees already support;
* an overheated register-file copy is turned off by marking busy every
  ALU whose read ports are wired to it (writes continue during cooling
  under the paper's slightly-lowered-threshold scheme).

Only when *all* copies of a resource are simultaneously off does the
controller ask for the temporal fallback (a global cooling stall).
A turned-off copy re-enables once it has cooled a hysteresis margin
below its trigger temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.collector import UnitTracer


@dataclass
class TurnoffStats:
    """Observable behaviour of one fine-grain controller."""

    turnoff_events: int = 0
    turnon_events: int = 0
    all_off_events: int = 0
    samples: int = 0
    #: Per-copy count of turnoff events (index-aligned with the copies).
    per_copy: List[int] = field(default_factory=list)


class FineGrainController:
    """Thermostat over N copies of one resource.

    Parameters
    ----------
    n_copies:
        Number of independently switchable copies.
    trigger_k:
        Temperature at which a copy is turned off.
    hysteresis_k:
        A copy re-enables at ``trigger_k - hysteresis_k``.
    turn_off / turn_on:
        Callbacks receiving the copy index (e.g. mark an ALU busy, or
        disable a register-file copy and busy its mapped ALUs).
    tracer:
        Optional :class:`~repro.obs.collector.UnitTracer`; when set,
        every on/off transition emits a cycle-stamped
        ``UnitTurnoff``/``UnitTurnon`` event.  ``None`` (the default)
        keeps the observe loop free of tracing work.
    """

    def __init__(self, n_copies: int, trigger_k: float,
                 hysteresis_k: float,
                 turn_off: Callable[[int], None],
                 turn_on: Callable[[int], None],
                 tracer: Optional["UnitTracer"] = None) -> None:
        if n_copies < 1:
            raise ValueError("need at least one copy")
        if hysteresis_k < 0:
            raise ValueError("hysteresis must be non-negative")
        self.n_copies = n_copies
        self.trigger_k = trigger_k
        self.hysteresis_k = hysteresis_k
        self._turn_off = turn_off
        self._turn_on = turn_on
        self.tracer = tracer
        self.off = [False] * n_copies
        self.stats = TurnoffStats(per_copy=[0] * n_copies)

    def observe(self, temps: Sequence[float]) -> bool:
        """Feed one sensor sample (one temperature per copy).

        Returns True when every copy is off after this sample — the
        signal for the caller to apply the temporal fallback.
        """
        if len(temps) != self.n_copies:
            raise ValueError("one temperature per copy required")
        self.stats.samples += 1
        for copy, temp in enumerate(temps):
            if not self.off[copy] and temp >= self.trigger_k:
                self.off[copy] = True
                self.stats.turnoff_events += 1
                self.stats.per_copy[copy] += 1
                self._turn_off(copy)
                if self.tracer is not None:
                    self.tracer.turnoff(copy, temp)
            elif self.off[copy] and temp <= self.trigger_k - self.hysteresis_k:
                self.off[copy] = False
                self.stats.turnon_events += 1
                self._turn_on(copy)
                if self.tracer is not None:
                    self.tracer.turnon(copy, temp)
        all_off = all(self.off)
        if all_off:
            self.stats.all_off_events += 1
        return all_off

    def snapshot_state(self) -> dict:
        """The controller's mutable state; the gating side effects of
        ``off`` (busy flags, disabled copies) live in the processor
        snapshot and are restored there."""
        return {"off": list(self.off), "stats": self.stats}

    def restore_state(self, state: dict) -> None:
        self.off = list(state["off"])
        self.stats = state["stats"]

    def force_all_on(self) -> None:
        """Re-enable everything (e.g. after a global cooling stall)."""
        for copy in range(self.n_copies):
            if self.off[copy]:
                self.off[copy] = False
                self._turn_on(copy)
                if self.tracer is not None:
                    self.tracer.turnon(copy)
