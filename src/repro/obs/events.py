"""Typed trace events emitted by the pipeline and DTM controllers.

Every event is a small frozen dataclass stamped with the ``cycle`` it
was *detected* at (the processor's cycle counter, which for DTM-driven
events is always a sensing-interval boundary).  Events carry the block
names of the floorplan (``IntExec3``, ``IntReg1``, ``IntQ0``, ...) so a
timeline can be joined against temperatures and the paper's figures.

The taxonomy mirrors the paper's §2 mechanisms:

* :class:`ToggleEvent` — an issue queue flipped its head/tail
  configuration (activity toggling, §2.1);
* :class:`UnitTurnoff` / :class:`UnitTurnon` — fine-grain turnoff of
  one resource copy (an ALU, FP adder, or register-file copy, §2.2–2.3);
* :class:`CoreStall` / :class:`CoreResume` — the temporal fallback (a
  whole-core cooling stall or duty-cycle throttle);
* :class:`ThermalCeilingCross` — a block's sensed temperature crossed
  the 358 K ceiling (the trigger condition all techniques react to);
* :class:`CheckpointRestore` — the run resumed from a warm-state
  checkpoint rather than a fresh warm-up.

``to_dict`` / :func:`event_from_dict` give a stable JSON shape for the
JSONL export; the ``kind`` discriminator is the registry key in
:data:`EVENT_TYPES`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

__all__ = [
    "TraceEvent", "ToggleEvent", "UnitTurnoff", "UnitTurnon",
    "CoreStall", "CoreResume", "ThermalCeilingCross", "CheckpointRestore",
    "EVENT_TYPES", "event_from_dict",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base event: something observable happened at ``cycle``."""

    kind: ClassVar[str] = "event"

    cycle: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped payload with the ``kind`` discriminator."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for key, value in asdict(self).items():
            payload[key] = list(value) if isinstance(value, tuple) else value
        return payload


@dataclass(frozen=True)
class ToggleEvent(TraceEvent):
    """An issue queue flipped its head/tail configuration."""

    kind: ClassVar[str] = "toggle"

    #: ``"IntQ"`` or ``"FPQ"`` (the queue, spanning both halves).
    queue: str = ""
    #: Resulting configuration: ``"normal"`` or ``"toggled"``.
    mode: str = ""
    #: (lower half, upper half) sensed temperatures at the decision.
    half_temps_k: Tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class UnitTurnoff(TraceEvent):
    """Fine-grain turnoff of one resource copy at the ceiling."""

    kind: ClassVar[str] = "unit_turnoff"

    #: Floorplan block of the copy (``IntExec5``, ``IntReg0``, ...).
    block: str = ""
    #: Copy index within its resource (0-based).
    copy: int = 0
    #: Sensed temperature that triggered the turnoff.
    temperature_k: float = 0.0


@dataclass(frozen=True)
class UnitTurnon(TraceEvent):
    """A cooled (or force-reset) copy re-entered service."""

    kind: ClassVar[str] = "unit_turnon"

    block: str = ""
    copy: int = 0
    #: Sensed temperature at re-enable; None when the controller was
    #: force-reset without a sensor reading (``force_all_on``).
    temperature_k: Optional[float] = None


@dataclass(frozen=True)
class CoreStall(TraceEvent):
    """The temporal fallback engaged: a whole-core stall or throttle."""

    kind: ClassVar[str] = "core_stall"

    #: DTM reason string (``issue_queue``, ``alu``, ``all_alus_off``,
    #: ``regfile``, ``all_rf_copies_off``, ``other:<block>``).
    reason: str = ""
    #: First cycle the core runs (stall) or stops gating (throttle)
    #: again; known at stall time because stalls never shorten.
    until_cycle: int = 0
    #: ``"stall"`` (full halt) or ``"throttle"`` (50% duty cycle).
    temporal: str = "stall"


@dataclass(frozen=True)
class CoreResume(TraceEvent):
    """The core left its cooling stall/throttle (stamped with the
    actual resume cycle, emitted at the first sample after it)."""

    kind: ClassVar[str] = "core_resume"

    reason: str = ""
    temporal: str = "stall"


@dataclass(frozen=True)
class ThermalCeilingCross(TraceEvent):
    """A block's sensed temperature reached the thermal ceiling."""

    kind: ClassVar[str] = "ceiling_cross"

    block: str = ""
    temperature_k: float = 0.0
    ceiling_k: float = 0.0


@dataclass(frozen=True)
class CheckpointRestore(TraceEvent):
    """The run resumed from a warm-state checkpoint."""

    kind: ClassVar[str] = "checkpoint_restore"

    benchmark: str = ""
    #: Micro-op index the replayable trace was repositioned to.
    trace_position: int = 0


#: ``kind`` discriminator -> event class, for deserialization.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (ToggleEvent, UnitTurnoff, UnitTurnon, CoreStall,
                CoreResume, ThermalCeilingCross, CheckpointRestore)
}


def event_from_dict(payload: Dict[str, Any]) -> TraceEvent:
    """Rebuild an event from its :meth:`TraceEvent.to_dict` payload."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind or "")
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if "half_temps_k" in data and isinstance(data["half_temps_k"], list):
        data["half_temps_k"] = tuple(data["half_temps_k"])
    return cls(**data)
