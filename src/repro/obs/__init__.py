"""Observability subsystem: event tracing, metrics, and reports.

Two layers, both off the simulator's hot path by default:

* :mod:`repro.obs.events` — the typed event taxonomy (toggles, unit
  turnoffs, core stalls, ceiling crossings, checkpoint restores),
  each stamped with the cycle it was detected at;
* :mod:`repro.obs.collector` — :class:`TraceCollector`, a preallocated
  ring buffer the pipeline/core components emit events into, with
  in-memory and JSONL export.  Tracing is **opt-in**
  (``SimulationConfig(trace_events=True)`` or ``REPRO_TRACE=1``); when
  off, every emission site is a single ``is not None`` check and runs
  are bit-identical to an untraced build.

Metrics need no layer of their own: every run builds
:attr:`~repro.sim.results.SimulationResult.metrics` at collection time
as a plain dict of ``{"kind": ...}`` entries (vectors, counters, a
gauge and a histogram; the field's comment lists them), and readers
parse that dict directly.

Report generation (:mod:`repro.obs.report`, the ``repro report`` CLI)
is imported explicitly — not re-exported here — because it pulls in
the experiment grids and would create an import cycle with
:mod:`repro.sim.parallel`, which imports the tracing layer.
"""

from .collector import (QueueTracer, TraceCollector, UnitTracer,
                        trace_enabled)
from .events import (EVENT_TYPES, CheckpointRestore, CoreResume, CoreStall,
                     ThermalCeilingCross, ToggleEvent, TraceEvent,
                     UnitTurnoff, UnitTurnon, event_from_dict)
from .sparkline import downsample, sparkline

__all__ = [
    "TraceCollector", "QueueTracer", "UnitTracer", "trace_enabled",
    "TraceEvent", "ToggleEvent", "UnitTurnoff", "UnitTurnon",
    "CoreStall", "CoreResume", "ThermalCeilingCross", "CheckpointRestore",
    "EVENT_TYPES", "event_from_dict",
    "sparkline", "downsample",
]
