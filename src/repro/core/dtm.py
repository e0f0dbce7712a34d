"""Dynamic thermal management orchestration.

:class:`ThermalManager` is the controller that runs at every sensing
interval: it reads the temperature sensors, drives the configured
spatial techniques (activity toggling, fine-grain turnoff, register-
file copy turnoff), and falls back to the *temporal* technique — a
global cooling stall of ``cooling_time`` (10 ms in the paper, the
Pentium 4 approach) — whenever a resource overheats beyond what the
spatial techniques can absorb:

* an issue-queue half at the ceiling (halves cannot be turned off —
  broadcast must reach all entries for correctness),
* every copy of a fine-grain-managed resource off at once,
* any copy of a base-policy resource at the ceiling, or
* any other die block at the ceiling (failsafe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..obs.collector import QueueTracer, TraceCollector, UnitTracer
from ..obs.events import CoreResume, ThermalCeilingCross
from ..pipeline.config import ThermalConfig
from ..pipeline.processor import Processor
from ..thermal.floorplan import (FP_ADD_BLOCKS, FP_QUEUE_BLOCKS,
                                 INT_ALU_BLOCKS, INT_QUEUE_BLOCKS,
                                 INT_REG_BLOCKS)
from ..thermal.sensors import SensorBank
from .activity_toggle import ActivityToggler
from .fine_grain import FineGrainController
from .policies import ALUPolicy, IssueQueuePolicy, TechniqueConfig


@dataclass
class DTMStats:
    """Controller-level behaviour over a run."""

    samples: int = 0
    global_stalls: int = 0
    stall_reasons: Dict[str, int] = field(default_factory=dict)

    def record_stall(self, reason: str) -> None:
        self.global_stalls += 1
        self.stall_reasons[reason] = self.stall_reasons.get(reason, 0) + 1


class ThermalManager:
    """Per-sample DTM controller for one processor + thermal model."""

    def __init__(self, processor: Processor, sensors: SensorBank,
                 thermal_config: ThermalConfig,
                 techniques: TechniqueConfig,
                 collector: Optional[TraceCollector] = None) -> None:
        self.processor = processor
        self.sensors = sensors
        self.config = thermal_config
        self.techniques = techniques
        self.stats = DTMStats()
        #: Event sink (None = tracing off; every emission site below
        #: degrades to a single ``is not None`` check).
        self.collector = collector
        #: Blocks currently sensed at/above the ceiling, for
        #: crossing-edge detection (membership checks only — never
        #: iterated, so no hash-order dependence).
        self._above_ceiling: Set[str] = set()
        #: Reason/kind of the stall or throttle whose resume event is
        #: still owed (None when the core runs free).
        self._pending_resume: Optional[Tuple[str, str, int]] = None

        tmax = thermal_config.max_temperature_k
        hyst = thermal_config.turnoff_hysteresis_k
        clock = self._clock

        self.int_toggler: Optional[ActivityToggler] = None
        self.fp_toggler: Optional[ActivityToggler] = None
        if techniques.issue_queue is IssueQueuePolicy.ACTIVITY_TOGGLING:
            self.int_toggler = ActivityToggler(
                processor.int_iq, thermal_config.toggle_threshold_k,
                ceiling_k=tmax,
                tracer=(QueueTracer(collector, "IntQ", clock)
                        if collector is not None else None))
            self.fp_toggler = ActivityToggler(
                processor.fp_iq, thermal_config.toggle_threshold_k,
                ceiling_k=tmax,
                tracer=(QueueTracer(collector, "FPQ", clock)
                        if collector is not None else None))

        self.alu_controller: Optional[FineGrainController] = None
        self.fp_adder_controller: Optional[FineGrainController] = None
        if techniques.alus in (ALUPolicy.FINE_GRAIN, ALUPolicy.ROUND_ROBIN):
            self.alu_controller = FineGrainController(
                len(INT_ALU_BLOCKS), tmax, hyst,
                turn_off=lambda i: processor.set_alu_busy(i, True),
                turn_on=lambda i: processor.set_alu_busy(i, False),
                tracer=(UnitTracer(collector, INT_ALU_BLOCKS, clock)
                        if collector is not None else None))
            self.fp_adder_controller = FineGrainController(
                len(FP_ADD_BLOCKS), tmax, hyst,
                turn_off=lambda i: processor.set_fp_adder_busy(i, True),
                turn_on=lambda i: processor.set_fp_adder_busy(i, False),
                tracer=(UnitTracer(collector, FP_ADD_BLOCKS, clock)
                        if collector is not None else None))

        self.rf_controller: Optional[FineGrainController] = None
        if (techniques.regfile.fine_grain_turnoff
                and processor.mapping.supports_turnoff):
            self.rf_controller = FineGrainController(
                processor.regfile.n_copies,
                tmax - thermal_config.rf_turnoff_margin_k, hyst,
                turn_off=processor.turn_off_regfile_copy,
                turn_on=processor.turn_on_regfile_copy,
                tracer=(UnitTracer(collector, INT_REG_BLOCKS, clock)
                        if collector is not None else None))

        self._handled = set(INT_QUEUE_BLOCKS) | set(FP_QUEUE_BLOCKS)
        self._handled |= set(INT_ALU_BLOCKS) | set(FP_ADD_BLOCKS)
        self._handled |= set(INT_REG_BLOCKS)

    def _clock(self) -> int:
        """Cycle stamp for emitted events (the processor's counter)."""
        return self.processor.now

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Every mutable field of the controller and its
        sub-controllers, as plain picklable data (the controllers
        themselves hold processor-bound callbacks and cannot be
        pickled).  Used for mid-run handoff of a run to another
        process; the receiving manager is built from the same config,
        so the structural fields already match."""
        state: dict = {
            "stats": self.stats,
            "above_ceiling": set(self._above_ceiling),
            "pending_resume": self._pending_resume,
        }
        for name in ("int_toggler", "fp_toggler", "alu_controller",
                     "fp_adder_controller", "rf_controller"):
            controller = getattr(self, name)
            state[name] = (controller.snapshot_state()
                           if controller is not None else None)
        return state

    def restore_state(self, state: dict) -> None:
        self.stats = state["stats"]
        self._above_ceiling = set(state["above_ceiling"])
        self._pending_resume = state["pending_resume"]
        for name in ("int_toggler", "fp_toggler", "alu_controller",
                     "fp_adder_controller", "rf_controller"):
            controller = getattr(self, name)
            sub = state[name]
            if (controller is None) != (sub is None):
                raise ValueError(
                    f"controller mismatch restoring {name}")
            if controller is not None:
                controller.restore_state(sub)

    # ------------------------------------------------------------------
    def on_sample(self, processor: Processor) -> None:
        """Run one DTM decision round (called every sensing interval)."""
        if processor is not self.processor:
            raise ValueError("manager is bound to a different processor")
        self.stats.samples += 1
        tmax = self.config.max_temperature_k
        temps = self.sensors.read_all()
        already_stalled = processor.is_stalled
        if self.collector is not None:
            self._trace_sample(temps, tmax, already_stalled)

        # --- issue queues -------------------------------------------------
        int_halves = (temps["IntQ0"], temps["IntQ1"])
        fp_halves = (temps["FPQ0"], temps["FPQ1"])
        if self.int_toggler is not None and not already_stalled:
            self.int_toggler.observe(int_halves)
            self.fp_toggler.observe(fp_halves)
        if max(int_halves) >= tmax or max(fp_halves) >= tmax:
            self._stall(processor, "issue_queue", already_stalled)

        # --- ALUs ---------------------------------------------------------
        int_alu_temps = [temps[b] for b in INT_ALU_BLOCKS]
        fp_add_temps = [temps[b] for b in FP_ADD_BLOCKS]
        if self.alu_controller is not None:
            all_int_off = self.alu_controller.observe(int_alu_temps)
            all_fp_off = self.fp_adder_controller.observe(fp_add_temps)
            if all_int_off or all_fp_off:
                self._stall(processor, "all_alus_off", already_stalled)
        else:
            if max(int_alu_temps) >= tmax or max(fp_add_temps) >= tmax:
                self._stall(processor, "alu", already_stalled)

        # --- register file copies ------------------------------------------
        rf_temps = [temps[b] for b in INT_REG_BLOCKS]
        if self.rf_controller is not None:
            if self.rf_controller.observe(rf_temps):
                self._stall(processor, "all_rf_copies_off", already_stalled)
        else:
            if max(rf_temps) >= tmax:
                self._stall(processor, "regfile", already_stalled)

        # --- failsafe for everything else ----------------------------------
        for name, temp in temps.items():
            if name not in self._handled and temp >= tmax:
                self._stall(processor, f"other:{name}", already_stalled)
                break

    def _trace_sample(self, temps: Dict[str, float], tmax: float,
                      already_stalled: bool) -> None:
        """Emit sample-edge events: owed resumes and ceiling crossings.

        Resume events are detected *lazily* — the stall's end cycle is
        known when the stall starts, but emitting the resume eagerly
        would put a future-stamped event ahead of any ceiling
        crossings that happen during the stall, breaking the buffer's
        chronological order.  Instead the first sample after the core
        runs free emits the event stamped with the true resume cycle.
        """
        collector = self.collector
        pending = self._pending_resume
        if pending is not None:
            reason, temporal, until = pending
            if self.processor.now >= until:
                collector.emit(CoreResume(cycle=until, reason=reason,
                                          temporal=temporal))
                self._pending_resume = None
        now = self.processor.now
        for name, temp in temps.items():
            if temp >= tmax:
                if name not in self._above_ceiling:
                    self._above_ceiling.add(name)
                    collector.emit(ThermalCeilingCross(
                        cycle=now, block=name, temperature_k=float(temp),
                        ceiling_k=tmax))
            else:
                self._above_ceiling.discard(name)

    def _stall(self, processor: Processor, reason: str,
               already_stalled: bool) -> None:
        if already_stalled or processor.is_stalled:
            return
        if self.config.temporal_technique == "throttle":
            if processor.is_throttled:
                return
            # Half duty cycle halves the dynamic power, so cooling to
            # the same temperature takes about twice as long.
            processor.throttle(2 * self.config.cooling_cycles, reason)
            if self.collector is not None:
                self._pending_resume = (reason, "throttle",
                                        processor.throttled_until)
        else:
            processor.global_stall(self.config.cooling_cycles, reason)
            if self.collector is not None:
                self._pending_resume = (reason, "stall",
                                        processor.stalled_until)
        self.stats.record_stall(reason)
