"""Simulation runner: one benchmark x one technique x one floorplan.

Wires every substrate together — synthetic (or program) trace, the
out-of-order core, the power accountant, the RC thermal model, the
sensor bank, and the DTM controller — and runs for a fixed number of
cycles, returning a :class:`~repro.sim.results.SimulationResult`.

The run starts from the thermal steady state of a nominal utilization
(the analogue of the paper's fast-forward + warm-up) so that heating
dynamics, not cold-start transients, dominate the measurement.
"""

from __future__ import annotations

import gc
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from ..analysis.sanitize import Sanitizer, sanitize_enabled
from ..core.dtm import ThermalManager
from ..core.mapping import make_mapping
from ..core.policies import TechniqueConfig
from ..obs.collector import TraceCollector, trace_enabled
from ..obs.events import CheckpointRestore
from ..obs.metrics import MetricsRegistry
from ..obs.sparkline import downsample
from ..pipeline.config import ProcessorConfig, ThermalConfig
from ..pipeline.isa import MicroOp
from ..pipeline.processor import Processor, ProcessorStats
from ..power.accounting import PowerAccountant
from ..power.energy import EnergyModel
from ..thermal.floorplan import Floorplan, FloorplanVariant, ev6_floorplan
from ..thermal.rc_model import ThermalModel
from ..thermal.sensors import SensorBank
from ..workloads.trace import ReplayTrace, replay_trace
from .checkpoint import CHECKPOINT_VERSION, CheckpointError
from .results import SimulationResult

#: Default run length (cycles): long enough for several heating /
#: cooling episodes under the default thermal acceleration.
DEFAULT_MAX_CYCLES = 120_000

#: At most this many points per stored thermal timeline (window means;
#: see :func:`repro.obs.sparkline.downsample`).
TIMELINE_POINTS = 64

#: Number of blocks whose timelines a result keeps (the hottest ones).
TIMELINE_BLOCKS = 6


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection around a simulation loop.

    The simulator's object graph is cycle-free (micro-ops, queue
    entries, and in-flight records only reference forward), so nothing
    in a run *needs* the collector — but the materialized trace keeps
    tens of thousands of micro-ops alive, and the periodic generational
    scans over them are pure overhead in the cycle loop.  Reference
    counting still frees all per-cycle garbage immediately.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs."""

    benchmark: str
    variant: FloorplanVariant = FloorplanVariant.BASE
    techniques: TechniqueConfig = field(default_factory=TechniqueConfig)
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    energy: EnergyModel = field(default_factory=EnergyModel)
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: Cycles executed before measurement to estimate this workload's
    #: average power; the thermal state is initialized to the steady
    #: state of that power (the analogue of HotSpot's two-pass
    #: steady-state initialization after SimPoint fast-forward).
    warmup_cycles: int = 12_000
    seed: int = 1
    technique_label: str = ""
    #: Install the runtime sanitizer's invariant hooks (energy
    #: conservation, temperature bounds, queue/register-file coherence)
    #: for this run.  ``REPRO_SANITIZE=1`` in the environment enables
    #: it regardless of this flag.
    sanitize: bool = False
    #: Collect cycle-stamped DTM events (toggles, unit turnoffs, stalls,
    #: ceiling crossings) into a :class:`~repro.obs.collector.
    #: TraceCollector`.  Off by default: with tracing off no collector
    #: exists and every emission site is a single ``is not None`` check,
    #: so results stay bit-identical and the hot path unchanged.
    #: ``REPRO_TRACE=1`` in the environment enables it regardless of
    #: this flag.  Excluded from the warm-checkpoint key (tracing does
    #: not affect the warmed state); included in the result-cache key.
    trace_events: bool = False

    def label(self) -> str:
        return self.technique_label or (
            f"iq={self.techniques.issue_queue.value}/"
            f"alu={self.techniques.alus.value}/"
            f"rf={self.techniques.regfile.label()}")


class Simulator:
    """Assembles and drives one full-system simulation."""

    def __init__(self, config: SimulationConfig,
                 trace: Optional[Iterator[MicroOp]] = None,
                 warm_caches: bool = True) -> None:
        self.config = config
        self.floorplan = ev6_floorplan(config.variant)
        self.thermal = ThermalModel(
            self.floorplan,
            ambient_k=config.thermal.ambient_k,
            acceleration=config.thermal.acceleration)
        mapping = make_mapping(config.techniques.regfile.mapping,
                               config.processor.num_int_alus,
                               config.processor.num_regfile_copies)
        self.accountant = PowerAccountant(self.floorplan, config.energy,
                                          mapping=mapping)
        self.processor = Processor(
            trace if trace is not None
            else replay_trace(config.benchmark, config.seed),
            config=config.processor,
            mapping=mapping,
            round_robin_alus=config.techniques.round_robin_alus)
        source = trace if trace is not None else self.processor.fetch.trace
        footprint = getattr(source, "warm_footprint", None)
        # ``warm_caches=False`` is the checkpoint-restore path: the
        # restored cache state supersedes the pre-touch pass entirely.
        if footprint is not None and warm_caches:
            l1_addrs, l2_addrs = footprint()
            self.processor.memory.warm(l1_addrs, l2_addrs)
        self.sensors = SensorBank(self.thermal)
        #: Event sink, or None when tracing is off (the default).
        self.collector: Optional[TraceCollector] = (
            TraceCollector() if (config.trace_events or trace_enabled())
            else None)
        self.processor.collector = self.collector
        self.dtm = ThermalManager(self.processor, self.sensors,
                                  config.thermal, config.techniques,
                                  collector=self.collector)
        self._interval_s = (config.thermal.sensor_interval_cycles
                            * config.thermal.cycle_time_s)
        #: Wall-clock seconds per stage (``warmup_s`` or ``restore_s``,
        #: ``measure_s``, ``sample_s``), filled in as stages run; a run
        #: measured inside a batch group records only its warm-up or
        #: restore.  ``repro profile`` prints them.
        self.stage_times: Dict[str, float] = {}
        self._sample_s = 0.0
        self._warm_done = False
        self._measure_started = False
        self._warm_base: Any = None
        self._warm_end: Any = None
        self.sanitizer: Optional[Sanitizer] = None
        if config.sanitize or sanitize_enabled():
            self.sanitizer = Sanitizer()
            self.sanitizer.attach(self)

    def run(self) -> SimulationResult:
        """Execute the configured run and collect results."""
        self.prepare()
        self._measure_started = True
        self._sample_s = 0.0
        start = perf_counter()
        with _gc_paused():
            self.processor.run(
                self.config.max_cycles,
                on_sample=self._on_sample,
                sample_interval=self.config.thermal.sensor_interval_cycles)
        elapsed = perf_counter() - start
        self.stage_times["sample_s"] = self._sample_s
        self.stage_times["measure_s"] = elapsed - self._sample_s
        return self._collect()

    def prepare(self) -> None:
        """Bring the simulator to its post-warm-up state (idempotent).

        Separated from :meth:`run` so a warm checkpoint can be captured
        between warm-up and measurement (see :meth:`capture_warm_state`).
        """
        if self._warm_done:
            return
        start = perf_counter()
        self._warmup()
        self.stage_times["warmup_s"] = perf_counter() - start

    def _warmup(self) -> None:
        """Run unmeasured cycles to estimate average power, set the
        thermal network to its steady state for that power, and zero
        the performance statistics."""
        cycles = self.config.warmup_cycles
        base = self.processor.activity_snapshot()
        self._warm_base = base
        self._warm_end = base
        self.accountant.reset(base)
        if cycles > 0:
            with _gc_paused():
                self.processor.run(cycles)
            end = self.processor.activity_snapshot()
            self._warm_end = end
            seconds = cycles * self.config.thermal.cycle_time_s
            powers = self.accountant.sample(end, seconds)
            self.thermal.initialize_steady_state(powers)
        self.processor.stats = ProcessorStats()
        self._warm_done = True

    # ------------------------------------------------------------------
    # warm-state checkpointing
    # ------------------------------------------------------------------
    @property
    def supports_checkpoint(self) -> bool:
        """Checkpoints need a repositionable trace; custom iterator
        traces passed to :meth:`__init__` cannot be replayed."""
        return isinstance(self.processor.fetch.trace, ReplayTrace)

    def capture_warm_state(self) -> bytes:
        """Serialize the post-warm-up state into a checkpoint blob.

        Must be called after :meth:`prepare` and before :meth:`run`
        advances the pipeline — the snapshot holds live references into
        the processor, so the single :func:`pickle.dumps` here is what
        freezes them (and preserves shared ``MicroOp`` identity across
        the fetch buffer, issue queues, ROB, and functional units).
        """
        if not self._warm_done:
            raise CheckpointError("prepare() must complete before capture")
        if self._measure_started:
            raise CheckpointError("cannot capture after measurement began")
        trace = self.processor.fetch.trace
        if not isinstance(trace, ReplayTrace):
            raise CheckpointError("trace is not replayable")
        payload = {
            "version": CHECKPOINT_VERSION,
            "trace_position": trace.position,
            "processor": self.processor.snapshot_state(),
            "warm_base": self._warm_base,
            "warm_end": self._warm_end,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_checkpoint(cls, config: SimulationConfig,
                        blob: bytes) -> "Simulator":
        """Build a simulator already in its post-warm-up state.

        The power/thermal initialization is *replayed* from the stored
        activity snapshots through this instance's (possibly sanitizer-
        wrapped) accountant and thermal model, so a restored run is
        bit-identical to a fresh one — including sanitizer bookkeeping.
        Raises :class:`CheckpointError` on any malformed blob; callers
        fall back to a fresh warm-up.
        """
        start = perf_counter()
        sim = cls(config, warm_caches=False)
        trace = sim.processor.fetch.trace
        if not isinstance(trace, ReplayTrace):
            raise CheckpointError("trace is not replayable")
        try:
            state = pickle.loads(blob)
            if (not isinstance(state, dict)
                    or state.get("version") != CHECKPOINT_VERSION):
                raise CheckpointError("unrecognized checkpoint format")
            sim.processor.restore_state(state["processor"])
            trace.seek(state["trace_position"])
            sim._warm_base = state["warm_base"]
            sim._warm_end = state["warm_end"]
            sim.accountant.reset(sim._warm_base)
            if config.warmup_cycles > 0:
                seconds = config.warmup_cycles * config.thermal.cycle_time_s
                powers = sim.accountant.sample(sim._warm_end, seconds)
                sim.thermal.initialize_steady_state(powers)
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint: {exc!r}") from exc
        sim._warm_done = True
        if sim.collector is not None:
            sim.collector.emit(CheckpointRestore(
                cycle=sim.processor.now,
                benchmark=config.benchmark,
                trace_position=state["trace_position"]))
        sim.stage_times["restore_s"] = perf_counter() - start
        return sim

    # ------------------------------------------------------------------
    # mid-measurement live-state handoff
    # ------------------------------------------------------------------
    #: Format version of :meth:`capture_live_state` blobs.
    LIVE_STATE_VERSION = 1

    def capture_live_state(self) -> bytes:
        """Serialize the complete mid-measurement state of this run so
        another process can finish it.

        Extends the warm-checkpoint payload with everything that
        accumulates *during* measurement: the power accountant's
        interval baseline and energy totals, the thermal node
        temperatures, the per-block sensor histories, and the DTM
        controller state.  Must be captured at a sampling boundary, so
        no mid-interval accounting is in flight.
        """
        trace = self.processor.fetch.trace
        if not isinstance(trace, ReplayTrace):
            raise CheckpointError("trace is not replayable")
        payload = {
            "version": self.LIVE_STATE_VERSION,
            "trace_position": trace.position,
            "processor": self.processor.snapshot_state(),
            "warm_base": self._warm_base,
            "warm_end": self._warm_end,
            "accountant": self.accountant.snapshot_state(),
            "thermal": self.thermal.snapshot_state(),
            "sensors": self.sensors.snapshot_state(),
            "dtm": self.dtm.snapshot_state(),
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def resume_live(cls, config: SimulationConfig,
                    blob: bytes) -> "Simulator":
        """Rebuild a mid-measurement simulator from
        :meth:`capture_live_state`.  Raises :class:`CheckpointError`
        on any malformed blob."""
        start = perf_counter()
        sim = cls(config, warm_caches=False)
        trace = sim.processor.fetch.trace
        if not isinstance(trace, ReplayTrace):
            raise CheckpointError("trace is not replayable")
        try:
            state = pickle.loads(blob)
            if (not isinstance(state, dict)
                    or state.get("version") != cls.LIVE_STATE_VERSION):
                raise CheckpointError("unrecognized live-state format")
            sim.processor.restore_state(state["processor"])
            trace.seek(state["trace_position"])
            sim._warm_base = state["warm_base"]
            sim._warm_end = state["warm_end"]
            sim.accountant.restore_state(state["accountant"])
            sim.thermal.restore_state(state["thermal"])
            sim.sensors.restore_state(state["sensors"])
            sim.dtm.restore_state(state["dtm"])
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"corrupt live state: {exc!r}") from exc
        sim._warm_done = True
        sim._measure_started = True
        sim.stage_times["restore_s"] = perf_counter() - start
        return sim

    def run_remaining(self, remaining: int) -> SimulationResult:
        """Finish a live-resumed run: execute the remaining measured
        cycles and collect.  The run sits at a sampling boundary, so
        the absolute-boundary schedule continues exactly where the
        originating process left off."""
        self._sample_s = 0.0
        start = perf_counter()
        with _gc_paused():
            self.processor.run(
                remaining,
                on_sample=self._on_sample,
                sample_interval=self.config.thermal.sensor_interval_cycles)
        elapsed = perf_counter() - start
        self.stage_times["sample_s"] = self._sample_s
        self.stage_times["measure_s"] = elapsed - self._sample_s
        return self._collect()

    def _on_sample(self, processor: Processor) -> None:
        start = perf_counter()
        # Vector fast path: the accountant's power vector is aligned
        # with floorplan.names, which is exactly the thermal model's
        # die-node order — no per-sample dict is built.
        powers = self.accountant.sample_powers(
            processor.activity_snapshot(), self._interval_s)
        self.thermal.step_vector(powers, self._interval_s)
        self.dtm.on_sample(processor)
        self._sample_s += perf_counter() - start

    def _metrics(self, max_temps: Dict[str, float]) -> MetricsRegistry:
        """Per-run metrics, computed once at collection time.

        Collection-time totals read counters the pipeline already
        maintains, so the measured loop pays nothing for them — they
        are populated whether or not event tracing is on.
        """
        registry = MetricsRegistry()
        processor = self.processor
        alu_ops = registry.vector("alu.ops")
        for index, unit in enumerate(processor.int_alus):
            alu_ops.add(index, unit.counters.ops)
        fp_ops = registry.vector("fp_add.ops")
        for index, unit in enumerate(processor.fp_adders):
            fp_ops.add(index, unit.counters.ops)
        rf_reads = registry.vector("regfile.reads")
        rf_writes = registry.vector("regfile.writes")
        rf = processor.regfile.counters
        for copy, (reads, writes) in enumerate(zip(rf.reads, rf.writes)):
            rf_reads.add(copy, reads)
            rf_writes.add(copy, writes)
        for prefix, queue in (("iq.int", processor.int_iq),
                              ("iq.fp", processor.fp_iq)):
            counters = queue.counters
            moves = registry.vector(f"{prefix}.compaction_moves")
            longs = registry.vector(f"{prefix}.long_moves")
            for half in (0, 1):
                moves.add(half, counters.compaction_moves[half])
                longs.add(half, counters.long_moves[half])
        stats = self.processor.stats
        registry.counter("core.stall_cycles").inc(stats.stall_cycles)
        registry.counter("core.throttled_cycles").inc(
            stats.throttled_cycles)
        for reason, count in self.dtm.stats.stall_reasons.items():
            registry.counter(f"dtm.stalls.{reason}").inc(count)
        if max_temps:
            registry.gauge("temp.peak_k").set(max(max_temps.values()))
            hottest = max(max_temps, key=lambda b: (max_temps[b], b))
            ceiling = self.config.thermal.max_temperature_k
            histogram = registry.histogram(
                "temp.hottest_block_k",
                bounds=[ceiling - 9.0, ceiling - 6.0, ceiling - 3.0,
                        ceiling - 1.0, ceiling])
            for reading in self.sensors.history(hottest):
                histogram.observe(float(reading))
        if self.collector is not None:
            for kind, count in sorted(self.collector.counts.items()):
                registry.counter(f"trace.events.{kind}").inc(count)
            registry.counter("trace.dropped").inc(self.collector.dropped)
        return registry

    def _timelines(self, max_temps: Dict[str, float]
                   ) -> Dict[str, List[float]]:
        """Downsampled thermal trajectories of the hottest blocks."""
        hottest = sorted(max_temps,
                         key=lambda b: (-max_temps[b], b))[:TIMELINE_BLOCKS]
        return {name: downsample([float(v) for v in
                                  self.sensors.history(name)],
                                 TIMELINE_POINTS)
                for name in sorted(hottest)}

    def _collect(self) -> SimulationResult:
        stats = self.processor.stats
        dtm = self.dtm.stats
        mean_temps = {name: self.sensors.mean(name)
                      for name in self.floorplan.names}
        max_temps = {name: self.sensors.maximum(name)
                     for name in self.floorplan.names}
        samples = max((s.samples for s in self.sensors.stats.values()),
                      default=0)
        stride = -(-samples // TIMELINE_POINTS) if samples else 0
        return SimulationResult(
            benchmark=self.config.benchmark,
            technique_label=self.config.label(),
            cycles=stats.cycles,
            committed=stats.committed,
            stall_cycles=stats.stall_cycles,
            global_stalls=dtm.global_stalls,
            stall_reasons=dict(dtm.stall_reasons),
            iq_toggles=((self.dtm.int_toggler.stats.toggles
                         if self.dtm.int_toggler else 0)
                        + (self.dtm.fp_toggler.stats.toggles
                           if self.dtm.fp_toggler else 0)),
            alu_turnoffs=dtm.alu_turnoffs + dtm.fp_adder_turnoffs,
            rf_turnoffs=dtm.rf_turnoffs,
            mean_temps=mean_temps,
            max_temps=max_temps,
            metrics=self._metrics(max_temps).to_dict(),
            timelines=self._timelines(max_temps),
            timeline_interval_cycles=(
                stride * self.config.thermal.sensor_interval_cycles),
        )


def run_simulation(config: SimulationConfig,
                   trace: Optional[Iterator[MicroOp]] = None
                   ) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(config, trace=trace).run()
