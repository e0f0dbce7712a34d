"""End-to-end tracing invariants on full simulation runs.

The acceptance bar for the obs layer, exercised on real Figure-6/7
style configurations:

* tracing off (the default) leaves the result bit-identical and the
  collector absent;
* tracing on emits the documented event kinds with cycle stamps that
  land on sensor-sample boundaries and agree with the recorded sensor
  histories (ground truth for detection cycles);
* checkpoint restores compose with tracing.
"""

import pytest

from repro.core.policies import (ALUPolicy, IssueQueuePolicy,
                                 TechniqueConfig)
from repro.obs.events import (CheckpointRestore, CoreResume, CoreStall,
                              ThermalCeilingCross, ToggleEvent,
                              UnitTurnoff, UnitTurnon)
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant


def _config(**overrides):
    params = dict(benchmark="perlbmk", variant=FloorplanVariant.ALU,
                  techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN),
                  max_cycles=20_000, warmup_cycles=4_000, seed=3)
    params.update(overrides)
    return SimulationConfig(**params)


def _strip_trace(payload):
    payload = dict(payload)
    payload["metrics"] = {k: v for k, v in payload["metrics"].items()
                          if not k.startswith("trace.")}
    return payload


class TestTracingOffIsFree:
    def test_no_collector_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        simulator = Simulator(_config(max_cycles=2_000))
        assert simulator.collector is None
        assert simulator.processor.collector is None
        assert simulator.dtm.collector is None

    def test_results_bit_identical_with_and_without_tracing(self):
        base = Simulator(_config()).run()
        traced = Simulator(_config(trace_events=True)).run()
        assert _strip_trace(traced.to_dict()) == _strip_trace(
            base.to_dict())

    def test_env_var_enables_tracing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        simulator = Simulator(_config(max_cycles=2_000))
        assert simulator.collector is not None


class TestTracedFigure7Run:
    """One ALU-constrained fine-grain run, traced end to end."""

    @pytest.fixture(scope="class")
    def traced(self):
        simulator = Simulator(_config(trace_events=True))
        result = simulator.run()
        return simulator, result

    def test_emits_at_least_three_event_kinds(self, traced):
        simulator, _ = traced
        kinds = {event.kind for event in simulator.collector.events()}
        assert {"ceiling_cross", "unit_turnoff", "unit_turnon"} <= kinds

    def test_event_cycles_land_on_sample_boundaries(self, traced):
        simulator, _ = traced
        interval = simulator.config.thermal.sensor_interval_cycles
        for event in simulator.collector.events():
            assert event.cycle % interval == 0

    def test_events_are_chronological(self, traced):
        simulator, _ = traced
        cycles = [event.cycle for event in simulator.collector.events()]
        assert cycles == sorted(cycles)

    def test_ceiling_cross_matches_sensor_history(self, traced):
        """Ground truth: the first crossing event for a block is
        stamped with exactly the sample cycle whose recorded reading
        first reached the ceiling."""
        simulator, _ = traced
        config = simulator.config
        interval = config.thermal.sensor_interval_cycles
        ceiling = config.thermal.max_temperature_k
        crossings = simulator.collector.events_of(ThermalCeilingCross)
        assert crossings
        seen = set()
        for event in crossings:
            assert event.temperature_k >= event.ceiling_k == ceiling
            if event.block in seen:
                continue
            seen.add(event.block)
            history = simulator.sensors.history(event.block)
            index = (event.cycle - config.warmup_cycles) // interval - 1
            assert history[index] == pytest.approx(event.temperature_k)
            assert (history[:index] < ceiling).all()

    def test_turnoff_events_carry_hot_blocks_and_match_stats(self, traced):
        simulator, result = traced
        offs = simulator.collector.events_of(UnitTurnoff)
        ons = simulator.collector.events_of(UnitTurnon)
        trigger = simulator.config.thermal.max_temperature_k
        assert len(offs) == result.alu_turnoffs
        for event in offs:
            assert event.block.startswith(("IntExec", "FPAdd"))
            assert event.temperature_k >= trigger
        for event in ons:
            if event.temperature_k is not None:
                hysteresis = simulator.config.thermal.turnoff_hysteresis_k
                assert event.temperature_k <= trigger - hysteresis

    def test_metrics_count_traced_events(self, traced):
        simulator, result = traced
        for kind, count in simulator.collector.counts.items():
            entry = result.metrics[f"trace.events.{kind}"]
            assert entry["value"] == count
        assert result.metrics["trace.dropped"]["value"] == 0


class TestStallEvents:
    @pytest.fixture(scope="class")
    def stalled(self):
        simulator = Simulator(_config(
            techniques=TechniqueConfig(alus=ALUPolicy.BASE),
            trace_events=True))
        result = simulator.run()
        return simulator, result

    def test_stall_events_match_dtm_stats(self, stalled):
        simulator, result = stalled
        stalls = simulator.collector.events_of(CoreStall)
        assert len(stalls) == result.global_stalls > 0
        cooling = simulator.config.thermal.cooling_cycles
        for event in stalls:
            assert event.reason in result.stall_reasons
            assert event.temporal == "stall"
            assert event.until_cycle == event.cycle + cooling

    def test_resume_stamped_with_true_resume_cycle(self, stalled):
        simulator, _ = stalled
        stalls = simulator.collector.events_of(CoreStall)
        resumes = simulator.collector.events_of(CoreResume)
        until = {event.until_cycle for event in stalls}
        assert resumes
        for event in resumes:
            assert event.cycle in until


class TestToggleEvents:
    def test_toggle_events_match_result_count(self):
        simulator = Simulator(_config(
            variant=FloorplanVariant.ISSUE_QUEUE,
            techniques=TechniqueConfig(
                issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING),
            trace_events=True))
        result = simulator.run()
        toggles = simulator.collector.events_of(ToggleEvent)
        assert len(toggles) == result.iq_toggles
        for event in toggles:
            assert event.queue in ("IntQ", "FPQ")
            assert event.mode in ("normal", "toggled")
            assert len(event.half_temps_k) == 2


class TestCheckpointRestoreEvent:
    def test_restored_run_emits_event_and_same_result(self):
        config = _config(trace_events=True, max_cycles=6_000)
        leader = Simulator(config)
        leader.prepare()
        blob = leader.capture_warm_state()
        fresh = leader.run()
        restored_sim = Simulator.from_checkpoint(config, blob)
        events = restored_sim.collector.events_of(CheckpointRestore)
        assert len(events) == 1
        assert events[0].benchmark == config.benchmark
        assert events[0].cycle == config.warmup_cycles
        restored = restored_sim.run()
        assert _strip_trace(restored.to_dict()) == _strip_trace(
            fresh.to_dict())

