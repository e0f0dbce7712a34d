"""Tests for the per-run metrics payload (``SimulationResult.metrics``):
every entry equals the simulator's own counters, and the hottest-block
histogram buckets its readings at the documented edges."""

import json

import numpy as np
import pytest

from repro.core.mapping import MappingKind
from repro.core.policies import ALUPolicy, RegFilePolicy, TechniqueConfig
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant


def _config(**overrides):
    params = dict(benchmark="perlbmk", max_cycles=20_000,
                  warmup_cycles=4_000, seed=3)
    params.update(overrides)
    return SimulationConfig(**params)


RUNS = {
    # A base ALU run hot enough for global stalls, with events traced.
    "traced": _config(variant=FloorplanVariant.ALU,
                      techniques=TechniqueConfig(alus=ALUPolicy.BASE),
                      trace_events=True),
    # Register-file copies turn off under the sanitizer's checks.
    "sanitized": _config(variant=FloorplanVariant.REGFILE,
                         techniques=TechniqueConfig(regfile=RegFilePolicy(
                             MappingKind.BALANCED, True)),
                         sanitize=True),
}


def vector(values):
    return {"kind": "vector", "values": list(values)}


def counter(value):
    return {"kind": "counter", "value": value}


class TestPayloadMatchesCounters:
    @pytest.fixture(scope="class", params=sorted(RUNS))
    def run(self, request):
        simulator = Simulator(RUNS[request.param])
        return request.param, simulator, simulator.run()

    def test_units_and_queue_halves(self, run):
        _, simulator, result = run
        processor = simulator.processor
        metrics = result.metrics
        assert metrics["alu.ops"] == vector(
            unit.counters.ops for unit in processor.int_alus)
        assert metrics["fp_add.ops"] == vector(
            unit.counters.ops for unit in processor.fp_adders)
        assert len(metrics["alu.ops"]["values"]) == len(processor.int_alus)
        assert sum(metrics["alu.ops"]["values"]) > 0
        rf = processor.regfile.counters
        assert metrics["regfile.reads"] == vector(rf.reads)
        assert metrics["regfile.writes"] == vector(rf.writes)
        assert len(rf.reads) == processor.regfile.n_copies
        for prefix, queue in (("iq.int", processor.int_iq),
                              ("iq.fp", processor.fp_iq)):
            counters = queue.counters
            assert metrics[f"{prefix}.compaction_moves"] == vector(
                [counters.compaction_moves[0],
                 counters.compaction_moves[1]])
            assert metrics[f"{prefix}.long_moves"] == vector(
                [counters.long_moves[0], counters.long_moves[1]])

    def test_stalls(self, run):
        _, simulator, result = run
        metrics = result.metrics
        stats = simulator.processor.stats
        assert result.global_stalls > 0
        assert metrics["core.stall_cycles"] == counter(stats.stall_cycles)
        assert stats.stall_cycles == result.stall_cycles > 0
        assert metrics["core.throttled_cycles"] == counter(
            stats.throttled_cycles)
        stalls = {name[len("dtm.stalls."):]: entry
                  for name, entry in metrics.items()
                  if name.startswith("dtm.stalls.")}
        assert stalls == {reason: counter(count) for reason, count
                          in simulator.dtm.stats.stall_reasons.items()}
        assert sum(entry["value"] for entry in stalls.values()) == (
            result.global_stalls)

    def test_peak_and_hottest_block(self, run):
        _, simulator, result = run
        metrics = result.metrics
        assert metrics["temp.peak_k"] == {
            "kind": "gauge", "value": max(result.max_temps.values())}
        histogram = metrics["temp.hottest_block_k"]
        hottest = max(result.max_temps,
                      key=lambda b: (result.max_temps[b], b))
        readings = simulator.sensors.history(hottest)
        assert histogram["count"] == len(readings) == sum(
            histogram["counts"])
        assert histogram["total"] == pytest.approx(float(readings.sum()))

    def test_trace_entries_match_collector(self, run):
        name, simulator, result = run
        traced = {key: entry for key, entry in result.metrics.items()
                  if key.startswith("trace.")}
        if name != "traced":
            assert simulator.collector is None
            assert traced == {}
            return
        collector = simulator.collector
        assert traced == {
            **{f"trace.events.{kind}": counter(count)
               for kind, count in collector.counts.items()},
            "trace.dropped": counter(collector.dropped)}
        assert collector.counts["core_stall"] == result.global_stalls

    def test_entry_order_and_json_round_trip(self, run):
        _, _, result = run
        metrics = result.metrics
        names = list(metrics)
        fixed = ["alu.ops", "fp_add.ops", "regfile.reads",
                 "regfile.writes", "iq.int.compaction_moves",
                 "iq.int.long_moves", "iq.fp.compaction_moves",
                 "iq.fp.long_moves", "core.stall_cycles",
                 "core.throttled_cycles"]
        assert names[:len(fixed)] == fixed
        rest = names[len(fixed):]
        stalls = [n for n in rest if n.startswith("dtm.stalls.")]
        assert rest[:len(stalls)] == stalls
        assert rest[len(stalls):len(stalls) + 2] == [
            "temp.peak_k", "temp.hottest_block_k"]
        events = rest[len(stalls) + 2:]
        if events:
            assert events[-1] == "trace.dropped"
            assert events[:-1] == sorted(events[:-1])
        assert json.loads(json.dumps(metrics)) == metrics


class TestHottestBlockHistogram:
    """``temp.hottest_block_k`` over a stubbed sensor history: inclusive
    upper bounds 9, 6, 3, 1 and 0 K below the ceiling, then an
    overflow bucket."""

    def test_readings_bucket_at_their_edges(self, monkeypatch):
        simulator = Simulator(SimulationConfig(
            benchmark="gzip", max_cycles=2_000, warmup_cycles=1_000))
        ceiling = simulator.config.thermal.max_temperature_k
        readings = [300.0, ceiling - 9.0, ceiling - 8.5, ceiling - 6.0,
                    ceiling - 3.0, ceiling - 1.0, ceiling, ceiling + 0.25]
        histories = {"IntExec0": readings, "FPAdd": [340.0]}
        monkeypatch.setattr(simulator.sensors, "history",
                            lambda block: np.array(histories[block]))
        metrics = simulator._metrics({"IntExec0": ceiling + 0.25,
                                      "FPAdd": 340.0})
        assert metrics["temp.peak_k"]["value"] == ceiling + 0.25
        histogram = metrics["temp.hottest_block_k"]
        assert histogram["kind"] == "histogram"
        assert histogram["bounds"] == [ceiling - 9.0, ceiling - 6.0,
                                       ceiling - 3.0, ceiling - 1.0,
                                       ceiling]
        assert histogram["counts"] == [2, 2, 1, 1, 1, 1]
        assert histogram["count"] == len(readings)
        assert histogram["total"] == pytest.approx(sum(readings))

    def test_no_blocks_no_temperature_entries(self):
        simulator = Simulator(SimulationConfig(
            benchmark="gzip", max_cycles=2_000, warmup_cycles=1_000))
        metrics = simulator._metrics({})
        assert "temp.peak_k" not in metrics
        assert "temp.hottest_block_k" not in metrics
