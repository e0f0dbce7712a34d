"""Tests for the ring-buffer collector and tracer adapters."""

import json

import pytest

from repro.obs.collector import (QueueTracer, TraceCollector, UnitTracer,
                                 trace_enabled)
from repro.obs.events import (ToggleEvent, UnitTurnoff, UnitTurnon,
                              event_from_dict)


def _toggle(cycle):
    return ToggleEvent(cycle=cycle, queue="IntQ", mode="toggled",
                       half_temps_k=(356.0, 357.0))


class TestTraceCollector:
    def test_emit_and_order(self):
        collector = TraceCollector(capacity=8)
        for cycle in (250, 500, 750):
            collector.emit(_toggle(cycle))
        assert len(collector) == 3
        assert [e.cycle for e in collector.events()] == [250, 500, 750]
        assert collector.total_emitted == 3
        assert collector.dropped == 0

    def test_ring_wrap_drops_oldest(self):
        collector = TraceCollector(capacity=4)
        for cycle in range(0, 1500, 250):  # 6 events into 4 slots
            collector.emit(_toggle(cycle))
        assert len(collector) == 4
        assert collector.dropped == 2
        assert [e.cycle for e in collector.events()] == [500, 750, 1000,
                                                         1250]
        # per-kind totals survive the wrap
        assert collector.counts == {"toggle": 6}
        assert collector.total_emitted == 6

    def test_events_of_filters_by_kind_or_class(self):
        collector = TraceCollector()
        collector.emit(_toggle(250))
        collector.emit(UnitTurnoff(cycle=500, block="IntExec0", copy=0,
                                   temperature_k=358.2))
        assert [e.cycle for e in collector.events_of("toggle")] == [250]
        assert [e.cycle for e in collector.events_of(UnitTurnoff)] == [500]

    def test_export_jsonl_round_trips(self, tmp_path):
        collector = TraceCollector()
        collector.emit(_toggle(250))
        collector.emit(UnitTurnon(cycle=500, block="IntExec1", copy=1))
        path = tmp_path / "events.jsonl"
        assert collector.export_jsonl(path) == 2
        lines = path.read_text().splitlines()
        restored = [event_from_dict(json.loads(line)) for line in lines]
        assert restored == collector.events()

    def test_summary_and_clear(self):
        collector = TraceCollector(capacity=1)
        assert collector.summary() == "no events"
        collector.emit(_toggle(0))
        collector.emit(_toggle(250))
        assert "toggle ×2" in collector.summary()
        assert "dropped" in collector.summary()
        collector.clear()
        assert len(collector) == 0
        assert collector.counts == {}
        assert collector.summary() == "no events"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)


class TestTraceEnabled:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert trace_enabled() is expected

    def test_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_enabled() is False


class TestTracerAdapters:
    def test_queue_tracer_stamps_clock_and_queue(self):
        collector = TraceCollector()
        clock = {"now": 1250}
        tracer = QueueTracer(collector, "FPQ", lambda: clock["now"])
        tracer.toggled("toggled", (356.0, 357.5))
        clock["now"] = 1500
        tracer.toggled("normal", (356.5, 356.0))
        first, second = collector.events()
        assert first == ToggleEvent(cycle=1250, queue="FPQ",
                                    mode="toggled",
                                    half_temps_k=(356.0, 357.5))
        assert second.cycle == 1500 and second.mode == "normal"

    def test_unit_tracer_maps_copy_to_block(self):
        collector = TraceCollector()
        tracer = UnitTracer(collector, ("IntReg0", "IntReg1"),
                            lambda: 4000)
        tracer.turnoff(1, 358.5)
        tracer.turnon(0)
        off, on = collector.events()
        assert off == UnitTurnoff(cycle=4000, block="IntReg1", copy=1,
                                  temperature_k=358.5)
        assert on == UnitTurnon(cycle=4000, block="IntReg0", copy=0,
                                temperature_k=None)
