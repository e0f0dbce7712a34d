"""Tests for the typed trace-event taxonomy."""

import pytest

from repro.obs.events import (EVENT_TYPES, CheckpointRestore, CoreResume,
                              CoreStall, ThermalCeilingCross, ToggleEvent,
                              UnitTurnoff, UnitTurnon, event_from_dict)

ALL_EVENTS = [
    ToggleEvent(cycle=250, queue="IntQ", mode="toggled",
                half_temps_k=(356.5, 357.25)),
    UnitTurnoff(cycle=500, block="IntExec5", copy=5, temperature_k=358.2),
    UnitTurnon(cycle=750, block="IntExec5", copy=5, temperature_k=355.9),
    UnitTurnon(cycle=750, block="IntExec5", copy=5, temperature_k=None),
    CoreStall(cycle=1000, reason="issue_queue", until_cycle=43_000,
              temporal="stall"),
    CoreResume(cycle=43_000, reason="issue_queue", temporal="stall"),
    ThermalCeilingCross(cycle=1250, block="IntReg0",
                        temperature_k=358.4, ceiling_k=358.0),
    CheckpointRestore(cycle=12_000, benchmark="gzip", trace_position=9000),
]


class TestEventShape:
    @pytest.mark.parametrize("event", ALL_EVENTS,
                             ids=lambda e: type(e).__name__)
    def test_round_trip(self, event):
        payload = event.to_dict()
        assert payload["kind"] == event.kind
        assert event_from_dict(payload) == event

    def test_to_dict_is_json_shaped(self):
        payload = ALL_EVENTS[0].to_dict()
        assert payload["half_temps_k"] == [356.5, 357.25]
        import json
        json.dumps(payload)

    def test_registry_covers_all_kinds(self):
        kinds = {type(e).kind for e in ALL_EVENTS}
        assert kinds == set(EVENT_TYPES)
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "meltdown", "cycle": 1})
        with pytest.raises(ValueError):
            event_from_dict({"cycle": 1})

    def test_events_are_frozen(self):
        with pytest.raises(AttributeError):
            ALL_EVENTS[0].cycle = 99
