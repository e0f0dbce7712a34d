"""Every slot of a processor's counter row has a reader.

A count the pipeline bumps but nothing consults costs work on every
event it counts and bytes in every checkpoint.  This test adds a large
amount to one slot of ``Processor.counter_row`` just before the first
sampling boundary of a warm mesa run with every technique on, runs
that boundary, and requires something downstream of the counters to
notice: the power accountant's energy totals, the thermal state, an
activity toggler's observation state, or the result's metrics payload.
A slot that is only ever written fails here.
"""

import pytest

from repro.core.policies import ALL_TECHNIQUES
from repro.sim.runner import SimulationConfig, Simulator
from repro.thermal.floorplan import FloorplanVariant

CONFIG = SimulationConfig(
    benchmark="mesa", variant=FloorplanVariant.ISSUE_QUEUE,
    techniques=ALL_TECHNIQUES, max_cycles=1_000, warmup_cycles=2_000)

#: Added to the perturbed slot: far above any one interval's count.
PERTURBATION = 10 ** 7


@pytest.fixture(scope="module")
def warm_blob():
    sim = Simulator(CONFIG)
    sim.prepare()
    return sim.capture_warm_state()


def observed(sim):
    """What the first boundary derived from the counters."""
    togglers = [(list(t._occ_history), list(t._last_activity),
                 t._last_longs)
                for t in (sim.dtm.int_toggler, sim.dtm.fp_toggler)]
    return (sim.accountant.total_energy_j,
            dict(sim.accountant.block_energy_j),
            sim.thermal.temps.tolist(), togglers,
            sim._collect().metrics)


def first_boundary(blob, slot=None):
    """Restore ``blob``, run to the first sampling boundary and run
    it, with ``slot`` of the counter row perturbed just before."""
    sim = Simulator.from_checkpoint(CONFIG, blob)
    proc = sim.processor
    interval = CONFIG.thermal.sensor_interval_cycles

    def on_sample(processor):
        if slot is not None:
            processor.counter_row[slot] += PERTURBATION
        sim._on_sample(processor)

    proc.run(interval - proc.now % interval, on_sample=on_sample,
             sample_interval=interval)
    return observed(sim), proc.counter_row.size


def test_every_counter_slot_has_a_reader(monkeypatch, warm_blob):
    # A perturbed slot heats its block far past the sanitizer's 450 K
    # bound, on purpose: the restored runs must not be sanitized.
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    baseline, size = first_boundary(warm_blob)
    assert first_boundary(warm_blob)[0] == baseline
    unread = [slot for slot in range(size)
              if first_boundary(warm_blob, slot)[0] == baseline]
    assert unread == []
