"""Power accounting: activity counters -> per-block watts.

The accountant diffs consecutive :class:`ActivitySnapshot` objects from
the processor (cumulative event counts), multiplies deltas by the event
energies of :class:`~repro.power.energy.EnergyModel`, adds static
leakage per block, and divides by the wall-clock length of the interval
— producing the per-block power vector the thermal model integrates.

Aggressive clock gating is implicit: structures that did nothing in an
interval contribute only their leakage, matching the paper's use of
Wattch's aggressive gating mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.mapping import PortMapping
from ..pipeline.processor import ActivitySnapshot
from ..thermal.floorplan import (FP_ADD_BLOCKS, INT_ALU_BLOCKS,
                                 INT_REG_BLOCKS, Floorplan)
from .energy import NANOJOULE, EnergyModel


def _iq_half_energies(prev, cur, energies) -> List[float]:
    """Energy (nJ) dissipated by each physical half of one issue queue
    over the interval between two counter snapshots."""
    halves = [0.0, 0.0]
    long_total = 0
    for h in (0, 1):
        # counter_evals counts entry-cycles whose clock gating was
        # defeated by an invalid entry below (paper 2.1): the entry's
        # data output lines, cross-queue mux selects, and both counter
        # stages evaluate on every such cycle - this is what makes the
        # tail region hot while the head idles.
        enabled = cur.counter_evals[h] - prev.counter_evals[h]
        long_total += cur.long_moves[h] - prev.long_moves[h]
        halves[h] += enabled * (energies.compact_entry
                                + energies.compact_mux
                                + energies.counter_stage1
                                + energies.counter_stage2)
    # Global queue activity is physically distributed across both
    # halves (paper 3.1): broadcast, payload RAM, select, gating logic.
    # Long-compaction wires span the full queue length, so their charge
    # heats both halves (the driver's local share is already counted in
    # the entry's ordinary compaction move).
    shared = long_total * energies.long_compaction
    shared += (cur.broadcasts - prev.broadcasts) * energies.tag_broadcast
    shared += (cur.payload_ops - prev.payload_ops) * energies.payload_ram
    shared += (cur.select_grants - prev.select_grants) * energies.select_access
    shared += (cur.cycles - prev.cycles) * energies.clock_gating
    halves[0] += shared / 2
    halves[1] += shared / 2
    return halves


class PowerAccountant:
    """Turns activity deltas into per-block power for the thermal model.

    ``mapping`` is the run's register-file port mapping: snapshots
    count register reads per ALU read port, and the accountant charges
    each port's reads to the copy it is wired to.
    """

    def __init__(self, floorplan: Floorplan,
                 energy_model: Optional[EnergyModel] = None, *,
                 mapping: PortMapping) -> None:
        self.floorplan = floorplan
        self.energy = energy_model or EnergyModel()
        self.mapping = mapping
        self._last: Optional[ActivitySnapshot] = None
        # Two independently-accumulated energy totals: the scalar path
        # sums every event energy plus leakage as it is computed; the
        # per-block path integrates the final power vector.  They must
        # agree (the sanitizer's energy-conservation invariant) — a
        # power key dropped on the floor or double-counted shows up as
        # a divergence between the two.
        self.total_energy_j = 0.0
        self.block_energy_j: Dict[str, float] = {}
        # Hot-path caches: leakage is constant (frozen energy model,
        # fixed floorplan), so compute the per-block vector and its
        # total once; event energies scatter into a preallocated
        # vector through indices resolved here instead of building a
        # dict per sample.
        names = list(floorplan.names)
        self._names = names
        pos = {name: i for i, name in enumerate(names)}
        leak = [self.energy.leakage_watts(n, floorplan.area(n))
                for n in names]
        self._leak_vec_w = np.array(leak)
        self._leak_total_w = sum(leak)
        self._nj = np.zeros(len(names))
        # -1 marks an accounting target absent from this floorplan:
        # its energy still lands in the run total (mirroring the old
        # dict path, which summed all of nj but only folded known
        # blocks into the power vector).
        self._alu_idx = [pos.get(n, -1) for n in INT_ALU_BLOCKS]
        self._fp_add_idx = [pos.get(n, -1) for n in FP_ADD_BLOCKS]
        self._rf_idx = [pos.get(n, -1) for n in INT_REG_BLOCKS]
        self._misc_idx = {n: pos.get(n, -1) for n in (
            "IntQ0", "IntQ1", "FPQ0", "FPQ1", "FPMul", "FPReg",
            "Icache", "Dcache", "Bpred", "IntMap", "FPMap", "LdStQ",
            "ITB", "DTB")}

    # ------------------------------------------------------------------
    def leakage_powers(self) -> Dict[str, float]:
        """Static power of every block (the floor under all activity)."""
        return {name: self.energy.leakage_watts(
                    name, self.floorplan.area(name))
                for name in self.floorplan.names}

    def reset(self, snapshot: ActivitySnapshot) -> None:
        """Set the baseline snapshot (start of the first interval).

        The energy totals restart with the baseline so they cover only
        the measured region (warm-up energy is not mixed in).
        """
        self._last = snapshot
        self.total_energy_j = 0.0
        self.block_energy_j = {}

    def snapshot_state(self) -> Dict[str, object]:
        """The accountant's mutable interval state (everything not
        derived from the constructor arguments), for mid-run handoff
        of a run to another process."""
        return {"last": self._last,
                "total_energy_j": self.total_energy_j,
                "block_energy_j": dict(self.block_energy_j)}

    def restore_state(self, state: Dict[str, object]) -> None:
        self._last = state["last"]  # type: ignore[assignment]
        self.total_energy_j = state["total_energy_j"]  # type: ignore
        self.block_energy_j = dict(state["block_energy_j"])  # type: ignore

    def sample(self, snapshot: ActivitySnapshot,
               interval_s: float) -> Dict[str, float]:
        """Per-block average power (W) over the elapsed interval.

        Dict view over :meth:`sample_powers` (the hot path); keys are
        ``floorplan.names``.
        """
        powers = self.sample_powers(snapshot, interval_s)
        return dict(zip(self._names, powers.tolist()))

    def sample_powers(self, snapshot: ActivitySnapshot,
                      interval_s: float) -> np.ndarray:
        """Per-block average power (W) as a vector aligned with
        ``floorplan.names`` — ready for
        :meth:`~repro.thermal.rc_model.ThermalModel.step_vector`.

        Numerically identical to the original dict accounting: each
        block's power is leakage plus ``event_nj * 1e-9 / interval_s``
        with the same operation order, and the energy totals accumulate
        in the same block order.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if self._last is None:
            raise RuntimeError("call reset() with a baseline snapshot first")
        prev, cur = self._last, snapshot
        self._last = snapshot
        e = self.energy
        nj = self._nj
        nj[:] = 0.0
        misc = self._misc_idx
        sum_nj = 0.0

        int_halves = _iq_half_energies(prev.int_iq, cur.int_iq, e.issue_queue)
        fp_halves = _iq_half_energies(prev.fp_iq, cur.fp_iq, e.issue_queue)
        for name, value in (("IntQ0", int_halves[0]),
                            ("IntQ1", int_halves[1]),
                            ("FPQ0", fp_halves[0]),
                            ("FPQ1", fp_halves[1])):
            sum_nj += value
            i = misc[name]
            if i >= 0:
                nj[i] = value

        for j, i in enumerate(self._alu_idx):
            value = (cur.alu_ops[j] - prev.alu_ops[j]) * e.int_alu_op
            sum_nj += value
            if i >= 0:
                nj[i] = value
        for j, i in enumerate(self._fp_add_idx):
            value = (cur.fp_add_ops[j] - prev.fp_add_ops[j]) * e.fp_add_op
            sum_nj += value
            if i >= 0:
                nj[i] = value
        value = (cur.fp_mul_ops - prev.fp_mul_ops) * e.fp_mul_op
        sum_nj += value
        if misc["FPMul"] >= 0:
            nj[misc["FPMul"]] = value

        rf_reads = self.mapping.copy_reads(
            [c - p for c, p in zip(cur.rf_port_reads, prev.rf_port_reads)])
        for j, i in enumerate(self._rf_idx):
            reads = rf_reads[j]
            writes = cur.rf_writes[j] - prev.rf_writes[j]
            value = reads * e.rf_read + writes * e.rf_write
            sum_nj += value
            if i >= 0:
                nj[i] = value

        fetched = cur.fetched - prev.fetched
        l1d = cur.l1d_accesses - prev.l1d_accesses
        for name, value in (
                ("FPReg", (cur.fp_reg_accesses - prev.fp_reg_accesses)
                 * e.fp_reg_access),
                ("Icache", fetched * e.icache_fetch),
                ("Dcache", l1d * e.dcache_access),
                ("Bpred", fetched * e.bpred_lookup),
                ("IntMap", (cur.int_iq.inserts - prev.int_iq.inserts)
                 * e.rename_op),
                ("FPMap", (cur.fp_iq.inserts - prev.fp_iq.inserts)
                 * e.rename_op),
                ("LdStQ", l1d * e.lsq_op),
                ("ITB", fetched * e.tlb_lookup),
                ("DTB", l1d * e.tlb_lookup)):
            sum_nj += value
            i = misc[name]
            if i >= 0:
                nj[i] = value

        powers = self._leak_vec_w + nj * NANOJOULE / interval_s
        self.total_energy_j += (self._leak_total_w * interval_s
                                + sum_nj * NANOJOULE)
        block_energy = self.block_energy_j
        for name, energy_j in zip(self._names,
                                  (powers * interval_s).tolist()):
            block_energy[name] = block_energy.get(name, 0.0) + energy_j
        return powers

    def sample_powers_batch(self, others: List["PowerAccountant"],
                            snapshots: List[ActivitySnapshot],
                            interval_s: float) -> np.ndarray:
        """Per-block power for a whole batch of runs at one sampling
        boundary: row ``i`` of the ``[n_runs, n_blocks]`` result is
        run ``i``'s power vector (row 0 is this accountant's).

        Each run's accounting is evaluated with exactly the scalar
        operation order of :meth:`sample_powers` — the house rule
        demands batched results stay ``asdict``-identical to per-run
        results, and reassociating the per-block sums into one matrix
        expression would perturb the last ulp (and the per-run energy
        dictionaries must accumulate per run regardless).  The batch
        dimension buys one array allocation and one call per boundary
        instead of per run; the heavy lifting stays elementwise.
        """
        accountants = [self, *others]
        if len(accountants) != len(snapshots):
            raise ValueError("one snapshot per accountant")
        return np.stack([
            accountant.sample_powers(snapshot, interval_s)
            for accountant, snapshot in zip(accountants, snapshots)])

    def typical_powers(self, utilization: float = 0.5) -> Dict[str, float]:
        """A representative power vector for steady-state warm-up.

        ``utilization`` scales a nominal all-blocks-active dynamic
        power on top of leakage; used to initialize the thermal model
        near realistic operating temperatures before a run.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        powers = self.leakage_powers()
        # Nominal dynamic density comparable to the leakage floor.
        for name in powers:
            powers[name] += (utilization * self.energy.leakage_density_w_per_m2
                             * self.floorplan.area(name))
        return powers
