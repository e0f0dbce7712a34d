"""Runtime sanitizer: cheap cross-substrate invariants for full runs.

The simulator's substrates (core, power accountant, RC thermal model,
DTM controller) exchange plain floats and dicts; a bookkeeping bug in
any of them produces *plausible* numbers, not crashes.  The sanitizer
wraps the seams between substrates with invariant checks that hold for
every correct run:

* **energy conservation** — per sample, the per-block energies the
  accountant hands the thermal model sum to the accountant's own
  running energy total (±ε): no block's heat is dropped or counted
  twice between activity counters and the power vector;
* **temperature sanity** — no block below ambient or above 450 K (the
  RC network only heats, and silicon past ~450 K means the model, not
  the chip, has failed);
* **queue coherence** — issue-queue and active-list occupancy within
  capacity, and no micro-op present twice across the int/FP queues or
  the active list;
* **register-file coherence** — the port mapping stays a cover (and,
  for partitioned mappings, a partition) of the ALUs, and every ALU
  wired to a turned-off copy is marked busy;
* **no issue to turned-off units** — a functional unit never receives
  work while its fine-grain turnoff flag is raised.  Busy flags change
  only at sampling boundaries (the macro-step contract, which lint
  rule REP102 enforces), so the check is per interval: a unit that
  was busy after one boundary must show no new ``counters.ops`` at
  the next.  It reads counters both execution paths keep, so a
  sanitized run executes the same issue code as a plain one.

Enable with ``REPRO_SANITIZE=1`` in the environment or
``SimulationConfig(sanitize=True)``; a violation raises
:class:`SanitizerError` immediately, naming the invariant.  Overhead
is one pass over the back-end structures per *sensing interval* (every
250 cycles by default), not per cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Set, Tuple

from ..core.mapping import MappingKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..pipeline.processor import Processor
    from ..sim.runner import Simulator

#: Hard physical ceiling for any modelled temperature.  The DTM
#: ceiling (358 K) is a policy; this is "the model has diverged".
TEMP_CEILING_K = 450.0


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")


class SanitizerError(AssertionError):
    """An invariant of the simulation was violated."""

    def __init__(self, invariant: str, message: str) -> None:
        self.invariant = invariant
        self.message = message
        super().__init__(f"[{invariant}] {message}")

    def __reduce__(self) -> Tuple[Any, Tuple[str, str]]:
        # Unpickling calls the class with ``args`` (the one formatted
        # string), which ``__init__`` cannot take; a violation raised in
        # a pool worker must survive the trip back to the engine.
        return type(self), (self.invariant, self.message)


@dataclass
class SanitizerStats:
    """How much checking a sanitized run actually performed."""

    samples: int = 0
    energy_checks: int = 0
    temperature_checks: int = 0
    queue_checks: int = 0
    regfile_checks: int = 0
    issue_checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def total_checks(self) -> int:
        return (self.energy_checks + self.temperature_checks
                + self.queue_checks + self.regfile_checks
                + self.issue_checks)


class Sanitizer:
    """Installs invariant hooks into one :class:`Simulator`'s parts.

    The hooks are plain attribute shadows over the bound methods of the
    *instances* being watched, so an un-sanitized run pays nothing and
    the production classes carry no checking code.
    """

    def __init__(self, energy_rel_tol: float = 1e-9,
                 energy_abs_tol_j: float = 1e-15,
                 temp_ceiling_k: float = TEMP_CEILING_K) -> None:
        self.energy_rel_tol = energy_rel_tol
        self.energy_abs_tol_j = energy_abs_tol_j
        self.temp_ceiling_k = temp_ceiling_k
        self.stats = SanitizerStats()
        self._last_total_j = 0.0
        self._last_block_sum_j = 0.0
        #: ``(busy, ops)`` per functional unit at the last boundary.
        self._unit_record: List[Tuple[bool, int]] = []

    # ------------------------------------------------------------------
    def attach(self, simulator: "Simulator") -> None:
        """Hook the accountant, thermal model and DTM of
        ``simulator``, and record its units' busy flags and op counts
        (the baseline of the first interval's issue check)."""
        self._watch_accountant(simulator.accountant)
        self._watch_thermal(simulator.thermal)
        self._watch_dtm(simulator.dtm, simulator.processor)
        self._record_units(simulator.processor)

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str) -> None:
        self.stats.violations.append(f"{invariant}: {message}")
        raise SanitizerError(invariant, message)

    def _watch_accountant(self, accountant: Any) -> None:
        original_sample = accountant.sample
        original_sample_powers = accountant.sample_powers

        def sample(snapshot: Any, interval_s: float) -> Dict[str, float]:
            powers = original_sample(snapshot, interval_s)
            self._check_energy(accountant)
            return powers

        def sample_powers(snapshot: Any, interval_s: float) -> Any:
            powers = original_sample_powers(snapshot, interval_s)
            self._check_energy(accountant)
            return powers

        accountant.sample = sample
        accountant.sample_powers = sample_powers

    def _check_energy(self, accountant: Any) -> None:
        self.stats.energy_checks += 1
        total_j = accountant.total_energy_j
        block_sum_j = sum(accountant.block_energy_j.values())
        delta_total = total_j - self._last_total_j
        delta_blocks = block_sum_j - self._last_block_sum_j
        self._last_total_j = total_j
        self._last_block_sum_j = block_sum_j
        tolerance = (self.energy_abs_tol_j
                     + self.energy_rel_tol * max(abs(delta_total),
                                                 abs(delta_blocks)))
        if abs(delta_total - delta_blocks) > tolerance:
            self._fail(
                "energy_conservation",
                f"sample {self.stats.energy_checks}: per-block energies "
                f"sum to {delta_blocks:.6e} J but the accountant total "
                f"moved {delta_total:.6e} J "
                f"(diff {delta_total - delta_blocks:.3e} J)")

    def _watch_thermal(self, thermal: Any) -> None:
        original_step = thermal.step
        original_init = thermal.initialize_steady_state

        original_step_vector = thermal.step_vector

        def step(powers: Mapping[str, float], dt: float) -> None:
            original_step(powers, dt)
            self._check_temperatures(thermal, "after step")

        def step_vector(die_powers: Any, dt: float) -> None:
            original_step_vector(die_powers, dt)
            self._check_temperatures(thermal, "after step")

        def initialize_steady_state(powers: Mapping[str, float]) -> None:
            original_init(powers)
            self._check_temperatures(thermal, "after steady-state init")

        thermal.step = step
        thermal.step_vector = step_vector
        thermal.initialize_steady_state = initialize_steady_state

    def _check_temperatures(self, thermal: Any, where: str) -> None:
        self.stats.temperature_checks += 1
        floor_k = thermal.ambient_k - 1e-6
        for name, temp_k in thermal.temperatures().items():
            if temp_k < floor_k:
                self._fail(
                    "temperature_bounds",
                    f"{name} at {temp_k:.3f} K is below ambient "
                    f"{thermal.ambient_k:.3f} K {where}")
            if temp_k > self.temp_ceiling_k:
                self._fail(
                    "temperature_bounds",
                    f"{name} at {temp_k:.3f} K exceeds the "
                    f"{self.temp_ceiling_k:.0f} K physical ceiling "
                    f"{where}")

    def _watch_dtm(self, dtm: Any, processor: "Processor") -> None:
        original_on_sample = dtm.on_sample

        def on_sample(proc: "Processor") -> None:
            self._check_issue(processor)
            original_on_sample(proc)
            self.stats.samples += 1
            self._check_queues(processor)
            self._check_regfile(processor)
            self._record_units(processor)

        dtm.on_sample = on_sample

    def _check_queues(self, processor: "Processor") -> None:
        self.stats.queue_checks += 1
        seen: Dict[int, str] = {}
        for label, queue in (("int_iq", processor.int_iq),
                             ("fp_iq", processor.fp_iq)):
            occupancy = len(queue)
            if not 0 <= occupancy <= queue.n_entries:
                self._fail(
                    "queue_occupancy",
                    f"{label} occupancy {occupancy} outside "
                    f"[0, {queue.n_entries}]")
            for entry in queue.slots:
                if entry is None:
                    continue
                seq = entry.op.seq
                if seq in seen:
                    self._fail(
                        "queue_duplicates",
                        f"uop seq {seq} present in both {seen[seq]} "
                        f"and {label}")
                seen[seq] = label
        rob = processor.rob
        occupancy = len(rob)
        if not 0 <= occupancy <= rob.capacity:
            self._fail("queue_occupancy",
                       f"active list occupancy {occupancy} outside "
                       f"[0, {rob.capacity}]")
        rob_seqs: Set[int] = set()
        live_entries = 0
        for entry in rob._entries:
            if entry is None:
                continue
            live_entries += 1
            seq = entry.op.seq
            if seq in rob_seqs:
                self._fail("queue_duplicates",
                           f"uop seq {seq} allocated twice in the "
                           f"active list")
            rob_seqs.add(seq)
        if live_entries != occupancy:
            self._fail("queue_occupancy",
                       f"active list count {occupancy} disagrees with "
                       f"{live_entries} live entries")
        lsq = processor.lsq
        if not 0 <= len(lsq) <= lsq.capacity:
            self._fail("queue_occupancy",
                       f"LSQ occupancy {len(lsq)} outside "
                       f"[0, {lsq.capacity}]")

    def _check_regfile(self, processor: "Processor") -> None:
        self.stats.regfile_checks += 1
        mapping = processor.mapping
        all_alus = set(range(mapping.n_alus))
        covered: Set[int] = set()
        total_memberships = 0
        for copy in range(mapping.n_copies):
            members = mapping.alus_on_copy(copy)
            covered.update(members)
            total_memberships += len(members)
        if covered != all_alus:
            self._fail("regfile_mapping",
                       f"port mapping covers ALUs {sorted(covered)}, "
                       f"not all of {sorted(all_alus)}")
        if (mapping.kind is not MappingKind.COMPLETELY_BALANCED
                and total_memberships != len(all_alus)):
            self._fail("regfile_mapping",
                       f"{mapping.kind.value} mapping is not a "
                       f"partition: {total_memberships} memberships "
                       f"for {len(all_alus)} ALUs")
        regfile = processor.regfile
        off_copies = [c for c in range(regfile.n_copies)
                      if regfile.is_off(c)]
        for alu in sorted(regfile.blocked_alus()):
            if not processor.int_alus[alu].busy:
                self._fail(
                    "regfile_turnoff",
                    f"ALU {alu} reads turned-off register-file "
                    f"copy(ies) {off_copies} but is not marked "
                    f"busy — the DTM could issue to it")

    def _record_units(self, processor: "Processor") -> None:
        """Each unit's ``(busy, ops)`` after a boundary's DTM: the
        flags hold until the next boundary."""
        self._unit_record = [(unit.busy, unit.counters.ops)
                             for unit in processor._all_units]

    def _check_issue(self, processor: "Processor") -> None:
        """Before the DTM runs: a unit busy since the previous
        boundary received no op in the interval."""
        units = processor._all_units
        self.stats.issue_checks += len(units)
        for unit, (busy, ops) in zip(units, self._unit_record):
            if busy and unit.counters.ops != ops:
                self._fail(
                    "issue_to_off_unit",
                    f"{unit.name} received {unit.counters.ops - ops} "
                    f"uop(s) while its fine-grain turnoff flag was "
                    f"raised")
