"""Struct-of-arrays (SoA) counter storage for the pipeline hot path.

The measurement loop used to bump per-object Python ``int`` attributes
(``unit.counters.ops += 1``) scattered across every functional unit,
issue queue, and register-file copy.  This module centralizes that
state into preallocated ``numpy`` arrays indexed by unit id, which buys
two things:

* the macro-stepped kernel (:mod:`repro.pipeline.kernel`) can apply a
  whole sensing interval's activity delta in a handful of vectorized
  array operations per macro-step instead of per-cycle attribute bumps;
* boundary consumers (power accountant, metrics, activity toggler)
  read the same counters through cheap views, so the public
  ``unit.counters.ops`` API — and every existing test — is unchanged.

Counters are ``int64``: the largest per-run count (queue entry-cycles)
stays far below 2**63 for any feasible run length.

Layout
------
* :class:`UnitBank` — one array triple (ops, busy_cycles,
  turnoff_events) per functional-unit bank (integer ALUs, FP adders,
  FP multiplier); a unit owns slot ``i`` of its bank's arrays.
* Issue-queue counters — one 15-element array per queue; the ``IQC_*``
  constants below name the slots.  Per-half counters occupy two
  adjacent slots (index 0 = lower physical half).
* Register-file counters — one reads array per bank, indexed by ALU
  read port (two per integer ALU), and one writes array, indexed by
  copy.  Reads are folded into copies through the port mapping only
  where they become energy or metrics, so these arrays hold the same
  values under every mapping.
* :class:`RunAxisStore` — the batched-grid extension: one
  ``[n_runs, n_counters]`` matrix holding every counter of every run
  in a batch, with named column segments.  A single run's banks,
  queues, and register file adopt row views of the store, so the
  whole single-run API (and the macro-step kernel) keeps working
  unchanged while cross-run operations (broadcasting one run's
  activity delta to runs that executed identically) become one
  vectorized row operation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

#: Issue-queue counter slots (see ``IssueQueueCounters`` for meaning).
IQC_COMPACTION_MOVES_0 = 0
IQC_COMPACTION_MOVES_1 = 1
IQC_MUX_SELECTS_0 = 2
IQC_MUX_SELECTS_1 = 3
IQC_LONG_MOVES_0 = 4
IQC_LONG_MOVES_1 = 5
IQC_COUNTER_EVALS_0 = 6
IQC_COUNTER_EVALS_1 = 7
IQC_BROADCASTS = 8
IQC_PAYLOAD_OPS = 9
IQC_SELECT_GRANTS = 10
IQC_INSERTS = 11
IQC_CYCLES = 12
IQC_TOGGLES = 13
IQC_OCCUPANCY_SUM = 14
IQC_NFIELDS = 15


def new_iq_counter_array() -> np.ndarray:
    """Preallocated counter storage for one issue queue."""
    return np.zeros(IQC_NFIELDS, dtype=np.int64)


class UnitBank:
    """SoA activity counters for one bank of functional units.

    Every unit of a bank (e.g. the six integer ALUs) shares these
    arrays and owns one slot, so a macro-step can charge busy cycles to
    the whole bank with one masked vector add.
    """

    __slots__ = ("n_units", "ops", "busy_cycles", "turnoff_events")

    def __init__(self, n_units: int) -> None:
        if n_units < 1:
            raise ValueError("a unit bank needs at least one slot")
        self.n_units = n_units
        self.ops = np.zeros(n_units, dtype=np.int64)
        self.busy_cycles = np.zeros(n_units, dtype=np.int64)
        self.turnoff_events = np.zeros(n_units, dtype=np.int64)

    def adopt_storage(self, ops: np.ndarray, busy_cycles: np.ndarray,
                      turnoff_events: np.ndarray) -> None:
        """Rebind the bank's arrays to externally-owned storage
        (row segments of a :class:`RunAxisStore`), carrying the
        current values over.  Callers that alias the old arrays
        (``FunctionalUnit._ops_arr``) must re-alias afterwards."""
        for new, old in ((ops, self.ops), (busy_cycles, self.busy_cycles),
                         (turnoff_events, self.turnoff_events)):
            if new.shape != old.shape or new.dtype != old.dtype:
                raise ValueError("storage shape/dtype mismatch")
        ops[:] = self.ops
        busy_cycles[:] = self.busy_cycles
        turnoff_events[:] = self.turnoff_events
        self.ops = ops
        self.busy_cycles = busy_cycles
        self.turnoff_events = turnoff_events


class RunAxisStore:
    """One ``[n_runs, n_counters]`` int64 matrix backing every SoA
    counter of a batched run group.

    Column segments (in layout order): the three :class:`UnitBank`
    triples (integer ALUs, FP adders, FP multiplier), the two 15-slot
    issue-queue counter rows, the register-file reads (one column per
    ALU read port) and writes (one per copy).
    ``view(run, name)`` returns the writable row segment a component
    adopts; ``row(run)`` returns the whole row, which is how the
    batched kernel broadcasts one run's execution delta to every run
    still sharing its execution (``data[follower] += data[leader] -
    prev``) and how a forked run's own counters are preserved across
    a state restore.
    """

    __slots__ = ("n_runs", "n_cols", "data", "_segments")

    def __init__(self, n_runs: int, n_int_alus: int, n_fp_adders: int,
                 n_rf_copies: int) -> None:
        if n_runs < 1:
            raise ValueError("a run-axis store needs at least one run")
        segments: Dict[str, Tuple[int, int]] = {}
        col = 0
        for name, width in (
                ("int_ops", n_int_alus),
                ("int_busy_cycles", n_int_alus),
                ("int_turnoff_events", n_int_alus),
                ("fp_add_ops", n_fp_adders),
                ("fp_add_busy_cycles", n_fp_adders),
                ("fp_add_turnoff_events", n_fp_adders),
                ("fp_mul_ops", 1),
                ("fp_mul_busy_cycles", 1),
                ("fp_mul_turnoff_events", 1),
                ("int_iq", IQC_NFIELDS),
                ("fp_iq", IQC_NFIELDS),
                ("rf_port_reads", 2 * n_int_alus),
                ("rf_writes", n_rf_copies)):
            segments[name] = (col, col + width)
            col += width
        self.n_runs = n_runs
        self.n_cols = col
        self._segments = segments
        self.data = np.zeros((n_runs, col), dtype=np.int64)

    def view(self, run: int, name: str) -> np.ndarray:
        """Writable view of one named column segment of one run."""
        lo, hi = self._segments[name]
        return self.data[run, lo:hi]

    def row(self, run: int) -> np.ndarray:
        """Writable view of one run's whole counter row."""
        return self.data[run]
