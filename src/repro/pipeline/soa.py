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
* :class:`UnitBank` — one ops array per functional-unit bank (integer
  ALUs, FP adders, FP multiplier); a unit owns slot ``i`` of it.
* Issue-queue counters — one 12-element array per queue; the ``IQC_*``
  constants below name the slots.  Per-half counters occupy two
  adjacent slots (index 0 = lower physical half).
* Register-file counters — one reads array per bank, indexed by ALU
  read port (two per integer ALU), and one writes array, indexed by
  copy.  Reads are folded into copies through the port mapping only
  where they become energy or metrics, so these arrays hold the same
  values under every mapping.
* :class:`~repro.pipeline.processor.Processor` — owns one ``int64``
  ``counter_row`` holding every counter above and builds each bank,
  queue and register file on a view of it, so moving a run's whole
  activity (a batched group broadcasting one run's execution delta to
  the runs that executed identically) is one row operation.  A
  component built standalone (as in unit tests) allocates its own
  storage.

Every slot is read by the power accountant, the activity toggler or
the metrics payload; a count nothing reads is not kept
(``tests/sim/test_counter_readers.py`` perturbs each slot and requires
a reader to notice).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Issue-queue counter slots (see ``IssueQueueCounters`` for meaning).
IQC_COMPACTION_MOVES_0 = 0
IQC_COMPACTION_MOVES_1 = 1
IQC_LONG_MOVES_0 = 2
IQC_LONG_MOVES_1 = 3
IQC_COUNTER_EVALS_0 = 4
IQC_COUNTER_EVALS_1 = 5
IQC_BROADCASTS = 6
IQC_PAYLOAD_OPS = 7
IQC_SELECT_GRANTS = 8
IQC_INSERTS = 9
IQC_CYCLES = 10
IQC_OCCUPANCY_SUM = 11
IQC_NFIELDS = 12


def new_iq_counter_array() -> np.ndarray:
    """Preallocated counter storage for one issue queue."""
    return np.zeros(IQC_NFIELDS, dtype=np.int64)


class UnitBank:
    """SoA op counts for one bank of functional units.

    Every unit of a bank (e.g. the six integer ALUs) shares the ops
    array and owns one slot, so the kernel's flush charges the whole
    bank's ops with one vector add.
    """

    __slots__ = ("n_units", "ops")

    def __init__(self, n_units: int,
                 storage: Optional[np.ndarray] = None) -> None:
        """``storage`` is an ``(n_units,)`` int64 view; a bank given
        none allocates its own."""
        if n_units < 1:
            raise ValueError("a unit bank needs at least one slot")
        if storage is None:
            storage = np.zeros(n_units, dtype=np.int64)
        self.n_units = n_units
        self.ops = storage
