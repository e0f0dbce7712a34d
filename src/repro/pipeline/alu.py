"""Functional units (integer ALUs, FP adders, FP multiplier).

The paper's processor has 6 integer ALUs (arithmetic + load/store +
branch) and 4 FP adders; each is an individually modelled thermal block
so that the static select priority produces the per-copy temperature
ladder the paper reports (Table 5).  An ALU is a short occupancy
pipeline: ALU ops, FP adds, and FP multiplies are fully pipelined
(initiation interval 1, as in the EV6); the integer multiplier
occupies its unit for its latency (non-pipelined).

``busy`` is the fine-grain-turnoff hook: a busy unit refuses issue but
keeps draining in-flight work.  Only the DTM flips it, at sampling
boundaries.

:meth:`FunctionalUnit.start` and :meth:`FunctionalUnit.drain` are the
reference loop's execute and writeback; the macro-step kernel inlines
both on the same ``_pipeline`` records and derives each unit's op
count from its select tree's grants.

Op counts live in a shared per-bank :class:`~repro.pipeline.soa.
UnitBank` (struct-of-arrays, one slot per unit) so the macro-step
kernel can charge a whole sensing interval with one vector add;
:class:`ALUCounters` is the per-unit view preserving the
``unit.counters.ops`` read API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

import numpy as np

from .isa import DEFAULT_LATENCY, MicroOp, OpClass
from .soa import UnitBank

#: Sentinel finish cycle meaning "nothing in flight".
_NEVER = 2 ** 62

#: Op classes the integer ALUs execute.
INT_OPCLASSES: Set[OpClass] = {
    OpClass.INT_ALU, OpClass.INT_MUL, OpClass.LOAD, OpClass.STORE,
    OpClass.BRANCH, OpClass.NOP,
}

#: Op classes the FP adders execute.
FP_ADD_OPCLASSES: Set[OpClass] = {OpClass.FP_ADD}

#: Op classes the (single) FP multiplier executes.
FP_MUL_OPCLASSES: Set[OpClass] = {OpClass.FP_MUL}


class ALUCounters:
    """Cumulative per-unit activity: a view over one slot of the
    bank's SoA ops array (reads and writes go straight to it)."""

    __slots__ = ("_bank", "_slot")

    def __init__(self, bank: UnitBank, slot: int) -> None:
        self._bank = bank
        self._slot = slot

    @property
    def ops(self) -> int:
        return int(self._bank.ops[self._slot])

    @ops.setter
    def ops(self, value: int) -> None:
        self._bank.ops[self._slot] = value

    def values(self) -> Dict[str, int]:
        """Plain-int snapshot (checkpoint payload)."""
        return {"ops": self.ops}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ALUCounters(ops={self.ops})"


@dataclass(slots=True)
class _InFlight:
    op: MicroOp
    rob_index: int
    finish_cycle: int


class FunctionalUnit:
    """One execution unit; also one thermal block."""

    def __init__(self, index: int, opclasses: Set[OpClass],
                 name: str, bank: Optional[UnitBank] = None,
                 slot: Optional[int] = None) -> None:
        self.index = index
        self.opclasses = opclasses
        self.name = name
        self.busy = False  # fine-grain turnoff flag
        # Standalone units (unit tests) get a private one-slot bank;
        # the factory functions below build shared per-bank arrays.
        if bank is None:
            bank = UnitBank(1)
            slot = 0
        self._bank = bank
        self._slot = index if slot is None else slot
        self.counters = ALUCounters(self._bank, self._slot)
        self._pipeline: List[_InFlight] = []
        self._blocked_until = -1
        # Earliest finish cycle in flight; lets writeback skip the
        # unit without scanning the pipeline.  Derived state: always
        # recomputed from ``_pipeline``, never serialized.
        self._next_finish = _NEVER

    def can_execute(self, opclass: OpClass) -> bool:
        return opclass in self.opclasses

    def can_accept(self, now: int) -> bool:
        """Structurally free this cycle (ignores the turnoff flag —
        the select network already filters on ``busy``)."""
        return now >= self._blocked_until

    def start(self, op: MicroOp, rob_index: int, now: int,
              extra_latency: int = 0) -> int:
        """Begin executing ``op``; returns its finish cycle.

        ``extra_latency`` adds cache latency to loads.  Single-cycle
        ops are pipelined; multi-cycle ops occupy the unit.
        """
        opclass = op.opclass
        if opclass not in self.opclasses:
            raise ValueError(f"{self.name} cannot execute {opclass}")
        if now < self._blocked_until:
            raise RuntimeError(f"{self.name} is occupied")
        base = DEFAULT_LATENCY[opclass]
        if opclass is OpClass.INT_MUL:
            self._blocked_until = now + base
        finish = now + base + extra_latency
        self._pipeline.append(_InFlight(op, rob_index, finish))
        if finish < self._next_finish:
            self._next_finish = finish
        self._bank.ops[self._slot] += 1
        return finish

    def drain(self, now: int) -> List[_InFlight]:
        """Pop ops finishing at ``now`` (writeback stage)."""
        if now < self._next_finish:
            return []
        done = [w for w in self._pipeline if w.finish_cycle <= now]
        if done:
            self._pipeline = [w for w in self._pipeline
                              if w.finish_cycle > now]
            self._next_finish = min(
                (w.finish_cycle for w in self._pipeline), default=_NEVER)
        return done

    def in_flight(self) -> int:
        return len(self._pipeline)

    def set_busy(self, value: bool) -> None:
        """Fine-grain turnoff: mark the unit busy so select skips it."""
        self.busy = value

    # ------------------------------------------------------------------
    # warm-state checkpointing (repro.sim.checkpoint)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        return {"busy": self.busy, "counters": self.counters.values(),
                "pipeline": self._pipeline,
                "blocked_until": self._blocked_until}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.busy = state["busy"]
        self._bank.ops[self._slot] = state["counters"]["ops"]
        self._pipeline = list(state["pipeline"])
        self._blocked_until = state["blocked_until"]
        self._next_finish = min(
            (w.finish_cycle for w in self._pipeline), default=_NEVER)


def make_int_alus(count: int,
                  storage: Optional[np.ndarray] = None
                  ) -> List[FunctionalUnit]:
    """Build the statically prioritized integer ALU bank.

    Index 0 is the highest select priority (the unit that heats first
    under the conventional policy).  ``storage`` is the bank's
    :class:`~repro.pipeline.soa.UnitBank` counter block."""
    bank = UnitBank(count, storage)
    return [FunctionalUnit(i, INT_OPCLASSES, f"IntExec{i}", bank=bank)
            for i in range(count)]


def make_fp_adders(count: int,
                   storage: Optional[np.ndarray] = None
                   ) -> List[FunctionalUnit]:
    bank = UnitBank(count, storage)
    return [FunctionalUnit(i, FP_ADD_OPCLASSES, f"FPAdd{i}", bank=bank)
            for i in range(count)]


def make_fp_multiplier(storage: Optional[np.ndarray] = None
                       ) -> FunctionalUnit:
    return FunctionalUnit(0, FP_MUL_OPCLASSES, "FPMul",
                          bank=UnitBank(1, storage))
