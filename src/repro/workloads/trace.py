"""Materialized micro-op streams shared across runs (and replayable).

Every grid point of a paper-figure experiment re-runs the same
``(benchmark, seed)`` synthetic stream before diverging on technique
configuration, and a checkpoint-resumed run needs to continue the
stream from an arbitrary position.  Both problems are solved by
materializing the generator's output once:

* :class:`MaterializedTrace` owns one :class:`SyntheticWorkload` and a
  growing buffer of every micro-op it has produced.  Ops are generated
  exactly once, on demand, in order — so the buffer contents are
  bit-identical to the raw generator stream regardless of which
  consumer forced their creation.
* :class:`ReplayTrace` is one consumer's cursor over a materialized
  trace.  Many cursors share one buffer; :meth:`ReplayTrace.seek`
  positions a cursor mid-stream (how a checkpoint-resumed run rejoins
  the trace after skipping warm-up).

Sharing :class:`~repro.pipeline.isa.MicroOp` objects between runs is
safe because the pipeline's only mutation of an op is the front end
re-stamping ``op.mispredicted`` with the very value the generator
already stamped (see :class:`~repro.pipeline.branch.TracePredictor`).

The process-local registry (:func:`replay_trace`) keeps the most
recently used traces alive so consecutive runs of the same benchmark
share one buffer; it is bounded (LRU) because a full-length run can
buffer hundreds of thousands of ops.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from ..pipeline.isa import MicroOp
from .generator import SyntheticWorkload
from .spec2000 import workload

#: Traces kept alive by the process-local registry (LRU).  Experiment
#: grids are benchmark-major, so a small window covers the reuse.
REGISTRY_CAPACITY = 4


#: Ops generated per buffer miss.  Generating a block ahead is
#: harmless — the stream is deterministic and produced strictly in
#: order — and it keeps consumers on the buffered fast path.
GENERATE_CHUNK = 256


class MaterializedTrace:
    """One ``(benchmark, seed)`` stream, generated once, buffered."""

    def __init__(self, source: SyntheticWorkload) -> None:
        self.source = source
        self.ops: List[MicroOp] = []

    def __len__(self) -> int:
        return len(self.ops)

    def get(self, index: int) -> MicroOp:
        """The ``index``-th op of the stream, generating up to it."""
        ops = self.ops
        if index >= len(ops):
            ops.extend(self.source.generate_block(
                index - len(ops) + GENERATE_CHUNK))
        return ops[index]

    def warm_footprint(self) -> Tuple[range, range]:
        return self.source.warm_footprint()


class ReplayTrace:
    """An iterator over a :class:`MaterializedTrace` with a cursor.

    Endless, like the synthetic generator it fronts: ``__next__`` never
    raises ``StopIteration``.
    """

    def __init__(self, buffer: MaterializedTrace, position: int = 0) -> None:
        if position < 0:
            raise ValueError("position must be non-negative")
        self.buffer = buffer
        self.position = position
        # ``MaterializedTrace`` appends to one list for its whole
        # lifetime, so this alias stays valid as the buffer grows and
        # lets ``__next__`` skip a method call on the hot path.
        self._ops = buffer.ops

    def __iter__(self) -> Iterator[MicroOp]:
        return self

    def __next__(self) -> MicroOp:
        position = self.position
        self.position = position + 1
        try:
            return self._ops[position]
        except IndexError:
            return self.buffer.get(position)

    def seek(self, position: int) -> None:
        """Reposition the cursor (checkpoint restore rejoins here)."""
        if position < 0:
            raise ValueError("position must be non-negative")
        self.position = position

    def warm_footprint(self) -> Tuple[range, range]:
        return self.buffer.warm_footprint()


_REGISTRY: "OrderedDict[Tuple[str, int], MaterializedTrace]" = OrderedDict()


def replay_trace(benchmark: str, seed: int = 1) -> ReplayTrace:
    """A fresh cursor over the shared ``(benchmark, seed)`` buffer.

    The underlying buffer is created on first use and kept in a small
    process-local LRU registry, so every run of the same benchmark and
    seed in this process replays the same materialized stream instead
    of re-generating it.
    """
    key = (benchmark, seed)
    buffer = _REGISTRY.get(key)
    if buffer is None:
        buffer = MaterializedTrace(workload(benchmark, seed=seed))
        _REGISTRY[key] = buffer
        while len(_REGISTRY) > REGISTRY_CAPACITY:
            _REGISTRY.popitem(last=False)
    else:
        _REGISTRY.move_to_end(key)
    return ReplayTrace(buffer)


def clear_registry() -> None:
    """Drop every buffered trace (tests / memory pressure)."""
    _REGISTRY.clear()
