"""Result records and table formatting for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _plain(value: Any) -> Any:
    """Coerce ``value`` to pure built-in types for JSON export.

    Sensor statistics are computed with numpy, whose scalar types
    (``np.float64``, ``np.int64``) are not JSON-serializable; ``item()``
    unwraps them.  Containers are rebuilt recursively so nested metric
    payloads come out clean too.
    """
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()
    return value


@dataclass
class SimulationResult:
    """Everything one simulation run reports."""

    benchmark: str
    technique_label: str
    cycles: int
    committed: int
    stall_cycles: int
    global_stalls: int
    stall_reasons: Dict[str, int]
    iq_toggles: int
    alu_turnoffs: int
    rf_turnoffs: int
    #: Time-averaged temperature per block (K), from the sensors.
    mean_temps: Dict[str, float]
    #: Maximum observed temperature per block (K).
    max_temps: Dict[str, float]
    #: Collection-time metrics, a plain dict so results pickle, cache
    #: and export as JSON unchanged.  Each entry maps a name to one of
    #: four shapes:
    #:
    #: * ``{"kind": "vector", "values": [n, ...]}`` — one count per
    #:   unit: ``alu.ops`` and ``fp_add.ops`` (per ALU / FP adder),
    #:   ``regfile.reads`` and ``regfile.writes`` (per copy),
    #:   ``iq.int.*`` and ``iq.fp.*`` ``compaction_moves`` and
    #:   ``long_moves`` (per queue half);
    #: * ``{"kind": "counter", "value": n}`` — ``core.stall_cycles``,
    #:   ``core.throttled_cycles``, ``dtm.stalls.<reason>``, and on
    #:   traced runs ``trace.events.<kind>`` and ``trace.dropped``;
    #: * ``{"kind": "gauge", "value": k}`` — ``temp.peak_k``, the max
    #:   of :attr:`max_temps`;
    #: * ``{"kind": "histogram", "bounds": [...], "counts": [...],
    #:   "total": t, "count": n}`` — ``temp.hottest_block_k``: the
    #:   hottest block's readings, bucketed by inclusive upper bounds
    #:   9, 6, 3, 1 and 0 K below the ceiling plus an overflow bucket;
    #:   ``total`` sums the readings and ``count`` counts them.
    #:
    #: Readers parse the raw dict: ``repro.obs.report`` (``_vector``,
    #: ``_event_summary``) and ``perf/worker.py`` (``result_digest``).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Downsampled per-block thermal trajectories (K) for report
    #: sparklines, keyed by block name.
    timelines: Dict[str, List[float]] = field(default_factory=dict)
    #: Cycles per timeline point (0 when no timelines were recorded).
    timeline_interval_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def mean_temp(self, block: str) -> float:
        return self.mean_temps[block]

    def max_temp(self, block: str) -> float:
        return self.max_temps[block]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field (numpy scalars unwrapped).

        Round-trips through :meth:`from_dict`:
        ``SimulationResult.from_dict(r.to_dict()) == r``.
        """
        return {f.name: _plain(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Unknown keys are ignored so records written by newer code
        still load; fields added after the record was written fall
        back to their defaults.
        """
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def speedup(result: SimulationResult, baseline: SimulationResult) -> float:
    """Relative IPC improvement of ``result`` over ``baseline``."""
    if baseline.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return result.ipc / baseline.ipc - 1.0


#: (technique result, baseline result) measured on the same workload.
ResultPair = Tuple[SimulationResult, SimulationResult]


def geometric_mean_speedup(pairs: Sequence[ResultPair]) -> float:
    """Geometric-mean speedup over (result, baseline) pairs."""
    if not pairs:
        raise ValueError("no pairs")
    product = 1.0
    for result, baseline in pairs:
        product *= result.ipc / baseline.ipc
    return product ** (1.0 / len(pairs)) - 1.0


def mean_speedup(pairs: Sequence[ResultPair]) -> float:
    """Arithmetic-mean speedup over (result, baseline) pairs (the
    paper reports arithmetic averages)."""
    if not pairs:
        raise ValueError("no pairs")
    return sum(r.ipc / b.ipc - 1.0 for r, b in pairs) / len(pairs)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Plain-text table, right-aligned numerics, for bench output."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
