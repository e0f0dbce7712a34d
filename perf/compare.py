"""Compare two benchmark result files, parent first:

    python perf/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric it prints both medians and
interquartile ranges and a verdict, using the bounds in
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``better``: the change's median is better by more than the parent's
  own interquartile spread, and the change wins at least nine tenths
  of 10 or more parent/change pairs;
* ``unresolved``: either side's spread is wider than the bound, unless
  every change value beats every parent value (``better``) or the
  reverse holds with a median beyond the bound (``worse``);
* ``unchanged`` otherwise.

The values compared are a result file's round values (each the median
of one timed run's repeats).  The win fraction pairs the i-th parent
and change round, so run the two sides alternately.  Unresolved metrics
are listed again after the table, since they are not a pass.

Exit status: 1 on any ``worse`` verdict or any increase in the run
error or result mismatch rate; otherwise 3 when any metric is
``unresolved`` (rerun both sides with more ``--rounds``); 0 when
every metric is ``better`` or ``unchanged``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import BENCHMARK, quartiles

#: Fewest pairs for which the win fraction is reported and required.
MIN_PAIRS = 10
#: Share of pairs the change must win for a ``better`` verdict.
WIN_SHARE = 0.9


def win_fraction(parent: Sequence[float], change: Sequence[float],
                 sign: float) -> Optional[float]:
    """Share of (parent[i], change[i]) pairs the change wins, ties
    counting for neither; None below :data:`MIN_PAIRS` pairs."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return None
    return sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, Optional[float]]:
    """(verdict, win fraction) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - pmed) / pmed
    parent_spread = (pq3 - pq1) / pmed
    spread = max(parent_spread, (cq3 - cq1) / cmed)
    wins = win_fraction(parent, change, sign)
    if spread > bound:
        if all(sign * (b - a) > 0 for a in parent for b in change):
            return "better", wins
        if -gain > bound and all(sign * (a - b) > 0
                                 for a in parent for b in change):
            return "worse", wins
        return "unresolved", wins
    if -gain > bound:
        return "worse", wins
    if (gain > 0 and gain > parent_spread and wins is not None
            and wins >= WIN_SHARE):
        return "better", wins
    return "unchanged", wins


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            bench: Dict[str, Any]) -> Tuple[List[str], bool, List[str]]:
    """Report lines; whether the change passes (no ``worse`` verdict,
    no rise in the error or mismatch rate); and the unresolved
    ``workload/metric`` names."""
    lines: List[str] = []
    unresolved: List[str] = []
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        p, c = parent["workloads"][workload], change["workloads"][workload]
        for rate in ("run_error_rate", "result_mismatch_rate"):
            if c[rate] > p[rate]:
                ok = False
                lines.append(f"{workload:13s} {rate}: {p[rate]:.3g} -> "
                             f"{c[rate]:.3g}  worse")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = p["end_to_end"][name]["values"]
            cv = c["end_to_end"][name]["values"]
            result, wins = verdict(pv, cv, metric["better"],
                                   metric["bound"])
            ok = ok and result != "worse"
            if result == "unresolved":
                unresolved.append(f"{workload}/{name}")
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            lines.append(
                f"{workload:13s} {name:17s} {pmed:12.6g} [IQR {pq3 - pq1:.3g}]"
                f" -> {cmed:12.6g} [IQR {cq3 - cq1:.3g}] {metric['unit']:9s}"
                f" {(cmed - pmed) / pmed:+7.2%}  {result}"
                + ("" if wins is None else f"  wins {wins:.0%}"))
    return lines, ok, unresolved


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    lines, ok, unresolved = compare(parent, change,
                                   json.loads(BENCHMARK.read_text()))
    print("\n".join(lines))
    if unresolved:
        print(f"UNRESOLVED (spread wider than the bound, not a pass): "
              f"{', '.join(unresolved)}")
    if not ok:
        return 1
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
