"""Statistical split of the macro-step kernel's time by pipeline stage.

cProfile sees :func:`repro.pipeline.kernel._run_chunk` as one function,
because the whole cycle is fused into its loop body.  This sampler asks
the interpreter where it is instead: a ``SIGPROF`` interval timer fires
every millisecond of process CPU time (the OS may round that up to its
scheduler tick), and the handler walks the
interrupted stack to the innermost kernel frame (``_run_chunk`` or
``_compact_queue``) and maps its current line to the nearest
``# ---- <stage>`` marker above it.  Time in callees (cache lookups,
trace generation, the fallback compaction) counts toward the stage
that called them; samples with no kernel frame on the stack count as
:data:`OUTSIDE`, and samples on a kernel instruction that carries no
line number (CPython reports ``None`` for some jumps) as
:data:`NO_LINE`.

The shares are approximate: CPython runs a Python signal handler only
when its eval loop next checks for pending work — at loop back-edges,
at function entries and after some calls — so a sample lands on the
next such point after the timer fired, not on the line that was
running.
"""

from __future__ import annotations

import inspect
import re
import signal
from collections import Counter
from types import CodeType
from typing import Callable, Dict, List, Tuple, TypeVar

from ..pipeline import kernel

#: Label for samples taken with no kernel frame on the stack.
OUTSIDE = "outside the kernel"
#: Label for samples on a kernel instruction without a line number.
NO_LINE = "kernel, no line"

_MARKER = re.compile(r"#\s*----\s+([a-z][a-z ]*[a-z])")

T = TypeVar("T")


def stage_markers() -> Dict[CodeType, List[Tuple[int, str]]]:
    """``code -> [(line, stage)]`` for the kernel functions, in line
    order; lines above a function's first marker belong to it."""
    markers: Dict[CodeType, List[Tuple[int, str]]] = {}
    for func in (kernel._run_chunk, kernel._compact_queue):
        lines, first = inspect.getsourcelines(func)
        markers[func.__code__] = [
            (first + offset, match.group(1))
            for offset, line in enumerate(lines)
            if (match := _MARKER.search(line))]
    return markers


def stage_labels() -> List[str]:
    """Every stage label, in source order, without repeats."""
    labels: List[str] = []
    for marks in stage_markers().values():
        for _, label in marks:
            if label not in labels:
                labels.append(label)
    return labels


def sample_stages(fn: Callable[[], T], interval_s: float = 0.001
                  ) -> Tuple[T, Counter]:
    """Call ``fn`` under the sampler; returns its result and the
    sample count per stage label (plus :data:`NO_LINE` and
    :data:`OUTSIDE`).

    The previous ``SIGPROF`` handler and profiling timer are restored
    on the way out, also when ``fn`` raises.  Must run in the main
    thread, on a platform with ``signal.setitimer``.
    """
    markers = stage_markers()
    counts: Counter = Counter()

    def on_sigprof(signum: int, frame) -> None:
        while frame is not None:
            marks = markers.get(frame.f_code)
            if marks is not None:
                line = frame.f_lineno
                if line is None:
                    label = NO_LINE
                else:
                    label = marks[0][1]
                    for lineno, name in marks:
                        if lineno > line:
                            break
                        label = name
                counts[label] += 1
                return
            frame = frame.f_back
        counts[OUTSIDE] += 1

    previous = signal.signal(signal.SIGPROF, on_sigprof)
    try:
        timer = signal.setitimer(signal.ITIMER_PROF, interval_s,
                                 interval_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, *timer)
    finally:
        signal.signal(signal.SIGPROF, previous)
    return result, counts
