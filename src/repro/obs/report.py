"""Report generation: paper-figure grids rendered as Markdown/HTML.

``repro report`` runs (or answers from the result cache) the Figure
6–8 experiment grids and renders one document per invocation: a table
per figure, the paper's summary statistics, metric summaries drawn
from each run's plain :attr:`~repro.sim.results.SimulationResult.
metrics` dict, one-line thermal sparklines from the downsampled
timelines every result carries, and the fleet peak sensed temperature:
the max of ``max_temps`` over the runs the figure sections render.
Because everything is read from
:class:`~repro.sim.results.SimulationResult` fields, a second
invocation over a warm cache re-renders the whole report without
simulating a single cycle, and prints the same peak.

This module is deliberately *not* re-exported from
:mod:`repro.obs` — it imports the experiment grids (and through them
:mod:`repro.sim.parallel`), which itself imports the tracing layer;
keeping the package root free of report keeps that edge acyclic.
"""

from __future__ import annotations

import html
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.experiments import (ALUExperiment, IssueQueueExperiment,
                               RF_CONFIGS, RegFileExperiment,
                               alu_experiment, format_speedup,
                               issue_queue_experiment, left_out_note,
                               regfile_experiment, zero_ipc)
from ..sim.parallel import ExperimentEngine
from ..sim.results import SimulationResult
from .sparkline import sparkline

__all__ = ["Report", "generate", "FIGURES"]


class Report:
    """A renderable document: headings, paragraphs, tables, pre blocks.

    Nodes are appended in order and rendered by :meth:`to_markdown` /
    :meth:`to_html`; both renderers consume the same node list so the
    two formats can never drift apart.
    """

    def __init__(self, title: str) -> None:
        self.title = title
        self._nodes: List[Tuple[str, Any]] = [("heading", (1, title))]

    # ------------------------------------------------------------------
    def heading(self, level: int, text: str) -> None:
        self._nodes.append(("heading", (max(1, level), text)))

    def paragraph(self, text: str) -> None:
        self._nodes.append(("paragraph", text))

    def table(self, headers: Sequence[str],
              rows: Sequence[Sequence[object]]) -> None:
        self._nodes.append(("table", ([str(h) for h in headers],
                                      [[_cell(v) for v in row]
                                       for row in rows])))

    def pre(self, text: str) -> None:
        self._nodes.append(("pre", text))

    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        parts: List[str] = []
        for kind, payload in self._nodes:
            if kind == "heading":
                level, text = payload
                parts.append(f"{'#' * level} {text}")
            elif kind == "paragraph":
                parts.append(payload)
            elif kind == "table":
                headers, rows = payload
                lines = ["| " + " | ".join(headers) + " |",
                         "| " + " | ".join("---" for _ in headers) + " |"]
                for row in rows:
                    lines.append("| " + " | ".join(row) + " |")
                parts.append("\n".join(lines))
            elif kind == "pre":
                parts.append("```\n" + payload + "\n```")
        return "\n\n".join(parts) + "\n"

    def to_html(self) -> str:
        body: List[str] = []
        for kind, payload in self._nodes:
            if kind == "heading":
                level, text = payload
                tag = f"h{min(level, 6)}"
                body.append(f"<{tag}>{html.escape(text)}</{tag}>")
            elif kind == "paragraph":
                body.append(f"<p>{html.escape(payload)}</p>")
            elif kind == "table":
                headers, rows = payload
                cells = "".join(f"<th>{html.escape(h)}</th>"
                                for h in headers)
                lines = ["<table>", f"<tr>{cells}</tr>"]
                for row in rows:
                    cells = "".join(f"<td>{html.escape(v)}</td>"
                                    for v in row)
                    lines.append(f"<tr>{cells}</tr>")
                lines.append("</table>")
                body.append("\n".join(lines))
            elif kind == "pre":
                body.append(f"<pre>{html.escape(payload)}</pre>")
        content = "\n".join(body)
        return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
                f"<title>{html.escape(self.title)}</title>"
                "<style>table{border-collapse:collapse}"
                "td,th{border:1px solid #999;padding:2px 8px}"
                "pre{line-height:1.15}</style>"
                f"</head>\n<body>\n{content}\n</body></html>\n")


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# metric / timeline summaries shared by the figure sections
# ---------------------------------------------------------------------------

def _vector(result: SimulationResult, name: str) -> List[float]:
    entry = result.metrics.get(name, {})
    return list(entry.get("values", []))


def _share_line(label: str, values: Sequence[float]) -> str:
    total = float(sum(values))
    if total <= 0:
        return f"{label}: no activity."
    shares = " / ".join(f"{v / total:.0%}" for v in values)
    return f"{label}: {shares} of {total:,.0f}."


def _stall_summary(results: Sequence[SimulationResult]) -> str:
    reasons: Dict[str, int] = {}
    stalls = 0
    for result in results:
        stalls += result.global_stalls
        for reason, count in result.stall_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
    if not stalls:
        return "No global cooling stalls across the grid."
    breakdown = ", ".join(f"{reason} ×{count}" for reason, count
                          in sorted(reasons.items(),
                                    key=lambda kv: -kv[1]))
    return (f"Global cooling stalls across the grid: {stalls} "
            f"({breakdown}).")


def _event_summary(results: Sequence[SimulationResult]) -> Optional[str]:
    """Traced-event totals, when any run in the grid carried them."""
    totals: Dict[str, float] = {}
    for result in results:
        for name, entry in result.metrics.items():
            if name.startswith("trace.events."):
                kind = name[len("trace.events."):]
                totals[kind] = totals.get(kind, 0) + entry.get("value", 0)
    if not totals:
        return None
    parts = ", ".join(f"{kind} ×{int(count)}"
                      for kind, count in sorted(totals.items()))
    return f"Traced events across the grid: {parts}."


def _timeline_block(result: SimulationResult, ceiling_k: float) -> str:
    """One sparkline per stored block, on a shared temperature scale."""
    if not result.timelines:
        return "(no timelines recorded)"
    low = min(min(series) for series in result.timelines.values())
    lines = []
    for block in sorted(result.timelines):
        series = result.timelines[block]
        lines.append(f"{block:10s} {min(series):6.1f}K..{max(series):6.1f}K "
                     f"{sparkline(series, lo=low, hi=ceiling_k)}")
    lines.append(f"(scale {low:.1f}K..{ceiling_k:.1f}K ceiling; "
                 f"~{result.timeline_interval_cycles} cycles/point)")
    return "\n".join(lines)


def _hottest_run(results: Sequence[SimulationResult]
                 ) -> SimulationResult:
    return max(results, key=lambda r: (max(r.max_temps.values())
                                       if r.max_temps else float("-inf"),
                                       r.benchmark))


def _grid_section(report: Report, results: Sequence[SimulationResult],
                  ceiling_k: float) -> None:
    """The metric/event/timeline subsections every figure shares."""
    report.heading(3, "DTM activity")
    report.paragraph(_stall_summary(results))
    events = _event_summary(results)
    if events is not None:
        report.paragraph(events)
    hottest = _hottest_run(results)
    report.heading(3, "Thermal timelines (hottest run: "
                      f"{hottest.benchmark}, {hottest.technique_label})")
    report.pre(_timeline_block(hottest, ceiling_k))


# ---------------------------------------------------------------------------
# figure sections
# ---------------------------------------------------------------------------

def _figure6(report: Report, experiment: IssueQueueExperiment,
             ceiling_k: float) -> List[SimulationResult]:
    report.heading(2, "Figure 6 — issue queue: activity toggling")
    report.table(
        ("benchmark", "toggling IPC", "base IPC", "speedup"),
        [(b, t, base, format_speedup(s))
         for b, t, base, s in experiment.figure6_rows()])
    constrained = ", ".join(experiment.constrained_benchmarks()) or "none"
    report.paragraph(
        f"Average speedup {format_speedup(experiment.average_speedup())} "
        f"over all benchmarks, "
        f"{format_speedup(experiment.average_speedup(True))} over the "
        f"IQ-constrained set ({constrained})."
        f"{left_out_note('base', zero_ipc(experiment.base))}")
    results = (list(experiment.toggling.values())
               + list(experiment.base.values()))
    toggles = sum(r.iq_toggles for r in experiment.toggling.values())
    lines = [f"Issue-queue toggles across the grid: {toggles}."]
    sample = _hottest_run(list(experiment.toggling.values()))
    for prefix, label in (("iq.int", "IntQ"), ("iq.fp", "FPQ")):
        moves = _vector(sample, f"{prefix}.compaction_moves")
        if moves:
            lines.append(_share_line(
                f"{label} compaction moves per half "
                f"({sample.benchmark}, toggling)", moves))
    report.paragraph(" ".join(lines))
    _grid_section(report, results, ceiling_k)
    return results


def _figure7(report: Report, experiment: ALUExperiment,
             ceiling_k: float) -> List[SimulationResult]:
    report.heading(2, "Figure 7 — ALUs: fine-grain turnoff")
    report.table(
        ("benchmark", "round-robin IPC", "fine-grain IPC", "base IPC",
         "fg speedup"),
        [(b, rr, fg, base, format_speedup(experiment.speedup(b)))
         for b, rr, fg, base in experiment.figure7_rows()])
    constrained = ", ".join(experiment.constrained_benchmarks()) or "none"
    report.paragraph(
        f"Average fine-grain speedup "
        f"{format_speedup(experiment.average_speedup())} over all "
        f"benchmarks, {format_speedup(experiment.average_speedup(True))} "
        f"over the ALU-constrained set ({constrained}); fine-grain sits "
        f"{format_speedup(experiment.fine_grain_vs_round_robin())} from "
        f"the round-robin upper bound.{experiment.left_out()}")
    results = (list(experiment.round_robin.values())
               + list(experiment.fine_grain.values())
               + list(experiment.base.values()))
    turnoffs = sum(r.alu_turnoffs for r in experiment.fine_grain.values())
    lines = [f"ALU turnoff events across the fine-grain runs: "
             f"{turnoffs}."]
    sample = _hottest_run(list(experiment.base.values()))
    ops = _vector(sample, "alu.ops")
    if ops:
        lines.append(_share_line(
            f"Issue distribution over IntExec0..{len(ops) - 1} "
            f"({sample.benchmark}, base)", ops))
    report.paragraph(" ".join(lines))
    _grid_section(report, results, ceiling_k)
    return results


def _figure8(report: Report, experiment: RegFileExperiment,
             ceiling_k: float) -> List[SimulationResult]:
    report.heading(2, "Figure 8 — register file: mapping x turnoff")
    report.table(
        ("benchmark", *RF_CONFIGS),
        [(b, *values) for b, values in experiment.figure8_rows()])
    constrained = ", ".join(experiment.constrained_benchmarks()) or "none"
    gain = ("fine-grain + priority", "priority only")
    report.paragraph(
        "Average speedup of fine-grain + priority over priority only: "
        f"{format_speedup(experiment.average_speedup(*gain))}"
        f" over all benchmarks, "
        f"{format_speedup(experiment.average_speedup(*gain, True))}"
        f" over the RF-constrained set ({constrained})."
        f"{left_out_note(gain[1], zero_ipc(experiment.results[gain[1]]))}")
    results = [result for per_bench in experiment.results.values()
               for result in per_bench.values()]
    turnoffs = sum(r.rf_turnoffs for per in ("fine-grain + priority",
                                             "fine-grain + balanced")
                   for r in experiment.results[per].values())
    lines = [f"Register-file copy turnoffs across the turnoff runs: "
             f"{turnoffs}."]
    sample = _hottest_run(list(
        experiment.results["priority only"].values()))
    reads = _vector(sample, "regfile.reads")
    if reads:
        lines.append(_share_line(
            f"Reads per RF copy ({sample.benchmark}, priority only)",
            reads))
    report.paragraph(" ".join(lines))
    _grid_section(report, results, ceiling_k)
    return results


#: figure number -> (experiment runner, section renderer); a renderer
#: returns the runs its section covers.
FIGURES: Dict[str, Tuple[Callable[..., Any],
                         Callable[..., List[SimulationResult]]]] = {
    "6": (issue_queue_experiment, _figure6),
    "7": (alu_experiment, _figure7),
    "8": (regfile_experiment, _figure8),
}


def generate(figures: Sequence[str] = ("6", "7", "8"),
             benchmarks: Optional[Sequence[str]] = None,
             max_cycles: int = 100_000, seed: int = 1,
             engine: Optional[ExperimentEngine] = None,
             ceiling_k: float = 358.0,
             title: str = "Reproduction report") -> Report:
    """Run (or load from cache) the requested figure grids and render.

    Every run goes through ``engine`` (a fresh default
    :class:`~repro.sim.parallel.ExperimentEngine` when None), so a
    warm result cache answers the whole report without simulating.
    """
    if engine is None:
        engine = ExperimentEngine()
    unknown = [f for f in figures if f not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures {unknown!r}; "
                         f"choose from {sorted(FIGURES)}")
    report = Report(title)
    kwargs: Dict[str, Any] = {"max_cycles": max_cycles, "seed": seed,
                              "engine": engine}
    if benchmarks is not None:
        kwargs["benchmarks"] = list(benchmarks)
    rendered: List[SimulationResult] = []
    for figure in figures:
        runner, section = FIGURES[figure]
        rendered += section(report, runner(**kwargs), ceiling_k)
    stats = engine.stats
    report.heading(2, "Run accounting")
    report.paragraph(
        f"{stats.total} runs: {stats.cache_hits} answered from cache, "
        f"{stats.parallel_runs} simulated in pool workers, "
        f"{stats.inline_runs} in-process; "
        f"{stats.batched_runs} of the simulated runs batched "
        f"(in {stats.batch_groups} lock-stepped group(s)); "
        f"{stats.checkpoint_restores} checkpoint restore(s). "
        f"Regenerate with: repro report --figures "
        f"{','.join(figures)} --cycles {max_cycles} --seed {seed}.")
    if stats.batched_runs:
        occupancy = ", ".join(
            f"{waves} wave(s) x {size} class(es)" for size, waves in
            sorted(stats.batch_class_occupancy.items()))
        report.paragraph(
            f"Divergence accounting: {stats.fork_count} fork(s); "
            f"per-boundary execution-class occupancy: "
            f"{occupancy or 'n/a'}.")
    peaks = [max(r.max_temps.values()) for r in rendered if r.max_temps]
    if peaks:
        report.paragraph(
            f"Fleet peak sensed temperature: {max(peaks):.1f} K "
            f"(ceiling {ceiling_k:.1f} K).")
    return report
