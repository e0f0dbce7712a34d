"""Pre-canned experiments: one function per paper table / figure.

Each experiment function runs the relevant benchmark x technique grid
and returns a typed result object with the same rows/series the paper
reports, plus a ``format()`` method producing the text table that
``repro figure`` prints.  See DESIGN.md §4 for the experiment index.

Each function is the composition of two halves on its result class:
``configs(benchmarks, max_cycles, seed)`` builds the grid's configs in
submission order, and ``from_results(benchmarks, results)`` assembles
the typed result from their results in that order.  ``repro report``
uses the halves to submit every figure's grid to the engine at once.

All experiments accept ``benchmarks`` and ``max_cycles`` so the test
suite can run miniature versions of the same code paths ``repro
report`` runs at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.mapping import MappingKind
from ..core.policies import (ALUPolicy, IssueQueuePolicy, RegFilePolicy,
                             TechniqueConfig)
from ..thermal.floorplan import (FP_QUEUE_BLOCKS, INT_ALU_BLOCKS,
                                 INT_QUEUE_BLOCKS, INT_REG_BLOCKS,
                                 FloorplanVariant)
from ..workloads.spec2000 import BENCHMARK_NAMES
from .parallel import ExperimentEngine, run_experiments
from .results import (ResultPair, SimulationResult, format_table,
                      mean_speedup, speedup)
from .runner import SimulationConfig

#: Stall fraction above which a run counts as "constrained by" the
#: study's resource (used for the paper's per-category averages).
CONSTRAINED_STALL_FRACTION = 0.02


def _config(benchmark: str, variant: FloorplanVariant,
            techniques: TechniqueConfig, label: str,
            max_cycles: int, seed: int) -> SimulationConfig:
    return SimulationConfig(
        benchmark=benchmark, variant=variant, techniques=techniques,
        max_cycles=max_cycles, seed=seed, technique_label=label)


def _speedup(result: SimulationResult,
             baseline: SimulationResult) -> Optional[float]:
    """IPC gain of ``result`` over ``baseline``; None when the baseline
    committed nothing (a short run can spend its whole budget in a
    global stall), since no ratio over an IPC of 0 is defined."""
    return None if baseline.ipc == 0 else speedup(result, baseline)


def _average(pairs: Sequence[ResultPair]) -> Optional[float]:
    """Mean speedup over the pairs whose baseline IPC is non-zero: 0.0
    for no pairs, None when every baseline IPC is zero."""
    if not pairs:
        return 0.0
    defined = [(r, b) for r, b in pairs if b.ipc != 0]
    return mean_speedup(defined) if defined else None


def zero_ipc(runs: Dict[str, SimulationResult]) -> List[str]:
    """Benchmarks whose run committed nothing: a speedup over one of
    them is undefined, so averages leave it out."""
    return [bench for bench, run in runs.items() if run.ipc == 0]


def format_speedup(value: Optional[float]) -> str:
    """``+12.3%``, or ``n/a`` for an undefined speedup."""
    return "n/a" if value is None else f"{value:+.1%}"


def left_out_note(label: str, names: Sequence[str], sep: str = " ") -> str:
    """``sep`` and a sentence naming the benchmarks left out of the
    averages because their ``label`` run has an IPC of 0 (empty when
    there are none)."""
    if not names:
        return ""
    return (f"{sep}{len(names)} benchmark(s) with a {label} IPC of 0 "
            f"left out of the averages ({', '.join(names)}).")


def _constrained(baseline: SimulationResult) -> bool:
    """Whether the baseline run lost meaningful time to cooling stalls
    (the paper's notion of 'constrained by' the resource)."""
    return (baseline.stall_cycles
            > CONSTRAINED_STALL_FRACTION * baseline.cycles)


# ---------------------------------------------------------------------------
# Figure 6 + Table 4: issue queue, activity toggling
# ---------------------------------------------------------------------------

@dataclass
class IssueQueueExperiment:
    """Results of the activity-toggling study (paper §4.1)."""

    toggling: Dict[str, SimulationResult]
    base: Dict[str, SimulationResult]

    @staticmethod
    def configs(benchmarks: Sequence[str], max_cycles: int,
                seed: int) -> List[SimulationConfig]:
        """Toggling then base per benchmark, on the IQ-constrained
        chip."""
        return [_config(bench, FloorplanVariant.ISSUE_QUEUE,
                        TechniqueConfig(issue_queue=policy), label,
                        max_cycles, seed)
                for bench in benchmarks
                for label, policy in (
                    ("activity-toggling",
                     IssueQueuePolicy.ACTIVITY_TOGGLING),
                    ("base", IssueQueuePolicy.BASE))]

    @classmethod
    def from_results(cls, benchmarks: Sequence[str],
                     results: Sequence[SimulationResult]
                     ) -> "IssueQueueExperiment":
        """The experiment from the results of :meth:`configs`, in its
        order."""
        run_results = iter(results)
        toggling: Dict[str, SimulationResult] = {}
        base: Dict[str, SimulationResult] = {}
        for bench in benchmarks:
            toggling[bench] = next(run_results)
            base[bench] = next(run_results)
        return cls(toggling=toggling, base=base)

    @property
    def benchmarks(self) -> List[str]:
        return list(self.base)

    def speedup(self, benchmark: str) -> Optional[float]:
        return _speedup(self.toggling[benchmark], self.base[benchmark])

    def constrained_benchmarks(self) -> List[str]:
        return [b for b in self.benchmarks if _constrained(self.base[b])]

    def average_speedup(self,
                        only_constrained: bool = False) -> Optional[float]:
        names = (self.constrained_benchmarks() if only_constrained
                 else self.benchmarks)
        return _average([(self.toggling[b], self.base[b]) for b in names])

    def figure6_rows(self) -> List[Tuple[str, float, float,
                                         Optional[float]]]:
        """(benchmark, toggling IPC, base IPC, speedup) per bar pair."""
        return [(b, self.toggling[b].ipc, self.base[b].ipc,
                 self.speedup(b)) for b in self.benchmarks]

    def table4_rows(self, benchmarks: Optional[Sequence[str]] = None
                    ) -> List[Tuple[str, str, float, float]]:
        """(benchmark, technique, tail K, head K) like paper Table 4.

        The 'tail' column reports the hotter (more active) physical
        half of the integer queue under the base policy.
        """
        rows = []
        for bench in benchmarks or self.benchmarks:
            for label, result in (("Activity-toggling",
                                   self.toggling[bench]),
                                  ("Base", self.base[bench])):
                q0 = result.mean_temp("IntQ0")
                q1 = result.mean_temp("IntQ1")
                rows.append((bench, label, max(q0, q1), min(q0, q1)))
        return rows

    def format(self) -> str:
        rows = [(b, f"{t:.3f}", f"{base:.3f}", format_speedup(s))
                for b, t, base, s in self.figure6_rows()]
        table = format_table(
            ("benchmark", "toggling IPC", "base IPC", "speedup"), rows,
            title="Figure 6: issue-queue constrained IPC")
        summary = (
            f"\naverage speedup (all): "
            f"{format_speedup(self.average_speedup())}\n"
            f"average speedup (IQ-constrained): "
            f"{format_speedup(self.average_speedup(True))}\n"
            f"constrained: {', '.join(self.constrained_benchmarks())}")
        return table + summary + left_out_note(
            "base", zero_ipc(self.base), "\n")


def issue_queue_experiment(
        benchmarks: Sequence[str] = tuple(BENCHMARK_NAMES),
        max_cycles: int = 120_000, seed: int = 1,
        engine: Optional[ExperimentEngine] = None) -> IssueQueueExperiment:
    """Run Figure 6 / Table 4: toggling vs base, IQ-constrained chip."""
    configs = IssueQueueExperiment.configs(benchmarks, max_cycles, seed)
    return IssueQueueExperiment.from_results(
        benchmarks, run_experiments(configs, engine))


# ---------------------------------------------------------------------------
# Figure 7 + Table 5: ALUs, fine-grain turnoff vs round robin vs base
# ---------------------------------------------------------------------------

@dataclass
class ALUExperiment:
    """Results of the fine-grain-turnoff study (paper §4.2)."""

    round_robin: Dict[str, SimulationResult]
    fine_grain: Dict[str, SimulationResult]
    base: Dict[str, SimulationResult]

    @staticmethod
    def configs(benchmarks: Sequence[str], max_cycles: int,
                seed: int) -> List[SimulationConfig]:
        """Round robin, fine-grain then base per benchmark, on the
        ALU-constrained chip."""
        return [_config(bench, FloorplanVariant.ALU,
                        TechniqueConfig(alus=policy), label, max_cycles,
                        seed)
                for bench in benchmarks
                for label, policy in (("round-robin", ALUPolicy.ROUND_ROBIN),
                                      ("fine-grain", ALUPolicy.FINE_GRAIN),
                                      ("base", ALUPolicy.BASE))]

    @classmethod
    def from_results(cls, benchmarks: Sequence[str],
                     results: Sequence[SimulationResult]
                     ) -> "ALUExperiment":
        """The experiment from the results of :meth:`configs`, in its
        order."""
        run_results = iter(results)
        round_robin: Dict[str, SimulationResult] = {}
        fine_grain: Dict[str, SimulationResult] = {}
        base: Dict[str, SimulationResult] = {}
        for bench in benchmarks:
            round_robin[bench] = next(run_results)
            fine_grain[bench] = next(run_results)
            base[bench] = next(run_results)
        return cls(round_robin=round_robin, fine_grain=fine_grain,
                   base=base)

    @property
    def benchmarks(self) -> List[str]:
        return list(self.base)

    def speedup(self, benchmark: str) -> Optional[float]:
        return _speedup(self.fine_grain[benchmark], self.base[benchmark])

    def constrained_benchmarks(self) -> List[str]:
        return [b for b in self.benchmarks if _constrained(self.base[b])]

    def average_speedup(self,
                        only_constrained: bool = False) -> Optional[float]:
        names = (self.constrained_benchmarks() if only_constrained
                 else self.benchmarks)
        return _average([(self.fine_grain[b], self.base[b])
                         for b in names])

    def fine_grain_vs_round_robin(self) -> Optional[float]:
        """Average IPC shortfall of fine-grain turnoff relative to the
        idealized round-robin upper bound (paper: within ~1%)."""
        return _average([(self.fine_grain[b], self.round_robin[b])
                         for b in self.benchmarks])

    def left_out(self, sep: str = " ") -> str:
        """:func:`left_out_note` for both averaging baselines."""
        return (left_out_note("base", zero_ipc(self.base), sep)
                + left_out_note("round-robin", zero_ipc(self.round_robin),
                                sep))

    def table5_rows(self, benchmarks: Optional[Sequence[str]] = None
                    ) -> List[Tuple[str, str, float, List[float]]]:
        """(benchmark, technique, IPC, per-ALU mean temps K)."""
        rows = []
        for bench in benchmarks or self.benchmarks:
            for label, result in (
                    ("Round robin (ideal)", self.round_robin[bench]),
                    ("Fine-grain turnoff", self.fine_grain[bench]),
                    ("Base", self.base[bench])):
                temps = [result.mean_temp(b) for b in INT_ALU_BLOCKS]
                rows.append((bench, label, result.ipc, temps))
        return rows

    def figure7_rows(self) -> List[Tuple[str, float, float, float]]:
        """(benchmark, round-robin IPC, fine-grain IPC, base IPC)."""
        return [(b, self.round_robin[b].ipc, self.fine_grain[b].ipc,
                 self.base[b].ipc) for b in self.benchmarks]

    def format(self) -> str:
        rows = [(b, f"{rr:.3f}", f"{fg:.3f}", f"{base:.3f}",
                 format_speedup(self.speedup(b)))
                for b, rr, fg, base in self.figure7_rows()]
        table = format_table(
            ("benchmark", "round-robin", "fine-grain", "base",
             "fg speedup"), rows,
            title="Figure 7: ALU-constrained IPC")
        summary = (
            f"\naverage fine-grain speedup (all): "
            f"{format_speedup(self.average_speedup())}\n"
            f"average fine-grain speedup (ALU-constrained): "
            f"{format_speedup(self.average_speedup(True))}\n"
            f"fine-grain vs round-robin: "
            f"{format_speedup(self.fine_grain_vs_round_robin())}\n"
            f"constrained: {', '.join(self.constrained_benchmarks())}")
        return table + summary + self.left_out("\n")


def alu_experiment(benchmarks: Sequence[str] = tuple(BENCHMARK_NAMES),
                   max_cycles: int = 120_000, seed: int = 1,
                   engine: Optional[ExperimentEngine] = None
                   ) -> ALUExperiment:
    """Run Figure 7 / Table 5 on the ALU-constrained chip."""
    configs = ALUExperiment.configs(benchmarks, max_cycles, seed)
    return ALUExperiment.from_results(
        benchmarks, run_experiments(configs, engine))


# ---------------------------------------------------------------------------
# Figure 8 + Table 6: register file, mappings x fine-grain turnoff
# ---------------------------------------------------------------------------

#: The four register-file configurations of Figure 8, in its legend
#: order.
RF_CONFIGS: Dict[str, RegFilePolicy] = {
    "fine-grain + balanced": RegFilePolicy(
        MappingKind.BALANCED, fine_grain_turnoff=True),
    "fine-grain + priority": RegFilePolicy(
        MappingKind.PRIORITY, fine_grain_turnoff=True),
    "balanced only": RegFilePolicy(
        MappingKind.BALANCED, fine_grain_turnoff=False),
    "priority only": RegFilePolicy(
        MappingKind.PRIORITY, fine_grain_turnoff=False),
}


@dataclass
class RegFileExperiment:
    """Results of the register-file study (paper §4.3)."""

    #: results[config_label][benchmark]
    results: Dict[str, Dict[str, SimulationResult]]

    @staticmethod
    def configs(benchmarks: Sequence[str], max_cycles: int,
                seed: int) -> List[SimulationConfig]:
        """The :data:`RF_CONFIGS` per benchmark, on the
        register-file-constrained chip."""
        return [_config(bench, FloorplanVariant.REGFILE,
                        TechniqueConfig(regfile=policy), label, max_cycles,
                        seed)
                for bench in benchmarks
                for label, policy in RF_CONFIGS.items()]

    @classmethod
    def from_results(cls, benchmarks: Sequence[str],
                     results: Sequence[SimulationResult]
                     ) -> "RegFileExperiment":
        """The experiment from the results of :meth:`configs`, in its
        order."""
        run_results = iter(results)
        by_label: Dict[str, Dict[str, SimulationResult]] = {
            label: {} for label in RF_CONFIGS}
        for bench in benchmarks:
            for label in RF_CONFIGS:
                by_label[label][bench] = next(run_results)
        return cls(results=by_label)

    @property
    def benchmarks(self) -> List[str]:
        return list(next(iter(self.results.values())))

    def ipc(self, config: str, benchmark: str) -> float:
        return self.results[config][benchmark].ipc

    def constrained_benchmarks(self) -> List[str]:
        base = self.results["priority only"]
        return [b for b in self.benchmarks if _constrained(base[b])]

    def average_speedup(self, config: str, over: str,
                        only_constrained: bool = False
                        ) -> Optional[float]:
        names = (self.constrained_benchmarks() if only_constrained
                 else self.benchmarks)
        return _average([(self.results[config][b],
                          self.results[over][b]) for b in names])

    def table6_rows(self, benchmark: str
                    ) -> List[Tuple[str, float, float, float]]:
        """(technique, IPC, copy-0 K, copy-1 K) like paper Table 6."""
        order = ["fine-grain + priority", "fine-grain + balanced",
                 "balanced only", "priority only"]
        rows = []
        for config in order:
            result = self.results[config][benchmark]
            rows.append((config, result.ipc,
                         result.mean_temp("IntReg0"),
                         result.mean_temp("IntReg1")))
        return rows

    def figure8_rows(self) -> List[Tuple[str, List[float]]]:
        """(benchmark, [IPC per config in RF_CONFIGS order])."""
        return [(b, [self.ipc(c, b) for c in RF_CONFIGS])
                for b in self.benchmarks]

    def format(self) -> str:
        headers = ("benchmark", *RF_CONFIGS)
        rows = [(b, *(f"{v:.3f}" for v in vals))
                for b, vals in self.figure8_rows()]
        table = format_table(headers, rows,
                             title="Figure 8: register-file constrained IPC")
        lines = [table, ""]
        comparisons = [
            ("balanced only", "priority only",
             "balanced vs priority (no turnoff)"),
            ("fine-grain + priority", "priority only",
             "turnoff+priority vs priority-only"),
            ("fine-grain + priority", "balanced only",
             "turnoff+priority vs balanced-only"),
            ("fine-grain + priority", "fine-grain + balanced",
             "turnoff+priority vs turnoff+balanced"),
        ]
        for config, over, label in comparisons:
            lines.append(
                f"{label}: "
                f"{format_speedup(self.average_speedup(config, over))} "
                f"all, "
                f"{format_speedup(self.average_speedup(config, over, True))}"
                f" RF-constrained")
        lines.append(
            f"constrained: {', '.join(self.constrained_benchmarks())}")
        for over in sorted({over for _, over, _ in comparisons}):
            note = left_out_note(over, zero_ipc(self.results[over]), "")
            if note:
                lines.append(note)
        return "\n".join(lines)


def regfile_experiment(benchmarks: Sequence[str] = tuple(BENCHMARK_NAMES),
                       max_cycles: int = 120_000, seed: int = 1,
                       engine: Optional[ExperimentEngine] = None
                       ) -> RegFileExperiment:
    """Run Figure 8 / Table 6 on the register-file-constrained chip."""
    configs = RegFileExperiment.configs(benchmarks, max_cycles, seed)
    return RegFileExperiment.from_results(
        benchmarks, run_experiments(configs, engine))
