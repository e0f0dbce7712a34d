"""Command-line interface: run single simulations or paper experiments.

Examples::

    python -m repro run perlbmk --variant alu --alus fine_grain
    python -m repro figure 7 --benchmarks perlbmk,parser --cycles 80000
    python -m repro list
    python -m repro lint src/ tests/
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional

from .analysis import lint as analysis_lint
from .core.mapping import MappingKind
from .core.policies import (ALUPolicy, IssueQueuePolicy, RegFilePolicy,
                            TechniqueConfig)
from .obs import report as obs_report
from .obs import stages as obs_stages
from .sim.checkpoint import CheckpointStore
from .sim.experiments import (alu_experiment, issue_queue_experiment,
                              regfile_experiment)
from .sim.parallel import ExperimentEngine, ResultCache
from .sim.runner import SimulationConfig, Simulator
from .thermal.floorplan import FloorplanVariant
from .workloads.spec2000 import BENCHMARK_NAMES, PROFILES


def _parse_benchmarks(text: str) -> List[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    for name in names:
        if name not in PROFILES:
            raise SystemExit(f"unknown benchmark {name!r}; see "
                             f"'python -m repro list'")
    return names


def _cmd_list(_: argparse.Namespace) -> int:
    print(f"{'benchmark':10s} {'type':5s} {'ILP':>5s} {'L1 miss':>8s} "
          f"{'mispredict':>11s}")
    for name in BENCHMARK_NAMES:
        profile = PROFILES[name]
        kind = "fp" if profile.fp_fraction > 0 else "int"
        print(f"{name:10s} {kind:5s} {profile.dep_mean:5.1f} "
              f"{profile.l1_miss:8.2f} {profile.mispredict_rate:11.2f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    techniques = TechniqueConfig(
        issue_queue=IssueQueuePolicy(args.issue_queue),
        alus=ALUPolicy(args.alus),
        regfile=RegFilePolicy(MappingKind(args.mapping),
                              fine_grain_turnoff=args.rf_turnoff))
    config = SimulationConfig(
        benchmark=args.benchmark,
        variant=FloorplanVariant(args.variant),
        techniques=techniques,
        max_cycles=args.cycles,
        seed=args.seed,
        sanitize=args.sanitize,
        trace_events=bool(args.trace or args.trace_out))
    simulator = Simulator(config)
    result = simulator.run()
    print(f"benchmark:      {result.benchmark}")
    print(f"techniques:     {config.label()}")
    print(f"IPC:            {result.ipc:.3f}")
    print(f"committed:      {result.committed} in {result.cycles} cycles")
    print(f"cooling stalls: {result.global_stalls} "
          f"({result.stall_cycles} cycles) {result.stall_reasons}")
    print(f"IQ toggles:     {result.iq_toggles}")
    print(f"ALU turnoffs:   {result.alu_turnoffs}")
    print(f"RF turnoffs:    {result.rf_turnoffs}")
    hottest = sorted(result.mean_temps.items(), key=lambda kv: -kv[1])[:8]
    print("hottest blocks (mean K / max K):")
    for name, mean in hottest:
        print(f"  {name:10s} {mean:7.2f} / {result.max_temps[name]:7.2f}")
    collector = simulator.collector
    if collector is not None:
        print(f"trace:          {collector.summary()}")
        if args.trace_out:
            count = collector.export_jsonl(args.trace_out)
            print(f"trace written:  {count} event(s) to {args.trace_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return analysis_lint.main(args.lint_args)


_EXPERIMENTS = {
    "6": issue_queue_experiment,
    "7": alu_experiment,
    "8": regfile_experiment,
}


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = _EXPERIMENTS[args.number]
    benchmarks = (_parse_benchmarks(args.benchmarks)
                  if args.benchmarks else tuple(BENCHMARK_NAMES))
    engine = ExperimentEngine(jobs=args.jobs)
    experiment = runner(benchmarks=benchmarks, max_cycles=args.cycles,
                        seed=args.seed, engine=engine)
    print(experiment.format())
    stats = engine.stats
    print(f"\n[{stats.total} runs: {stats.cache_hits} cached, "
          f"{stats.parallel_runs} parallel, {stats.inline_runs} inline; "
          f"{stats.batched_runs} batched; jobs={engine.jobs}]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the figure grids as a Markdown or HTML report.

    Runs go through the caching engine, so a report over cached grids
    re-renders without simulating; pass ``--output -`` to print to
    stdout instead of writing a file.
    """
    figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    for figure in figures:
        if figure not in obs_report.FIGURES:
            raise SystemExit(f"unknown figure {figure!r}; choose from "
                             f"{sorted(obs_report.FIGURES)}")
    benchmarks = (_parse_benchmarks(args.benchmarks)
                  if args.benchmarks else None)
    engine = ExperimentEngine(jobs=args.jobs)
    report = obs_report.generate(
        figures=figures, benchmarks=benchmarks, max_cycles=args.cycles,
        seed=args.seed, engine=engine)
    rendered = (report.to_html() if args.format == "html"
                else report.to_markdown())
    if args.output == "-":
        print(rendered, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        stats = engine.stats
        print(f"report written to {args.output} "
              f"[{stats.total} runs: {stats.cache_hits} cached, "
              f"{stats.parallel_runs} parallel, "
              f"{stats.inline_runs} inline; "
              f"{stats.batched_runs} batched]")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache()
    checkpoints = CheckpointStore(cache.root / "checkpoints")
    if args.action == "clear":
        if args.checkpoints:
            removed = checkpoints.clear()
            print(f"removed {removed} checkpoint(s) from "
                  f"{checkpoints.root}")
            return 0
        removed = cache.clear()
        ckpt_removed = checkpoints.clear()
        print(f"removed {removed} cached result(s) and {ckpt_removed} "
              f"checkpoint(s) from {cache.root}")
        return 0
    info = cache.info()
    ckpt = checkpoints.info()
    print(f"cache root:  {info.root}")
    print(f"results:     {info.entries} entries, "
          f"{info.size_bytes / 1024:.1f} KiB")
    print(f"checkpoints: {ckpt.entries} entries, "
          f"{ckpt.size_bytes / 1024:.1f} KiB")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one simulation under a SIGPROF sampler and print its IPC,
    its wall-clock stage breakdown, and how the kernel's time splits
    by pipeline stage (``repro.obs.stages``)."""
    config = SimulationConfig(
        benchmark=args.benchmark,
        variant=FloorplanVariant(args.variant),
        max_cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed)
    simulator = Simulator(config)
    sampled = hasattr(signal, "setitimer")
    cpu_s = time.process_time()
    if sampled:
        result, counts = obs_stages.sample_stages(simulator.run)
    else:
        result = simulator.run()
    cpu_s = time.process_time() - cpu_s
    print(f"IPC {result.ipc:.3f} over {result.cycles} measured cycles")
    total = sum(simulator.stage_times.values()) or 1.0
    print("stage wall-clock breakdown:")
    for name, seconds in sorted(simulator.stage_times.items()):
        print(f"  {name:10s} {seconds:8.3f}s ({seconds / total:5.1%})")
    if not sampled:
        print("kernel stage split: needs signal.setitimer (POSIX)")
        return 0
    samples = sum(counts.values())
    print(f"kernel stage split ({samples} SIGPROF samples over "
          f"{cpu_s:.2f}s of CPU; approximate):")
    for label in [*obs_stages.stage_labels(), obs_stages.NO_LINE,
                  obs_stages.OUTSIDE]:
        share = counts[label] / samples if samples else 0.0
        print(f"  {label:20s} {share:6.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Balancing Resource Utilization to "
                    "Mitigate Power Density in Processor Pipelines' "
                    "(MICRO 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list workload models")
    list_p.set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run_p.add_argument("--variant", default="base",
                       choices=[v.value for v in FloorplanVariant])
    run_p.add_argument("--issue-queue", default="base",
                       choices=[p.value for p in IssueQueuePolicy])
    run_p.add_argument("--alus", default="base",
                       choices=[p.value for p in ALUPolicy])
    run_p.add_argument("--mapping", default="priority",
                       choices=[m.value for m in MappingKind])
    run_p.add_argument("--rf-turnoff", action="store_true")
    run_p.add_argument("--cycles", type=int, default=100_000)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--sanitize", action="store_true",
                       help="install runtime invariant checks "
                            "(see repro.analysis.sanitize)")
    run_p.add_argument("--trace", action="store_true",
                       help="collect cycle-stamped DTM events and "
                            "print a per-kind summary")
    run_p.add_argument("--trace-out", default="", metavar="PATH",
                       help="write collected events as JSON Lines to "
                            "PATH (implies --trace)")
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("figure",
                           help="reproduce one of the paper's figures")
    fig_p.add_argument("number", choices=sorted(_EXPERIMENTS))
    fig_p.add_argument("--benchmarks", default="",
                       help="comma-separated subset (default: all 22)")
    fig_p.add_argument("--cycles", type=int, default=100_000)
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or "
                            "all cores; 1 = inline)")
    fig_p.set_defaults(func=_cmd_figure)

    report_p = sub.add_parser(
        "report", help="render the figure grids as a Markdown or HTML "
                       "report (cached results re-render without "
                       "re-simulating)")
    report_p.add_argument("--figures", default="6,7,8",
                          help="comma-separated figure numbers "
                               "(default: 6,7,8)")
    report_p.add_argument("--benchmarks", default="",
                          help="comma-separated subset (default: all 22)")
    report_p.add_argument("--cycles", type=int, default=100_000)
    report_p.add_argument("--seed", type=int, default=1)
    report_p.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS "
                               "or all cores; 1 = inline)")
    report_p.add_argument("--format", default="md",
                          choices=("md", "html"),
                          help="output format (default: md)")
    report_p.add_argument("--output", default="REPORT.md",
                          help="output path, or '-' for stdout "
                               "(default: REPORT.md)")
    report_p.set_defaults(func=_cmd_report)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk result and "
                      "checkpoint caches")
    cache_p.add_argument("action", choices=("info", "clear"))
    cache_p.add_argument("--checkpoints", action="store_true",
                         help="clear only warm-state checkpoints, "
                              "keeping cached results")
    cache_p.set_defaults(func=_cmd_cache)

    profile_p = sub.add_parser(
        "profile", help="run one simulation under a SIGPROF sampler "
                        "and print its IPC, its per-stage wall-clock "
                        "breakdown, and the kernel's sampled split by "
                        "pipeline stage")
    profile_p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    profile_p.add_argument("--variant", default="base",
                           choices=[v.value for v in FloorplanVariant])
    profile_p.add_argument("--cycles", type=int, default=60_000)
    profile_p.add_argument("--warmup", type=int, default=12_000)
    profile_p.add_argument("--seed", type=int, default=1)
    profile_p.set_defaults(func=_cmd_profile)

    lint_p = sub.add_parser(
        "lint", help="run repro-lint static analysis (REP001-REP007 "
                     "shallow; REP101-REP104 semantic with --deep)",
        add_help=False)
    lint_p.add_argument("lint_args", nargs=argparse.REMAINDER,
                        help="arguments for repro.analysis.lint "
                             "(paths, --select, --deep, --sarif, "
                             "--format, --stats, --list-rules)")
    lint_p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Hand everything after "lint" to the linter's own parser so
        # its options need no mirroring here.
        return analysis_lint.main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
