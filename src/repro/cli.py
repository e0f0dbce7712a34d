"""Command-line interface: run single simulations or paper experiments.

Examples::

    python -m repro run perlbmk --variant alu --alus fine_grain
    python -m repro figure 7 --benchmarks perlbmk,parser --cycles 80000
    python -m repro list
    python -m repro lint src/ tests/
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from .analysis import lint as analysis_lint
from .analysis.sanitize import sanitize_enabled
from .core.mapping import MappingKind
from .core.policies import (ALUPolicy, IssueQueuePolicy, RegFilePolicy,
                            TechniqueConfig)
from .obs import report as obs_report
from .obs.collector import trace_enabled
from .pipeline.accel import accel_compile_s, active_backend
from .pipeline.kernel import (batch_enabled, batch_merge_enabled,
                              kernel_enabled)
from .sim.checkpoint import CheckpointStore, checkpoints_enabled
from .sim.experiments import (alu_experiment, issue_queue_experiment,
                              regfile_experiment)
from .sim.parallel import (ExperimentEngine, ResultCache, cache_enabled,
                           default_jobs)
from .sim.runner import SimulationConfig, Simulator, run_simulation
from .thermal.floorplan import FloorplanVariant
from .workloads.spec2000 import BENCHMARK_NAMES, PROFILES


def _parse_benchmarks(text: str) -> List[str]:
    names = [n.strip() for n in text.split(",") if n.strip()]
    for name in names:
        if name not in PROFILES:
            raise SystemExit(f"unknown benchmark {name!r}; see "
                             f"'python -m repro list'")
    return names


#: CLI spellings of the accelerator backend request (``--accel``),
#: mirrored verbatim into ``REPRO_ACCEL`` — see
#: :func:`repro.pipeline.accel.resolve_backend` for the semantics.
ACCEL_CHOICES = ("auto", "numba", "numpy", "0")


def _apply_accel(args: argparse.Namespace) -> None:
    """Mirror ``--accel`` into ``REPRO_ACCEL`` for this process (worker
    processes inherit the environment, so pool runs follow suit)."""
    if getattr(args, "accel", None):
        os.environ["REPRO_ACCEL"] = args.accel


def _git(*args: str) -> Optional[bytes]:
    """Raw standard output of ``git <args>`` run in this package's
    directory; ``None`` outside a checkout (installed package,
    tarball) or when git fails."""
    try:
        proc = subprocess.run(
            ["git", *args], capture_output=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _repro_settings() -> Dict[str, Any]:
    """Every ``REPRO_*`` execution switch as this process resolves it,
    defaults applied."""
    return {
        "REPRO_JOBS": default_jobs(),
        "REPRO_CACHE": cache_enabled(),
        "REPRO_CHECKPOINTS": checkpoints_enabled(),
        "REPRO_BATCH": batch_enabled(),
        "REPRO_BATCH_MERGE": batch_merge_enabled(),
        "REPRO_KERNEL": kernel_enabled(),
        "REPRO_ACCEL": active_backend(),
        "REPRO_SANITIZE": sanitize_enabled(),
        "REPRO_TRACE": trace_enabled(),
    }


def _provenance() -> Dict[str, Any]:
    """What a bench measured: the commit, whether the package source
    (this directory, ``src/repro`` in a checkout) differed from it
    (tracked changes or untracked files) and a SHA-256 of the raw
    bytes of ``git diff HEAD`` over that directory, the host's CPU
    count and Python version, and the resolved ``REPRO_*`` settings.
    Files outside the package, the bench's own ``BENCH_parallel.json``
    and ``BENCH_history.jsonl`` among them, leave the flag and hash
    alone, so a re-run on an unmodified commit records a clean tree.
    Outside a checkout the commit reads ``unknown`` and the dirty flag
    and diff hash ``None``."""
    commit = _git("rev-parse", "--short", "HEAD")
    diff = _git("diff", "HEAD", "--", ".")
    untracked = _git("ls-files", "--others", "--exclude-standard",
                     "--", ".")
    return {
        "commit": (commit.decode(errors="replace").strip()
                   if commit else "unknown"),
        "dirty": None if diff is None else bool(diff or untracked),
        "diff_sha256": (None if diff is None else
                        hashlib.sha256(diff).hexdigest()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repro_settings": _repro_settings(),
    }


def _timed_best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``, preceded by
    one untimed warmup call.

    The warmup call eats every first-invocation effect — accelerator
    JIT compilation, trace materialization, interpreter cache warming —
    so the timed windows measure steady-state execution only (asserted
    in ``tests/pipeline/test_accel.py``).  Compile time is reported
    separately via :func:`repro.pipeline.accel.accel_compile_s`.
    """
    fn()
    walls = []
    for _ in range(repeats):
        # Collect the previous run's garbage outside the timed window
        # (the simulator pauses the GC while cycling); best-of-N
        # rejects scheduler noise on shared machines.
        gc.collect()
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


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
    _apply_accel(args)
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
    print(f"backend:        {active_backend()}")
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
    """Profile one simulation under cProfile and print hot spots."""
    config = SimulationConfig(
        benchmark=args.benchmark,
        variant=FloorplanVariant(args.variant),
        max_cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed)
    simulator = Simulator(config)
    profiler = cProfile.Profile()
    result = profiler.runcall(simulator.run)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    print(f"IPC {result.ipc:.3f} over {result.cycles} measured cycles")
    total = sum(simulator.stage_times.values()) or 1.0
    print("stage wall-clock breakdown:")
    for name, seconds in sorted(simulator.stage_times.items()):
        print(f"  {name:10s} {seconds:8.3f}s ({seconds / total:5.1%})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time the paper-figure grids through the execution engine.

    Each grid is measured three ways: cold through the worker pool at
    ``jobs > 1`` (the requested job count, floored at 2 so the bench
    always exercises parallel dispatch), once more against the
    now-warm cache, and cold again serially at ``jobs=1`` — so the
    report's ``serial_wall_s``/``parallel_speedup`` fields capture the
    parallel scaling trajectory on every run.  The serial pass runs
    compatible runs through the batched kernel, and its all-runs
    throughput is reported as ``grid_cycles_per_s`` alongside the
    per-run ``cycles_per_s`` metrics.  The measurements land in a
    JSON report (default ``BENCH_parallel.json``).

    Each report is also appended as one JSON line to a history file
    (default ``BENCH_history.jsonl``) with provenance (see
    :func:`_provenance`, taken before the bench writes any file),
    accelerator backend and config, so the performance trajectory
    survives each overwrite of the snapshot.  Accelerator compile time
    (numba's one-time JIT cost) is absorbed by untimed warmup calls and
    broken out as ``accel_compile_s`` rather than polluting any timed
    window.
    """
    _apply_accel(args)
    provenance = _provenance()
    benchmarks = (_parse_benchmarks(args.benchmarks)
                  if args.benchmarks else tuple(BENCHMARK_NAMES))
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 2:
        jobs = 2
    figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    for figure in figures:
        if figure not in _EXPERIMENTS:
            raise SystemExit(f"unknown figure {figure!r}; "
                             f"choose from {sorted(_EXPERIMENTS)}")

    report: Dict[str, Any] = {
        "jobs": jobs,
        "cycles": args.cycles,
        "benchmarks": list(benchmarks),
        "accel_backend": active_backend(),
        "grids": [],
    }

    single_cycles = args.cycles
    config = SimulationConfig(
        benchmark=benchmarks[0], variant=FloorplanVariant.ALU,
        techniques=TechniqueConfig(alus=ALUPolicy.FINE_GRAIN),
        max_cycles=single_cycles)
    single_wall = _timed_best_of(lambda: run_simulation(config))
    # The warmup inside _timed_best_of triggered (and timed) any JIT
    # compilation; surface it next to — never inside — the timings.
    report["accel_compile_s"] = accel_compile_s()
    report["single_run"] = {
        "benchmark": benchmarks[0],
        "cycles": single_cycles,
        "wall_s": single_wall,
        "cycles_per_s": single_cycles / single_wall,
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for figure in figures:
            runner = _EXPERIMENTS[figure]
            engine = ExperimentEngine(jobs=jobs,
                                      cache=ResultCache(tmp))
            start = time.perf_counter()
            runner(benchmarks=benchmarks, max_cycles=args.cycles,
                   seed=args.seed, engine=engine)
            cold_wall = time.perf_counter() - start
            runs = engine.stats.total
            total_cycles = runs * args.cycles
            # Snapshot cold-run accounting before the warm rerun adds
            # cache hits on top of it.
            stage_seconds = engine.stats.stage_seconds()
            restores = engine.stats.checkpoint_restores
            captures = engine.stats.checkpoint_captures

            start = time.perf_counter()
            runner(benchmarks=benchmarks, max_cycles=args.cycles,
                   seed=args.seed, engine=engine)
            warm_wall = time.perf_counter() - start

            grid: Dict[str, Any] = {
                "figure": figure,
                "runs": runs,
                "jobs": engine.jobs,
                "total_cycles": total_cycles,
                "wall_s": cold_wall,
                "cycles_per_s": total_cycles / cold_wall,
                "warm_wall_s": warm_wall,
                "cache_hit_rate": engine.stats.cache_hit_rate,
                "stage_seconds": stage_seconds,
                "checkpoint_restores": restores,
                "checkpoint_captures": captures,
            }
            serial = ExperimentEngine(jobs=1, use_cache=False,
                                      use_checkpoints=False)
            start = time.perf_counter()
            runner(benchmarks=benchmarks, max_cycles=args.cycles,
                   seed=args.seed, engine=serial)
            serial_wall = time.perf_counter() - start
            grid["serial_wall_s"] = serial_wall
            grid["parallel_speedup"] = serial_wall / cold_wall
            # Grid throughput counts every run in flight: the serial
            # cold pass executes compatible runs through the batched
            # kernel (one invocation per warm-state group), so this is
            # the honest all-runs metric next to the per-run
            # ``cycles_per_s`` of ``single_run``.
            grid["grid_cycles_per_s"] = total_cycles / serial_wall
            grid["batched_runs"] = serial.stats.batched_runs
            grid["batch_groups"] = serial.stats.batch_groups
            # Divergence accounting from the batched serial pass.
            grid["fork_count"] = serial.stats.fork_count
            grid["merge_count"] = serial.stats.merge_count
            grid["batch_class_occupancy"] = {
                str(size): waves for size, waves in
                sorted(serial.stats.batch_class_occupancy.items())}
            report["grids"].append(grid)
            line = (f"figure {figure}: {runs} runs, "
                    f"{cold_wall:.2f}s cold "
                    f"({grid['cycles_per_s']:,.0f} cycles/s), "
                    f"{warm_wall:.3f}s cached "
                    f"(hit rate {grid['cache_hit_rate']:.0%}), "
                    f"{restores} ckpt restore(s)")
            line += (f", {grid['serial_wall_s']:.2f}s serial "
                     f"({grid['parallel_speedup']:.2f}x, "
                     f"{grid['grid_cycles_per_s']:,.0f} grid cycles/s, "
                     f"{grid['batched_runs']} runs in "
                     f"{grid['batch_groups']} batch(es), "
                     f"{grid['fork_count']} fork(s), "
                     f"{grid['merge_count']} merge(s))")
            print(line)
            if grid["parallel_speedup"] < 1.0:
                print(f"WARNING: figure {figure}: pool dispatch at "
                      f"jobs={jobs} ran SLOWER than batched serial "
                      f"({grid['parallel_speedup']:.2f}x). Treat "
                      f"wall_s/cycles_per_s as a regression signal, "
                      f"not a parallel win.",
                      file=sys.stderr)

    print(f"accel backend: {report['accel_backend']}"
          + (f" (compile {report['accel_compile_s']:.2f}s, "
             f"excluded from timed windows)"
             if report["accel_compile_s"] else ""))
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")
    if args.history:
        entry = {
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S",
                                        time.gmtime()) + "Z",
            **provenance,
            "accel_backend": report["accel_backend"],
            "accel_compile_s": report["accel_compile_s"],
            "config": {"figures": figures,
                       "benchmarks": list(benchmarks),
                       "cycles": args.cycles, "seed": args.seed,
                       "jobs": jobs},
            "single_run": report["single_run"],
            "grids": [{key: grid[key] for key in
                       ("figure", "runs", "wall_s", "cycles_per_s",
                        "serial_wall_s", "grid_cycles_per_s",
                        "parallel_speedup", "batched_runs",
                        "batch_groups", "fork_count", "merge_count")}
                      for grid in report["grids"]],
        }
        with open(args.history, "a") as handle:
            json.dump(entry, handle, separators=(",", ":"))
            handle.write("\n")
        print(f"history appended to {args.history}")
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
    run_p.add_argument("--accel", default=None, choices=ACCEL_CHOICES,
                       help="accelerator backend (mirrors REPRO_ACCEL: "
                            "auto = numba when installed else the "
                            "Python kernel; numpy = the lowered "
                            "interpreter without JIT; 0 = off)")
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

    bench_p = sub.add_parser(
        "bench", help="time the figure grids through the parallel "
                      "engine and write a JSON report")
    bench_p.add_argument("--figures", default="6,7,8",
                         help="comma-separated figure numbers "
                              "(default: 6,7,8)")
    bench_p.add_argument("--benchmarks", default="",
                         help="comma-separated subset (default: all 22)")
    bench_p.add_argument("--cycles", type=int, default=100_000)
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS "
                              "or all cores; floored at 2 so the bench "
                              "always exercises parallel dispatch)")
    bench_p.add_argument("--compare-serial", action="store_true",
                         help="deprecated no-op: the serial comparison "
                              "now always runs")
    bench_p.add_argument("--output", default="BENCH_parallel.json",
                         help="report path (default: "
                              "BENCH_parallel.json)")
    bench_p.add_argument("--history", default="BENCH_history.jsonl",
                         help="JSONL history file each report is "
                              "appended to with commit/backend/config "
                              "provenance; '' disables (default: "
                              "BENCH_history.jsonl)")
    bench_p.add_argument("--accel", default=None, choices=ACCEL_CHOICES,
                         help="accelerator backend (mirrors "
                              "REPRO_ACCEL; recorded in the report's "
                              "accel_backend field)")
    bench_p.set_defaults(func=_cmd_bench)

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
        "profile", help="profile one simulation run (cProfile) and "
                        "print the hottest functions plus the "
                        "per-stage wall-clock breakdown")
    profile_p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    profile_p.add_argument("--variant", default="base",
                           choices=[v.value for v in FloorplanVariant])
    profile_p.add_argument("--cycles", type=int, default=60_000)
    profile_p.add_argument("--warmup", type=int, default=12_000)
    profile_p.add_argument("--seed", type=int, default=1)
    profile_p.add_argument("--top", type=int, default=25,
                           help="functions to print, by cumulative "
                                "time (default: 25)")
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
