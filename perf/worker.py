"""One repeat of one benchmark workload, in a fresh Python process.

``perf/run.py`` starts this script once per repeat so every repeat is
cold: a new interpreter, new imports, an empty result cache and an
empty checkpoint store, exactly like a ``repro report`` after a code
change.  The script prints one JSON object as the last line of its
standard output: host-time measurements, the SHA-256 digest of every
simulated result, and, for a traced repeat, the per-layer metrics.

Host times are reported at a reference host speed.  On a shared host a
core can run the same Python 1.6x slower for seconds to minutes at a
time (another tenant on its hyperthread sibling; the two cores of a
2-core container slow down independently), which swamps any change
worth measuring.  So the process pins itself to one core, and a probe
thread times a fixed slice of Python on that core every
``PROBE_INTERVAL_S``; a measured host time is scaled by the mean probe
speed over its interval, relative to ``REFERENCE_PROBE_S``.  The clock
readings and the speed factors are reported too.

Run by hand (``--spawned-at`` is a ``time.monotonic()`` reading taken
just before the process was started)::

    python perf/worker.py --workload fig8-regfile --seed 1 \
        --spawned-at "$(python -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import trace as spans

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SCRATCH = PERF / "scratch"

#: Workload parameters.  One repeat takes about 3-7 s at the reference
#: host speed.  The two grids keep a 40k-cycle budget so the measured
#: kernel, not the fixed 12k-cycle warm-up, dominates them, and fit the
#: time cap through short benchmark lists instead.  The lists hold
#: benchmarks whose host time moves little with the seed, since a
#: timed run of the benchmark is one seed (perf/README.md has the
#: figures).  ``report-suite`` uses only benchmarks that never reach a
#: thermal emergency: at 4k cycles a hot one (mesa, for one) can spend
#: a whole run in a global stall, and the report's speedup over a zero
#: base IPC divides by zero.  ``smoke`` shrinks every workload to 2
#: benchmarks at 2k cycles for the tests.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "single-run": {"cycles": 60_000},
    "fig7-alu": {"benchmarks": ["mesa", "wupwise"], "cycles": 40_000,
                 "jobs": 1},
    "fig8-regfile": {"benchmarks": ["perlbmk", "gcc", "twolf", "vpr"],
                     "cycles": 40_000, "jobs": 1},
    "report-suite": {"benchmarks": ["gcc", "vpr", "twolf", "bzip", "art"],
                     "cycles": 4_000, "jobs": 2},
}
SMOKE_CYCLES = 2_000
SMOKE_BENCHMARKS = 2


def workload_params(name: str, smoke: bool) -> Dict[str, Any]:
    """The parameters one workload runs with (goldens record them)."""
    params = dict(WORKLOADS[name])
    if smoke:
        params["cycles"] = SMOKE_CYCLES
        if "benchmarks" in params:
            params["benchmarks"] = params["benchmarks"][:SMOKE_BENCHMARKS]
    return params


def result_digest(result: Any) -> str:
    """SHA-256 of the canonical JSON of ``SimulationResult.to_dict()``."""
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """What one workload call produced: every config it submitted and
    every result it got back, in submission order, plus each engine
    (for its run accounting)."""

    def __init__(self) -> None:
        self.configs: List[Any] = []
        self.results: List[Any] = []
        self.engines: List[Any] = []
        #: Results of a second pass that must repeat the first one
        #: (the report re-rendered from the warm cache).
        self.rerun: List[Any] = []
        self.rerender_s = 0.0


def _engine_factory(recorder: Recorder, tmp: Path, jobs: int
                    ) -> Callable[[bool], Any]:
    """Engines bound to this repeat's fresh cache and checkpoint store,
    recording what they run: the first pass into ``recorder.configs``
    and ``recorder.results``, a re-run into ``recorder.rerun``."""
    from repro.sim.parallel import ExperimentEngine, ResultCache

    class RecordingEngine(ExperimentEngine):
        def __init__(self, rerun: bool) -> None:
            super().__init__(jobs=jobs, cache=ResultCache(tmp / "cache"),
                             checkpoints=tmp / "checkpoints")
            self.rerun = rerun

        def run_many(self, configs):
            results = super().run_many(configs)
            if self.rerun:
                recorder.rerun.extend(results)
            else:
                recorder.configs.extend(configs)
                recorder.results.extend(results)
            return results

    def make(rerun: bool = False) -> Any:
        engine = RecordingEngine(rerun)
        recorder.engines.append(engine)
        return engine

    return make


def build_workload(name: str, seed: int, params: Dict[str, Any],
                   tmp: Path) -> Tuple[Recorder, Callable[[], None]]:
    """Construct everything the workload needs (set-up) and return the
    call to time."""
    recorder = Recorder()
    cycles = params["cycles"]
    if name == "single-run":
        # The ``repro run`` path: no engine, cache, checkpoints or
        # batching, so a batching or dispatch change must not move it.
        from repro.core.mapping import MappingKind
        from repro.core.policies import (BASELINE, ALUPolicy,
                                         IssueQueuePolicy, RegFilePolicy,
                                         TechniqueConfig)
        from repro.sim.runner import SimulationConfig, run_simulation
        from repro.thermal.floorplan import FloorplanVariant
        configs = [
            SimulationConfig(
                "perlbmk", FloorplanVariant.ALU,
                TechniqueConfig(
                    issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING,
                    alus=ALUPolicy.FINE_GRAIN,
                    regfile=RegFilePolicy(MappingKind.PRIORITY,
                                          fine_grain_turnoff=True)),
                max_cycles=cycles, seed=seed),
            SimulationConfig(
                "mesa", FloorplanVariant.ISSUE_QUEUE,
                TechniqueConfig(
                    issue_queue=IssueQueuePolicy.ACTIVITY_TOGGLING),
                max_cycles=cycles, seed=seed),
            SimulationConfig("gzip", techniques=BASELINE,
                             max_cycles=cycles, seed=seed),
        ]

        def single() -> None:
            recorder.configs.extend(configs)
            recorder.results.extend(run_simulation(c) for c in configs)
        return recorder, single

    make = _engine_factory(recorder, tmp, params["jobs"])
    benchmarks = params["benchmarks"]
    if name in ("fig7-alu", "fig8-regfile"):
        from repro.sim.experiments import alu_experiment, regfile_experiment
        experiment = (alu_experiment if name == "fig7-alu"
                      else regfile_experiment)
        engine = make()

        def grid() -> None:
            experiment(benchmarks, cycles, seed, engine=engine)
        return recorder, grid

    from repro.obs import report
    engine = make()

    def report_suite() -> None:
        report.generate(("6", "7", "8"), benchmarks, cycles, seed,
                        engine=engine).to_markdown()
        # A second ``repro report`` over the now-warm cache.
        start = time.perf_counter()
        report.generate(("6", "7", "8"), benchmarks, cycles, seed,
                        engine=make(rerun=True)).to_markdown()
        recorder.rerender_s = time.perf_counter() - start
    return recorder, report_suite


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tree_mb(path: Path) -> float:
    if not path.is_dir():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file()) / 1e6


#: How often the probe thread times its slice (about 1% of a core).
PROBE_INTERVAL_S = 0.02
#: Probe time of the reference host speed: a host time scaled by
#: ``REFERENCE_PROBE_S / probe time`` reads as it would on a core where
#: the slice takes this long: about the fastest the 2-core host the
#: baseline was measured on ran it.
REFERENCE_PROBE_S = 100e-6


def pin_to_one_core() -> None:
    """Keep this process on one core, the one its probe thread measures;
    processes it forks (the engine's pool workers) get every core back."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    os.register_at_fork(
        after_in_child=lambda: os.sched_setaffinity(0, cores))


class SpeedProbe(threading.Thread):
    """Times a fixed slice of Python every ``PROBE_INTERVAL_S``.

    The slice mixes what the simulator's Python does: integer
    arithmetic, list and dict stores, and small numpy reductions.  It
    allocates no garbage-collected objects, so it never triggers a
    collection, and it is timed in thread CPU time, so preemption does
    not count.  The engine forks pool workers while this thread runs,
    which is safe: the only lock the thread takes belongs to its own
    ``Event``, which a forked child never uses.
    """

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        import numpy
        self._array = numpy.arange(256, dtype=numpy.int64)
        self._cells = [0] * 64
        self._seen = dict.fromkeys(range(32), 0)
        self._done = threading.Event()
        #: ``(time.monotonic() at the start, thread CPU seconds)`` per
        #: timed slice.
        self.samples: List[Tuple[float, float]] = []

    def _slice(self) -> int:
        array, cells, seen = self._array, self._cells, self._seen
        total = 0
        for i in range(200):
            total += i * i % 7
            cells[i & 63] = total
            seen[i & 31] = cells[(i * 5) & 63]
            if i & 7 == 0:
                total += int(array[i & 127:(i & 127) + 8].sum())
        return total

    def run(self) -> None:
        while not self._done.wait(PROBE_INTERVAL_S):
            at = time.monotonic()
            start = time.thread_time()
            self._slice()
            self.samples.append((at, time.thread_time() - start))

    def stop(self) -> None:
        self._done.set()
        self.join()

    def speed(self, since: float, until: float) -> float:
        """Mean speed over the slices started in ``[since, until)``
        (over all slices when none did), relative to the reference:
        a host time over that interval times this is the time at the
        reference speed."""
        window = [s for at, s in self.samples if since <= at < until]
        return statistics.fmean(REFERENCE_PROBE_S / s
                                for s in window or
                                [s for _, s in self.samples])


def reference_digest(config: Any) -> str:
    """Digest of ``config`` run alone on the per-cycle reference loop
    (``REPRO_KERNEL=0``), the simulator's own oracle."""
    from repro.sim.runner import run_simulation
    from repro.workloads.trace import clear_registry
    clear_registry()
    os.environ["REPRO_KERNEL"] = "0"
    try:
        return result_digest(run_simulation(config))
    finally:
        del os.environ["REPRO_KERNEL"]


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check-index", type=int, default=-1,
                        help="also rerun this run on the reference loop")
    args = parser.parse_args(argv)

    pin_to_one_core()
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails here when the program is absent)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="repeat-", dir=SCRATCH))
    try:
        tracer = spans.install() if args.traced else None
        params = workload_params(args.workload, args.smoke)
        recorder, call = build_workload(args.workload, args.seed, params,
                                        tmp)
        call_at = time.monotonic()
        setup_s = call_at - args.spawned_at
        children_cpu_s = _children_cpu_s()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.root("workload"):
                call()
        else:
            call()
        wall_s = time.perf_counter() - start
        probe.stop()
        setup_speed = probe.speed(args.spawned_at, call_at)
        speed = probe.speed(call_at, time.monotonic())
        out: Dict[str, Any] = {
            "setup_s": setup_s * setup_speed,
            "wall_s": wall_s * speed,
            "clock_setup_s": setup_s,
            "clock_wall_s": wall_s,
            "setup_speed": setup_speed,
            "speed": speed,
            "peak_rss_mb": _peak_rss_mb(),
            "sim_cycles": sum(r.cycles for r in recorder.results),
            "digests": [result_digest(r) for r in recorder.results],
            "rerun_digests": [result_digest(r) for r in recorder.rerun],
            "labels": [f"{r.benchmark}/{r.technique_label}"
                       for r in recorder.results],
        }
        if tracer is not None:
            out["layers"] = spans.layer_metrics(
                tracer, wall_s, recorder,
                worker_cpu_s=_children_cpu_s() - children_cpu_s,
                blob_mb=_tree_mb(tmp / "checkpoints"), speed=speed)
            tracer.write_jsonl(
                SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if args.check_index >= 0:
            index = args.check_index % len(recorder.configs)
            check_start = time.perf_counter()
            out["check_index"] = index
            out["check_digest"] = reference_digest(recorder.configs[index])
            out["check_s"] = time.perf_counter() - check_start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
