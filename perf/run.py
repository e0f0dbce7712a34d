"""Benchmark of the power-density simulator: cold-grid workloads timed
on the host, with every simulated result checked against golden
digests.

Every repeat runs in a fresh Python process (``perf/worker.py``) with a
fresh result cache and checkpoint store and with every ``REPRO_*``
variable unset, so each repeat is cold and takes the default execution
path.  One workload process runs at a time (a closed loop driven from
this process); no workload uses more than 2 worker processes.  Host
times are scaled to a reference host speed that a probe thread in the
worker measures (see ``perf/worker.py``).

Two ways to run it, from the repository root:

* ``python perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
  repeats one workload for about ``S`` seconds and prints, as its last
  line, one JSON object with the median of every end-to-end metric
  (``--trace 0``) or every per-layer metric (``--trace 1``) named in
  ``BENCHMARK.json``.
* ``python perf/run.py --seed 1`` runs ``--rounds`` rounds (default 5).
  In each round every workload in turn repeats for ``--seconds``, as in
  the first form, and the round's value of a metric is the median of
  its repeats.  Then comes one traced timed run of each workload, as
  with ``--trace 1``.  It prints every metric with the median, Q1/Q3
  and count of its round values, and writes a JSON file with
  provenance, the round values and the raw per-repeat values
  (``--out``).

Either way the exit status is non-zero when any run failed or any
simulated result differs from its golden digest.  A seed without a
committed golden is checked for identical results across repeats and by
re-running one run on the per-cycle reference loop; ``--write-golden``
records new goldens after confirming them against the unbatched
per-run path (``REPRO_BATCH=0``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import worker

PERF = worker.PERF
ROOT = worker.ROOT
SCRATCH = worker.SCRATCH
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = PERF / "golden"

#: Fewest repeats (of each kind, traced and untraced) one timed run
#: takes, however short ``--seconds`` is.
MIN_REPEATS = 2
#: Wall-clock cap for one worker process, and for one timed run as a
#: whole.
TIME_CAP_S = 170.0

#: Per-repeat clock readings and probe speeds kept beside the metrics,
#: whose times are scaled to the reference host speed.
HOST_KEYS = ("clock_wall_s", "clock_setup_s", "speed", "setup_speed")

Sample = Optional[Dict[str, Any]]


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ---------------------------------------------------------------------------
# one repeat = one worker process
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, smoke: bool, traced: bool = False,
          check_index: int = -1, env_extra: Optional[Dict[str, str]] = None,
          timeout: float = TIME_CAP_S) -> Sample:
    """Run one repeat in a fresh process; its parsed output, or None
    when the process failed, timed out or printed no result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_extra or {})
    env["TMPDIR"] = str(SCRATCH)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    flags = ["--smoke"] * smoke + ["--traced"] * traced
    if check_index >= 0:
        flags += ["--check-index", str(check_index)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(PERF / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-at", repr(spawned_at), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # The worker's own session: stops pool workers a crashed or
        # timed-out worker left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print(f"[perf] {workload} seed {seed}: worker failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN / f"{workload}-seed{seed}.json"


def load_golden(workload: str, seed: int,
                params: Dict[str, Any]) -> Optional[List[str]]:
    """The committed digests for this workload, seed and scale, or None."""
    try:
        with open(golden_path(workload, seed)) as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        return None
    if golden["params"] != params:
        return None
    return [run["sha256"] for run in golden["runs"]]


def write_golden(workload: str, seed: int, smoke: bool,
                 sample: Dict[str, Any]) -> bool:
    """Confirm ``sample``'s digests on the unbatched per-run path, then
    record them as the golden; False when the two paths disagree."""
    reference = spawn(workload, seed, smoke,
                      env_extra={"REPRO_BATCH": "0"})
    if reference is None or reference["digests"] != sample["digests"]:
        print(f"[perf] {workload} seed {seed}: batched results differ from "
              f"REPRO_BATCH=0; golden not written", file=sys.stderr)
        return False
    GOLDEN.mkdir(parents=True, exist_ok=True)
    golden = {
        "workload": workload, "seed": seed,
        "params": worker.workload_params(workload, smoke),
        "runs": [{"label": label, "sha256": digest} for label, digest
                 in zip(sample["labels"], sample["digests"])],
    }
    with open(golden_path(workload, seed), "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return True


def check_results(samples: Sequence[Sample],
                  golden: Optional[List[str]]) -> Tuple[int, int, int]:
    """(runs attempted, runs that failed, runs whose digest differs).

    Every run is compared with the golden when there is one, else with
    the first repeat's run (results are deterministic per seed); the
    re-rendered report must repeat its first pass; a reference-loop
    re-run counts as one more run.
    """
    ok = [s for s in samples if s is not None]
    reference = golden if golden is not None else (
        ok[0]["digests"] if ok else [])
    per_repeat = max(1, len(reference))
    attempted = errors = mismatches = 0
    for sample in samples:
        if sample is None:
            attempted += per_repeat
            errors += per_repeat
            continue
        passes = [sample["digests"]]
        if sample["rerun_digests"]:
            passes.append(sample["rerun_digests"])
        for digests in passes:
            attempted += max(len(digests), len(reference))
            mismatches += abs(len(digests) - len(reference)) + sum(
                a != b for a, b in zip(digests, reference))
        if "check_digest" in sample:
            attempted += 1
            mismatches += (sample["check_digest"]
                           != sample["digests"][sample["check_index"]])
    return attempted, errors, mismatches


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_values(sample: Dict[str, Any]) -> Dict[str, float]:
    return {
        "wall_s": sample["wall_s"],
        "sim_cycles_per_s": sample["sim_cycles"] / sample["wall_s"],
        "setup_s": sample["setup_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
    }


def summarize(bench: Dict[str, Any], rounds: Sequence[Sequence[Sample]],
              traced: Sequence[Sample],
              golden: Optional[List[str]]) -> Dict[str, Any]:
    """Per-metric median, quartiles and count of one workload's round
    values, plus its run accounting.

    A round's value is the median of the round's untraced repeats;
    ``values`` holds the round values and ``repeats`` the raw per-repeat
    values, round by round, and ``host`` the per-repeat clock readings
    and probe speeds behind them.  ``traced`` holds the samples of a
    traced timed run: per-layer metrics are taken over its traced
    repeats, each one a round of its own.  Every sample is checked.
    """
    def stats(unit: str, values: List[float],
              repeats: Optional[List[List[float]]] = None
              ) -> Dict[str, Any]:
        q1, median, q3 = quartiles(values)
        out = {"unit": unit, "median": median, "q1": q1, "q3": q3,
               "n": len(values), "values": values}
        if repeats is not None:
            out["repeats"] = repeats
        return out

    untraced = [s for round_ in rounds for s in round_]
    spanned = [s for s in traced if s is not None and "layers" in s]
    done = [[end_to_end_values(s) for s in round_ if s is not None]
            for round_ in rounds]
    done = [rows for rows in done if rows]
    summary: Dict[str, Any] = {"end_to_end": {}, "per_layer": {}}
    if done:
        for metric in bench["end_to_end"]:
            repeats = [[row[metric["name"]] for row in rows]
                       for rows in done]
            summary["end_to_end"][metric["name"]] = stats(
                metric["unit"], [statistics.median(r) for r in repeats],
                repeats)
    if spanned:
        for metric in bench["per_layer"]:
            summary["per_layer"][metric["name"]] = stats(
                metric["unit"],
                [s["layers"][metric["name"]] for s in spanned])
        summary["traced_wall_s"] = [s["clock_wall_s"] for s in spanned]
    summary["host"] = {key: [[s[key] for s in round_ if s is not None]
                             for round_ in rounds] for key in HOST_KEYS}
    attempted, errors, mismatches = check_results([*untraced, *traced],
                                                  golden)
    summary.update({
        "attempted": attempted, "failed": errors + mismatches,
        "run_error_rate": errors / attempted if attempted else 1.0,
        "result_mismatch_rate": mismatches / attempted if attempted else 1.0,
        "golden": golden is not None,
    })
    return summary


def print_table(workload: str, summary: Dict[str, Any]) -> None:
    print(f"== {workload}: {summary['attempted']} runs, "
          f"error rate {summary['run_error_rate']:.3g}, mismatch rate "
          f"{summary['result_mismatch_rate']:.3g}"
          f"{'' if summary['golden'] else ' (no golden: self-checked)'}")
    for group in ("end_to_end", "per_layer"):
        for name, s in summary[group].items():
            print(f"  {name:28s} {s['median']:14.6g} {s['unit']:10s} "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  n={s['n']}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """Where and on what the numbers were measured.  ``dirty`` covers
    tracked changes and untracked files alike; ``src_sha256`` hashes
    the program's sources, so it identifies the code even without git."""
    diff = _git("diff", "HEAD")
    untracked = _git("ls-files", "--others", "--exclude-standard")
    commit = _git("rev-parse", "HEAD")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "commit": commit.strip() if commit else None,
        "dirty": bool(diff or untracked),
        "diff_sha256": (hashlib.sha256(diff.encode()).hexdigest()
                        if diff is not None else None),
        "untracked_files": untracked.splitlines() if untracked else [],
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "repro_env_unset": {k: v for k, v in os.environ.items()
                            if k.startswith("REPRO_")},
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "started_at": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def timed_run(args: argparse.Namespace, workload: str, trace: bool,
              check: bool) -> Tuple[List[Sample], List[Sample]]:
    """Repeats of one workload for about ``--seconds`` in all, the
    reference-loop check included: (untraced, traced) samples.  With
    ``trace`` the two kinds alternate, and each traced repeat's
    ``trace.overhead_frac`` is its wall time over the median of the
    untraced ones, minus 1; ``check`` adds the reference-loop re-run to
    the first repeat."""
    started = time.monotonic()
    deadline = started + args.seconds
    untraced: List[Sample] = []
    traced: List[Sample] = []
    while True:
        trace_next = trace and len(traced) < len(untraced)
        first = not untraced and not traced
        t0 = time.monotonic()
        sample = spawn(
            workload, args.seed, args.smoke, traced=trace_next,
            check_index=args.seed if first and check else -1,
            timeout=max(10.0, TIME_CAP_S - (t0 - started)))
        (traced if trace_next else untraced).append(sample)
        now = time.monotonic()
        # The next repeat should take as long as this one did, less the
        # reference-loop re-run.
        next_s = now - t0 - (sample or {}).get("check_s", 0.0)
        enough = len(untraced) >= MIN_REPEATS and (
            not trace or len(traced) >= MIN_REPEATS)
        if (enough and now + next_s > deadline
                or now + next_s > started + TIME_CAP_S):
            break
    walls = [s["wall_s"] for s in untraced if s is not None]
    for sample in traced:
        if sample is not None and walls:
            sample["layers"]["trace.overhead_frac"] = (
                sample["wall_s"] / statistics.median(walls) - 1.0)
    return untraced, traced


def run_workload(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    """One workload for about ``--seconds``; last line is the result."""
    params = worker.workload_params(args.workload, args.smoke)
    golden = load_golden(args.workload, args.seed, params)
    untraced, traced = timed_run(args, args.workload, bool(args.trace),
                                 check=golden is None)
    if not any(untraced):
        print(f"[perf] {args.workload}: no repeat succeeded",
              file=sys.stderr)
        return 1
    # Each repeat is a round of its own: the result is their median.
    summary = summarize(bench, [[s] for s in untraced], traced, golden)
    print_table(args.workload, summary)
    ok = summary["failed"] == 0
    if ok and args.write_golden:
        sample = next(s for s in untraced if s is not None)
        ok = write_golden(args.workload, args.seed, args.smoke, sample)
    group = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": ok,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary[group].items()},
    }))
    return 0 if ok else 1


def run_all(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    """Every workload, a timed run each per round, then a traced timed
    run of each."""
    record: Dict[str, Any] = {"provenance": provenance(args),
                              "workloads": {}}
    names = [w["name"] for w in bench["workloads"]]
    goldens = {name: load_golden(name, args.seed,
                                 worker.workload_params(name, args.smoke))
               for name in names}
    rounds: Dict[str, List[List[Sample]]] = {name: [] for name in names}
    traced: Dict[str, List[Sample]] = {}
    for index in range(args.rounds):
        for name in names:
            print(f"[perf] {name} round {index + 1}/{args.rounds}",
                  file=sys.stderr)
            untraced, _ = timed_run(
                args, name, trace=False,
                check=goldens[name] is None and index == 0)
            rounds[name].append(untraced)
    for name in names:
        print(f"[perf] {name} traced run", file=sys.stderr)
        untraced, spanned = timed_run(args, name, trace=True, check=False)
        traced[name] = [*spanned, *untraced]
    ok = True
    for name in names:
        summary = summarize(bench, rounds[name], traced[name],
                            goldens[name])
        record["workloads"][name] = summary
        print_table(name, summary)
        ok = ok and summary["failed"] == 0 and bool(summary["end_to_end"])
        if ok and args.write_golden:
            sample = next(s for r in rounds[name] for s in r if s is not None)
            ok = write_golden(name, args.seed, args.smoke, sample)
    out = args.out or SCRATCH / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"[perf] wrote {out}", file=sys.stderr)
    return 0 if ok else 1


def main(argv: Sequence[str]) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=worker.WORKLOADS,
                        help="time one workload for --seconds")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="length of one timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="2 benchmarks at 2k cycles (for tests)")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[perf] no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is not None:
        return run_workload(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
