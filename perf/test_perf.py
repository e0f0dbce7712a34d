"""Tests of the benchmark itself, at ``--smoke`` scale (2 benchmarks,
2k cycles; well under a minute for all four workloads).

Run from the repository root::

    python -m pytest perf/test_perf.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, verdict
from run import BENCHMARK, PERF, ROOT, SCRATCH

BENCH = json.loads(BENCHMARK.read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    done = _run("--smoke", "--seed", "1", "--rounds", "1", "--seconds", "1",
                "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_metric_and_workload_names_match_benchmark(smoke):
    assert list(smoke["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for summary in smoke["workloads"].values():
        assert list(summary["end_to_end"]) == [
            m["name"] for m in BENCH["end_to_end"]]
        assert list(summary["per_layer"]) == [
            m["name"] for m in BENCH["per_layer"]]
        assert summary["run_error_rate"] == 0
        assert summary["result_mismatch_rate"] == 0


def test_provenance_recorded(smoke):
    prov = smoke["provenance"]
    for key in ("commit", "dirty", "diff_sha256", "src_sha256", "nproc",
                "python", "numpy", "platform", "repro_env_unset", "seed",
                "rounds", "seconds", "started_at"):
        assert key in prov
    wall = smoke["workloads"]["single-run"]["end_to_end"]["wall_s"]
    assert len(wall["values"]) == wall["n"] == 1
    assert len(wall["repeats"]) == 1 and len(wall["repeats"][0]) >= 2


def test_times_are_clock_readings_scaled_by_probe_speed(smoke):
    for summary in smoke["workloads"].values():
        host = summary["host"]
        for name, clock, speed in (("wall_s", "clock_wall_s", "speed"),
                                   ("setup_s", "clock_setup_s",
                                    "setup_speed")):
            repeats = summary["end_to_end"][name]["repeats"]
            for values, clocks, speeds in zip(repeats, host[clock],
                                              host[speed]):
                assert len(values) == len(clocks) == len(speeds) >= 2
                for value, reading, factor in zip(values, clocks, speeds):
                    assert factor > 0
                    assert value == pytest.approx(reading * factor)


def test_span_self_times_are_nonnegative_and_fit_in_wall(smoke):
    for workload, summary in smoke["workloads"].items():
        spans = [json.loads(line) for line in
                 (SCRATCH / f"spans-{workload}-seed1.jsonl").open()]
        own = [s["end"] - s["start"] for s in spans]
        for span in spans:
            if span["parent"] >= 0:
                own[span["parent"]] -= span["end"] - span["start"]
        assert min(own) >= -1e-9, workload
        assert sum(own) <= summary["traced_wall_s"][-1] + 1e-6, workload


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(BENCHMARK, dest / "BENCHMARK.json")
    shutil.copytree(PERF, dest / "perf",
                    ignore=shutil.ignore_patterns("scratch", "__pycache__"))


def test_corrupted_golden_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    args = ("--workload", "fig8-regfile", "--smoke", "--seed", "1",
            "--seconds", "1")
    written = _run(*args, "--write-golden", cwd=tmp_path)
    assert written.returncode == 0, written.stderr
    path = tmp_path / "perf" / "golden" / "fig8-regfile-seed1.json"
    golden = json.loads(path.read_text())
    golden["runs"][0]["sha256"] = "0" * 64
    path.write_text(json.dumps(golden))
    checked = _run(*args, cwd=tmp_path)
    assert checked.returncode != 0
    result = json.loads(checked.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    done = _run("--workload", "single-run", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0] * 10, [10.0] * 10, "lower", "unchanged"),
    ([10.0, 10.1] * 5, [12.0, 12.1] * 5, "lower", "worse"),
    ([10.0, 10.1] * 5, [8.0, 8.1] * 5, "lower", "better"),
    ([10.0, 10.1] * 5, [8.0, 8.1] * 5, "higher", "worse"),
    ([7.0, 10.0, 13.0] * 4, [7.5, 10.5, 13.5] * 4, "lower", "unresolved"),
    ([7.0, 7.1, 13.0, 13.1] * 3, [5.0, 5.1, 6.0, 6.1] * 3, "lower",
     "better"),
    ([10.0, 10.1] * 5, [10.05, 10.05] * 5, "lower", "unchanged"),
    ([10.0, 10.1, 10.0], [8.0, 8.1, 8.0], "lower", "unchanged"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, 0.1)[0] == expected


def test_better_needs_nine_tenths_of_pairs():
    parent = [10.0, 10.2] * 5
    change = [8.0] * 8 + [10.5, 10.5]
    result, wins = verdict(parent, change, "lower", 0.1)
    assert wins == 0.8 and result == "unchanged"


def _record(mismatch: float = 0.0, values=(1.0,) * 5) -> dict:
    metrics = {m["name"]: {"values": list(values)}
               for m in BENCH["end_to_end"]}
    return {"workloads": {w["name"]: {
        "end_to_end": metrics, "run_error_rate": 0.0,
        "result_mismatch_rate": mismatch} for w in BENCH["workloads"]}}


def test_compare_flags_rising_mismatch_rate():
    assert compare(_record(), _record(), BENCH)[1:] == (True, [])
    assert compare(_record(), _record(0.1), BENCH)[1] is False


def test_compare_lists_unresolved_metrics():
    _, ok, unresolved = compare(_record(), _record(values=(0.5, 1.0, 1.5)),
                                BENCH)
    assert ok is True
    assert "single-run/wall_s" in unresolved
    assert len(unresolved) == len(BENCH["workloads"]) * len(
        BENCH["end_to_end"])
