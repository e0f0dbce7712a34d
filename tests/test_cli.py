"""Tests for the command-line interface."""

import hashlib
import json
import os
import platform
import subprocess

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.obs.events import event_from_dict


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the on-disk result/checkpoint cache at a throwaway dir."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "perlbmk" in out and "mesa" in out

    def test_run_smoke(self, capsys):
        code = main(["run", "gzip", "--cycles", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "hottest blocks" in out

    def test_run_with_techniques(self, capsys):
        code = main(["run", "parser", "--variant", "alu",
                     "--alus", "fine_grain", "--cycles", "2000"])
        assert code == 0

    def test_figure_smoke(self, capsys):
        code = main(["figure", "7", "--benchmarks", "parser",
                     "--cycles", "2000"])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "6", "--benchmarks", "doom3",
                  "--cycles", "2000"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBench:
    def test_snapshot_and_history_provenance(self, cache_dir, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ACCEL", "auto")  # restored on teardown
        out = tmp_path / "bench.json"
        hist = tmp_path / "hist.jsonl"
        argv = ["bench", "--figures", "7", "--benchmarks", "parser",
                "--cycles", "1500", "--jobs", "2", "--accel", "0",
                "--output", str(out), "--history", str(hist)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["accel_backend"] == "kernel"
        assert report["accel_compile_s"] == 0.0
        assert report["grids"][0]["figure"] == "7"
        lines = hist.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["commit"]
        for key in ("dirty", "diff_sha256", "nproc", "python",
                    "repro_settings"):
            assert key in entry
        assert entry["accel_backend"] == "kernel"
        assert not {"offloaded_runs", "pool_fallbacks"} & (
            set(entry["grids"][0]) | set(report["grids"][0]))
        assert entry["config"] == {
            "figures": ["7"], "benchmarks": ["parser"],
            "cycles": 1500, "seed": 1, "jobs": 2}
        assert entry["grids"][0]["grid_cycles_per_s"] > 0
        # A second bench appends to the history; the snapshot stays
        # a single latest report.
        assert main(argv) == 0
        assert len(hist.read_text().splitlines()) == 2
        assert isinstance(json.loads(out.read_text()), dict)

    def test_accel_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "gzip", "--accel", "numpy"])
        assert args.accel == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gzip", "--accel", "jax"])


class TestBenchProvenance:
    """``repro bench`` history provenance, with ``git`` stubbed."""

    PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))

    def stub_git(self, monkeypatch, outputs):
        """Answer ``git <subcommand> ...`` from ``outputs`` (raw
        bytes); a missing subcommand fails like git outside a
        checkout."""

        def fake_run(argv, **kwargs):
            assert argv[0] == "git"
            out = outputs.get(argv[1])
            if out is None:
                return subprocess.CompletedProcess(argv, 128, b"", b"")
            return subprocess.CompletedProcess(argv, 0, out, b"")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)

    def test_dirty_tree_records_diff_hash(self, monkeypatch):
        diff = b"diff --git a/x b/x\n+edit\n"
        self.stub_git(monkeypatch, {"rev-parse": b"abc1234\n",
                                    "diff": diff, "ls-files": b""})
        monkeypatch.setenv("REPRO_BATCH", "0")
        monkeypatch.setenv("REPRO_JOBS", "3")
        prov = cli._provenance()
        assert prov["commit"] == "abc1234"
        assert prov["dirty"] is True
        assert prov["diff_sha256"] == hashlib.sha256(diff).hexdigest()
        assert prov["nproc"] == os.cpu_count()
        assert prov["python"] == platform.python_version()
        settings = prov["repro_settings"]
        assert settings["REPRO_BATCH"] is False
        assert settings["REPRO_JOBS"] == 3
        assert settings["REPRO_BATCH_MERGE"] is True
        assert "REPRO_BATCH_SHM" not in settings

    def test_non_utf8_diff_is_hashed_raw(self, monkeypatch):
        diff = b"diff --git a/blob b/blob\n+\xff\xfe\x80\n"
        self.stub_git(monkeypatch, {"rev-parse": b"abc1234\n",
                                    "diff": diff, "ls-files": b""})
        prov = cli._provenance()
        assert prov["dirty"] is True
        assert prov["diff_sha256"] == hashlib.sha256(diff).hexdigest()

    def test_bench_outputs_leave_the_tree_clean(self, monkeypatch):
        """A tree whose one change is the bench's own history file
        reads clean: the diff and untracked listing are limited to the
        package directory, which the history file is outside of."""
        history = (b"diff --git a/BENCH_history.jsonl "
                   b"b/BENCH_history.jsonl\n+{}\n")
        calls = []

        def fake_run(argv, cwd=None, **kwargs):
            calls.append((argv[1], argv[2:], cwd))
            if argv[1] == "rev-parse":
                return subprocess.CompletedProcess(argv, 0, b"abc1234\n",
                                                   b"")
            in_package = argv[-2:] == ["--", "."] and cwd == self.PACKAGE
            out = history if argv[1] == "diff" and not in_package else b""
            return subprocess.CompletedProcess(argv, 0, out, b"")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        prov = cli._provenance()
        assert prov["dirty"] is False
        assert prov["diff_sha256"] == hashlib.sha256(b"").hexdigest()
        assert {name for name, _, _ in calls} == {"rev-parse", "diff",
                                                 "ls-files"}

    def test_untracked_file_marks_dirty(self, monkeypatch):
        self.stub_git(monkeypatch, {"rev-parse": b"abc1234\n",
                                    "diff": b"",
                                    "ls-files": b"new_file.py\n"})
        prov = cli._provenance()
        assert prov["dirty"] is True
        assert prov["diff_sha256"] == hashlib.sha256(b"").hexdigest()

    def test_clean_tree(self, monkeypatch):
        self.stub_git(monkeypatch, {"rev-parse": b"abc1234\n",
                                    "diff": b"", "ls-files": b""})
        assert cli._provenance()["dirty"] is False

    def test_outside_a_checkout(self, monkeypatch):
        self.stub_git(monkeypatch, {})
        prov = cli._provenance()
        assert prov["commit"] == "unknown"
        assert prov["dirty"] is None and prov["diff_sha256"] is None

    def test_missing_git(self, monkeypatch):
        def no_git(argv, **kwargs):
            raise FileNotFoundError(argv[0])

        monkeypatch.setattr(cli.subprocess, "run", no_git)
        assert cli._provenance()["commit"] == "unknown"


class TestRunTracing:
    def test_trace_prints_summary(self, capsys):
        code = main(["run", "perlbmk", "--variant", "alu",
                     "--alus", "fine_grain", "--cycles", "5000",
                     "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        code = main(["run", "perlbmk", "--variant", "alu",
                     "--alus", "fine_grain", "--cycles", "20000",
                     "--trace-out", str(path)])
        assert code == 0
        assert "trace written:" in capsys.readouterr().out
        events = [event_from_dict(json.loads(line))
                  for line in path.read_text().splitlines()]
        assert events
        assert {event.kind for event in events} >= {"ceiling_cross"}

    def test_untraced_run_prints_no_trace_line(self, capsys):
        assert main(["run", "gzip", "--cycles", "2000"]) == 0
        assert "trace:" not in capsys.readouterr().out


class TestProfile:
    def test_profile_smoke(self, capsys):
        code = main(["profile", "gzip", "--cycles", "2000",
                     "--warmup", "1000", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "stage wall-clock breakdown" in out


class TestCache:
    def test_info_empty(self, cache_dir, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "results:     0 entries" in out
        assert "checkpoints: 0 entries" in out

    def test_clear_after_figure_run(self, cache_dir, capsys):
        assert main(["figure", "7", "--benchmarks", "parser",
                     "--cycles", "2000"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "results:     0 entries" not in capsys.readouterr().out
        assert main(["cache", "clear", "--checkpoints"]) == 0
        assert "checkpoint(s)" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "results:     0 entries" in capsys.readouterr().out


class TestReport:
    ARGS = ["report", "--figures", "7", "--benchmarks", "parser",
            "--cycles", "2000"]

    def test_markdown_to_stdout(self, cache_dir, capsys):
        assert main(self.ARGS + ["--output", "-"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Figure 7" in out

    def test_writes_file_and_reports_cache_use(self, cache_dir,
                                               tmp_path, capsys):
        target = tmp_path / "REPORT.md"
        assert main(self.ARGS + ["--output", str(target)]) == 0
        assert "report written to" in capsys.readouterr().out
        assert "Figure 7" in target.read_text()
        # second render answers from cache
        assert main(self.ARGS + ["--output", str(target)]) == 0
        assert "0 parallel, 0 inline" in capsys.readouterr().out

    def test_html_format(self, cache_dir, tmp_path):
        target = tmp_path / "report.html"
        assert main(self.ARGS + ["--format", "html",
                                 "--output", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<h2>Figure 7" in text

    def test_unknown_figure_rejected(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["report", "--figures", "9", "--cycles", "2000"])
