"""Tests for the command-line interface."""

import json
import signal

import pytest

from repro.cli import build_parser, main
from repro.obs import stages
from repro.obs.events import event_from_dict
from repro.sim.runner import Simulator


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
    def test_profile_smoke(self, capsys, monkeypatch):
        previous = signal.getsignal(signal.SIGPROF)
        runs = []
        run = Simulator.run

        def counting_run(simulator):
            runs.append(simulator)
            return run(simulator)

        monkeypatch.setattr(Simulator, "run", counting_run)
        code = main(["profile", "gzip", "--cycles", "2000",
                     "--warmup", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        # One run, sampled: its IPC, its own stage times, no cProfile
        # table.
        assert len(runs) == 1
        assert "IPC" in out
        assert "function calls" not in out
        breakdown = out.split("stage wall-clock breakdown:", 1)[1]
        names = [line.split()[0] for line in breakdown.splitlines()[1:4]]
        assert names == sorted(runs[0].stage_times) == [
            "measure_s", "sample_s", "warmup_s"]
        # The sampled kernel split: one line per stage marker in the
        # kernel source plus the unattributed and outside shares,
        # summing to about 100%; the sampler leaves no handler or
        # timer behind.
        split = out.split("kernel stage split", 1)[1].splitlines()[1:]
        labels = [*stages.stage_labels(), stages.NO_LINE, stages.OUTSIDE]
        assert {"issue", "dispatch", "writeback", "commit", "fetch",
                "queue tick"} <= set(labels)
        assert len(split) == len(labels)
        shares = []
        for label, line in zip(labels, split):
            name, share = line.rsplit(None, 1)
            assert name.strip() == label
            shares.append(float(share.rstrip("%")))
        assert sum(shares) == pytest.approx(100, abs=0.5)
        assert signal.getsignal(signal.SIGPROF) == previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_top_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "gzip", "--top", "5"])


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
