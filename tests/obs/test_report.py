"""Tests for sparklines, the report document model, and generation."""

import pytest

from repro.obs.report import (Report, _figure6, _figure7, _figure8,
                               generate)
from repro.obs.sparkline import BARS, downsample, sparkline
from repro.sim.experiments import (ALUExperiment, IssueQueueExperiment,
                                   RegFileExperiment, alu_experiment,
                                   issue_queue_experiment,
                                   regfile_experiment)
from repro.sim.parallel import ExperimentEngine, ResultCache


class TestSparkline:
    def test_maps_extremes_to_first_and_last_glyph(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(text) == 4
        assert text[0] == BARS[0]
        assert text[-1] == BARS[-1]

    def test_flat_series_renders_low(self):
        assert sparkline([5.0, 5.0, 5.0]) == BARS[0] * 3

    def test_pinned_scale_clamps(self):
        text = sparkline([0.0, 10.0], lo=2.0, hi=4.0)
        assert text == BARS[0] + BARS[-1]

    def test_empty(self):
        assert sparkline([]) == ""


class TestDownsample:
    def test_short_series_passes_through(self):
        assert downsample([1, 2, 3], 8) == [1.0, 2.0, 3.0]

    def test_window_means(self):
        assert downsample([0.0, 2.0, 4.0, 6.0], 2) == [1.0, 5.0]

    def test_bounded_length(self):
        out = downsample(list(range(1000)), 64)
        assert len(out) <= 64

    def test_points_must_be_positive(self):
        with pytest.raises(ValueError):
            downsample([1.0], 0)


class TestReportDocument:
    def _sample(self):
        report = Report("Title")
        report.heading(2, "Section")
        report.paragraph("Some prose & <markup>.")
        report.table(("a", "b"), [(1, 2.5), ("x", "y")])
        report.pre("line1\nline2")
        return report

    def test_markdown_rendering(self):
        text = self._sample().to_markdown()
        assert "# Title" in text
        assert "## Section" in text
        assert "| a | b |" in text
        assert "| 1 | 2.500 |" in text
        assert "```\nline1\nline2\n```" in text

    def test_html_rendering_escapes(self):
        text = self._sample().to_html()
        assert "<h1>Title</h1>" in text
        assert "&amp; &lt;markup&gt;" in text
        assert "<td>2.500</td>" in text
        assert "<pre>line1\nline2</pre>" in text


class TestGenerate:
    def _engine(self, tmp_path):
        return ExperimentEngine(jobs=1,
                                cache=ResultCache(tmp_path / "cache"))

    def test_report_covers_requested_figures(self, tmp_path):
        engine = self._engine(tmp_path)
        report = generate(figures=("7",), benchmarks=("parser",),
                          max_cycles=3_000, engine=engine)
        text = report.to_markdown()
        assert "Figure 7" in text
        assert "parser" in text
        assert "Thermal timelines" in text
        assert "Run accounting" in text

    def test_cached_results_rerender_without_simulating(self, tmp_path):
        cold = self._engine(tmp_path)
        first = generate(figures=("7",), benchmarks=("parser",),
                         max_cycles=3_000, engine=cold).to_markdown()
        warm = self._engine(tmp_path)
        second = generate(figures=("7",), benchmarks=("parser",),
                          max_cycles=3_000, engine=warm).to_markdown()
        assert warm.stats.total == warm.stats.cache_hits > 0
        assert warm.stats.inline_runs == warm.stats.parallel_runs == 0
        # identical figures, cached or not; only the accounting
        # paragraphs (which report where answers came from — the cache
        # line, and the divergence line that only a simulating render
        # emits) may differ
        def _body(text):
            body = []
            for line in text.splitlines():
                if ("answered from cache" in line
                        or "Divergence accounting" in line):
                    continue
                if not line and body and not body[-1]:
                    continue
                body.append(line)
            return body
        assert _body(second) == _body(first)

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figures"):
            generate(figures=("9",), engine=self._engine(tmp_path))


class TestOneSubmission:
    """``generate`` submits the grids of every requested figure in one
    ``run_many`` call, so a benchmark's runs batch across figures, and
    renders what the per-figure experiment functions would."""

    BENCHES = ("perlbmk", "parser")
    CYCLES = 3_000
    #: figure -> (experiment class, experiment function, section)
    STUDIES = {
        "6": (IssueQueueExperiment, issue_queue_experiment, _figure6),
        "7": (ALUExperiment, alu_experiment, _figure7),
        "8": (RegFileExperiment, regfile_experiment, _figure8),
    }

    @pytest.mark.parametrize("figures", [("6", "7", "8"), ("7",)],
                             ids=["6,7,8", "7"])
    def test_one_run_many_call(self, figures):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        submissions = []
        run_many = engine.run_many

        def recording(configs):
            submissions.append(list(configs))
            return run_many(configs)

        engine.run_many = recording
        text = generate(figures=figures, benchmarks=self.BENCHES,
                        max_cycles=self.CYCLES, engine=engine).to_markdown()
        assert submissions == [[
            config for figure in figures
            for config in self.STUDIES[figure][0].configs(
                self.BENCHES, self.CYCLES, 1)]]

        fresh = ExperimentEngine(jobs=1, use_cache=False)
        expected = Report("Reproduction report")
        for figure in figures:
            _, experiment, section = self.STUDIES[figure]
            section(expected, experiment(self.BENCHES, self.CYCLES,
                                         engine=fresh), 358.0)
        sections, accounting = text.split("## Run accounting")
        assert sections == expected.to_markdown() + "\n"
        # One group per benchmark, whichever figures it spans.
        assert "(in 2 lock-stepped group(s))" in accounting


class TestFleetPeak:
    """The report's fleet peak is the max of ``max_temps`` over every
    run its figure sections render, whoever answered the runs."""

    @staticmethod
    def render(engine):
        """The report's peak line, and every result the engine
        returned while rendering it."""
        seen = []
        run_many = engine.run_many

        def recording(configs):
            results = run_many(configs)
            seen.extend(results)
            return results

        engine.run_many = recording
        text = generate(figures=("6", "7", "8"),
                        benchmarks=("perlbmk", "parser"),
                        max_cycles=3_000, engine=engine).to_markdown()
        lines = [line for line in text.splitlines()
                 if line.startswith("Fleet peak sensed temperature: ")]
        assert len(lines) == 1
        return lines[0], seen

    def test_peak_is_max_over_runs_cold_warm_and_parallel(self, tmp_path):
        cold = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path / "a"))
        line, results = self.render(cold)
        assert len(results) == 2 * (2 + 3 + 4)
        peak = max(max(r.max_temps.values()) for r in results)
        assert line == (f"Fleet peak sensed temperature: {peak:.1f} K "
                        f"(ceiling 358.0 K).")

        warm = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path / "a"))
        assert self.render(warm)[0] == line
        assert warm.stats.cache_hits == warm.stats.total == len(results)

        pooled = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path / "b"))
        assert self.render(pooled)[0] == line
        assert pooled.stats.parallel_runs == len(results)


class TestZeroBaseIPC:
    """Figure sections render an undefined speedup as "n/a" and say
    how many benchmarks the averages left out."""

    @staticmethod
    def result(committed, label="t"):
        from repro.sim.results import SimulationResult
        return SimulationResult(
            benchmark="x", technique_label=label, cycles=1000,
            committed=committed, stall_cycles=1000 - committed,
            global_stalls=1, stall_reasons={"IntQ0": 1}, iq_toggles=0,
            alu_turnoffs=0, rf_turnoffs=0,
            mean_temps={}, max_temps={"IntQ0": 360.0})

    def render(self, section, experiment):
        report = Report("t")
        section(report, experiment, 358.0)
        return report.to_markdown()

    def test_figure6(self):
        from repro.obs.report import _figure6
        from repro.sim.experiments import IssueQueueExperiment
        r = self.result
        text = self.render(_figure6, IssueQueueExperiment(
            toggling={"mesa": r(0), "gcc": r(600)},
            base={"mesa": r(0), "gcc": r(500)}))
        assert "| mesa | 0.000 | 0.000 | n/a |" in text
        assert "| gcc | 0.600 | 0.500 | +20.0% |" in text
        assert ("Average speedup +20.0% over all benchmarks, +20.0% over "
                "the IQ-constrained set (mesa, gcc). 1 benchmark(s) with "
                "a base IPC of 0 left out of the averages (mesa).") in text

    def test_figure7(self):
        from repro.obs.report import _figure7
        from repro.sim.experiments import ALUExperiment
        r = self.result
        text = self.render(_figure7, ALUExperiment(
            round_robin={"mesa": r(0)}, fine_grain={"mesa": r(0)},
            base={"mesa": r(0)}))
        assert "| mesa | 0.000 | 0.000 | 0.000 | n/a |" in text
        assert "Average fine-grain speedup n/a over all benchmarks" in text
        assert "sits n/a from the round-robin upper bound." in text
        assert "1 benchmark(s) with a base IPC of 0" in text

    def test_figure8(self):
        from repro.obs.report import _figure8
        from repro.sim.experiments import RF_CONFIGS, RegFileExperiment
        r = self.result
        text = self.render(_figure8, RegFileExperiment(results={
            label: {"mesa": r(0)} for label in RF_CONFIGS}))
        assert "priority only: n/a over all benchmarks" in text
        assert "1 benchmark(s) with a priority only IPC of 0" in text
