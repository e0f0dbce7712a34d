"""Fixture tests for the deep semantic pass (REP101–REP104).

Each rule gets a seeded violation in a synthetic source tree laid out
like the real package (``power/``, ``pipeline/``, ``core/`` path
segments drive rule scoping), plus a suppressed and a
baseline-accepted variant, exercised through the real driver
(``lint_paths(..., deep=True)``).
"""

import json
import subprocess
import sys
from collections import Counter

import pytest

from repro.analysis.dimensions import (DIMENSIONLESS, dim_of_name,
                                       format_dim, parse_unit_chain)
from repro.analysis.lint import (lint_paths, load_baseline, main,
                                 write_baseline)
from repro.analysis.semantic import DEEP_RULES


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def deep_findings(root, select=None, baseline=None):
    report = lint_paths([str(root)], select=select, deep=True,
                        baseline=baseline)
    return report


def rule_ids(report):
    return [f.rule_id for f in report.findings]


class TestDeepRuleRegistry:
    def test_ids_are_stable_and_ordered(self):
        assert [r.rule_id for r in DEEP_RULES] == [
            "REP101", "REP102", "REP103", "REP104"]

    def test_every_rule_documents_itself(self):
        for rule in DEEP_RULES:
            assert rule.title
            assert rule.autofix_hint
            assert (rule.__class__.__doc__ or "").startswith(rule.rule_id)


class TestDimensionAlgebra:
    def test_suffix_chains_parse(self):
        assert parse_unit_chain("k") == (("K", 1),)
        assert parse_unit_chain("k_per_w") == (("J", -1), ("K", 1),
                                               ("s", 1))
        assert parse_unit_chain("bogus") is None

    def test_watts_are_joules_per_second(self):
        assert dim_of_name("power_w") == (("J", 1), ("s", -1))
        assert dim_of_name("energy_j") == (("J", 1),)
        assert dim_of_name("interval_s") == (("s", 1),)

    def test_unsuffixed_names_are_unknown(self):
        assert dim_of_name("utilization") is None
        assert dim_of_name("temps") is None

    def test_format_pretty_names(self):
        assert format_dim((("J", 1), ("s", -1))) == "W"
        assert format_dim(DIMENSIONLESS) == "1"
        assert format_dim((("K", 1),)) == "K"


class TestREP101Dimensional:
    def test_additive_mix_fires(self, tmp_path):
        write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]
        assert "[J]" in report.findings[0].message
        assert "[s]" in report.findings[0].message

    def test_missing_interval_conversion_fires(self, tmp_path):
        """Energy assigned to a watts name without / interval_s."""
        write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    power_w = energy_j * 1.0\n"
            "    return power_w\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]

    def test_correct_conversion_clean(self, tmp_path):
        write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    power_w = energy_j / interval_s\n"
            "    temp_k = 300.0\n"
            "    return power_w\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == []

    def test_nanojoule_constant_converts(self, tmp_path):
        write_tree(tmp_path, {"power/acct.py": (
            "NANOJOULE = 1e-9\n"
            "def sample(events_nj, interval_s):\n"
            "    power_w = events_nj * NANOJOULE / interval_s\n"
            "    return power_w\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == []

    def test_raw_nanojoule_joule_mix_fires(self, tmp_path):
        write_tree(tmp_path, {"power/acct.py": (
            "def total(events_nj, leak_j):\n"
            "    return events_nj + leak_j\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]

    def test_cross_module_return_dim(self, tmp_path):
        write_tree(tmp_path, {
            "power/conv.py": (
                "def to_watts(energy_j, interval_s):\n"
                "    return energy_j / interval_s\n"),
            "power/use.py": (
                "def report(x_j, dt_s):\n"
                "    temp_k = to_watts(x_j, dt_s)\n"
                "    return temp_k\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]
        assert "temp_k" in report.findings[0].message

    def test_call_argument_dimension_checked(self, tmp_path):
        write_tree(tmp_path, {
            "power/conv.py": (
                "def to_watts(energy_j, interval_s):\n"
                "    return energy_j / interval_s\n"),
            "power/use.py": (
                "def report(dt_s):\n"
                "    return to_watts(dt_s, dt_s)\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]
        assert "energy_j" in report.findings[0].message

    def test_cycles_scale_products_but_do_not_add(self, tmp_path):
        write_tree(tmp_path, {"pipeline/cfg.py": (
            "def interval(sensor_interval_cycles, cycle_time_s):\n"
            "    ok_s = sensor_interval_cycles * cycle_time_s\n"
            "    bad = sensor_interval_cycles + cycle_time_s\n"
            "    return ok_s, bad\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == ["REP101"]
        assert report.findings[0].line == 3

    def test_out_of_scope_file_not_reported(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == []

    def test_noqa_suppresses(self, tmp_path):
        write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s  # repro: noqa[REP101]\n")})
        report = deep_findings(tmp_path, select=["REP101"])
        assert rule_ids(report) == []
        assert report.suppressed == 1


REP102_FILES = {
    "pipeline/proc.py": (
        "class Processor:\n"
        "    def __init__(self):\n"
        "        self.stalled_until = 0\n"
        "    def step(self):\n"
        "        self.stalled_until = 5\n"
        "    def throttle(self, cycles):\n"
        "        self.throttled_until = cycles\n"
        "    def restore_state(self, state):\n"
        "        self.stalled_until = state['stalled_until']\n"),
    "core/dtm.py": (
        "class DTM:\n"
        "    def on_sample(self, proc):\n"
        "        proc.throttle(3)\n"),
}


class TestREP102MacroStep:
    def test_write_outside_boundary_fires(self, tmp_path):
        write_tree(tmp_path, REP102_FILES)
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == ["REP102"]
        finding = report.findings[0]
        assert finding.line == 5  # the write inside step()
        assert "stalled_until" in finding.message

    def test_on_sample_reachable_write_clean(self, tmp_path):
        """throttle() is called from on_sample: legal, line 7 quiet."""
        write_tree(tmp_path, REP102_FILES)
        report = deep_findings(tmp_path, select=["REP102"])
        assert all(f.line != 7 for f in report.findings)

    def test_callback_reachable_write_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pipeline/alu.py": (
                "class Unit:\n"
                "    def set_busy(self, value):\n"
                "        self.busy = value\n"),
            "core/fg.py": (
                "class Controller:\n"
                "    def __init__(self, turn_off):\n"
                "        self._turn_off = turn_off\n"
                "    def observe(self):\n"
                "        self._turn_off(True)\n"),
            "core/dtm.py": (
                "class DTM:\n"
                "    def __init__(self, unit):\n"
                "        self.ctrl = Controller(\n"
                "            turn_off=lambda v: unit.set_busy(v))\n"
                "    def on_sample(self):\n"
                "        self.ctrl.observe()\n"),
        })
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == []

    def test_off_set_mutation_fires(self, tmp_path):
        write_tree(tmp_path, {"pipeline/regfile.py": (
            "class Bank:\n"
            "    def poke(self, copy):\n"
            "        self._off.add(copy)\n")})
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == ["REP102"]

    #: A gating overlay shaped like ``Processor.apply_gating``: queue
    #: mode, unit busy flags and the regfile off set, written by a
    #: method nothing on the on_sample call graph reaches.
    OVERLAY = (
        "class Processor:\n"
        "    def {name}(self, gating):\n"
        "        mode, flags, off = gating\n"
        "        self.int_iq.mode = mode\n"
        "        for unit, flag in zip(self.units, flags):\n"
        "            unit.busy = flag\n"
        "        self.regfile._off = set(off)\n")

    def test_fork_overlay_boundary_clean(self, tmp_path):
        write_tree(tmp_path, {"pipeline/proc.py":
                              self.OVERLAY.format(name="apply_gating")})
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == []

    def test_unsanctioned_overlay_fires(self, tmp_path):
        write_tree(tmp_path, {"pipeline/proc.py":
                              self.OVERLAY.format(name="overlay_gating")})
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == ["REP102"] * 3
        assert sorted(f.message.split("'")[1] for f in report.findings) \
            == ["._off", ".busy", ".mode"]

    def test_noqa_suppresses(self, tmp_path):
        files = dict(REP102_FILES)
        files["pipeline/proc.py"] = files["pipeline/proc.py"].replace(
            "        self.stalled_until = 5\n",
            "        self.stalled_until = 5  # repro: noqa[REP102]\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP102"])
        assert rule_ids(report) == []
        assert report.suppressed == 1


class TestREP103SoaDiscipline:
    def test_write_outside_pipeline_fires(self, tmp_path):
        write_tree(tmp_path, {"obs/report.py": (
            "def tally(bank):\n"
            "    bank.ops[0] += 1\n")})
        report = deep_findings(tmp_path, select=["REP103"])
        assert rule_ids(report) == ["REP103"]
        assert "'ops'" in report.findings[0].message

    def test_local_alias_write_fires(self, tmp_path):
        write_tree(tmp_path, {"obs/report.py": (
            "def tally(queue):\n"
            "    c = queue._c\n"
            "    c[3] += 1\n")})
        report = deep_findings(tmp_path, select=["REP103"])
        assert rule_ids(report) == ["REP103"]

    def test_write_inside_pipeline_clean(self, tmp_path):
        write_tree(tmp_path, {"pipeline/kernel.py": (
            "def flush(bank, acc):\n"
            "    bank.ops += acc\n")})
        report = deep_findings(tmp_path, select=["REP103"])
        assert rule_ids(report) == []

    def test_read_outside_pipeline_clean(self, tmp_path):
        write_tree(tmp_path, {"obs/report.py": (
            "def total(bank):\n"
            "    return int(bank.ops.sum())\n")})
        report = deep_findings(tmp_path, select=["REP103"])
        assert rule_ids(report) == []

    def test_noqa_suppresses(self, tmp_path):
        write_tree(tmp_path, {"obs/report.py": (
            "def tally(bank):\n"
            "    bank.ops[0] += 1  # repro: noqa[REP103]\n")})
        report = deep_findings(tmp_path, select=["REP103"])
        assert rule_ids(report) == []
        assert report.suppressed == 1


REP104_FILES = {
    "pipeline/processor.py": (
        "class Processor:\n"
        "    def step(self):\n"
        "        self.bank.ops[0] += 1\n"
        "        c = self._c\n"
        "        c[IQC_CYCLES] += 1\n"),
    "pipeline/kernel.py": (
        "def run_kernel(proc, ticks):\n"
        "    c = proc._c\n"
        "    c[IQC_CYCLES] += ticks\n"),
}


class TestREP104KernelParity:
    def test_unlanded_counter_fires(self, tmp_path):
        """ops is bumped by step() but never by the kernel."""
        write_tree(tmp_path, REP104_FILES)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == ["REP104"]
        finding = report.findings[0]
        assert "'ops'" in finding.message
        assert finding.line == 3

    def test_landed_counters_clean(self, tmp_path):
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []

    def test_missing_kernel_file_is_silent(self, tmp_path):
        write_tree(tmp_path, {
            "pipeline/processor.py":
                REP104_FILES["pipeline/processor.py"]})
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []

    def test_noqa_suppresses(self, tmp_path):
        files = dict(REP104_FILES)
        files["pipeline/processor.py"] = files[
            "pipeline/processor.py"].replace(
            "        self.bank.ops[0] += 1\n",
            "        self.bank.ops[0] += 1"
            "  # repro: noqa[REP104]\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []
        assert report.suppressed == 1

    def test_batch_path_unlanded_fires(self, tmp_path):
        """Counters landed by run_kernel but unreachable from run_batch
        fire with the batched-path message."""
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n"
            "def run_batch(runs, ticks):\n"
            "    for run in runs:\n"
            "        run.proc.now += ticks\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == ["REP104", "REP104"]
        messages = [f.message for f in report.findings]
        assert all("batched kernel path" in m for m in messages)
        assert any("'ops'" in m for m in messages)
        assert any("IQC_CYCLES" in m for m in messages)

    def test_batch_path_via_helper_clean(self, tmp_path):
        """run_batch landing counters through a reachable helper is
        clean — parity is judged on the call graph, not one function."""
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def _land(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n"
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    _land(proc, ops_acc, ticks)\n"
            "def run_batch(runs, ops_acc, ticks):\n"
            "    for run in runs:\n"
            "        _land(run.proc, ops_acc, ticks)\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []

    def test_adoption_without_row_writeback_fires(self, tmp_path):
        """A batched adoption path that restores a leader snapshot but
        never writes the run's own counter row back is flagged."""
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def _land(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n"
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    _land(proc, ops_acc, ticks)\n"
            "def _adopt(proc, blob):\n"
            "    proc.restore_state(pickle.loads(blob))\n"
            "def run_batch(runs, ops_acc, ticks):\n"
            "    for run in runs:\n"
            "        _land(run.proc, ops_acc, ticks)\n"
            "        _adopt(run.proc, run.blob)\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == ["REP104"]
        message = report.findings[0].message
        assert "restores a leader snapshot" in message
        assert "_adopt" in message

    def test_adoption_with_row_writeback_clean(self, tmp_path):
        """Restoring plus storing the run's own counter row back is
        the legal fork/finalize write-back shape."""
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def _land(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n"
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    _land(proc, ops_acc, ticks)\n"
            "def _adopt(proc, blob):\n"
            "    own_row = proc.counter_row.copy()\n"
            "    proc.restore_state(pickle.loads(blob))\n"
            "    proc.counter_row[:] = own_row\n"
            "def run_batch(runs, ops_acc, ticks):\n"
            "    for run in runs:\n"
            "        _land(run.proc, ops_acc, ticks)\n"
            "        _adopt(run.proc, run.blob)\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []

    def test_absent_run_batch_skips_batch_check(self, tmp_path):
        """Trees without a batched entry point are only held to per-run
        kernel parity (mirrors the missing-kernel-file behaviour)."""
        files = dict(REP104_FILES)
        files["pipeline/kernel.py"] = (
            "def run_kernel(proc, ops_acc, ticks):\n"
            "    proc.bank.ops += ops_acc\n"
            "    c = proc._c\n"
            "    c[IQC_CYCLES] += ticks\n")
        write_tree(tmp_path, files)
        report = deep_findings(tmp_path, select=["REP104"])
        assert rule_ids(report) == []


class TestBaseline:
    def test_baseline_accepts_finding(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        report = deep_findings(root, select=["REP101"])
        assert len(report.findings) == 1

        baseline_file = tmp_path / "baseline.json"
        write_baseline(report.findings, str(baseline_file))
        baseline = load_baseline(str(baseline_file))
        accepted = deep_findings(root, select=["REP101"],
                                 baseline=baseline)
        assert accepted.findings == ()
        assert accepted.baselined == 1
        assert accepted.ok

    def test_baseline_is_a_multiset(self, tmp_path):
        """One baseline entry absorbs one finding, not all lookalikes."""
        root = write_tree(tmp_path / "tree", {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    a = energy_j + interval_s\n"
            "    b = energy_j + interval_s\n"
            "    return a, b\n")})
        report = deep_findings(root, select=["REP101"])
        assert len(report.findings) == 2
        baseline = Counter({(f.rule_id, f.path.replace("\\", "/"),
                             f.message): 1
                            for f in report.findings[:1]})
        kept = deep_findings(root, select=["REP101"], baseline=baseline)
        assert len(kept.findings) == 1
        assert kept.baselined == 1

    def test_new_finding_not_masked_by_baseline(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        baseline = Counter({("REP101", "other/file.py", "unrelated"): 1})
        report = deep_findings(root, select=["REP101"],
                               baseline=baseline)
        assert len(report.findings) == 1


class TestDriverUx:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"power/ok.py": "X = 1\n"})
        assert main(["--deep", str(root), "--baseline", ""]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        assert main(["--deep", str(root), "--baseline", ""]) == 1

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["definitely/not/a/path"]) == 2

    def test_exit_two_on_rule_crash(self, tmp_path, monkeypatch,
                                    capsys):
        import repro.analysis.lint as lint_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic rule crash")

        monkeypatch.setattr(lint_mod, "check_project", boom)
        root = write_tree(tmp_path, {"power/ok.py": "X = 1\n"})
        assert main(["--deep", str(root), "--baseline", ""]) == 2
        captured = capsys.readouterr()
        assert "internal error" in captured.err

    def test_json_format_includes_deep_findings(self, tmp_path,
                                                capsys):
        root = write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        code = main(["--deep", "--format", "json", str(root),
                     "--baseline", ""])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "REP101" in {f["rule"] for f in payload["findings"]}
        assert "duration_s" in payload
        assert "baselined" in payload

    def test_stats_reports_wall_time(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"power/ok.py": "X = 1\n"})
        main(["--stats", str(root), "--baseline", ""])
        assert " ms]" in capsys.readouterr().out

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        root = write_tree(tmp_path / "tree", {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        baseline_file = tmp_path / "base.json"
        code = main(["--deep", str(root), "--baseline",
                     str(baseline_file), "--write-baseline"])
        assert code == 0
        assert baseline_file.exists()
        # Second run with the freshly-written baseline: clean.
        assert main(["--deep", str(root), "--baseline",
                     str(baseline_file)]) == 0

    def test_select_deep_rule_without_deep_flag_is_quiet(self, tmp_path,
                                                         capsys):
        """--select REP101 without --deep runs no deep pass."""
        root = write_tree(tmp_path, {"power/acct.py": (
            "def sample(energy_j, interval_s):\n"
            "    return energy_j + interval_s\n")})
        assert main(["--select", "REP101", str(root),
                     "--baseline", ""]) == 0


class TestRepoIsClean:
    def test_deep_pass_on_src(self):
        """The acceptance gate: zero unsuppressed deep findings on the
        real tree (the checked-in baseline is empty)."""
        report = lint_paths(["src"], deep=True)
        assert report.findings == (), report.format()

    def test_cli_module_deep_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", "--deep",
             "src"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
