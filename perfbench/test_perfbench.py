"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Printed by every untraced run, by name and unit.
SUMMARY = ("setup_s", "runs_per_s", "report_s", "regret_mean", "peak_rss_mb", "failed_ratio")


def bench(workload: str, trace: int, seed: int = 5, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_present_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        lines = proc.stdout.splitlines()
        for name in SUMMARY:
            assert any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in lines)


def test_traced_counts_repeat_exactly():
    first, second = (result_of(bench("nsga2-synth", 1, seed=9))["metrics"] for _ in range(2))
    counts = {m: v["value"] for m, v in first.items() if v["unit"] != "s"}
    assert counts == {m: second[m]["value"] for m in counts}
    assert counts["models.dominance.calls"] > 0
    assert counts["optimizers.generations"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("local-table", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _cli(*argv: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from mmo_tune.cli import main
    finally:
        sys.path.pop(0)
    assert main(list(argv)) == 0


def _rewrite_cell(path: str, row: int, column: int, value: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_tampered_trace_or_report_is_a_failed_operation(tmp_path):
    inputs = workloads.make_inputs("local-table", 3, "toy", str(tmp_path / "in"))
    campaign = inputs.campaigns[0]
    out = str(tmp_path / "out")
    report = os.path.join(out, "report.json")
    _cli(*campaign.args, "--out", out)
    written = _sha(report)
    _cli("stats", "--dir", out)

    clean = workloads.check_campaign(out, inputs.names, campaign, written, [_sha(report)])
    assert (clean.attempted, clean.failed) == (campaign.runs + 1, 0)

    trace = os.path.join(out, "traces", sorted(os.listdir(os.path.join(out, "traces")))[0])
    _rewrite_cell(trace, 3, len(inputs.names) + 1, "0.5")  # a target the oracle never gave
    assert workloads.check_campaign(out, inputs.names, campaign, written, [_sha(report)]).failed == 1

    with open(report, "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert workloads.check_campaign(out, inputs.names, campaign, written, [_sha(report)]).failed == 2


def test_tampered_stored_trace_fails_the_rebuild(tmp_path):
    inputs = workloads.make_inputs("report-rebuild", 4, "toy", str(tmp_path))
    report = os.path.join(inputs.rebuild_dir, "report.json")
    _cli("stats", "--dir", inputs.rebuild_dir)
    assert workloads.check_rebuild(report, inputs).failed == 0

    trace = os.path.join(inputs.rebuild_dir, "traces", workloads.trace_filename("pmo", None, 0))
    rows = workloads.SIZES["toy"]["report_rows"]
    _rewrite_cell(trace, rows, -1, "0.25")  # final best-so-far no longer the minimum written
    _cli("stats", "--dir", inputs.rebuild_dir)
    assert workloads.check_rebuild(report, inputs).failed == 1
