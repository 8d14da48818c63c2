"""Tests of the benchmark itself: smoke runs and a correctness gate that can fail.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
from relcommit import cli, serialize
from run import relcommit, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run_benchmark(run.ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark(tmp_path, "--workload", "scan-pair", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _measure_once(workload):
    return run.measure(workload, 0.0)


def test_flipped_report_value_is_a_failure(monkeypatch):
    workload = workloads.build("scan-pair", 3, run.WORKDIR, smoke=True)
    honest = workload.run

    def flipped(op):
        doc = json.loads(honest(op))
        doc["strategy_rows"][1]["acceptance_probability"] = 0.5
        return serialize.dumps(doc)

    monkeypatch.setattr(workload, "run", flipped)
    samples, failed = _measure_once(workload)
    assert failed == len(samples) == workload.round_ops


def test_flipped_agrees_flag_is_a_failure():
    params = relcommit.SchemeParams("string", n_pairs=2, phi_policy="uniform")
    doc = serialize.report_to_json(relcommit.build_report(params))
    expected = workloads.expected_report(params)
    assert workloads.check_report_doc(doc, expected) == []
    doc["strategy_rows"][3]["agrees"] = True  # shift 11 really disagrees with the claim
    assert workloads.check_report_doc(doc, expected)


def test_changed_report_bytes_are_a_failure():
    workload = workloads.build("scan-string", 3, run.WORKDIR, smoke=True)
    op = workload.op_input(0)
    text = workload.run(op)
    assert workload.check(op, text) == []
    assert workload.check(op, text.replace('"n_pairs":2', '"n_pairs": 2'))


def test_truncated_jsonl_line_is_a_failure(monkeypatch):
    run.WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build("transcripts", 3, run.WORKDIR, smoke=True)
    honest = cli.cli_main

    def truncating(argv):
        code = honest(argv)
        text = workload.path.read_text(encoding="utf-8")
        workload.path.write_text(text[: len(text) - 40], encoding="utf-8")
        return code

    monkeypatch.setattr(cli, "cli_main", truncating)
    try:
        samples, failed = _measure_once(workload)
    finally:
        workload.close()
    assert failed == len(samples) == 1


def test_wrong_sampled_count_is_a_failure(monkeypatch):
    workload = workloads.build("sample", 3, run.WORKDIR, smoke=True)
    honest = workload.run

    def inflated(op):
        doc = json.loads(honest(op))
        for row in doc["rows"]:
            if row["category"] == "swap_outcome":
                row["count"] += 1
        return serialize.dumps(doc)

    monkeypatch.setattr(workload, "run", inflated)
    samples, failed = _measure_once(workload)
    assert failed == len(samples) == workload.round_ops


def test_wrong_z_score_is_a_failure():
    workload = workloads.build("sample", 3, run.WORKDIR, smoke=True)
    op = workload.op_input(0)
    doc = json.loads(workload.run(op))
    assert workloads.check_stats_doc(doc, op) == []
    row = next(row for row in doc["rows"] if row["category"] == "stored_bit")
    row["z"] = -row["z"] if row["z"] else 1.0  # sign lost, still within 5 SE
    assert workloads.check_stats_doc(doc, op)


def test_count_gate_uses_exact_tail_for_rare_events():
    # expected count 0.95: six hits sit 5.2 standard errors out, yet the
    # exact binomial tail is far more common than a 5-sigma event
    p, draws = 0.5**20, 10**6
    z6 = (6 - draws * p) / (draws * p * (1 - p)) ** 0.5
    assert z6 > 5 and workloads.count_plausible(6, draws, p, z6)
    z30 = (30 - draws * p) / (draws * p * (1 - p)) ** 0.5
    assert not workloads.count_plausible(30, draws, p, z30)
    assert not workloads.count_plausible(10**6, 10**8, 0.25, -3000.0)


def test_seed_fixes_the_inputs():
    first = workloads.build("transcripts", 11, run.WORKDIR, smoke=True)
    again = workloads.build("transcripts", 11, run.WORKDIR, smoke=True)
    other = workloads.build("transcripts", 12, run.WORKDIR, smoke=True)
    assert first.inputs == again.inputs
    assert first.inputs != other.inputs
