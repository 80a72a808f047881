"""Smoke tests for the benchmark itself: `python -m pytest -q perfbench`.

Every workload runs one cycle at tiny sizes with its known-answer checks on,
so the harness cannot rot unnoticed; the oracles are checked against the
violations the generators plant.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, encoding="utf-8", timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["bundle-wide", "cli-corpus"])
def test_smoke_traced_reports_every_layer(workload, tmp_path):
    spans = tmp_path / "spans.json"
    result = _result(_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "1", "--spans", str(spans)))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["parser.parse_bundle.s"]["value"] > 0
    assert result["metrics"]["link.resolutions_out"]["value"] > 0
    recorded = json.loads(spans.read_text(encoding="utf-8"))
    assert {"name", "start", "end", "parent", "op"} <= set(recorded[0])
    assert any(span["name"] == "link.inline_bundle" for span in recorded)


def test_memory_pass_reports_peaks():
    result = _result(_bench("--workload", "case-tree", "--seed", "3", "--smoke", "--memory"))
    assert result["correct"]
    assert result["metrics"]["validate.validate_case.peak_kib"]["value"] > 0


def test_full_depth_chain_is_checked_like_any_other_input():
    """Only `metrics` may fail on the 2,000-deep chain (it hits the
    recursion limit while depth is computed recursively); every other op must
    match its known answer."""
    done = _bench("--workload", "case-chain", "--seed", "5", "--seconds", "0")
    result = _result(done)
    failures = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    assert result["attempted"] == 5
    assert all(line.startswith("FAILED metrics ") for line in failures)
    assert result["failed"] == sum(int(line.rsplit("(x", 1)[1].rstrip(")")) for line in failures)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "case-tree", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout


def test_same_seed_same_inputs():
    assert gen.case_tree(7, 300).files == gen.case_tree(7, 300).files
    assert gen.case_tree(7, 300).files != gen.case_tree(8, 300).files
    assert gen.bundle_wide(7, 400).files == gen.bundle_wide(7, 400).files


def test_oracles_find_the_planted_violations():
    inputs = gen.case_tree(11, 2000)
    findings = inputs.ops[0].expect["findings"]
    assert sorted(rule for rule, _, _ in findings).count("G5") == 8
    assert sorted(rule for rule, _, _ in findings).count("G7") == 4
    assert sorted(rule for rule, _, _ in findings).count("G6") == 6
    bundle = gen.bundle_wide(11, 4000)
    validate = bundle.ops[0].expect
    assert len(validate["s4"]) == 5
    assert sum(1 for rule, _, _ in validate["findings"] if rule == "S3") == 6
    assert gen.case_chain(11, 2000).shape["depth"] == 2001


def test_check_rejects_a_wrong_answer():
    op = next(op for op in gen.case_tree(5, 200).ops if op.name == "metrics")
    wrong = json.dumps({"metrics": {**op.expect["metrics"], "depth": 0}})
    assert run.check(op, 0, wrong, "") is not None
    assert run.check(op, 0, json.dumps({"metrics": op.expect["metrics"]}), "") is None
    assert run.check(op, 1, json.dumps({"metrics": op.expect["metrics"]}), "") is not None
