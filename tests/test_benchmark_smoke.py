"""The benchmark harness runs every workload once at smoke size with its
known-answer checks on, so a library change cannot silently break it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"case-tree", "case-chain", "bundle-wide", "cli-corpus"}


def test_benchmark_smoke_all_workloads():
    # Seed 3, as in perfbench's own smoke tests: at smoke size, seed 1 leaves
    # the bundle-wide generator without an away-claim target.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seed", "3", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert {entry["workload"] for entry in summary} == WORKLOADS
    for entry in summary:
        assert entry["correct"] and entry["failed"] == 0, entry
