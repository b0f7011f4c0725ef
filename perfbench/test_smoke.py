"""Smoke test of the benchmark itself: every workload once at small size.

Run from the repository root (takes about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit_and_no_errors(workload, trace, section):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr
    if trace == 0:
        # error_rate = 1 - ok_rate
        assert result["metrics"]["ok_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
