"""Smoke tests of the benchmark harness itself.

    python -m pytest perfbench

Each workload runs once per mode at tiny sizes (``--smoke``): two jobs, the
first job's output corrupted on purpose, so a passing run shows both that
clean outputs pass the checks and that a damaged one counts as failed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMANDS = {
    "discover": ["train_s"],
    "forward": ["generate_s"],
    "redeploy": ["distill_s", "evaluate_s", "simulate_s", "simulate_sym_s"],
}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_smoke_emits_every_metric_and_counts_corruption(workload, trace):
    done = bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert "job 0 failed" in done.stdout and "job 1 failed" not in done.stdout

    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name in [*COMMANDS[workload], "fail_frac", *spec]:
        assert any(ln.startswith(f"{name} ") for ln in lines[:-1]), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "forward", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
