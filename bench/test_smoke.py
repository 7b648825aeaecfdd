"""Smoke test of the benchmark on a 6 x 6 grid: every workload untraced and
traced, the cli_random instance format, the refusal to run without the
program's sources, and self times from spans.  Takes a few seconds:

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Span, per_layer
from workloads import instance_json, make_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--n", "6"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_checks_answers_and_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        assert value["galvin.passes"] > 0 and value["galvin.loop_self_s"] > 0
        assert (value["cli.self_s"] > 0) == (workload == "cli_random")


def test_cli_random_instance_is_dinitz_gen_output():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    gen = subprocess.run(
        [sys.executable, "-m", "dinitz.cli", "gen", "--n", "6", "--seed", "3"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert gen.stdout == instance_json(make_rows("cli_random", 6, 3), 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "latin", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    spans = [
        Span(0, "galvin.loop", 0, 10_000, None, 7, 0),
        Span(1, "galvin.oracle", 1_000, 4_000, 0, 7, 5),
        Span(2, "matching.da", 2_000, 3_000, 1, 7, 0),
        Span(3, "galvin.oracle", 5_000, 6_000, 0, 7, 3),
    ]
    layers = per_layer(spans, {7: 2**20}, n=4)[7]
    assert layers["galvin.loop_self_s"] == 6_000 / 1e9
    assert layers["galvin.oracle_self_s"] == 3_000 / 1e9
    assert layers["matching.da_s"] == 1_000 / 1e9
    assert layers["galvin.passes"] == 2 and layers["galvin.candidates"] == 8
    assert layers["galvin.kernel_yield"] == 16 / 8
    assert layers["digraph.graph_mb"] == 1
