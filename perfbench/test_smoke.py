"""Smoke test of the benchmark at small sizes (about two minutes).

From the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, seed: int = 1, env: "dict | None" = None):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False, env=env,
    )
    assert done.returncode == 0, done.stderr
    *_, meta_line, result_line = done.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    meta, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert meta["seed"] == 1 and meta["nproc"] >= 1 and meta["python"] and meta["numpy"]
    assert "git_commit" in meta and meta["ops"]["attempted"] == result["attempted"]


def test_traced_counts_repeat_between_runs():
    counts = [run("env", 1, seed=7)[0]["tracing"]["counts_per_pass"] for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0][0]["dynamics.step.calls"] > 0 and counts[0][0]["kinematics.fk.calls"] > 0


def test_changed_output_is_a_failed_op_not_a_crash(tmp_path):
    """A fixture copy whose oven force differs by 1% no longer matches the
    recorded oven digest: that op fails in every pass, the run goes on."""
    source = ROOT / "src" / "artjoint" / "fixtures" / "data"
    shutil.copytree(source, tmp_path, dirs_exist_ok=True)
    oven = tmp_path / "oven.scenario.json"
    scene = json.loads(oven.read_text(encoding="utf-8"))
    scene["forces"][0]["profile"]["value"] *= 1.01
    oven.write_text(json.dumps(scene), encoding="utf-8")
    meta, result = run("simulate", 0, env={**os.environ, "ARTJOINT_FIXTURES": str(tmp_path)})
    assert not result["correct"]
    assert result["failed"] == meta["passes"]["untraced"]  # the oven op of every pass
    assert meta["fail_ratio"]["value"] == result["failed"] / result["attempted"]
    assert all(note.startswith("oven: csv sha256") for note in meta["notes"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "env", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
