"""The benchmark's tracer (``perfbench/tracing.py``) wraps ``artjoint``
attributes by name, and its fit workload loads fitspecs through the CLI's
loader and derives its seeded starts with ``dataclasses.replace``. Renaming
or deleting any of them, or changing how a ``FitProblem`` is rebuilt, breaks
a benchmark run, so this checks each here, where the fast suite notices.
Moving a call off a traced attribute instead leaves the run working and
reads 0 in its metrics, so one small traced pass of each workload must still
reach the spans it reaches today."""

from __future__ import annotations

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from artjoint import cli, sysid

PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
EXPECTED = json.loads((PERFBENCH_DIR / "expected.json").read_text(encoding="utf-8"))

# per workload, the spans one small traced pass calls at least once
REACHED_SPANS = {
    "simulate": (
        "scenario.load",
        "scenario.run",
        "scenario.forces",
        "behaviors.evaluate",
        "behaviors.apply",
        "kinematics.fk",
        "trajectory.export",
        "trajectory.import",
    ),
    "fit": ("assets.parse_asset", "trajectory.import", "sysid.fit", "sysid.objective"),
    "env": (
        "scenario.load",
        "envs.reset",
        "envs.step",
        "scenario.tick",
        "scenario.forces",
        "behaviors.evaluate",
        "behaviors.apply",
    ),
}


@pytest.mark.parametrize("span, owner_name, attr", tracing.TARGETS)
def test_tracer_target_is_defined_on_its_owner(span, owner_name, attr):
    owner = tracing._resolve(owner_name)
    assert attr in owner.__dict__, f"{span}: artjoint.{owner_name} has no attribute '{attr}'"


def test_fit_workload_loader_exists():
    assert callable(cli.__dict__.get("_load_fit_problem"))


def test_fit_workload_setup_builds_every_start(tmp_path):
    workloads = load_perfbench("workloads")
    fit = workloads.Fit(seed=4, small=False, work_dir=tmp_path, expected=EXPECTED)
    fit.setup()
    assert [label for label, _ in fit.problems] == ["shipped", "seeded1", "seeded2", "seeded3"]
    shipped = fit.problems[0][1]
    for _, problem in fit.problems:
        assert isinstance(problem, sysid.FitProblem)
        assert np.array_equal(problem.force_samples, shipped.force_samples)
    assert len({tuple(problem.init.values()) for _, problem in fit.problems}) == 4


@pytest.mark.parametrize("name", sorted(REACHED_SPANS))
def test_a_small_traced_pass_reaches_every_span(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name](1, True, tmp_path, EXPECTED)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.setup()
        result = workload.run_pass(1, tracer)
    assert result.failed == 0, result.notes
    calls = Counter()
    for (_, _, span), (count, _, _) in tracer.stats.items():
        calls[span] += count
    assert [span for span in REACHED_SPANS[name] if calls[span] == 0] == []


def test_a_traced_fit_pass_counts_every_forward_run_as_an_objective_call(tmp_path):
    """Every forward run of a fit, the polish's included, is one
    ``sysid.objective`` call, so the traced calls (and the improving ratio
    read over them) cover each fit's ``n_evals``."""
    workload = load_perfbench("workloads").WORKLOADS["fit"](1, True, tmp_path, EXPECTED)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.setup()
        result = workload.run_pass(1, tracer)
    assert result.failed == 0, result.notes
    calls = sum(count for (_, _, span), (count, _, _) in tracer.stats.items() if span == "sysid.objective")
    assert calls == sum(fit["evals"] for fit in result.fits) > 0
