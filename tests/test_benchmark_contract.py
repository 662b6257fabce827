"""The benchmark's tracer (``perfbench/tracing.py``) wraps ``artjoint``
attributes by name, and its fit workload loads fitspecs through the CLI's
loader. Renaming or deleting any of them breaks a ``--trace 1`` run, so this
checks each name here, where the fast suite notices."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from artjoint import cli

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span, owner_name, attr", tracing.TARGETS)
def test_tracer_target_is_defined_on_its_owner(span, owner_name, attr):
    owner = tracing._resolve(owner_name)
    assert attr in owner.__dict__, f"{span}: artjoint.{owner_name} has no attribute '{attr}'"


def test_fit_workload_loader_exists():
    assert callable(cli.__dict__.get("_load_fit_problem"))
