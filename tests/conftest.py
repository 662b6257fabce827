"""Shared test helpers: bundled assemblies, a random-asset generator, and
the acceptance-criteria reporting hook."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import artjoint as aj
from artjoint import dynamics
from artjoint import fixtures as fx
from artjoint import kinematics, trajectory
from artjoint.geometry import quat_from_axis_angle


def load_assembly(name: str) -> aj.Assembly:
    return aj.parse_asset(fx.asset_path(name))


def with_marker_point(assembly, point):
    """``assembly`` with its first marker moved to ``point``."""
    i = next(i for i, m in enumerate(assembly.modules) if m.markers)
    module = assembly.modules[i]
    markers = (dataclasses.replace(module.markers[0], local_point=point),) + module.markers[1:]
    return dataclasses.replace(assembly, modules=assembly.modules[:i] + (dataclasses.replace(module, markers=markers),) + assembly.modules[i + 1 :])


@pytest.fixture(scope="session")
def drawer() -> aj.Assembly:
    return load_assembly("drawer")


@pytest.fixture(scope="session")
def microwave() -> aj.Assembly:
    return load_assembly("microwave")


@pytest.fixture(scope="session")
def oven() -> aj.Assembly:
    return load_assembly("oven")


@pytest.fixture(scope="session")
def trashcan() -> aj.Assembly:
    return load_assembly("trashcan")


@pytest.fixture()
def python_stepper(monkeypatch):
    """Every ``dynamics._run`` (``rollout``, the fit and the runtime's
    multi-tick segments) runs the Python loop, as where the compiled stepper
    cannot be built."""
    monkeypatch.setattr(dynamics, "_compiled", (None, "the Python loop, chosen by the test"))


@pytest.fixture()
def python_csv(monkeypatch):
    """``trajectory.export_csv`` writes every cell through ``_reprs`` and
    ``trajectory.import_csv`` reads every row through ``_read_rows``, as
    where the compiled writer and reader cannot be built."""
    monkeypatch.setattr(trajectory, "_compiled", (None, "_reprs and _read_rows, chosen by the test"))


@pytest.fixture(params=["compiled", "python"])
def stepper(request) -> str:
    """The test once on each stepper ``dynamics._run`` can run: the compiled
    one (skipped where it does not load) and the Python loop, as
    :func:`python_stepper` sets it."""
    if request.param == "python":
        request.getfixturevalue("python_stepper")
    elif dynamics._kernel()[0] is None:
        pytest.skip(dynamics._stepper()[1])
    return request.param


@pytest.fixture()
def fk_calls(monkeypatch) -> list[str]:
    """The assembly id of every pose walk made while the test runs: each
    ``kinematics.plan_poses`` call, the one entry both the runtime's
    geometry memo (``ScenarioRuntime.marker_table``) and
    ``forward_kinematics`` (``run``'s batched call) evaluate a plan
    through."""
    calls: list[str] = []
    original = kinematics.plan_poses

    def counting(plan, values):
        calls.append(plan.assembly_id)
        return original(plan, values)

    monkeypatch.setattr(kinematics, "plan_poses", counting)
    return calls


def press_and_close(env: aj.ManipulationEnv):
    """The scripted trashcan_env controller: hover over the pedal, press it
    (the latch releases the lid), travel to the open rim, then push the lid
    shut. Yields ``(phase, obs, reward, done)`` after each step until done
    or 6,001 steps."""
    obs = env.reset()

    def clip(a, lim=9.9):
        n = float(np.linalg.norm(a))
        return a * (lim / n) if n > lim else a

    def servo(target):
        return clip(60.0 * (np.asarray(target) - obs[:3]) - 14.0 * obs[3:6])

    cap = np.array([0.0, 0.16, 0.30])
    cq, sq = math.cos(1.8), math.sin(1.8)
    rim_open = np.array([0.0, -0.15 + 0.30 * cq - 0.02 * sq, 0.60 + 0.30 * sq + 0.02 * cq])

    done = False
    steps = 0
    phase = "approach"
    press_ticks = 0
    while not done and steps < 6001:
        pos, vel = obs[:3], obs[3:6]
        if phase == "approach":
            hover = cap + np.array([0.0, 0.035, 0.0])
            action = servo(hover)
            if np.linalg.norm(pos - hover) < 0.02 and np.linalg.norm(vel) < 0.5:
                phase = "press"
        elif phase == "press":
            action = clip(np.array([0.0, -6.0, 0.0]) - 8.0 * vel)
            press_ticks += 1
            if press_ticks >= 300:
                phase = "travel"
        elif phase == "travel":
            action = servo(rim_open + np.array([0.0, -0.05, 0.02]))
            if np.linalg.norm(pos - rim_open) < 0.048 and np.linalg.norm(vel) < 0.8:
                phase = "push_lid"
        else:
            action = clip(np.array([0.0, 8.0, -2.0]) - 6.0 * vel)
        obs, r, done = env.step(action)
        steps += 1
        yield phase, obs, r, done


def make_joint(**overrides) -> aj.JointSpec:
    """A plain prismatic joint — frictionless, undriven, wide limits — so a
    test can override exactly the parameters it exercises."""
    params = dict(
        id="j",
        kind=aj.PRISMATIC,
        parent_module="base",
        child_module="rod",
        axis=(1.0, 0.0, 0.0),
        anchor=(0.0, 0.0, 0.0),
        q_lower_bound=-10.0,
        q_upper_bound=10.0,
        damping_D=0.0,
        mu_s=0.0,
        coulomb_floor=0.0,
        effective_inertia=1.0,
        stiffness=aj.ConstantStiffness(k=0.0),
        target_policy=aj.FixedTarget(q_target=0.0),
        target_velocity=0.0,
    )
    params.update(overrides)
    return aj.JointSpec(**params)


# ---------------------------------------------------------------------------
# random (but always valid) assemblies, JSON-shaped


def unit_axis(rng: np.random.Generator) -> list[float]:
    v = rng.normal(size=3)
    while float(np.linalg.norm(v)) < 0.3:
        v = rng.normal(size=3)
    v = v / np.linalg.norm(v)
    return [float(c) for c in v]


def _pose_dict(rng: np.random.Generator) -> dict:
    if rng.integers(0, 2) == 0:
        return {"position": [0.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]}
    quat = quat_from_axis_angle(tuple(unit_axis(rng)), float(rng.uniform(-math.pi, math.pi)))
    return {
        "position": [float(x) for x in rng.uniform(-1.0, 1.0, size=3)],
        "orientation": [float(c) for c in quat],
    }


def random_assembly_dict(rng: np.random.Generator, index: int = 0) -> dict:
    """A randomized module tree with valid joints, markers, and sometimes a
    behavior rule — always passes validation."""
    n_modules = int(rng.integers(2, 7))
    module_ids = [f"m{k}" for k in range(n_modules)]
    modules = []
    markers = []
    for k, mid in enumerate(module_ids):
        modules.append(
            {
                "id": mid,
                "mass": float(rng.uniform(0.1, 20.0)),
                "rest_pose": _pose_dict(rng),
                "affordance_label": str(rng.choice(["", "pull", "press", "rotate"])),
            }
        )
        if rng.integers(0, 2):
            markers.append(
                {
                    "module_id": mid,
                    "name": f"mark{k}",
                    "local_point": [float(x) for x in rng.uniform(-0.5, 0.5, size=3)],
                }
            )
    joints = []
    for k in range(1, n_modules):
        lo = float(rng.uniform(-1.0, 0.5))
        hi = lo + float(rng.uniform(0.05, 2.0))
        if rng.integers(0, 2):
            stiffness = {"type": "constant", "k": float(rng.uniform(0.0, 50.0))}
        else:
            k_low = float(rng.uniform(0.0, 5.0))
            stiffness = {
                "type": "schedule",
                "k_high": k_low + float(rng.uniform(0.0, 40.0)),
                "k_low": k_low,
                "k_max": float(rng.uniform(0.0, 80.0)),
                "alpha": float(rng.uniform(0.0, 30.0)),
                "lambda": float(rng.uniform(0.0, 20.0)),
                "q_threshold": float(rng.uniform(lo, hi)),
            }
        if rng.integers(0, 2):
            policy = {"type": "fixed", "q_target": float(rng.uniform(lo, hi))}
        else:
            policy = {"type": "latch", "q_threshold": float(rng.uniform(lo, hi))}
        joints.append(
            {
                "id": f"j{k}",
                "kind": str(rng.choice(["prismatic", "revolute"])),
                "parent_module": module_ids[int(rng.integers(0, k))],
                "child_module": module_ids[k],
                "axis": unit_axis(rng),
                "anchor": [float(x) for x in rng.uniform(-0.5, 0.5, size=3)],
                "q_lower_bound": lo,
                "q_upper_bound": hi,
                "damping_D": float(rng.uniform(0.0, 5.0)),
                "mu_s": float(rng.uniform(0.0, 0.5)),
                "coulomb_floor": float(rng.uniform(0.0, 1.0)),
                "effective_inertia": float(rng.uniform(0.01, 3.0)),
                "stiffness": stiffness,
                "target_policy": policy,
                "target_velocity": float(rng.uniform(-0.5, 0.5)),
            }
        )
    behaviors = []
    if joints and rng.integers(0, 2):
        j = joints[int(rng.integers(0, len(joints)))]
        behaviors.append(
            {
                "id": "rule0",
                "trigger": {
                    "type": "threshold_crossed",
                    "joint": j["id"],
                    "value": 0.5 * (j["q_lower_bound"] + j["q_upper_bound"]),
                    "direction": str(rng.choice(["rising", "falling"])),
                },
                "effects": [
                    {"type": "set_open_state", "joint": j["id"], "value": bool(rng.integers(0, 2))},
                    {"type": "emit_signal", "name": "ping"},
                ],
            }
        )
    return {
        "id": f"asset{index}",
        "category": "generated",
        "base_frame": _pose_dict(rng),
        "root_module": module_ids[0],
        "modules": modules,
        "joints": joints,
        "markers": markers,
        "behaviors": behaviors,
    }


def random_assembly(rng: np.random.Generator, index: int = 0) -> aj.Assembly:
    return aj.assembly_from_dict(random_assembly_dict(rng, index))


# ---------------------------------------------------------------------------
# acceptance-criteria reporting: one PASS/FAIL line per criterion, echoed in
# the terminal summary so they are visible on a plain `pytest -v` run

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    def _report(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} — {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
