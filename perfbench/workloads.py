"""The benchmark's three closed-loop workloads.

Each workload turns ``--seed`` into its generated inputs in ``setup`` (the
shipped fixtures run unchanged for every seed), then runs passes of a fixed
set of ops. One op is one unit of checked work: a scenario for ``simulate``,
a fit for ``fit`` and one ``ManipulationEnv.step`` for ``env``. Every call
into the package goes through a module attribute (``scenario.run``, not a
name imported from it), so the tracer's wrappers see it.

Why these three: see WORKLOADS.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from artjoint import cli, envs, fixtures, scenario, sysid, trajectory

FIT_BUDGET = 5000  # acceptance criterion 7: at most this many evaluations
FIT_REL_TOL = 0.05  # ... and every parameter within 5% of the truth


@dataclass
class PassResult:
    """What one pass did; the runner times the pass as a whole."""

    latencies: list[float] = field(default_factory=list)  # seconds, one per op
    attempted: int = 0
    failed: int = 0
    joint_steps: int = 0
    solutions: int = 0  # ops whose outcome meets the workload's check
    notes: list[str] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)

    def fail(self, label: str, why: str, ops: int = 1) -> None:
        self.failed += ops
        self.notes.append(f"{label}: {why}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool, work_dir: Path, expected: dict):
        self.rng = np.random.default_rng(seed)
        self.small = small
        self.work_dir = work_dir
        self.expected = expected
        self.reference: dict[str, object] = {}  # op label -> outcome of the first pass

    def same_as_first_pass(self, label: str, outcome) -> bool:
        return self.reference.setdefault(label, outcome) == outcome

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> PassResult:
        raise NotImplementedError

    @staticmethod
    def op_context(tracer, op_id: str):
        return tracer.op_span(op_id) if tracer is not None else contextlib.nullcontext()


# --------------------------------------------------------------------------
# simulate: the path of `artjoint simulate`, plus its CSV read back


RELEASE_ASSETS = ("microwave", "trashcan")  # their button rules fire set_open_state


def make_scene(rng: np.random.Generator, copies: int) -> dict:
    """Every bundled fixture placed ``copies`` times at seeded world poses,
    with its own force schedule, initial state and recordings, and every
    force value scaled by a seeded factor in [0.9, 1.1]."""
    scene = {"assemblies": [], "duration": 0.0, "forces": [], "recordings": [], "initial": {}}
    dts = set()
    for fixture in fixtures.FIXTURE_NAMES:
        source = json.loads(fixtures.scenario_path(fixture).read_text(encoding="utf-8"))
        scene["duration"] = max(scene["duration"], source["duration"])
        dts.add(source.get("dt", 0.001))
        for copy in range(copies):
            name = f"{fixture}{copy}"

            def rename(ref: str) -> str:
                return f"{name}/{ref.split('/', 1)[1]}"

            quat = rng.normal(size=4)
            quat /= np.linalg.norm(quat)
            scene["assemblies"].append(
                {
                    "asset": str(fixtures.asset_path(fixture)),
                    "name": name,
                    "world_pose": {
                        "position": [float(x) for x in rng.uniform(-2.0, 2.0, size=3)],
                        "orientation": [float(x) for x in quat],
                    },
                }
            )
            for force in source.get("forces", []):
                profile = dict(force["profile"])
                if "value" in profile:
                    profile["value"] *= float(rng.uniform(0.9, 1.1))
                if "steps" in profile:
                    profile["steps"] = [[t, v * float(rng.uniform(0.9, 1.1))] for t, v in profile["steps"]]
                scene["forces"].append({"joint": rename(force["joint"]), "profile": profile})
            scene["recordings"].extend(rename(ref) for ref in source["recordings"])
            scene["initial"].update({rename(ref): init for ref, init in source.get("initial", {}).items()})
    (scene["dt"],) = dts
    return scene


class Simulate(Workload):
    name = "simulate"

    def setup(self) -> None:
        scene_path = self.work_dir / "scene.scenario.json"
        scene_path.write_text(json.dumps(make_scene(self.rng, 1 if self.small else 3)), encoding="utf-8")
        self.inputs = [(name, fixtures.scenario_path(name)) for name in fixtures.FIXTURE_NAMES]
        self.inputs.append(("scene", scene_path))
        for _, path in self.inputs:  # parse every input once: fail before timing
            scenario.load_scenario(path)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult()
        for label, path in self.inputs:
            result.attempted += 1
            csv_path = self.work_dir / f"{label}.csv"
            try:
                with self.op_context(tracer, f"p{index}:{label}"):
                    t0 = time.perf_counter()
                    loaded = scenario.load_scenario(path)
                    traj, log = scenario.run(loaded)
                    trajectory.export_csv(traj, csv_path)
                    back = trajectory.import_csv(csv_path)
                    result.latencies.append(time.perf_counter() - t0)
            except Exception:
                result.fail(label, traceback.format_exc(limit=3))
                continue
            result.joint_steps += (len(traj) - 1) * sum(len(pl.assembly.joints) for pl in loaded.assemblies)
            problems = self.check(label, loaded, traj, log, back, _sha256(csv_path))
            if problems:
                result.fail(label, "; ".join(problems))
            else:
                result.solutions += 1
        return result

    def check(self, label, loaded, traj, log, back, digest) -> list[str]:
        problems = []
        if label in self.expected["fixture_csv_sha256"]:
            if digest != self.expected["fixture_csv_sha256"][label]:
                problems.append(f"csv sha256 {digest[:12]} differs from the recorded one")
        elif not self.same_as_first_pass(label, digest):
            problems.append(f"csv sha256 {digest[:12]} differs from the first pass")
        if not back.equals(traj):
            problems.append("csv does not re-import to an equal trajectory")
        for pl in loaded.assemblies:
            if pl.assembly.id in RELEASE_ASSETS:
                fired = sum(
                    1
                    for r in log
                    if r.kind == "effect" and r.effect_type == "set_open_state" and r.rule_id.startswith(pl.name + "/")
                )
                if fired != 1:
                    problems.append(f"{pl.name} fired set_open_state {fired} times, expected once")
        return problems


# --------------------------------------------------------------------------
# fit: sysid.fit on the bundled drawer_sprung problem


class Fit(Workload):
    """The seeded starts come from fixed start seeds, not from ``--seed``.
    Whether a start converges is all or nothing: over run seeds 1-20, 7 of
    20 triples of starts held a fit that converged. Such a pass does up to
    1.5 times the evaluations and finds up to 3 times the solutions, a
    spread no run length averages out."""

    name = "fit"
    start_seeds = (1, 2, 3)

    def setup(self) -> None:
        # the fitspec loading of `artjoint fit`
        shipped = cli._load_fit_problem(fixtures.fitspec_path("drawer_sprung"))
        self.problems = [("shipped", shipped)]
        for start_seed in () if self.small else self.start_seeds:
            # middle 60% of each parameter's box
            rng = np.random.default_rng(start_seed)
            start = {name: lo + (0.2 + 0.6 * rng.random()) * (hi - lo) for name, (lo, hi) in shipped.bounds.items()}
            self.problems.append((f"seeded{start_seed}", dataclasses.replace(shipped, init=start)))
        self.truth = self.expected["drawer_sprung_truth"]
        self.steps_per_eval = len(shipped.observed) - 1

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult()
        for label, problem in self.problems:
            result.attempted += 1
            try:
                with self.op_context(tracer, f"p{index}:{label}"):
                    t0 = time.perf_counter()
                    fitted = sysid.fit(problem)
                    result.latencies.append(time.perf_counter() - t0)
            except Exception:
                result.fail(label, traceback.format_exc(limit=3))
                continue
            result.joint_steps += fitted.n_evals * self.steps_per_eval
            worst = max(abs(fitted.params[name] - value) / abs(value) for name, value in self.truth.items())
            accurate = fitted.converged and fitted.n_evals <= FIT_BUDGET and worst <= FIT_REL_TOL
            result.fits.append(
                {"label": label, "evals": fitted.n_evals, "sweeps": fitted.iterations, "worst_err": worst, "accurate": accurate}
            )
            problems = []
            if not fitted.converged or fitted.n_evals > FIT_BUDGET:
                problems.append(f"converged={fitted.converged} after {fitted.n_evals} evaluations")
            if label == "shipped" and not accurate:
                problems.append(f"shipped start misses the truth by {worst:.2%}")
            if not self.same_as_first_pass(label, (sorted(fitted.params.items()), fitted.residual_sse, fitted.n_evals)):
                problems.append("result differs from the first pass")
            if problems:
                result.fail(label, "; ".join(problems))
            # Seeded starts that stop short of 5% are the known stopping-rule
            # defect (WORKLOADS.md): they count against s_per_solution and
            # sysid.fit.accurate_ratio, not as failed ops.
            if accurate and not problems:
                result.solutions += 1
        return result


# --------------------------------------------------------------------------
# env: scripted press-and-close episodes on trashcan_env


def _clip(action: np.ndarray, limit: float = 9.9) -> np.ndarray:
    norm = float(np.linalg.norm(action))
    return action * (limit / norm) if norm > limit else action


CAP = np.array([0.0, 0.16, 0.30])
_CQ, _SQ = math.cos(1.8), math.sin(1.8)
RIM_OPEN = np.array([0.0, -0.15 + 0.30 * _CQ - 0.02 * _SQ, 0.60 + 0.30 * _SQ + 0.02 * _CQ])
MAX_STEPS = 6001


class Env(Workload):
    name = "env"
    episodes = 4

    def setup(self) -> None:
        base = scenario.load_scenario(fixtures.scenario_path("trashcan_env"))
        self.envs = []
        for _ in range(1 if self.small else self.episodes):
            start = np.array(base.env.effector_start) + self.rng.uniform(-0.05, 0.05, size=3)
            config = dataclasses.replace(base.env, effector_start=tuple(float(x) for x in start))
            self.envs.append(envs.ManipulationEnv(dataclasses.replace(base, env=config)))
        goal = base.env.goal_joint
        name, joint = goal.split("/", 1)
        self.goal = goal
        self.goal_lower = next(pl for pl in base.assemblies if pl.name == name).assembly.joint(joint).q_lower_bound
        self.joints = sum(len(pl.assembly.joints) for pl in base.assemblies)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        result = PassResult()
        for episode, env in enumerate(self.envs):
            label = f"episode{episode}"
            latencies: list[float] = []
            try:
                with self.op_context(tracer, f"p{index}:{label}"):
                    obs, done = self.rollout(env, latencies)
            except Exception:
                result.attempted += len(latencies) + 1
                result.fail(label, traceback.format_exc(limit=3), ops=len(latencies) + 1)
                continue
            steps = len(latencies)
            result.attempted += steps
            result.latencies.extend(latencies)
            result.joint_steps += steps * self.joints
            lid = env.runtime.states[self.goal]
            problems = []
            if not done:
                problems.append(f"not done after {steps} steps")
            if lid.q != self.goal_lower or lid.s_open:
                problems.append(f"lid at q={lid.q!r}, s_open={lid.s_open}")
            if not self.same_as_first_pass(label, (steps, obs.tobytes())):
                problems.append("episode differs from the first pass")
            if problems:
                result.fail(label, "; ".join(problems), ops=steps)
            else:
                result.solutions += 1
        return result

    @staticmethod
    def rollout(env, latencies: list[float]):
        """The controller of tests/test_env.py::test_scripted_press_and_close:
        hover over the pedal, press it, travel to the open rim, push it shut."""
        obs = env.reset()
        done = False
        phase = "approach"
        press_ticks = 0
        clock = time.perf_counter
        while not done and len(latencies) < MAX_STEPS:
            pos, vel = obs[:3], obs[3:6]
            if phase == "approach":
                hover = CAP + np.array([0.0, 0.035, 0.0])
                action = _clip(60.0 * (hover - pos) - 14.0 * vel)
                if np.linalg.norm(pos - hover) < 0.02 and np.linalg.norm(vel) < 0.5:
                    phase = "press"
            elif phase == "press":
                action = _clip(np.array([0.0, -6.0, 0.0]) - 8.0 * vel)
                press_ticks += 1
                if press_ticks >= 300:
                    phase = "travel"
            elif phase == "travel":
                action = _clip(60.0 * (RIM_OPEN + np.array([0.0, -0.05, 0.02]) - pos) - 14.0 * vel)
                if np.linalg.norm(pos - RIM_OPEN) < 0.048 and np.linalg.norm(vel) < 0.8:
                    phase = "push_lid"
            else:
                action = _clip(np.array([0.0, 8.0, -2.0]) - 6.0 * vel)
            t0 = clock()
            obs, _, done = env.step(action)
            latencies.append(clock() - t0)
        return obs, done


WORKLOADS = {cls.name: cls for cls in (Simulate, Fit, Env)}
