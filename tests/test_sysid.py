"""Parameter identification: problem validation, the objective, and
recovery of known joint parameters from synthetic observations."""

import copy
import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import fixtures, sysid

from conftest import make_joint


def pull(t):
    return 1.2 if t < 0.5 else 0.0


@pytest.fixture(scope="module")
def slide():
    return aj.parse_asset(aj.fixtures.asset_path("drawer")).joint("slide")


def observed_for(spec, duration=1.0, dt=2e-3, q0=0.0, forces=pull, **kwargs):
    return aj.generate_synthetic(spec, forces, duration, dt, q0=q0, **kwargs)


def problem_for(spec, observed, free, bounds, init, **kwargs):
    return aj.FitProblem(
        observed=observed, forces=pull, spec_template=spec, free=free, bounds=bounds, init=init, **kwargs
    )


# ---------------------------------------------------------------------------
# problem validation


def test_too_few_samples_rejected(slide):
    tiny = aj.Trajectory(times=np.array([0.0, 0.002, 0.004]), channels={"q": np.zeros(3)})
    with pytest.raises(aj.InsufficientDataError):
        problem_for(slide, tiny, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})


def test_empty_free_list_rejected(slide):
    observed = observed_for(slide)
    with pytest.raises(ValueError, match="free parameter list"):
        problem_for(slide, observed, [], {}, {})


def test_missing_bounds_or_init_rejected(slide):
    observed = observed_for(slide)
    with pytest.raises(ValueError, match="no bounds"):
        problem_for(slide, observed, ["damping_D"], {}, {"damping_D": 10.0})
    with pytest.raises(ValueError, match="no initial value"):
        problem_for(slide, observed, ["damping_D"], {"damping_D": (1.0, 30.0)}, {})
    with pytest.raises(ValueError, match="outside bounds"):
        problem_for(slide, observed, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 99.0})
    box, start = {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0}
    with pytest.raises(ValueError, match=r"bounds name\(s\) \['mu_s'\] are not free"):
        problem_for(slide, observed, ["damping_D"], {**box, "mu_s": (0.0, 1.0)}, start)
    with pytest.raises(ValueError, match=r"init name\(s\) \['dampnig_D'\] are not free"):
        problem_for(slide, observed, ["damping_D"], box, {**start, "dampnig_D": 10.0})


def test_irregular_sampling_rejected(slide):
    times = np.array([0.0, 0.001, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.010, 0.011])
    ragged = aj.Trajectory(times=times, channels={"q": np.zeros(len(times))})
    with pytest.raises(ValueError, match="uniformly"):
        problem_for(slide, ragged, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})


def test_observed_series_must_start_at_zero(slide):
    # forces are sampled at k * dt from t = 0, so a later start would fit the
    # joint against forces its samples never felt
    observed = observed_for(slide)
    shifted = aj.Trajectory(times=observed.times + 5.0, channels=observed.channels)
    with pytest.raises(ValueError, match=r"observed trajectory must start at t = 0, not at t = 5\.0"):
        problem_for(slide, shifted, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})


def test_multichannel_needs_explicit_channel(slide):
    times = np.arange(20) * 2e-3
    multi = aj.Trajectory(times=times, channels={"a": np.zeros(20), "b": np.zeros(20)})
    with pytest.raises(ValueError, match="channel"):
        problem_for(slide, multi, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})
    prob = problem_for(
        slide, multi, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0}, channel="b"
    )
    assert prob.channel == "b"


def test_bad_parameter_path_rejected(slide):
    observed = observed_for(slide)
    for name in ("viscosity", "kind"):
        with pytest.raises(ValueError, match=f"no parameter '{name}'"):
            problem_for(slide, observed, [name], {name: (0.0, 1.0)}, {name: 0.5})


def test_box_admitting_an_invalid_joint_rejected(slide):
    observed = observed_for(slide)
    with pytest.raises(ValueError, match=r"bounds for 'damping_D' admit an invalid joint: at damping_D = -1.0, .*damping_D must be >= 0"):
        problem_for(slide, observed, ["damping_D"], {"damping_D": (-1.0, 30.0)}, {"damping_D": 10.0})
    with pytest.raises(ValueError, match=r"at effective_inertia = 0.0, .*effective_inertia must be > 0"):
        problem_for(
            slide,
            observed,
            ["damping_D", "effective_inertia"],
            {"damping_D": (1.0, 30.0), "effective_inertia": (0.0, 2.0)},
            {"damping_D": 10.0, "effective_inertia": 1.0},
        )
    # a box whose ends are valid with the other parameters at their start loads
    problem_for(slide, observed, ["damping_D", "mu_s"], {"damping_D": (0.0, 30.0), "mu_s": (0.0, 1.0)}, {"damping_D": 10.0, "mu_s": 0.1})


def test_box_with_an_infinite_end_rejected(slide):
    # a joint with infinite damping passes every comparison of check_joint
    # but its finite-number rule, and would run to NaN
    observed = observed_for(slide)
    with pytest.raises(ValueError, match=r"bounds for 'damping_D' admit an invalid joint: at damping_D = inf, number must be finite"):
        problem_for(slide, observed, ["damping_D"], {"damping_D": (0.5, math.inf)}, {"damping_D": 2.6})


def test_box_invalid_only_at_a_corner_rejected(microwave):
    # each end is valid with the other parameter at its start; k_low = 5.0
    # with k_high = 4.0 is not
    door = microwave.joint("door")
    observed = observed_for(door, forces=lambda t: 0.0)
    free = ["stiffness.k_low", "stiffness.k_high"]
    box = {"stiffness.k_low": (0.3, 5.0), "stiffness.k_high": (4.0, 8.0)}
    with pytest.raises(
        ValueError,
        match=r"bounds for 'stiffness.k_low', 'stiffness.k_high' admit an invalid joint: "
        r"at stiffness.k_low = 5.0, stiffness.k_high = 4.0, .*requires k_low <= k_high",
    ):
        problem_for(door, observed, free, box, {"stiffness.k_low": 0.8, "stiffness.k_high": 6.0})


def test_observed_step_past_the_dt_guard_rejected(slide):
    times = np.arange(20) * 0.02
    coarse = aj.Trajectory(times=times, channels={"q": np.zeros(len(times))})
    with pytest.raises(aj.UnstableDtError, match="stability guard"):
        problem_for(slide, coarse, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})


def test_non_finite_observed_sample_rejected(slide):
    observed = observed_for(slide)
    for bad in (math.nan, math.inf, -math.inf):
        q = observed.channel("slide.q").copy()
        q[400] = bad
        holed = aj.Trajectory(times=observed.times, channels={"slide.q": q})
        with pytest.raises(ValueError, match=rf"observed channel 'slide.q' has a non-finite sample \({bad}\) at t = 0.8"):
            problem_for(slide, holed, ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})


def test_non_finite_force_sample_rejected(slide):
    problem = problem_for(slide, observed_for(slide), ["damping_D"], {"damping_D": (1.0, 30.0)}, {"damping_D": 10.0})
    with pytest.raises(ValueError, match=r"forces give a non-finite sample \(nan\) at t = 0\.0$"):
        dataclasses.replace(problem, forces=lambda t: math.nan)
    with pytest.raises(ValueError, match=r"forces give a non-finite sample \(inf\) at t = 0\.502$"):
        dataclasses.replace(problem, forces=lambda t: math.inf if t > 0.5 else 2.0)


def test_problem_is_frozen_and_replace_derives_afresh(slide):
    observed = observed_for(slide)
    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    for name, value in (("forces", lambda t: 0.0), ("observed", observed), ("dt", 1e-3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, name, value)
    with pytest.raises(ValueError):
        prob.observed_q[0] = 1.0  # a read-only copy: the finiteness check holds for good
    # the buffers bound at the first evaluation stay the problem's: every
    # copy is rebuilt through the constructor and binds its own, over its
    # own samples' address
    sysid.objective(prob, {"damping_D": 15.0})
    for clone in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        twin = clone(prob)
        assert twin.force_samples is not prob.force_samples
        sysid.objective(twin, {"damping_D": 15.0})
        bound = sysid._buffers(twin).args
        assert twin.force_samples.ctypes.data in bound and prob.force_samples.ctypes.data not in bound
    shorter = aj.Trajectory(times=observed.times[:100], channels={"slide.q": observed.channel("slide.q")[:100]})
    cut = dataclasses.replace(prob, observed=shorter)
    assert np.array_equal(cut.force_samples, prob.force_samples[:99])
    assert len(sysid.residuals(cut, {"damping_D": 30.0})) == 100
    assert np.array_equal(sysid.residuals(cut, {"damping_D": 30.0}), sysid.residuals(prob, {"damping_D": 30.0})[:100])


def test_problem_box_and_start_are_read_only_copies(slide):
    observed = observed_for(slide)
    free, bounds, init = ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0}
    prob = problem_for(slide, observed, free, bounds, init)
    with pytest.raises(TypeError):
        prob.bounds["damping_D"] = (-5.0, 6.0)  # would get past the box check
    with pytest.raises(TypeError):
        prob.init["damping_D"] = 99.0
    free.append("mu_s")
    bounds["damping_D"], init["damping_D"] = (-5.0, 6.0), 99.0
    assert (prob.free, dict(prob.bounds), dict(prob.init)) == (("damping_D",), {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    seeded = dataclasses.replace(prob, init={"damping_D": 20.0})  # the benchmark's seeded starts
    assert dict(seeded.init) == {"damping_D": 20.0} and seeded.bounds == prob.bounds


def test_residuals_take_exactly_the_free_parameters(slide):
    prob = problem_for(slide, observed_for(slide), ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    with pytest.raises(ValueError, match=r"params name\(s\) \['mu_s'\] are not free parameters"):
        sysid.residuals(prob, {"damping_D": 15.0, "mu_s": 0.1})
    with pytest.raises(ValueError, match=r"params give no value for free parameter\(s\) \['damping_D'\]"):
        sysid.residuals(prob, {})
    with pytest.raises(ValueError, match=r"no value for free parameter\(s\) \['damping_D'\]"):
        sysid.residuals(prob, {"mu_s": 0.1})  # a stray name in place of a free one


REST_PATHS = ("q_lower_bound", "q_upper_bound", "target_policy.q_threshold", "target_policy.q_target")
OTHER_PATHS = ("damping_D", "mu_s", "coulomb_floor", "stiffness.k_low", "stiffness.alpha")
BOXES = {
    "q_lower_bound": (-0.3, 0.1),
    "q_upper_bound": (0.9, 1.3),
    "target_policy.q_threshold": (0.2, 0.8),
    "target_policy.q_target": (0.2, 0.8),
    "damping_D": (0.0, 5.0),
    "mu_s": (0.0, 0.4),
    "coulomb_floor": (0.0, 0.5),
    "stiffness.k_low": (0.0, 2.0),
    "stiffness.alpha": (0.0, 10.0),
}


@st.composite
def residual_cases(draw):
    """(problem, params): a scheduled joint with a latch or a fixed target,
    free in at least one of the slots a rest state reads (the limits and
    the target's threshold or position) and in some other parameters,
    observed from a first sample that may lie outside the drawn limits,
    started open or closed, and a point in its box."""
    latched = draw(st.booleans())
    target = "target_policy.q_threshold" if latched else "target_policy.q_target"
    template = make_joint(
        q_lower_bound=-0.1,
        q_upper_bound=1.1,
        damping_D=1.0,
        mu_s=0.2,
        coulomb_floor=0.1,
        effective_inertia=0.5,
        stiffness=aj.StiffnessSchedule(k_high=20.0, k_low=1.0, k_max=10.0, alpha=5.0, lambda_=8.0, q_threshold=0.5),
        target_policy=aj.LatchTarget(q_threshold=0.5) if latched else aj.FixedTarget(q_target=0.5),
    )
    rest = [path for path in REST_PATHS if path.startswith("q_") or path == target]
    free = draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    free += draw(st.lists(st.sampled_from(OTHER_PATHS), max_size=3, unique=True))
    n, dt = draw(st.integers(10, 400)), 2e-3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.uniform(-0.2, 1.2, size=n)
    q[0] = draw(st.sampled_from([-0.5, -0.3, -0.1, -0.0, 0.1, 0.5, 0.9, 1.1, 1.3, 1.5, float(q[0])]))
    push, cut = draw(st.sampled_from([-12.0, -3.0, 0.0, 3.0, 12.0])), float(rng.uniform(0.0, n * dt))
    problem = aj.FitProblem(
        observed=aj.Trajectory(times=np.arange(n) * dt, channels={"j.q": q}),
        forces=lambda t: push if t < cut else -0.5 * push,
        spec_template=template,
        free=free,
        bounds={name: BOXES[name] for name in free},
        init={name: sum(BOXES[name]) / 2 for name in free},
        s_open0=draw(st.booleans()),
    )
    params = {name: draw(st.floats(*BOXES[name])) for name in free}
    return problem, params


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(residual_cases())
def test_residuals_are_the_forward_run_minus_the_observed_series(case):
    """``residuals`` writes the free values into the template's record and
    takes the rest state from it; the same joint built by ``apply_params``
    and started by ``initial_state`` at the clamped first sample gives the
    same positions, bit for bit."""
    problem, params = case
    spec = aj.apply_params(problem.spec_template, params)
    q0 = min(max(float(problem.observed_q[0]), spec.q_lower_bound), spec.q_upper_bound)
    state0 = aj.initial_state(spec, q=q0, s_open=problem.s_open0)
    n = len(problem.observed_q)
    series = aj.simulate_joint(spec, problem.forces, (n - 1) * problem.dt, problem.dt, state0=state0)
    assert len(series) == n
    expected = np.array([state.q for state in series]) - problem.observed_q
    assert sysid.residuals(problem, params).tobytes() == expected.tobytes()


def test_residuals_are_the_forward_run_minus_the_observed_series_on_the_python_loop(python_stepper):
    test_residuals_are_the_forward_run_minus_the_observed_series()


# ---------------------------------------------------------------------------
# apply_params


def test_apply_params_top_level_and_nested(slide):
    spec = aj.apply_params(slide, {"damping_D": 3.0, "stiffness.k": 12.0})
    assert spec.damping_D == 3.0
    assert spec.stiffness.k == 12.0
    assert slide.damping_D == 15.0  # template untouched


def test_apply_params_rejects_deep_paths(slide):
    # too deep, no such component, no such leaf, and only float fields are
    # parameters: not a property, a component or a string
    for path in ("stiffness.k.extra", "nothing.k", "stiffness.k_wobble", "bounds", "stiffness", "id", "id.k"):
        with pytest.raises(ValueError, match=re.escape(f"spec has no parameter '{path}'")):
            aj.apply_params(slide, {path: 1.0})


# ---------------------------------------------------------------------------
# objective and synthetic data


def test_objective_zero_at_the_generating_parameters(slide):
    observed = observed_for(slide)
    prob = problem_for(
        slide,
        observed,
        ["damping_D", "coulomb_floor"],
        {"damping_D": (5.0, 40.0), "coulomb_floor": (0.2, 1.2)},
        {"damping_D": 15.0, "coulomb_floor": 0.6},
    )
    assert aj.objective(prob, {"damping_D": 15.0, "coulomb_floor": 0.6}) == 0.0


def test_objective_samples_the_forces_once_per_problem(slide):
    observed = observed_for(slide)
    times = []

    def counting(t):
        times.append(t)
        return pull(t)

    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    prob = dataclasses.replace(prob, forces=counting)
    assert times == [k * prob.dt for k in range(len(observed) - 1)]  # sampled at construction
    assert aj.objective(prob, {"damping_D": 15.0}) == 0.0
    assert times == [k * prob.dt for k in range(len(observed) - 1)]  # the times simulate_joint samples
    assert aj.objective(prob, {"damping_D": 30.0}) > 0.0
    assert len(times) == len(observed) - 1  # no force call on the second evaluation

    # a replaced schedule is sampled afresh, never served from the old samples
    pushed = []
    unpushed = dataclasses.replace(prob, forces=lambda t: pushed.append(t) or 0.0)
    at_rest = aj.objective(unpushed, {"damping_D": 15.0})
    assert len(pushed) == len(observed) - 1
    assert at_rest == aj.objective(dataclasses.replace(prob, forces=lambda t: 0.0), {"damping_D": 15.0}) > 0.0
    assert aj.objective(prob, {"damping_D": 15.0}) == 0.0
    assert len(times) == len(observed) - 1


def test_objective_grows_away_from_truth(slide):
    observed = observed_for(slide)
    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    at_truth = aj.objective(prob, {"damping_D": 15.0})
    doubled = aj.objective(prob, {"damping_D": 30.0})
    assert doubled > at_truth


def test_generate_synthetic_noise_is_seeded(slide):
    a = observed_for(slide, noise_sd=0.01, seed=7)
    b = observed_for(slide, noise_sd=0.01, seed=7)
    c = observed_for(slide, noise_sd=0.01, seed=8)
    assert a.equals(b)
    assert not a.equals(c)
    clean = observed_for(slide)
    assert not np.array_equal(a.channel("slide.q"), clean.channel("slide.q"))


def test_generate_synthetic_channel_name(slide):
    assert observed_for(slide).channel_names == ["slide.q"]


def test_noise_floor_scales_with_sd(slide):
    # SSE at the generating parameters is dominated by the noise floor
    # n * sd^2.  The simulation starts from the (noisy) first sample and the
    # undriven drawer never pulls that offset back in, so the floor is
    # inflated by a factor of a few -- but stays well under 6 n sd^2.
    n_ok = 0
    sd = 0.005
    for seed in range(100):
        observed = observed_for(slide, noise_sd=sd, seed=seed)
        prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
        sse = aj.objective(prob, {"damping_D": 15.0})
        if sse < 6 * len(observed) * sd * sd:
            n_ok += 1
    assert n_ok >= 99


# ---------------------------------------------------------------------------
# fitting


def test_fit_recognizes_an_exact_start(slide):
    observed = observed_for(slide)
    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 15.0})
    result = aj.fit(prob)
    assert result.converged
    assert result.iterations == 1
    assert result.params == {"damping_D": 15.0}
    assert result.residual_sse == 0.0
    assert result.stop_reason == "converged"
    assert result.standard_errors == {"damping_D": 0.0}  # the SSE is 0
    assert result.condition_number == 1.0  # one parameter


def test_fit_budget_exhaustion_returns_best_so_far(slide):
    observed = observed_for(slide)
    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 30.0})
    result = aj.fit(prob, budget=10)
    assert not result.converged
    assert result.n_evals == 10
    assert np.isfinite(result.residual_sse)
    assert 5.0 <= result.params["damping_D"] <= 40.0


def test_fit_never_ends_worse_than_init(slide):
    observed = observed_for(slide)
    init = {"damping_D": 22.0}
    prob = problem_for(slide, observed, ["damping_D"], {"damping_D": (5.0, 40.0)}, init)
    result = aj.fit(prob)
    assert result.residual_sse <= aj.objective(prob, init)


def test_fit_is_deterministic(slide):
    observed = observed_for(slide)
    prob = problem_for(
        slide,
        observed,
        ["damping_D", "coulomb_floor"],
        {"damping_D": (5.0, 40.0), "coulomb_floor": (0.2, 1.2)},
        {"damping_D": 20.0, "coulomb_floor": 0.9},
    )
    assert aj.fit(prob, budget=400) == aj.fit(prob, budget=400)


# ---------------------------------------------------------------------------
# recovery of known parameters, one problem per bundled fixture


def recover(template, truth, forces, duration, free, bounds, init, q0, s_open0=False):
    truth_spec = aj.apply_params(template, truth)
    observed = aj.generate_synthetic(truth_spec, forces, duration, 2e-3, q0=q0, s_open0=s_open0)
    prob = aj.FitProblem(
        observed=observed,
        forces=forces,
        spec_template=template,
        free=free,
        bounds=bounds,
        init=init,
        s_open0=s_open0,
    )
    result = aj.fit(prob)
    assert result.n_evals <= 5000
    for name in free:
        rel_err = abs(result.params[name] - truth[name]) / abs(truth[name])
        assert rel_err < 0.05, f"{name}: {result.params[name]} vs {truth[name]} ({rel_err:.1%})"
    return result


def test_recover_drawer_damping_and_floor(slide):
    # a force ramp makes the breakaway instant continuous in the floor (the
    # undriven drawer has zero drive torque at rest), and the post-breakaway
    # level change carries the damping signal
    def ramp(t):
        if t < 2.0:
            return 0.5 * t
        if t < 3.0:
            return 0.4
        return 0.0

    for init in (
        {"damping_D": 19.5, "coulomb_floor": 0.78},
        {"damping_D": 10.5, "coulomb_floor": 0.42},
    ):
        recover(
            slide,
            {"damping_D": 15.0, "coulomb_floor": 0.6},
            ramp,
            3.0,
            ["damping_D", "coulomb_floor"],
            {"damping_D": (5.0, 40.0), "coulomb_floor": (0.2, 1.2)},
            init,
            q0=0.0,
        )


def test_recover_microwave_damping_and_low_stiffness(microwave):
    # released above the latch threshold while closed, the door rings about
    # its held target: the frequency pins k_low and the decay pins D
    door = microwave.joint("door")
    forces = aj.ConstantForce(value=-0.12, t_start=0.0, t_end=0.15)
    for init in (
        {"damping_D": 0.104, "stiffness.k_low": 1.04},
        {"damping_D": 0.056, "stiffness.k_low": 0.56},
    ):
        result = recover(
            door,
            {"damping_D": 0.08, "stiffness.k_low": 0.8},
            forces.value_at,
            2.0,
            ["damping_D", "stiffness.k_low"],
            {"damping_D": (0.02, 0.3), "stiffness.k_low": (0.3, 2.0)},
            init,
            q0=0.6,
        )
        assert result.converged


def test_recover_oven_surge_stiffness_and_damping(oven):
    # snap shut, hold the door at two in-zone equilibria with a force
    # staircase, release for a second snap: the equilibria pin k_max
    door = oven.joint("door")
    forces = aj.PiecewiseForce(steps=((0.0, -0.2), (0.1, 0.0), (0.4, 1.0), (0.8, 1.6), (1.2, 0.0)))
    recover(
        door,
        {"stiffness.k_max": 40.0, "damping_D": 0.06},
        forces.value_at,
        2.0,
        ["stiffness.k_max", "damping_D"],
        {"stiffness.k_max": (10.0, 80.0), "damping_D": (0.01, 0.3)},
        {"stiffness.k_max": 52.0, "damping_D": 0.078},
        q0=0.33,
    )


def test_recover_trashcan_damping_and_low_stiffness(trashcan):
    lid = trashcan.joint("lid")
    forces = aj.ConstantForce(value=-0.15, t_start=0.0, t_end=0.2)
    recover(
        lid,
        {"damping_D": 0.05, "stiffness.k_low": 0.6},
        forces.value_at,
        2.0,
        ["damping_D", "stiffness.k_low"],
        {"damping_D": (0.01, 0.25), "stiffness.k_low": (0.2, 1.5)},
        {"damping_D": 0.035, "stiffness.k_low": 0.42},
        q0=1.5,
    )


# ---------------------------------------------------------------------------
# loading a fitspec


def bundled_fitspec():
    """The bundled fitspec's document, with its file paths made absolute."""
    path = fixtures.fitspec_path("drawer_sprung")
    spec = json.loads(path.read_text())
    for key in ("asset", "observed"):
        spec[key] = str(path.parent / spec[key])
    return spec


def test_load_fitspec_equals_the_problem_built_in_code():
    path = fixtures.fitspec_path("drawer_sprung")
    loaded = sysid.load_fitspec(path)
    template = aj.parse_asset(path.parent / "drawer.artjoint.json").joint("slide")
    forces = aj.PiecewiseForce(((0.0, 1.0), (0.6, -1.6), (1.6, 0.25), (2.2, 0.45)))
    built = sysid.FitProblem(
        observed=aj.import_csv(path.parent / "drawer_sprung_observed.csv"),
        forces=forces,
        spec_template=aj.apply_params(template, {"stiffness.k": 30.0}),
        free=("damping_D", "mu_s", "coulomb_floor"),
        bounds={"damping_D": (0.5, 6.0), "mu_s": (0.02, 0.3), "coulomb_floor": (0.1, 0.8)},
        init={"damping_D": 2.6, "mu_s": 0.07, "coulomb_floor": 0.39},
    )
    assert loaded.forces.__self__ == forces  # each holds its own profile's bound value_at
    assert loaded == dataclasses.replace(built, forces=loaded.forces)
    assert np.array_equal(loaded.force_samples, built.force_samples)


FITSPEC_SHAPE_ERRORS = {
    "top-level array": (lambda spec: [spec], "fitspec", "expected an object, got list"),
    "missing free": (lambda spec: {k: v for k, v in spec.items() if k != "free"}, "fitspec", "missing required key 'free'"),
    "unknown key": (lambda spec: {**spec, "gravity": 9.81}, "fitspec", "unknown key(s) ['gravity']"),
    "three-number box": (
        lambda spec: {**spec, "bounds": {**spec["bounds"], "mu_s": [0.02, 0.1, 0.3]}},
        "fitspec.bounds.mu_s",
        "expected 2 numbers, got 3",
    ),
    "string in a box": (
        lambda spec: {**spec, "bounds": {**spec["bounds"], "mu_s": ["0.02", 0.3]}},
        "fitspec.bounds.mu_s[0]",
        "expected a number, got str",
    ),
    "boolean start": (lambda spec: {**spec, "init": {**spec["init"], "mu_s": True}}, "fitspec.init.mu_s", "expected a number, got bool"),
    "number in free": (lambda spec: {**spec, "free": [3, "mu_s", "coulomb_floor"]}, "fitspec.free[0]", "expected a string, got int"),
    "string s_open0": (lambda spec: {**spec, "s_open0": "no"}, "fitspec.s_open0", "expected a boolean, got str"),
    "number channel": (lambda spec: {**spec, "channel": 3}, "fitspec.channel", "expected a string, got int"),
    "array overrides": (lambda spec: {**spec, "overrides": [["stiffness.k", 30.0]]}, "fitspec.overrides", "expected an object, got list"),
    "unsorted steps": (
        lambda spec: {**spec, "forces": {"type": "piecewise", "steps": [[0.0, 1.0], [0.6, -1.6], [0.3, 0.25]]}},
        "fitspec.forces.steps",
        "piecewise step times must be strictly increasing",
    ),
}


@pytest.mark.parametrize("case", sorted(FITSPEC_SHAPE_ERRORS))
def test_load_fitspec_reports_a_shape_error_at_its_key(tmp_path, case):
    change, location, message = FITSPEC_SHAPE_ERRORS[case]
    path = tmp_path / "case.fitspec.json"
    path.write_text(json.dumps(change(bundled_fitspec())))
    with pytest.raises(aj.AssetSyntaxError) as exc:
        sysid.load_fitspec(path)
    assert (exc.value.location, exc.value.message) == (location, message)


def test_load_fitspec_rejects_a_joint_the_asset_lacks(tmp_path):
    path = tmp_path / "case.fitspec.json"
    path.write_text(json.dumps({**bundled_fitspec(), "joint": "hinge"}))
    with pytest.raises(aj.UnknownJointError, match="fitspec joint 'hinge' not present in asset 'drawer'"):
        sysid.load_fitspec(path)


# ---------------------------------------------------------------------------
# pinned fit results on the bundled fitspec: any change to the objective's
# float arithmetic, however small, moves these exact values


PINNED_FITS = {
    "shipped": (
        {"damping_D": "0x1.ffffffffffff0p+0", "mu_s": "0x1.9999999999f1fp-4", "coulomb_floor": "0x1.3333333333a6fp-2"},
        "0x1.5ce68cf830490p-100",
        157,
        2,
        {"damping_D": "0x1.ab51df9e78328p-53", "mu_s": "0x1.477329a2462edp-49", "coulomb_floor": "0x1.684eb114512bep-47"},
        "0x1.954d34f8520f6p+9",
    ),
    "seeded1": (
        {"damping_D": "0x1.0000000000000p+1", "mu_s": "0x1.99999999972acp-4", "coulomb_floor": "0x1.3333333333388p-2"},
        "0x1.64520545909a8p-97",
        224,
        3,
        {"damping_D": "0x1.315b6b472f4e7p-51", "mu_s": "0x1.d3fb875c32ad2p-48", "coulomb_floor": "0x1.017885ce6d389p-45"},
        "0x1.954d4a19cb881p+9",
    ),
}


@pytest.fixture(scope="module")
def drawer_sprung():
    return sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))


def benchmark_start(problem, seed):
    """``problem`` from the benchmark fit workload's start ``seed``: a draw
    from the middle 60% of each parameter's box."""
    rng = np.random.default_rng(seed)
    start = {name: lo + (0.2 + 0.6 * rng.random()) * (hi - lo) for name, (lo, hi) in problem.bounds.items()}
    return dataclasses.replace(problem, init=start)


def pinned_problem(drawer_sprung, label):
    return benchmark_start(drawer_sprung, 1) if label == "seeded1" else drawer_sprung


def assert_pinned(result, label):
    params, sse, n_evals, iterations, standard_errors, condition_number = PINNED_FITS[label]
    assert result.params == {name: float.fromhex(value) for name, value in params.items()}
    assert result.residual_sse == float.fromhex(sse)
    assert (result.n_evals, result.iterations, result.converged) == (n_evals, iterations, True)
    # the polish's reductions: the Jacobian columns and their pairwise dot products
    assert result.standard_errors == {name: float.fromhex(value) for name, value in standard_errors.items()}
    assert result.condition_number == float.fromhex(condition_number)


@pytest.mark.parametrize("label", sorted(PINNED_FITS))
def test_fit_on_the_bundled_fitspec_is_pinned(drawer_sprung, label):
    assert_pinned(aj.fit(pinned_problem(drawer_sprung, label)), label)


def test_threads_fitting_one_problem_each_reach_the_pins(drawer_sprung, stepper):
    """ctypes releases the GIL while the compiled stepper runs, so threads
    evaluating one problem at once must not share its buffers. Three
    threads (more than two cores), switching every 10 us, each fit both
    pinned problems, in opposite orders, and each result equals its pin."""
    problems = {label: pinned_problem(drawer_sprung, label) for label in sorted(PINNED_FITS)}
    results, errors = [], []

    def work(order):
        try:
            results.extend((label, aj.fit(problems[label])) for label in order)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    orders = [sorted(problems), sorted(problems, reverse=True), sorted(problems)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert sorted(label for label, _ in results) == sorted(label for order in orders for label in order)
    for label, result in results:
        assert_pinned(result, label)


def test_residuals_are_a_fresh_array_each_call(drawer_sprung, stepper):
    """The evaluation buffers are reused, but no caller holds them: a second
    ``residuals`` call, or an ``objective`` one, leaves the first array as
    it was."""
    middle = {name: (lo + hi) / 2 for name, (lo, hi) in drawer_sprung.bounds.items()}
    first = sysid.residuals(drawer_sprung, dict(drawer_sprung.init))
    kept = first.tobytes()
    second = sysid.residuals(drawer_sprung, middle)
    assert aj.objective(drawer_sprung, middle) > 0.0
    assert first.tobytes() == kept != second.tobytes()
    assert aj.objective(drawer_sprung, dict(drawer_sprung.init)) == aj.trajectory.pairwise_dot(first, first)


# ---------------------------------------------------------------------------
# the two stages on the bundled fitspec: golden sweeps, then the polish

DRAWER_SPRUNG_TRUTH = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())[
    "drawer_sprung_truth"
]
EVALS_PER_FIT = 300  # ceiling for one fit from a benchmark start; 157-224 are used


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"])
def test_a_copied_problem_fits_to_the_same_bits(drawer_sprung, clone):
    twin = clone(drawer_sprung)
    sysid.objective(twin, dict(twin.init))
    assert twin.force_samples.ctypes.data in sysid._buffers(twin).args
    assert np.array_equal(twin.force_samples, drawer_sprung.force_samples)
    assert (twin.free, twin.bounds, twin.init) == (drawer_sprung.free, drawer_sprung.bounds, drawer_sprung.init)
    result, want = aj.fit(twin), aj.fit(drawer_sprung)
    assert result.params == want.params and result.residual_sse == want.residual_sse
    assert (result.n_evals, result.iterations, result.stop_reason) == (want.n_evals, want.iterations, want.stop_reason)


def test_a_problem_equals_its_replace_with_a_copied_trajectory(drawer_sprung):
    observed = copy.deepcopy(drawer_sprung.observed)
    assert observed is not drawer_sprung.observed
    assert dataclasses.replace(drawer_sprung, observed=observed) == drawer_sprung
    shorter = aj.Trajectory(times=observed.times[:100], channels={n: c[:100] for n, c in observed.channels.items()})
    assert dataclasses.replace(drawer_sprung, observed=shorter) != drawer_sprung


def test_fit_reaches_the_truth_from_every_benchmark_start(drawer_sprung):
    for seed in range(41):
        problem = benchmark_start(drawer_sprung, seed) if seed else drawer_sprung
        result = aj.fit(problem)
        assert (result.stop_reason, result.converged) == ("converged", True), seed
        assert result.n_evals <= EVALS_PER_FIT, seed
        for name, value in DRAWER_SPRUNG_TRUTH.items():
            assert abs(result.params[name] - value) <= 0.01 * abs(value), (seed, name, result.params[name])


def test_fit_reaches_the_truth_from_every_benchmark_start_on_the_python_loop(drawer_sprung, python_stepper):
    test_fit_reaches_the_truth_from_every_benchmark_start(drawer_sprung)


def noisy_drawer_sprung(problem, seed, duration=3.2):
    """The bundled problem on its truth's trajectory with 1 mm of seeded noise."""
    spec = aj.apply_params(problem.spec_template, DRAWER_SPRUNG_TRUTH)
    observed = aj.generate_synthetic(spec, problem.forces, duration, 2e-3, noise_sd=1e-3, seed=seed, q0=0.35)
    return dataclasses.replace(problem, observed=observed)


def test_the_polish_never_ends_above_the_golden_best(drawer_sprung, monkeypatch):
    golden_best = []
    polish = sysid._polish

    def recording(track, params):
        golden_best.append(track.best_sse)
        return polish(track, params)

    monkeypatch.setattr(sysid, "_polish", recording)
    problems = [drawer_sprung, benchmark_start(drawer_sprung, 1)] + [noisy_drawer_sprung(drawer_sprung, s) for s in (1, 2)]
    for problem in problems:
        result = aj.fit(problem)
        assert result.residual_sse <= golden_best[-1]
        assert aj.objective(problem, result.params) == result.residual_sse  # the SSE of the returned point
    assert len(golden_best) == len(problems)


def test_fit_budget_caps_both_stages(drawer_sprung):
    full = aj.fit(drawer_sprung)
    early = aj.fit(drawer_sprung, budget=10)
    assert (early.n_evals, early.converged, early.stop_reason) == (10, False, "budget exhausted")
    assert (early.iterations, early.standard_errors, early.condition_number) == (1, None, None)
    # five evaluations short of the whole fit ends inside the polish, after its first Jacobian
    late = aj.fit(drawer_sprung, budget=full.n_evals - 5)
    assert (late.n_evals, late.converged, late.stop_reason) == (full.n_evals - 5, False, "budget exhausted")
    assert late.iterations == full.iterations
    assert late.standard_errors is not None and late.condition_number is not None
    assert full.residual_sse <= late.residual_sse


def test_the_polish_stalls_on_a_cliff_edge(slide, monkeypatch):
    # The SSE falls toward damping_D = 20 and jumps just past it, as it does
    # where a joint stops breaking away. Every damped step from the golden
    # stage's best, just below the edge, falls off, so the SSE stops falling
    # while the steps are still long: the fit says so instead of converging.
    # Every forward run of a fit is one objective call, and the polish reads
    # its residuals from the thread's buffers: one nonzero residual here.
    def cliff(problem, params):
        x = params["damping_D"]
        out = sysid._buffers(problem).out
        out[:] = 0.0
        out[0] = 40.0 - x if x <= 20.0 else 1e3
        return float(np.sum(out**2))

    prob = problem_for(slide, observed_for(slide), ["damping_D"], {"damping_D": (5.0, 40.0)}, {"damping_D": 10.0})
    monkeypatch.setattr(sysid, "objective", cliff)
    result = aj.fit(prob)
    assert (result.converged, result.stop_reason) == (False, "polish stalled")
    assert 20.0 - 1e-4 * 35.0 <= result.params["damping_D"] <= 20.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_standard_errors_show_the_friction_pair_is_weakly_identified(drawer_sprung, seed):
    # Under 1 mm of noise the SSE hardly changes along the friction pair, so
    # mu_s carries a far larger relative standard error than damping_D. The
    # pair is not recovered under noise, and no test asks for it.
    result = aj.fit(noisy_drawer_sprung(drawer_sprung, seed))
    relative = {name: result.standard_errors[name] / abs(result.params[name]) for name in DRAWER_SPRUNG_TRUTH}
    assert relative["mu_s"] > relative["damping_D"] > 0.0
    assert math.isfinite(relative["damping_D"])
    assert 1.0 < result.condition_number < math.inf


def test_fit_is_bit_identical_with_one_blas_thread(drawer_sprung, tmp_path):
    # 12,001 samples: past the length at which BLAS dot products may split
    # over threads, so a BLAS reduction in the fit would show here
    observed = noisy_drawer_sprung(drawer_sprung, 1, duration=24.0).observed
    assert len(observed) > 10_000
    aj.export_csv(observed, tmp_path / "observed.csv")
    spec = json.loads(fixtures.fitspec_path("drawer_sprung").read_text())
    spec["asset"] = str(fixtures.fitspec_path("drawer_sprung").parent / spec["asset"])
    spec["observed"] = "observed.csv"
    (tmp_path / "long.fitspec.json").write_text(json.dumps(spec))
    script = "import sys; from pathlib import Path; from artjoint import sysid; print(repr(sysid.fit(sysid.load_fitspec(Path(sys.argv[1])))))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(aj.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "long.fitspec.json")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    in_process = aj.fit(sysid.load_fitspec(tmp_path / "long.fitspec.json"))
    assert proc.stdout == repr(in_process) + "\n"
