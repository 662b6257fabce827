"""Single-joint dynamics: stiffness schedule, drive target latching, the
three friction regimes, and the fixed-step integrator."""

import math

import numpy as np
import pytest

import artjoint as aj

from conftest import make_joint

BOUNDS = (0.0, 2.0)
SCHEDULE = aj.StiffnessSchedule(k_high=50.0, k_low=5.0, k_max=100.0, alpha=20.0, lambda_=3.0, q_threshold=1.0)


# ---------------------------------------------------------------------------
# stiffness


def test_schedule_open_branch_falls_linearly():
    assert aj.stiffness_at(SCHEDULE, 0.5, True, BOUNDS) == pytest.approx(40.0, rel=1e-12)


def test_schedule_closed_branch_surges_exponentially():
    want = 5.0 + 100.0 * math.exp(-3.0 * 0.5)
    assert aj.stiffness_at(SCHEDULE, 0.5, False, BOUNDS) == pytest.approx(want, rel=1e-12)


def test_schedule_boundary_values():
    # at (or below) the lower bound the high plateau holds, either flag
    assert aj.stiffness_at(SCHEDULE, 0.0, True, BOUNDS) == 50.0
    assert aj.stiffness_at(SCHEDULE, 0.0, False, BOUNDS) == 50.0
    # past the threshold both branches collapse to the low plateau
    assert aj.stiffness_at(SCHEDULE, 1.5, True, BOUNDS) == 5.0
    assert aj.stiffness_at(SCHEDULE, 1.5, False, BOUNDS) == 5.0
    # the threshold itself still belongs to the inner branch
    assert aj.stiffness_at(SCHEDULE, 1.0, True, BOUNDS) == pytest.approx(30.0, rel=1e-12)


def test_stiffness_never_negative():
    steep = aj.StiffnessSchedule(k_high=10.0, k_low=0.0, k_max=0.0, alpha=100.0, lambda_=1.0, q_threshold=1.0)
    assert aj.stiffness_at(steep, 0.5, True, BOUNDS) == 0.0
    assert aj.stiffness_at(aj.ConstantStiffness(k=-3.0), 0.7, False, BOUNDS) == 0.0


def test_constant_stiffness_ignores_position_and_flag():
    profile = aj.ConstantStiffness(k=7.0)
    for q in (-1.0, 0.0, 0.3, 5.0):
        for s_open in (False, True):
            assert aj.stiffness_at(profile, q, s_open, BOUNDS) == 7.0


# ---------------------------------------------------------------------------
# target policy


def test_latch_targets_bounds_in_the_committed_quadrants():
    latch = aj.LatchTarget(q_threshold=0.5)
    assert aj.target_at(latch, 0.7, True, 0.33, BOUNDS) == 2.0
    assert aj.target_at(latch, 0.3, False, 0.33, BOUNDS) == 0.0


def test_latch_holds_previous_target_in_mixed_quadrants():
    latch = aj.LatchTarget(q_threshold=0.5)
    assert aj.target_at(latch, 0.3, True, 0.33, BOUNDS) == 0.33
    assert aj.target_at(latch, 0.7, False, 0.33, BOUNDS) == 0.33
    # the threshold itself is a hold in both directions
    assert aj.target_at(latch, 0.5, True, 0.1, BOUNDS) == 0.1
    assert aj.target_at(latch, 0.5, False, 0.9, BOUNDS) == 0.9


def test_fixed_target_is_unconditional():
    fixed = aj.FixedTarget(q_target=0.4)
    for q, s_open, prev in ((0.0, False, 9.0), (1.9, True, -9.0)):
        assert aj.target_at(fixed, q, s_open, prev, BOUNDS) == 0.4


# ---------------------------------------------------------------------------
# drive effort


def test_drive_zero_at_equilibrium():
    spec = make_joint(stiffness=aj.ConstantStiffness(k=100.0), target_policy=aj.FixedTarget(q_target=1.0), damping_D=2.0)
    state = aj.initial_state(spec, q=1.0)
    assert aj.drive_effort(spec, state) == 0.0


def test_drive_pulls_toward_target():
    spec = make_joint(stiffness=aj.ConstantStiffness(k=100.0), target_policy=aj.FixedTarget(q_target=1.0))
    state = aj.initial_state(spec, q=0.0)
    assert aj.drive_effort(spec, state) == 100.0


def test_drive_damps_velocity():
    spec = make_joint(damping_D=2.0)
    state = aj.JointState(q=0.0, q_dot=3.0, regime=aj.Regime.KINETIC)
    assert aj.drive_effort(spec, state) == -6.0


def test_drive_tracks_target_velocity():
    spec = make_joint(damping_D=2.0, target_velocity=0.5)
    state = aj.initial_state(spec, q=0.0)
    assert aj.drive_effort(spec, state) == 1.0


# ---------------------------------------------------------------------------
# friction regimes


def stiction_joint():
    # |tau_drive| = 1 at rest at q=0, so breakaway B = 0.5 * 1 + 0.5 = 1
    return make_joint(
        stiffness=aj.ConstantStiffness(k=1.0),
        target_policy=aj.FixedTarget(q_target=1.0),
        mu_s=0.5,
        coulomb_floor=0.5,
    )


def test_friction_cancels_subthreshold_force():
    spec = stiction_joint()
    state = aj.initial_state(spec, q=0.0)
    tau = aj.drive_effort(spec, state)
    f_friction, regime = aj.friction_effort(spec, state, tau, 0.5)
    assert regime is aj.Regime.STATIC
    assert f_friction == -0.5
    assert (tau + 0.5) + f_friction == pytest.approx(tau, rel=1e-15)


def test_friction_saturates_past_breakaway():
    spec = stiction_joint()
    state = aj.initial_state(spec, q=0.0)
    tau = aj.drive_effort(spec, state)
    f_friction, regime = aj.friction_effort(spec, state, tau, 2.0)
    assert regime is aj.Regime.KINETIC
    assert f_friction == -1.0
    f_friction, regime = aj.friction_effort(spec, state, tau, -2.0)
    assert f_friction == 1.0
    assert regime is aj.Regime.KINETIC


def test_friction_is_viscous_when_moving():
    spec = make_joint(damping_D=2.0, mu_s=9.0, coulomb_floor=9.0)
    state = aj.JointState(q=0.0, q_dot=0.2, regime=aj.Regime.KINETIC)
    f, regime = aj.friction_effort(spec, state, 0.0, 123.0)
    assert f == pytest.approx(-0.4, rel=1e-15)
    assert regime is aj.Regime.KINETIC


def test_breakaway_boundary_is_static():
    spec = stiction_joint()
    state = aj.initial_state(spec, q=0.0)
    f, regime = aj.friction_effort(spec, state, aj.drive_effort(spec, state), 1.0)
    assert regime is aj.Regime.STATIC
    assert f == -1.0


def test_friction_never_adds_energy():
    rng = np.random.default_rng(41)
    for _ in range(500):
        spec = make_joint(
            damping_D=float(rng.uniform(0, 5)),
            mu_s=float(rng.uniform(0, 1)),
            coulomb_floor=float(rng.uniform(0, 2)),
            stiffness=aj.ConstantStiffness(k=float(rng.uniform(0, 50))),
            target_policy=aj.FixedTarget(q_target=float(rng.uniform(-5, 5))),
        )
        q_dot = float(rng.choice([0.0, rng.normal() * 2]))
        state = aj.JointState(q=float(rng.uniform(-5, 5)), q_dot=q_dot)
        f_friction, _ = aj.friction_effort(spec, state, aj.drive_effort(spec, state), float(rng.normal() * 3))
        assert f_friction * state.q_dot <= 0.0


# ---------------------------------------------------------------------------
# stepping


def test_step_semi_implicit_order():
    spec = make_joint()
    state = aj.initial_state(spec, q=0.0)
    after = aj.step(spec, state, 1.0, 0.01)
    assert after.q_dot == 0.01
    assert after.q == 1e-4  # position already uses the updated velocity


def test_step_static_freezes_exactly():
    spec = make_joint(coulomb_floor=0.5)
    state = aj.initial_state(spec, q=0.3)
    for _ in range(100):
        state = aj.step(spec, state, 0.45, 0.001)
    assert state.q == 0.3
    assert state.q_dot == 0.0
    assert state.regime is aj.Regime.STATIC


def test_step_clamps_at_limits_and_kills_velocity():
    spec = make_joint(q_lower_bound=0.0, q_upper_bound=0.5)
    state = aj.JointState(q=0.499, q_dot=10.0, regime=aj.Regime.KINETIC)
    after = aj.step(spec, state, 0.0, 0.01)
    assert after.q == 0.5
    assert after.q_dot == 0.0

    state = aj.JointState(q=0.001, q_dot=-10.0, regime=aj.Regime.KINETIC)
    after = aj.step(spec, state, 0.0, 0.01)
    assert after.q == 0.0
    assert after.q_dot == 0.0


def test_step_rejects_bad_dt():
    spec = make_joint()
    state = aj.initial_state(spec)
    with pytest.raises(aj.NonPositiveDtError):
        aj.step(spec, state, 0.0, 0.0)
    with pytest.raises(aj.NonPositiveDtError):
        aj.step(spec, state, 0.0, -0.001)
    with pytest.raises(aj.NonPositiveDtError):
        aj.step(spec, state, 0.0, math.nan)
    with pytest.raises(ValueError):
        aj.step(spec, state, 0.0, aj.DT_MAX * 2)


def test_initial_state_checks_limits_and_seeds_target():
    spec = make_joint(q_lower_bound=0.0, q_upper_bound=1.0, target_policy=aj.LatchTarget(q_threshold=0.5))
    with pytest.raises(ValueError):
        aj.initial_state(spec, q=2.0)
    assert aj.initial_state(spec, q=0.2).held_target == 0.0  # closed below threshold
    assert aj.initial_state(spec, q=0.8, s_open=True).held_target == 1.0
    assert aj.initial_state(spec, q=0.8).held_target == 0.8  # mixed quadrant holds


def test_steps_for_counts():
    assert aj.steps_for(1.0, 0.001) == 1000
    assert aj.steps_for(0.0015, 0.001) == 2
    assert aj.steps_for(0.3, 0.1) == 3  # quotient fuzz must not add a step
    assert aj.steps_for(1.0, 0.3) == 4
    for duration in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            aj.steps_for(duration, 0.001)
    with pytest.raises(ValueError, match="more steps than a run can count"):
        aj.steps_for(1e308, 1e-3)  # finite, but its quotient overflows


def test_simulate_series_shape_and_initial_sample():
    spec = make_joint()
    series = aj.simulate_joint(spec, lambda t: 0.0, 1.0, 0.001)
    assert len(series) == 1001
    assert series[0].q == 0.0


def test_constant_force_integrates_like_uniform_acceleration():
    spec = make_joint()
    series = aj.simulate_joint(spec, lambda t: 2.0, 1.0, 0.001)
    q_final = series[-1].q
    # discrete sum: q(1s) = dt^2 * n * (n + 1) for F/m = 2
    assert q_final == pytest.approx(1.001, abs=1e-9)
    assert abs(q_final - 1.0) <= 2 * 0.001


def test_zero_force_is_a_fixed_point():
    spec = make_joint(coulomb_floor=0.1)
    series = aj.simulate_joint(spec, lambda t: 0.0, 0.5, 0.001, state0=aj.initial_state(spec, q=0.2))
    assert all(s.q == 0.2 for s in series)
    assert all(s.regime is aj.Regime.STATIC for s in series[1:])


def test_subthreshold_force_never_moves_the_drawer(drawer):
    slide = drawer.joint("slide")
    series = aj.simulate_joint(slide, lambda t: 0.9 * slide.coulomb_floor, 2.0, 0.001)
    assert [s.q for s in series] == [0.0] * len(series)


def test_stiction_holds_at_rest_without_external_effort(oven):
    # breakaway gates the *external* effort: an at-rest joint stays put under
    # its own drive until something from outside breaks it loose
    door = oven.joint("door")
    state0 = aj.initial_state(door, q=0.3, s_open=False)
    series = aj.simulate_joint(door, lambda t: 0.0, 1.0, 0.001, state0=state0)
    assert all(s.q == 0.3 for s in series)


def test_microwave_door_latches_open(microwave):
    door = microwave.joint("door")
    state0 = aj.initial_state(door, q=0.2, s_open=True)
    # a brief nudge breaks stiction; the drive carries the door the rest
    series = aj.simulate_joint(door, lambda t: 0.3 if t < 0.1 else 0.0, 5.0, 0.001, state0=state0)
    assert series[-1].q == door.q_upper_bound  # parks exactly on the stop
    assert abs(series[-1].q - 1.5) <= 1e-3


def test_oven_door_snaps_closed(oven):
    door = oven.joint("door")
    state0 = aj.initial_state(door, q=0.3, s_open=False)
    kick_end = 0.05
    series = aj.simulate_joint(door, lambda t: -0.2 if t < kick_end else 0.0, 5.0, 0.001, state0=state0)
    assert series[-1].q == door.q_lower_bound
    # the exponential stiffness surge near closure outruns the release speed
    speeds = [abs(s.q_dot) for s in series]
    release_speed = speeds[int(kick_end / 0.001)]
    assert max(speeds) > 1.5 * release_speed


def test_simulation_is_deterministic(drawer):
    slide = drawer.joint("slide")
    a = aj.simulate_joint(slide, lambda t: 1.5 if t < 1.0 else 0.0, 2.0, 0.001)
    b = aj.simulate_joint(slide, lambda t: 1.5 if t < 1.0 else 0.0, 2.0, 0.001)
    assert a == b


def test_steady_sliding_speed_balances_viscous_drag():
    # kinetic friction and the drive's damping both bleed q_dot: a constant
    # force on an undriven joint settles at F / (2 D)
    spec = make_joint(damping_D=4.0)
    series = aj.simulate_joint(spec, lambda t: 2.0, 3.0, 0.001)
    assert series[-1].q_dot == pytest.approx(2.0 / (2 * 4.0), rel=1e-6)
