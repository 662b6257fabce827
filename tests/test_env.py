"""Closure-task environment: reward shaping, action gating, and a scripted
button-press-then-close-the-lid rollout."""

import dataclasses
import math

import numpy as np
import pytest

import artjoint as aj
from artjoint import fixtures as fx
from artjoint import kinematics
from artjoint.scenario import _marker_point
from conftest import press_and_close


@pytest.fixture()
def env():
    scenario = aj.load_scenario(fx.scenario_path("trashcan_env"))
    return aj.ManipulationEnv(scenario)


@pytest.fixture()
def drawer_beside(env, drawer):
    """``trashcan_env`` plus a drawer 3 m away, out of the effector's reach,
    pulled into its upper limit from t = 0.1 s on: in the scripted episode
    some ticks move only the drawer (the approach) and some only the
    trashcan (the press, with the drawer held at its limit)."""
    base = env.scenario
    placement = aj.Placement(name="drawer", assembly=drawer, world_pose=aj.Pose(position=(3.0, 0.0, 0.0)))
    pull = aj.ForceSchedule("drawer/slide", aj.ConstantForce(20.0, t_start=0.1))
    return aj.ManipulationEnv(dataclasses.replace(base, assemblies=(*base.assemblies, placement), forces=(pull,)))


def inputs_at(effector=(0.0, 0.0, 0.0), vel=(0.0, 0.0, 0.0), handle=(0.0, 0.0, 0.0), q=0.0, lo=0.0, hi=1.0):
    return aj.RewardInputs(
        effector_pos=effector, effector_vel=vel, handle_pos=handle, q=q, q_lower=lo, q_upper=hi
    )


# ---------------------------------------------------------------------------
# reward terms


def test_default_weights():
    params = aj.RewardParams()
    assert (params.lambda1, params.lambda2, params.lambda3, params.lambda4) == (0.5, 0.125, 10.0, -0.01)


def test_goal_state_reward_is_exact():
    # at the handle, fully closed, zero action: 0.5 + 0.125 + 10 = 10.625
    value = aj.reward(inputs_at(q=0.0), np.zeros(3))
    assert value == 10.625


def test_far_and_open_leaves_only_distance_and_smoothness():
    action = np.array([1.0, 2.0, 2.0])
    value = aj.reward(inputs_at(effector=(3.0, 0.0, 0.0), q=1.0), action)
    assert value == pytest.approx(0.5 * math.exp(-3.0) - 0.01 * 9.0, rel=1e-12)


def test_alignment_rewards_motion_toward_the_handle():
    toward = aj.reward(inputs_at(effector=(1.0, 0.0, 0.0), vel=(-2.0, 0.0, 0.0), q=1.0), np.zeros(3))
    away = aj.reward(inputs_at(effector=(1.0, 0.0, 0.0), vel=(2.0, 0.0, 0.0), q=1.0), np.zeros(3))
    assert toward - away == pytest.approx(0.125, rel=1e-12)  # cos swings 1 -> clamped 0
    sideways = aj.reward(inputs_at(effector=(1.0, 0.0, 0.0), vel=(0.0, 2.0, 0.0), q=1.0), np.zeros(3))
    assert sideways == away  # orthogonal motion earns nothing


def test_motionless_away_from_handle_has_zero_alignment():
    near = aj.reward(inputs_at(effector=(0.5, 0.0, 0.0), q=1.0), np.zeros(3))
    assert near == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)


def test_closure_fraction_clamps():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        lo = float(rng.uniform(-2, 1))
        hi = lo + float(rng.uniform(0.01, 3))
        q = float(rng.uniform(lo - 1, hi + 1))
        frac = aj.closure_fraction(q, lo, hi)
        assert 0.0 <= frac <= 1.0
    assert aj.closure_fraction(0.0, 0.0, 1.0) == 1.0
    assert aj.closure_fraction(1.0, 0.0, 1.0) == 0.0
    assert aj.closure_fraction(0.25, 0.0, 1.0) == 0.75


def test_reward_weight_overrides():
    params = aj.RewardParams(lambda3=0.0)
    assert aj.reward(inputs_at(q=0.0), np.zeros(3), params) == 0.625


# ---------------------------------------------------------------------------
# environment plumbing


def test_env_requires_env_block():
    with pytest.raises(ValueError, match="env block"):
        aj.ManipulationEnv(aj.load_scenario(fx.scenario_path("drawer")))


def test_step_computes_fk_once_per_placement(env, drawer_beside, fk_calls):
    for scene in (env, drawer_beside):
        scene.reset()
        pressed = 0.0
        for _ in range(400):  # straight through the button cap along -y
            before = len(fk_calls)
            scene.step(np.array([0.0, -9.9, 0.0]))
            assert len(fk_calls) - before <= len(scene.scenario.assemblies)  # none where no joint moved
            pressed = max(pressed, scene.runtime.states["trashcan/button"].q)
        assert pressed > 0.0  # contact loaded the button through the Jacobian


def test_step_before_reset_rejected(env):
    with pytest.raises(RuntimeError):
        env.step(np.zeros(3))


def test_reset_is_reproducible(env):
    first = env.reset()
    obs_a, r_a, done_a = env.step(np.array([0.5, 0.0, 0.0]))
    second = env.reset()
    obs_b, r_b, done_b = env.step(np.array([0.5, 0.0, 0.0]))
    assert np.array_equal(first, second)
    assert np.array_equal(obs_a, obs_b)
    assert (r_a, done_a) == (r_b, done_b)


def test_observation_layout(env):
    obs = env.reset()
    assert obs.shape == (11,)
    assert np.array_equal(obs[:3], [0.0, 0.5, 0.3])  # effector start
    assert np.array_equal(obs[3:6], np.zeros(3))
    assert obs[6] == 1.8  # lid starts wide open
    assert obs[7] == 0.0
    # handle marker = button cap at rest
    assert np.allclose(obs[8:11], [0.0, 0.16, 0.30], atol=1e-12)


def test_action_gating(env):
    env.reset()
    with pytest.raises(aj.ActionOutOfBoundsError):
        env.step(np.array([11.0, 0.0, 0.0]))
    with pytest.raises(aj.ActionOutOfBoundsError):
        env.step(np.array([1.0, 2.0]))
    with pytest.raises(aj.ActionOutOfBoundsError):
        env.step(np.array([np.nan, 0.0, 0.0]))
    # exactly at the bound is allowed
    env.step(np.array([10.0, 0.0, 0.0]))


def test_effector_integrates_like_a_unit_mass(env):
    env.reset()
    dt = env.scenario.dt
    obs, _, _ = env.step(np.array([1.0, 0.0, 0.0]))
    assert obs[3] == pytest.approx(dt)  # vel = dt * a
    assert obs[0] == pytest.approx(0.0 + dt * dt)  # pos uses updated vel


def test_zero_actions_run_to_timeout(env):
    obs = env.reset()
    done = False
    steps = 0
    while not done:
        obs, r, done = env.step(np.zeros(3))
        steps += 1
        assert steps <= 6001
    assert steps == 6001  # duration 6.0 at dt 1e-3, done once t exceeds it
    assert obs[6] == 1.8  # the lid never moved
    assert r < 1.0  # no closure: distance and alignment crumbs only


def test_scripted_press_and_close(env):
    """Hover to the pedal, press it (latch releases the lid), then ride the
    falling lid shut. Mirrors how the fixture is meant to be used."""
    steps = list(press_and_close(env))
    phase, obs, reward, done = steps[-1]
    assert done and len(steps) < 6000, f"rollout did not finish (phase={phase}, steps={len(steps)})"
    assert obs[6] == 0.0  # lid slammed fully shut
    assert reward > 10.0  # the closure term dominates at the end
    assert env.runtime.states["trashcan/lid"].s_open is False  # pedal re-latched it


def test_marker_table_equals_marker_position_after_every_tick(env):
    def check():
        table = env.runtime.marker_table()
        assert len(table) == len(env.runtime.markers) == 2
        for point, (pl, marker) in zip(table, env.runtime.markers):
            assert point == env.runtime.marker_position(f"{pl.name}/{marker.name}")

    steps = 0
    for phase, obs, _, _ in press_and_close(env):
        check()
        assert tuple(obs[8:11]) == env.runtime.marker_position(env.config.handle_marker)
        steps += 1
    assert phase == "push_lid" and steps > 1000
    env.reset()
    check()


def test_marker_table_equals_a_fresh_forward_kinematics_after_every_tick(env, drawer_beside):
    """The reference bypasses the runtime's memo: a checked
    ``forward_kinematics`` call at the live positions, every coordinate
    compared by its bits. Each marker's Jacobian by ref equals the one by
    table index. The drawer scene has ticks that move only one of its two
    placements' joints."""

    def check(scene):
        """Check every marker; return each placement's joint positions' bits."""
        runtime = scene.runtime
        for i, (point, (pl, marker)) in enumerate(zip(runtime.marker_table(), runtime.markers)):
            q = {j.id: runtime.states[f"{pl.name}/{j.id}"].q for j in pl.assembly.joints}
            want = _marker_point(pl, marker, kinematics.forward_kinematics(pl.assembly, q))
            assert [x.hex() for x in point] == [x.hex() for x in want]
            assert runtime.marker_jacobian(f"{pl.name}/{marker.name}") == runtime.table_jacobian(i)
        return [[runtime.states[f"{pl.name}/{j.id}"].q.hex() for j in pl.assembly.joints] for pl in scene.scenario.assemblies]

    for scene in (env, drawer_beside):
        bits = []
        for phase, _, _, _ in press_and_close(scene):
            bits.append(check(scene))
        assert phase == "push_lid" and len(bits) > 1000
        scene.reset()
        check(scene)
    moved = {tuple(a != b for a, b in zip(before, after)) for before, after in zip(bits, bits[1:])}
    assert {(True, False), (False, True)} <= moved  # the trashcan's joints alone, the drawer's alone


def test_marker_geometry_follows_a_direct_write_of_a_joint_position(env):
    env.reset()
    runtime = env.runtime
    (placement,) = env.scenario.assemblies
    rim = runtime.markers.index(env.scenario.marker("trashcan/lid_rim"))
    before = runtime.marker_table()
    runtime.states["trashcan/lid"].q = 0.9  # no tick: the counter stays at 0
    after = runtime.marker_table()
    want = placement.world_pose.transform_point(
        aj.marker_world(placement.assembly, {"lid": 0.9, "button": runtime.states["trashcan/button"].q}, "lid_rim")
    )
    assert after[rim] != before[rim]
    assert after[rim] == runtime.marker_position("trashcan/lid_rim") == want


def test_runtime_states_cannot_be_replaced(env):
    """The runtime holds each state object in more places than ``states``:
    a state is written field by field, never replaced."""
    env.reset()
    lid = env.runtime.states["trashcan/lid"]
    with pytest.raises(TypeError):
        env.runtime.states["trashcan/lid"] = aj.initial_state(env.scenario.joint("trashcan/lid"), q=0.9)
    assert env.runtime.states["trashcan/lid"] is lid


def test_a_signed_zero_flip_walks_the_poses_again(env, fk_calls):
    env.reset()
    runtime = env.runtime
    runtime.states["trashcan/button"].q = -0.0
    runtime.marker_table()
    walks = len(fk_calls)
    runtime.marker_table()
    assert len(fk_calls) == walks  # the same bits: the memo holds
    runtime.states["trashcan/button"].q = 0.0  # == -0.0, but other bits
    runtime.marker_table()
    assert len(fk_calls) == walks + 1


def test_zero_actions_at_rest_walk_no_poses_after_the_first_table(env, fk_calls):
    obs = env.reset()
    assert fk_calls == ["trashcan"]
    for _ in range(200):
        assert env._nearest_marker()[1] > env.config.contact_radius
        obs, _, _ = env.step(np.zeros(3))
    assert (obs[6], obs[7]) == (1.8, 0.0)
    assert fk_calls == ["trashcan"]


def test_a_marker_name_on_two_modules_still_steps_through_contact(env):
    """A ``lid_rim`` copy on the bin makes the name ambiguous, which only
    the per-module marker check allows; the contact search resolves no
    names, so the real rim still loads the lid."""
    base = env.scenario
    (placement,) = base.assemblies
    doubled = aj.assembly_to_dict(placement.assembly)
    rim = next(m for m in doubled["markers"] if m["name"] == "lid_rim")
    doubled["markers"].append({**rim, "module_id": "bin"})
    with pytest.raises(aj.UnknownMarkerError, match="ambiguous"):
        aj.marker_world(aj.assembly_from_dict(doubled), {"lid": 1.8, "button": 0.0}, "lid_rim")

    rim_open = aj.ScenarioRuntime(base).marker_position("trashcan/lid_rim")
    config = dataclasses.replace(base.env, effector_start=rim_open)
    plain = aj.ManipulationEnv(dataclasses.replace(base, env=config))
    twin_placement = dataclasses.replace(placement, assembly=aj.assembly_from_dict(doubled))
    twin = aj.ManipulationEnv(dataclasses.replace(base, assemblies=(twin_placement,), env=config))
    assert np.array_equal(twin.reset(), plain.reset())
    push = np.array([0.0, 8.0, -2.0])  # toward closing the lid
    for _ in range(100):
        got, want = twin.step(push), plain.step(push)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    assert twin.runtime.states["trashcan/lid"].q < 1.8  # the contact loaded the lid
