"""Forward kinematics and marker positions on the bundled assemblies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import fixtures as fx
from artjoint.geometry import quat_from_axis_angle
from artjoint.kinematics import clamp_to_limits, find_marker, fk_plan, joint_transform, plan_poses

from conftest import load_assembly, make_joint, random_assembly


def zero_config(assembly):
    return {j.id: 0.0 for j in assembly.joints}


def test_rest_configuration_reproduces_rest_poses(drawer, microwave, trashcan):
    for assembly in (drawer, microwave, trashcan):
        poses = forward = aj.forward_kinematics(assembly, zero_config(assembly))
        assert set(forward) == {m.id for m in assembly.modules}
        for module in assembly.modules:
            world = assembly.base_frame.compose(module.rest_pose)
            assert poses[module.id].position == pytest.approx(world.position, abs=1e-15)


def test_prismatic_slides_along_axis(drawer):
    poses = aj.forward_kinematics(drawer, {"slide": 0.3})
    assert poses["tray"].position == pytest.approx((0.3, 0.0, 0.0), abs=1e-15)
    assert poses["cabinet"].position == (0.0, 0.0, 0.0)


def test_drawer_handle_marker_tracks_q(drawer):
    for q in (0.0, 0.1, 0.45):
        point = aj.marker_world(drawer, {"slide": q}, "handle")
        assert point == pytest.approx((0.22 + q, 0.0, 0.10), abs=1e-15)


def test_trashcan_rim_swings_about_hinge(trashcan):
    # lid rotates about +x through (0, -0.15, 0.60); the rim sits 0.30 up the
    # lid plane and 0.02 proud of it
    for theta in (0.0, 0.4, 1.8):
        got = aj.marker_world(trashcan, {"lid": theta, "button": 0.0}, "lid_rim")
        want = (
            0.0,
            -0.15 + 0.30 * math.cos(theta) - 0.02 * math.sin(theta),
            0.60 + 0.30 * math.sin(theta) + 0.02 * math.cos(theta),
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_trashcan_rim_at_open_stop(trashcan):
    got = aj.marker_world(trashcan, {"lid": 1.8, "button": 0.0}, "lid_rim")
    assert got == pytest.approx((0.0, -0.23763758, 0.88761025), abs=1e-7)


def test_revolute_chain_composition():
    """Two stacked revolute joints about the same axis add their angles."""
    rng = np.random.default_rng(31)
    base = {
        "id": "chain",
        "category": "",
        "base_frame": {"position": [0.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]},
        "root_module": "a",
        "modules": [
            {"id": m, "mass": 1.0, "rest_pose": {"position": [0.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]}, "affordance_label": ""}
            for m in ("a", "b", "c")
        ],
        "joints": [
            {
                "id": f"j{i}",
                "kind": "revolute",
                "parent_module": p,
                "child_module": c,
                "axis": [0.0, 0.0, 1.0],
                "anchor": [0.0, 0.0, 0.0],
                "q_lower_bound": -3.2,
                "q_upper_bound": 3.2,
            }
            for i, (p, c) in enumerate((("a", "b"), ("b", "c")))
        ],
        "markers": [{"module_id": "c", "name": "tip", "local_point": [1.0, 0.0, 0.0]}],
        "behaviors": [],
    }
    assembly = aj.assembly_from_dict(base)
    for _ in range(20):
        q0, q1 = (float(x) for x in rng.uniform(-1.5, 1.5, size=2))
        tip = aj.marker_world(assembly, {"j0": q0, "j1": q1}, "tip")
        want = (math.cos(q0 + q1), math.sin(q0 + q1), 0.0)
        assert tip == pytest.approx(want, abs=1e-9)


def test_base_frame_carries_the_whole_assembly(drawer):
    import dataclasses

    moved = dataclasses.replace(
        drawer,
        base_frame=aj.Pose(position=(1.0, 2.0, 3.0), orientation=quat_from_axis_angle((0.0, 0.0, 1.0), math.pi / 2)),
    )
    point = aj.marker_world(moved, {"slide": 0.1}, "handle")
    # handle local (0.32, 0, 0.10) rotates onto +y then shifts
    assert point == pytest.approx((1.0 - 0.0, 2.0 + 0.32, 3.0 + 0.10), abs=1e-12)


def test_configuration_must_match_joints(drawer):
    with pytest.raises(aj.UnknownJointError):
        aj.forward_kinematics(drawer, {})
    with pytest.raises(aj.UnknownJointError):
        aj.forward_kinematics(drawer, {"slide": 0.0, "bogus": 1.0})


def test_out_of_limit_values_clamp_with_warning(drawer):
    with pytest.warns(UserWarning, match="slide"):
        poses = aj.forward_kinematics(drawer, {"slide": 99.0})
    assert poses["tray"].position[0] == pytest.approx(0.45)


def test_unknown_marker(drawer):
    with pytest.raises(aj.UnknownMarkerError):
        aj.marker_world(drawer, {"slide": 0.0}, "nope")
    with pytest.raises(aj.UnknownMarkerError):
        find_marker(drawer, "nope")


def test_joint_transform_prismatic_and_revolute():
    slide = make_joint(axis=(0.0, 1.0, 0.0))
    pose = aj.joint_transform(slide, 0.25)
    assert pose.position == (0.0, 0.25, 0.0)
    assert pose.orientation == (1.0, 0.0, 0.0, 0.0)

    hinge = make_joint(kind=aj.REVOLUTE, axis=(0.0, 0.0, 1.0), anchor=(1.0, 0.0, 0.0))
    pose = aj.joint_transform(hinge, math.pi)
    # the anchor itself is a fixed point of the rotation
    assert pose.transform_point((1.0, 0.0, 0.0)) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert pose.transform_point((2.0, 0.0, 0.0)) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_clamp_to_limits():
    joint = make_joint(q_lower_bound=0.0, q_upper_bound=0.45)
    assert clamp_to_limits(joint, -1.0) == 0.0
    assert clamp_to_limits(joint, 0.2) == 0.2
    assert clamp_to_limits(joint, 1.0) == 0.45


def pose_components(pose):
    return pose.position + pose.orientation


@pytest.mark.parametrize("seed", range(6))
def test_fk_over_a_series_equals_the_scalar_call_at_every_sample(seed):
    rng = np.random.default_rng(seed)
    assembly = random_assembly(rng, seed)
    n = 41
    series = {j.id: rng.permutation(np.linspace(j.q_lower_bound, j.q_upper_bound, n)) for j in assembly.joints}
    batch = aj.forward_kinematics(assembly, series)
    for k in range(n):
        poses = aj.forward_kinematics(assembly, {ref: float(values[k]) for ref, values in series.items()})
        assert poses.keys() == batch.keys()
        for module_id, pose in poses.items():
            for got, want in zip(pose_components(batch[module_id]), pose_components(pose)):
                got = float(np.broadcast_to(got, n)[k])
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (module_id, k)


def test_series_out_of_limits_clamp_each_sample_with_one_warning(trashcan):
    lid = np.array([-0.5, 0.9, 2.5, 1.8])
    button = np.array([0.0, 0.005, 0.01, 0.002])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = aj.forward_kinematics(trashcan, {"lid": lid, "button": button})
    assert len(caught) == 1 and caught[0].category is UserWarning
    assert "['lid']" in str(caught[0].message)
    for k, clamped in enumerate((0.0, 0.9, 1.8, 1.8)):
        poses = aj.forward_kinematics(trashcan, {"lid": clamped, "button": float(button[k])})
        for module_id, pose in poses.items():
            assert tuple(float(np.broadcast_to(x, 4)[k]) for x in pose_components(batch[module_id])) == (
                pose_components(pose)
            )
    with pytest.warns(UserWarning, match=r"\['lid', 'button'\]"):
        aj.forward_kinematics(trashcan, {"lid": lid, "button": button + 0.005})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aj.forward_kinematics(trashcan, {"lid": np.clip(lid, 0.0, 1.8), "button": button})


def test_series_clamp_keeps_the_scalar_rule_for_signed_zeros():
    # max(-0.0, 0.0) keeps -0.0, and the sign can reach a pose component
    joint = make_joint(q_lower_bound=0.0, q_upper_bound=1.0)
    values = (-0.0, 0.0, 0.5, -1.0, 2.0)
    got = clamp_to_limits(joint, np.array(values)).tolist()
    want = [clamp_to_limits(joint, v) for v in values]
    assert got == want
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


# ---------------------------------------------------------------------------
# the plan walk against the walk it replaced


def reference_poses(assembly, values):
    """The pose walk ``forward_kinematics`` ran before it evaluated a plan:
    rebuilt per call, depth first from the root, composing Pose objects."""
    poses = {}
    root = assembly.module(assembly.root_module)
    poses[root.id] = assembly.base_frame.compose(root.rest_pose)
    by_parent = {}
    for joint in assembly.joints:
        by_parent.setdefault(joint.parent_module, []).append(joint)
    stack = [root.id]
    while stack:
        parent_id = stack.pop()
        parent_pose = poses[parent_id]
        for joint in by_parent.get(parent_id, ()):
            child = assembly.module(joint.child_module)
            poses[child.id] = parent_pose.compose(joint_transform(joint, values[joint.id])).compose(child.rest_pose)
            stack.append(child.id)
    return poses


def pose_bits(poses):
    """Every pose component's float64 bytes, module by module in order."""
    return [(module_id, [np.asarray(x, dtype=float).tobytes() for x in pose_components(pose)]) for module_id, pose in poses.items()]


BUNDLED = {name: load_assembly(name) for name in fx.FIXTURE_NAMES}


@st.composite
def in_limit_configurations(draw):
    """A bundled assembly, or a random tree whose rest poses are not all the
    identity, and a configuration inside its limits: floats, or arrays of
    1-6 samples (bounds and signed zeros included)."""
    bundled = st.sampled_from(fx.FIXTURE_NAMES).map(BUNDLED.get)
    generated = st.integers(0, 2**32 - 1).map(lambda seed: random_assembly(np.random.default_rng(seed)))
    assembly = draw(bundled | generated)
    n = draw(st.none() | st.integers(1, 6))

    def value(joint):
        lo, hi = joint.bounds
        sample = st.floats(lo, hi) | st.sampled_from((lo, hi, 0.0 if lo <= 0.0 <= hi else lo))
        return draw(sample) if n is None else np.array(draw(st.lists(sample, min_size=n, max_size=n)))

    return assembly, {joint.id: value(joint) for joint in assembly.joints}


@settings(max_examples=300, deadline=None)
@given(in_limit_configurations())
def test_plan_poses_equal_the_old_walk_bit_for_bit(case):
    assembly, q = case
    want = pose_bits(reference_poses(assembly, q))
    plan = fk_plan(assembly)
    assert pose_bits(plan_poses(plan, [q[step.joint.id] for step in plan.joints])) == want
    assert pose_bits(aj.forward_kinematics(assembly, q)) == want
