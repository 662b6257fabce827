"""Forward kinematics over an assembly's module tree.

A prismatic joint translates its child by ``q * axis``; a revolute joint
rotates it by ``q`` about the line through ``anchor`` along ``axis``. Both
act in the parent module's frame, and child poses compose down the tree from
``base_frame``. At ``q = 0`` every module sits at its rest pose.

A joint value may also be a 1-D float64 array of samples (a series of
configurations); each pose component is then an array of the same length,
equal sample for sample to the float call (see :mod:`artjoint.geometry`).
"""

from __future__ import annotations

import warnings
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .assets import Assembly, JointSpec, Marker, PRISMATIC
from .errors import UnknownJointError, UnknownMarkerError
from .geometry import IDENTITY_QUAT, Pose, Quat, Vec3, compose_parts, quat_from_axis_angle, quat_rotate, vec_scale, vec_sub


def _joint_offset(joint: JointSpec, q: "float | np.ndarray") -> tuple[Vec3, Quat]:
    if joint.kind == PRISMATIC:
        return vec_scale(joint.axis, q), IDENTITY_QUAT
    rotation = quat_from_axis_angle(joint.axis, q)
    # Rotate about the line through `anchor`: p -> anchor + R (p - anchor).
    return vec_sub(joint.anchor, quat_rotate(rotation, joint.anchor)), rotation


def joint_transform(joint: JointSpec, q: "float | np.ndarray") -> Pose:
    """The child-frame offset a joint at position ``q`` adds, in the parent
    module's frame."""
    return Pose(*_joint_offset(joint, q))


def clamp_to_limits(joint: JointSpec, q: "float | np.ndarray") -> "float | np.ndarray":
    if isinstance(q, np.ndarray):
        # min/max's own rule, sample by sample: np.maximum(-0.0, 0.0) is 0.0
        # where max(-0.0, 0.0) keeps -0.0
        q = np.where(q < joint.q_lower_bound, joint.q_lower_bound, q)
        return np.where(joint.q_upper_bound < q, joint.q_upper_bound, q)
    return min(max(q, joint.q_lower_bound), joint.q_upper_bound)


class PlanJoint(NamedTuple):
    """One joint of an :class:`FKPlan`: its spec (kind, axis, anchor and
    limits), the modules it connects, and its child's rest pose."""

    joint: JointSpec
    parent: str
    child: str
    child_rest: Pose


class FKPlan(NamedTuple):
    """Everything a pose walk of one assembly reads, derived once by
    :func:`fk_plan`: the root module's pose ``base_frame ∘ rest_pose`` and
    the joints in walk order, each after the joint that places its parent."""

    assembly_id: str
    root: str
    root_pose: Pose
    joints: tuple[PlanJoint, ...]


def fk_plan(assembly: Assembly) -> FKPlan:
    """The pose-walk plan of ``assembly``: depth first from the root module,
    each module's joints in the assembly's order."""
    root = assembly.module(assembly.root_module)
    by_parent: dict[str, list[JointSpec]] = {}
    for joint in assembly.joints:
        by_parent.setdefault(joint.parent_module, []).append(joint)
    joints: list[PlanJoint] = []
    stack = [root.id]
    while stack:
        parent_id = stack.pop()
        for joint in by_parent.get(parent_id, ()):
            child = assembly.module(joint.child_module)
            joints.append(PlanJoint(joint, parent_id, child.id, child.rest_pose))
            stack.append(child.id)
    return FKPlan(assembly.id, root.id, assembly.base_frame.compose(root.rest_pose), tuple(joints))


def plan_poses(plan: FKPlan, values: "Sequence[float | np.ndarray]") -> dict[str, Pose]:
    """Pose of every module with ``values[i]`` the position of
    ``plan.joints[i]``, unchecked and unclamped: each child's pose is
    ``parent ∘ joint_transform(joint, q) ∘ child_rest``, as
    :meth:`Pose.compose` evaluates it, over floats or sample arrays."""
    poses = {plan.root: plan.root_pose}
    for (joint, parent, child, rest), q in zip(plan.joints, values):
        frame = poses[parent]
        offset, turn = _joint_offset(joint, q)
        position, orientation = compose_parts(frame.position, frame.orientation, offset, turn)
        poses[child] = Pose(*compose_parts(position, orientation, rest.position, rest.orientation))
    return poses


def forward_kinematics(assembly: Assembly, q: "Mapping[str, float | np.ndarray]") -> dict[str, Pose]:
    """World pose of every module at joint configuration ``q``.

    ``q`` must provide exactly the assembly's joint ids
    (:class:`UnknownJointError` otherwise); each value is a float or a 1-D
    array of samples. Out-of-limit values are clamped and reported with a
    single UserWarning naming the joints. The poses are those of
    :func:`plan_poses` over the assembly's :func:`fk_plan`.
    """
    joint_ids = {j.id for j in assembly.joints}
    missing = sorted(joint_ids - set(q))
    extra = sorted(set(q) - joint_ids)
    if missing or extra:
        raise UnknownJointError(
            f"assembly '{assembly.id}': configuration mismatch"
            + (f", missing {missing}" if missing else "")
            + (f", unknown {extra}" if extra else "")
        )

    clamped: list[str] = []
    values: dict[str, float] = {}
    for joint in assembly.joints:
        v = q[joint.id]
        c = clamp_to_limits(joint, v)
        if c != v if type(c) is float else np.any(c != v):
            clamped.append(joint.id)
        values[joint.id] = c
    if clamped:
        warnings.warn(
            f"assembly '{assembly.id}': clamped out-of-limit joint value(s) for {clamped}",
            UserWarning,
            stacklevel=2,
        )
    plan = fk_plan(assembly)
    return plan_poses(plan, [values[step.joint.id] for step in plan.joints])


def find_marker(assembly: Assembly, name: str) -> Marker:
    """Look a marker up by bare name across all modules.

    Raises :class:`UnknownMarkerError` when absent or ambiguous.
    """
    hits = [marker for marker in assembly.markers() if marker.name == name]
    if not hits:
        raise UnknownMarkerError(f"assembly '{assembly.id}' has no marker '{name}'")
    if len(hits) > 1:
        owners = [m.module_id for m in hits]
        raise UnknownMarkerError(f"marker name '{name}' is ambiguous in assembly '{assembly.id}': modules {owners}")
    return hits[0]


def marker_world(assembly: Assembly, q: Mapping[str, float], marker: "Marker | str") -> Vec3:
    """World position of a marker (by object or by unique name) at ``q``."""
    if isinstance(marker, str):
        marker = find_marker(assembly, marker)
    poses = forward_kinematics(assembly, q)
    try:
        pose = poses[marker.module_id]
    except KeyError:
        raise UnknownMarkerError(
            f"marker '{marker.name}' references module '{marker.module_id}' absent from assembly '{assembly.id}'"
        ) from None
    return pose.transform_point(marker.local_point)
