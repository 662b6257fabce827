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
from typing import Mapping

import numpy as np

from .assets import Assembly, JointSpec, Marker, PRISMATIC
from .errors import UnknownJointError, UnknownMarkerError
from .geometry import Pose, Vec3, quat_from_axis_angle, quat_rotate, vec_scale, vec_sub


def joint_transform(joint: JointSpec, q: "float | np.ndarray") -> Pose:
    """The child-frame offset a joint at position ``q`` adds, in the parent
    module's frame."""
    if joint.kind == PRISMATIC:
        return Pose(position=vec_scale(joint.axis, q))
    rotation = quat_from_axis_angle(joint.axis, q)
    # Rotate about the line through `anchor`: p -> anchor + R (p - anchor).
    return Pose(
        position=vec_sub(joint.anchor, quat_rotate(rotation, joint.anchor)),
        orientation=rotation,
    )


def clamp_to_limits(joint: JointSpec, q: "float | np.ndarray") -> "float | np.ndarray":
    if isinstance(q, np.ndarray):
        # min/max's own rule, sample by sample: np.maximum(-0.0, 0.0) is 0.0
        # where max(-0.0, 0.0) keeps -0.0
        q = np.where(q < joint.q_lower_bound, joint.q_lower_bound, q)
        return np.where(joint.q_upper_bound < q, joint.q_upper_bound, q)
    return min(max(q, joint.q_lower_bound), joint.q_upper_bound)


def forward_kinematics(assembly: Assembly, q: "Mapping[str, float | np.ndarray]") -> dict[str, Pose]:
    """World pose of every module at joint configuration ``q``.

    ``q`` must provide exactly the assembly's joint ids
    (:class:`UnknownJointError` otherwise); each value is a float or a 1-D
    array of samples. Out-of-limit values are clamped and reported with a
    single UserWarning naming the joints.
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

    poses: dict[str, Pose] = {}
    root = assembly.module(assembly.root_module)
    poses[root.id] = assembly.base_frame.compose(root.rest_pose)

    by_parent: dict[str, list[JointSpec]] = {}
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
