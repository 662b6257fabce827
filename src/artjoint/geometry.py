"""Rigid-body poses (position + unit quaternion) and the few quaternion
operations the kinematics needs.

Vectors and quaternions are plain float tuples: they hash, compare exactly,
serialize losslessly, and are faster than ndarray at this size. Quaternions
are ``(w, x, y, z)``. The pose operations also take tuples whose components
are equal-length 1-D float64 arrays, one sample per element, and give for
each sample the same bits as the float call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

IDENTITY_QUAT: Quat = (1.0, 0.0, 0.0, 0.0)


def vec_add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vec_sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vec_scale(a: Vec3, s: float) -> Vec3:
    return (a[0] * s, a[1] * s, a[2] * s)


def vec_dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vec_cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vec_norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def quat_mul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_norm(q: Quat) -> float:
    s = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]
    # both are correctly rounded, so they agree bit for bit; `type(s) is
    # float` is the cheapest test on the per-tick path
    return math.sqrt(s) if type(s) is float else np.sqrt(s)


def quat_normalize(q: Quat) -> Quat:
    n = quat_norm(q)
    if n == 0.0 if type(n) is float else (n == 0.0).any():
        raise ValueError("cannot normalize a zero quaternion")
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_from_axis_angle(axis: Vec3, angle: float) -> Quat:
    """Unit quaternion rotating by ``angle`` radians about a unit ``axis``."""
    half = 0.5 * angle
    if isinstance(half, np.ndarray):
        # one sample at a time: numpy's sin and cos are not bit-identical to math's
        samples = half.tolist()
        s = np.fromiter(map(math.sin, samples), float, len(samples))
        c = np.fromiter(map(math.cos, samples), float, len(samples))
    else:
        s, c = math.sin(half), math.cos(half)
    return (c, axis[0] * s, axis[1] * s, axis[2] * s)


def quat_rotate(q: Quat, v: Vec3) -> Vec3:
    """Rotate vector ``v`` by quaternion ``q``: v' = v + 2w(u×v) + 2u×(u×v)."""
    w, ux, uy, uz = q
    # t = 2 (u × v)
    tx = 2.0 * (uy * v[2] - uz * v[1])
    ty = 2.0 * (uz * v[0] - ux * v[2])
    tz = 2.0 * (ux * v[1] - uy * v[0])
    return (
        v[0] + w * tx + (uy * tz - uz * ty),
        v[1] + w * ty + (uz * tx - ux * tz),
        v[2] + w * tz + (ux * ty - uy * tx),
    )


def compose_parts(position: Vec3, orientation: Quat, other_position: Vec3, other_orientation: Quat) -> tuple[Vec3, Quat]:
    """:meth:`Pose.compose` on bare components: ``(position, orientation)``
    of ``self ∘ other``."""
    return (
        vec_add(position, quat_rotate(orientation, other_position)),
        quat_normalize(quat_mul(orientation, other_orientation)),
    )


@dataclass(frozen=True)
class Pose:
    """A rigid transform: rotate by ``orientation`` then translate by
    ``position``. ``compose`` renormalizes so long chains stay unit to well
    under 1e-9."""

    position: Vec3 = (0.0, 0.0, 0.0)
    orientation: Quat = IDENTITY_QUAT

    def compose(self, other: "Pose") -> "Pose":
        """Return ``self ∘ other`` (apply ``other`` within this frame)."""
        return Pose(*compose_parts(self.position, self.orientation, other.position, other.orientation))

    def transform_point(self, point: Vec3) -> Vec3:
        return vec_add(self.position, quat_rotate(self.orientation, point))

    def rotate(self, direction: Vec3) -> Vec3:
        """Rotate a direction vector (no translation)."""
        return quat_rotate(self.orientation, direction)


IDENTITY_POSE = Pose()
