"""Closure-task environment: a point effector interacting with one goal joint.

The reward shapes a reach-and-close task on the goal joint's handle marker:

    r = l1 * exp(-d) + l2 * max(0, cos th) + l3 * r_cls + l4 * ||action||^2

with ``d`` the effector-to-handle distance, ``th`` the angle between the
effector velocity and the direction to the handle, and
``r_cls = (q_upper - q) / (q_upper - q_lower)`` clamped to [0, 1] (1 with the
joint fully closed at its lower bound). Default weights: 0.5, 0.125, 10,
-0.01 — at the handle, fully closed, zero action, the reward is exactly
10.625.

The effector is a unit-mass point integrated semi-implicitly at the scenario
dt. While it sits within ``contact_radius`` of the nearest assembly marker,
its action force also loads every joint on that marker's root path through
the marker Jacobian transpose (a prismatic joint feels the force along its
world axis; a revolute joint the moment about its world anchor). There is no
collision geometry and no reaction force on the effector.

Every marker point a step reads comes from the runtime's marker table
(:meth:`ScenarioRuntime.marker_table`), indexed by (placement, marker)
pair, so a marker name shared by two modules resolves nothing. The table
is rebuilt only when a joint position changes; the one read after the tick
for the handle observation serves the next step's nearest-marker search
and contact Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActionOutOfBoundsError
from .geometry import Vec3
from .scenario import RewardParams, Scenario, ScenarioRuntime

_NEAR_ZERO = 1e-9


@dataclass(frozen=True)
class RewardInputs:
    """Everything the reward reads: effector point state, handle position,
    and the goal joint's position and limits."""

    effector_pos: Vec3
    effector_vel: Vec3
    handle_pos: Vec3
    q: float
    q_lower: float
    q_upper: float


def closure_fraction(q: float, q_lower: float, q_upper: float) -> float:
    frac = (q_upper - q) / (q_upper - q_lower)
    return min(max(frac, 0.0), 1.0)


def reward(inputs: RewardInputs, action, params: RewardParams = RewardParams()) -> float:
    """See the module docstring for the term definitions.

    Conventions at the degenerate points: alignment is 1.0 with the effector
    at the handle (within 1e-9 m), and 0.0 when the effector is motionless
    away from it.
    """
    ax, ay, az = float(action[0]), float(action[1]), float(action[2])
    ex, ey, ez = inputs.effector_pos
    vx, vy, vz = inputs.effector_vel
    hx, hy, hz = inputs.handle_pos

    dx, dy, dz = hx - ex, hy - ey, hz - ez
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    r_dst = math.exp(-dist)

    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if dist <= _NEAR_ZERO:
        r_dir = 1.0
    elif speed <= _NEAR_ZERO:
        r_dir = 0.0
    else:
        r_dir = max(0.0, (vx * dx + vy * dy + vz * dz) / (speed * dist))

    r_cls = closure_fraction(inputs.q, inputs.q_lower, inputs.q_upper)
    r_smth = ax * ax + ay * ay + az * az
    return (
        params.lambda1 * r_dst
        + params.lambda2 * r_dir
        + params.lambda3 * r_cls
        + params.lambda4 * r_smth
    )


class ManipulationEnv:
    """Deterministic closure task built from a scenario with an ``env`` block.

    ``reset() -> observation``; ``step(action) -> (observation, reward, done)``
    with ``action`` a 3-vector force on the effector, ``|action| <=
    action_max`` (:class:`ActionOutOfBoundsError` otherwise). Done when the
    goal joint is fully closed (``r_cls == 1``) or time exceeds the scenario
    duration. Observation is the 11-vector
    ``[effector pos (3), effector vel (3), q, q_dot, handle pos (3)]``.
    """

    def __init__(self, scenario: Scenario):
        if scenario.env is None:
            raise ValueError("scenario has no env block")
        self.scenario = scenario
        self.config = scenario.env
        self.params = self.config.reward_weights
        self._goal = self.config.goal_joint
        self._goal_spec = scenario.joint(self._goal)
        self._handle = -1  # the handle marker's index in the runtime's marker table
        self.runtime: ScenarioRuntime | None = None
        self.effector_pos = np.zeros(3)
        self.effector_vel = np.zeros(3)

    # -- plumbing -----------------------------------------------------------

    def _observation(self, handle: Vec3) -> np.ndarray:
        state = self.runtime.states[self._goal]
        return np.array(
            [*self.effector_pos, *self.effector_vel, state.q, state.q_dot, *handle], dtype=float
        )

    def _nearest_marker(self) -> tuple[int, float]:
        """Index in the marker table of the marker nearest the effector (-1
        with no markers), and its distance."""
        best, best_d2 = -1, math.inf
        ex, ey, ez = self.effector_pos.tolist()
        for i, (mx, my, mz) in enumerate(self.runtime.marker_table()):
            d2 = (mx - ex) ** 2 + (my - ey) ** 2 + (mz - ez) ** 2
            if d2 < best_d2:
                best, best_d2 = i, d2
        return best, math.sqrt(best_d2)

    # -- API ----------------------------------------------------------------

    def reset(self) -> np.ndarray:
        """Rebuild the initial state; deterministic (no seeding to do)."""
        self.runtime = ScenarioRuntime(self.scenario)
        self._handle = self.runtime.markers.index(self.scenario.marker(self.config.handle_marker))
        self.effector_pos = np.array(self.config.effector_start, dtype=float)
        self.effector_vel = np.zeros(3)
        return self._observation(self.runtime.marker_table()[self._handle])

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        if self.runtime is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=float)
        if action.shape != (3,):
            raise ActionOutOfBoundsError(f"action must be a 3-vector, got shape {action.shape}")
        components = ax, ay, az = action.tolist()
        magnitude = math.sqrt(ax * ax + ay * ay + az * az)  # the reward's smoothness order
        if not all(map(math.isfinite, components)) or magnitude > self.config.action_max:
            raise ActionOutOfBoundsError(
                f"|action|={magnitude:.6g} exceeds action_max={self.config.action_max}"
            )

        # Contact coupling: the action loads the nearest in-radius marker.
        extra: dict[str, float] = {}
        nearest, dist = self._nearest_marker()
        if dist <= self.config.contact_radius:
            for joint_ref, (cx, cy, cz) in self.runtime.table_jacobian(nearest).items():
                extra[joint_ref] = cx * ax + cy * ay + cz * az

        self.runtime.tick(extra)
        dt = self.scenario.dt
        self.effector_vel = self.effector_vel + dt * action  # unit mass
        self.effector_pos = self.effector_pos + dt * self.effector_vel

        state = self.runtime.states[self._goal]
        handle = self.runtime.marker_table()[self._handle]
        inputs = RewardInputs(
            effector_pos=tuple(self.effector_pos),
            effector_vel=tuple(self.effector_vel),
            handle_pos=handle,
            q=state.q,
            q_lower=self._goal_spec.q_lower_bound,
            q_upper=self._goal_spec.q_upper_bound,
        )
        value = reward(inputs, action, self.params)
        closed = closure_fraction(state.q, self._goal_spec.q_lower_bound, self._goal_spec.q_upper_bound) == 1.0
        done = closed or self.runtime.t > self.scenario.duration
        return self._observation(handle), value, done

