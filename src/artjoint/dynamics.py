"""Single-joint drive, friction, and integration.

The model per joint (1 DOF, effective inertia ``m``):

    m * q_ddot = tau_drive + f_ext + f_friction

* drive (restoring PD with position-dependent stiffness):
    ``tau_drive = K(q) * (q_target(q) - q) + D * (target_velocity - q_dot)``
* friction, with breakaway threshold ``B = mu_s * |tau_drive| + coulomb_floor``:
    - at rest and ``|f_ext| <= B``: friction cancels the external effort
      (``-f_ext``), regime Static — the joint stays put;
    - at rest and ``|f_ext| > B``: friction saturates at ``-B * sign(f_ext)``,
      regime Kinetic — breakaway;
    - moving: viscous ``-D * q_dot`` (the drive's damping coefficient doubles
      as the kinetic coefficient), regime Kinetic.

Integration is semi-implicit Euler at a fixed dt (velocity first, then
position with the new velocity), with hard limit clamping (velocity zeroed at
a bound) and a stiction latch: while the regime is Static the state does not
move at all, and the regime is re-evaluated every step. Everything here is
pure float arithmetic in a fixed order, so repeated runs are bit-identical.

One loop, :func:`_advance`, runs this arithmetic over plain floats and
advances a :class:`JointState` in place: each of the scenario runtime's
live states, or a copy of the start state in :func:`step`,
:func:`simulate_joint` and :func:`rollout`, so all simulate one model.
:func:`stiffness_at`, :func:`target_at`, :func:`drive_effort` and
:func:`friction_effort` state the same formulas one instant at a time; a
property test holds the loop to them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .assets import ConstantStiffness, FixedTarget, JointSpec, StiffnessProfile, TargetPolicy
from .errors import NonPositiveDtError, UnstableDtError

DT_MAX = 0.01  # stability guard for the explicit part of the stepper


class Regime(str, Enum):
    STATIC = "static"
    KINETIC = "kinetic"


# Enum member lookups are slow on CPython 3.11; the stepper binds these.
_STATIC, _KINETIC = Regime.STATIC, Regime.KINETIC


@dataclass(slots=True)
class JointState:
    """The state of one joint, advanced in place by the stepper.

    ``held_target`` is the latch-policy hysteresis memory: the target evaluated
    on the previous step (or written by a SetFixedTarget effect). ``regime``
    is the friction regime that produced this state.
    """

    q: float
    q_dot: float = 0.0
    s_open: bool = False
    regime: Regime = Regime.STATIC
    held_target: float = 0.0


def stiffness_at(profile: StiffnessProfile, q: float, s_open: bool, bounds: tuple[float, float]) -> float:
    """Drive stiffness at position ``q`` (clamped to be non-negative).

    For a schedule with offsets measured from the lower bound ``lo``:
    ``k_high`` at ``q <= lo``; on ``(lo, q_threshold]`` either the open-branch
    linear fall-off ``k_high - alpha * (q - lo)`` or the closed-branch surge
    ``k_low + k_max * exp(-lambda_ * (q - lo))``; ``k_low`` past the
    threshold.
    """
    if isinstance(profile, ConstantStiffness):
        k = profile.k
    else:
        lo = bounds[0]
        if q <= lo:
            k = profile.k_high
        elif q <= profile.q_threshold:
            if s_open:
                k = profile.k_high - profile.alpha * (q - lo)
            else:
                k = profile.k_low + profile.k_max * math.exp(-profile.lambda_ * (q - lo))
        else:
            k = profile.k_low
    return k if k > 0.0 else 0.0


def target_at(
    policy: TargetPolicy,
    q: float,
    s_open: bool,
    prev_target: float,
    bounds: tuple[float, float],
) -> float:
    """Drive target at the current state.

    Fixed policies ignore everything and return their target. Latch policies
    target the upper bound once past ``q_threshold`` while open, the lower
    bound once below it while closed, and otherwise hold ``prev_target``
    (hysteresis in the two mixed quadrants).
    """
    if isinstance(policy, FixedTarget):
        return policy.q_target
    if s_open:
        if q > policy.q_threshold:
            return bounds[1]
    elif q < policy.q_threshold:
        return bounds[0]
    return prev_target


def drive_effort(spec: JointSpec, state: JointState) -> float:
    """``K(q) * (q_target - q) + D * (target_velocity - q_dot)``."""
    bounds = (spec.q_lower_bound, spec.q_upper_bound)
    k = stiffness_at(spec.stiffness, state.q, state.s_open, bounds)
    q_target = target_at(spec.target_policy, state.q, state.s_open, state.held_target, bounds)
    return k * (q_target - state.q) + spec.damping_D * (spec.target_velocity - state.q_dot)


def friction_effort(
    spec: JointSpec, state: JointState, tau_drive: float, f_ext: float
) -> tuple[float, Regime]:
    """Friction effort and regime for the current instant (see module doc)."""
    if state.q_dot == 0.0:
        breakaway = spec.mu_s * abs(tau_drive) + spec.coulomb_floor
        if abs(f_ext) <= breakaway:
            return -f_ext, Regime.STATIC
        return (-breakaway if f_ext > 0.0 else breakaway), Regime.KINETIC
    return -spec.damping_D * state.q_dot, Regime.KINETIC


def check_dt(dt: float) -> None:
    """The one timestep rule, shared by scenarios, the stepper and fitting."""
    if dt <= 0.0:
        raise NonPositiveDtError(f"dt must be > 0, got {dt}")
    if dt > DT_MAX:
        raise UnstableDtError(f"dt={dt} exceeds the stability guard {DT_MAX}", "dt")


def step(spec: JointSpec, state: JointState, f_ext: float, dt: float) -> JointState:
    """Advance one fixed timestep.

    Static regime freezes the joint exactly (q and q_dot unchanged, velocity
    exactly zero); otherwise semi-implicit Euler, then limit clamping with
    the velocity zeroed at a bound. The newly evaluated drive target becomes
    the next ``held_target``. Returns a new state; ``state`` is untouched.
    """
    check_dt(dt)
    state = replace(state)
    _advance(spec, state, (f_ext,), dt, [])
    return state


def initial_state(spec: JointSpec, q: float = 0.0, q_dot: float = 0.0, s_open: bool = False) -> JointState:
    """A rest-consistent state at ``q``: regime Static iff motionless, held
    target seeded by evaluating the target policy with ``prev_target = q``."""
    if not (spec.q_lower_bound <= q <= spec.q_upper_bound):
        raise ValueError(
            f"initial q={q} outside limits [{spec.q_lower_bound}, {spec.q_upper_bound}] of joint '{spec.id}'"
        )
    held = target_at(spec.target_policy, q, s_open, q, (spec.q_lower_bound, spec.q_upper_bound))
    return JointState(
        q=q,
        q_dot=q_dot,
        s_open=s_open,
        regime=Regime.STATIC if q_dot == 0.0 else Regime.KINETIC,
        held_target=held,
    )


def steps_for(duration: float, dt: float) -> int:
    """Number of integration steps covering ``duration`` (ceil, with a guard
    against float fuzz in the quotient)."""
    if duration <= 0.0:
        raise ValueError(f"duration must be > 0, got {duration}")
    return max(1, math.ceil(duration / dt - 1e-9))


def simulate_joint(
    spec: JointSpec,
    force_schedule: Callable[[float], float],
    duration: float,
    dt: float,
    state0: "JointState | None" = None,
) -> list[JointState]:
    """Step one joint for ``duration`` seconds, as :func:`step` would.

    ``force_schedule(t)`` is sampled at the start of each step. Returns the
    state series including the initial state: ``steps_for(duration, dt) + 1``
    entries, sample ``k`` at ``t = k * dt``, each a new object.
    """
    check_dt(dt)
    n = steps_for(duration, dt)
    state = replace(state0) if state0 is not None else initial_state(spec, q=min(max(0.0, spec.q_lower_bound), spec.q_upper_bound))
    series = [state]
    for k in range(n):
        state = replace(state)
        _advance(spec, state, (force_schedule(k * dt),), dt, [])
        series.append(state)
    return series


def rollout(spec: JointSpec, forces: Sequence[float], dt: float, state0: JointState) -> np.ndarray:
    """Positions of ``spec`` driven by presampled ``forces`` from ``state0``.

    ``forces[k]`` is the external effort of step ``k`` (the schedule sampled
    at ``t = k * dt``). Returns ``len(forces) + 1`` positions, the first
    being ``state0.q``: the ``q`` series of :func:`simulate_joint` under the
    same forces, without a state object per step. ``state0`` is untouched.
    """
    check_dt(dt)
    out = [state0.q]
    _advance(spec, replace(state0), forces, dt, out)
    return np.array(out, dtype=float)


def _advance(spec: JointSpec, state: JointState, forces: Iterable[float], dt: float, out: list, out_dot=None) -> None:
    """Apply each of ``forces`` in turn to ``state`` in place, appending
    every new position to ``out`` and, if given, every new velocity to
    ``out_dot``. The only code that does the drive, friction, Euler and
    clamping arithmetic: the spec's constants are read once, then each step
    works on plain floats. The caller checks ``dt``.
    """
    lo, hi = spec.q_lower_bound, spec.q_upper_bound
    damping, v_target = spec.damping_D, spec.target_velocity
    mu_s, floor, inertia = spec.mu_s, spec.coulomb_floor, spec.effective_inertia
    profile, policy = spec.stiffness, spec.target_policy
    scheduled = not isinstance(profile, ConstantStiffness)
    if scheduled:
        k_high, k_low, k_max = profile.k_high, profile.k_low, profile.k_max
        alpha, lam, k_edge = profile.alpha, profile.lambda_, profile.q_threshold
    else:
        k = profile.k if profile.k > 0.0 else 0.0
    latched = not isinstance(policy, FixedTarget)
    if latched:
        t_edge, q_target = policy.q_threshold, state.held_target  # a latch keeps its last target
    else:
        q_target = policy.q_target
    exp = math.exp
    static, kinetic = _STATIC, _KINETIC
    q, q_dot, s_open, regime = state.q, state.q_dot, state.s_open, state.regime
    dots = out_dot is not None  # a local flag: the fit's rollout pays one test per step, not an append
    for f in forces:
        if scheduled:
            if q <= lo:
                k = k_high
            elif q <= k_edge:
                k = k_high - alpha * (q - lo) if s_open else k_low + k_max * exp(-lam * (q - lo))
            else:
                k = k_low
            if not k > 0.0:
                k = 0.0
        if latched:
            if s_open:
                q_target = hi if q > t_edge else q_target
            else:
                q_target = lo if q < t_edge else q_target
        tau = k * (q_target - q) + damping * (v_target - q_dot)
        if q_dot == 0.0:
            breakaway = mu_s * abs(tau) + floor
            if abs(f) <= breakaway:
                q_dot, regime = 0.0, static  # frozen, velocity exactly +0.0
                out.append(q)
                if dots:
                    out_dot.append(0.0)
                continue
            friction = -breakaway if f > 0.0 else breakaway
        else:
            friction = -damping * q_dot
        regime = kinetic
        q_dot = q_dot + dt * ((tau + f) + friction) / inertia
        q = q + dt * q_dot
        if q <= lo:
            q, q_dot = lo, 0.0
        elif q >= hi:
            q, q_dot = hi, 0.0
        out.append(q)
        if dots:
            out_dot.append(q_dot)
    state.q, state.q_dot, state.regime, state.held_target = q, q_dot, regime, q_target
