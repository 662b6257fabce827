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
live states, or a copy of the start state in :func:`step` and
:func:`simulate_joint`, so all simulate one model. It reads the joint's
constants from its packed record (:func:`joint_record`, slots keyed by
parameter path in :data:`RECORD_SLOTS`), built once per spec. ``_stepper.c``
is a C copy of the loop, built with ``cc -O2 -fPIC -shared
-ffp-contract=off``: no fused multiply-add and the C library's ``exp``, the
one ``math.exp`` calls, so it gives the loop's bits.

:func:`_run` is the one entry that steps a joint over an array of forces,
for :func:`rollout`, ``sysid.residuals`` and ``sysid.objective``, and
every scenario runtime segment of more than one tick: one call of the
compiled stepper, whatever the length. Given an observed series, the
call writes each position minus its sample and returns the sum of their
squares, summed in numpy's pairwise order, so it equals
``trajectory.pairwise_dot`` bit for bit; the Python loop computes it with
``pairwise_dot``. The call passes the addresses of the record, the
start state, the forces, the observed series and the output series
(``ndarray.ctypes.data``), and NULL for an absent series. A
:class:`JointState` is packed into a 5-slot ctypes array,
passed as start and end and read back after the call; the fit passes a
start row and its whole argument tuple, bound once per problem and thread
(``sysid``), and takes no end state. Once a step freezes the joint, the
compiled stepper writes each following tick whose force stays within the
breakaway threshold without evaluating the drive again (``_stepper.c``
says why that gives the loop's bits).

The stepper is one function of the package's one compiled library
(``artjoint._native``), loaded on the first :func:`_run`, never on
import; with no compiler, or if the build or load fails, :func:`_run` runs
:func:`_advance` and :func:`_stepper` says why. :func:`step`,
:func:`simulate_joint` and the runtime's one-tick segments (``scenario``
says why) call :func:`_advance` directly.
:func:`stiffness_at`, :func:`target_at`, :func:`drive_effort` and
:func:`friction_effort` state the same formulas one instant at a time; a
property test holds both loops to them bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import _native
from .assets import ConstantStiffness, FixedTarget, JointSpec, StiffnessProfile, TargetPolicy, ValidationReport
from .assets import _SHAPES, check_joint, raise_on_issues
from .errors import NonPositiveDtError, UnstableDtError
from .trajectory import pairwise_dot

DT_MAX = 0.01  # stability guard for the explicit part of the stepper


class Regime(str, Enum):
    STATIC = "static"
    KINETIC = "kinetic"


# Enum member lookups are slow on CPython 3.11; the stepper binds these.
_STATIC, _KINETIC = Regime.STATIC, Regime.KINETIC

# The packed joint record: every constant the stepper reads, one float64 per
# slot, keyed by the parameter path that sets it. These keys are the only
# parameter paths (apply_params), and ``sysid`` writes a fit's free
# parameters straight into their slots. One slot holds a latch's threshold
# or a fixed target; two more flag a scheduled stiffness and a latch target.
# ``_stepper.c`` names the same slots in the same order.
RECORD_SLOTS = {
    "q_lower_bound": 0,
    "q_upper_bound": 1,
    "damping_D": 2,
    "target_velocity": 3,
    "mu_s": 4,
    "coulomb_floor": 5,
    "effective_inertia": 6,
    "stiffness.k": 7,
    "stiffness.k_high": 8,
    "stiffness.k_low": 9,
    "stiffness.k_max": 10,
    "stiffness.alpha": 11,
    "stiffness.lambda_": 12,
    "stiffness.q_threshold": 13,
    "target_policy.q_threshold": 14,
    "target_policy.q_target": 14,
}
_SCHEDULED, _LATCHED, _RECORD_SIZE = 15, 16, 17
# the slots a rest state reads, and a getter of them from the record as a list
_REST_SLOTS = (RECORD_SLOTS["q_lower_bound"], RECORD_SLOTS["q_upper_bound"], RECORD_SLOTS["target_policy.q_target"], _LATCHED)
_rest_slots = operator.itemgetter(*_REST_SLOTS)


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
    if not dt > 0.0:  # NaN included
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
    _advance(joint_record(spec), state, (f_ext,), dt, [])
    return state


def initial_state(spec: JointSpec, q: float = 0.0, q_dot: float = 0.0, s_open: bool = False) -> JointState:
    """A rest-consistent state at ``q``: regime Static iff motionless, held
    target seeded by evaluating the target policy with ``prev_target = q``."""
    if not (spec.q_lower_bound <= q <= spec.q_upper_bound):
        raise ValueError(
            f"initial q={q} outside limits [{spec.q_lower_bound}, {spec.q_upper_bound}] of joint '{spec.id}'"
        )
    state = _rest_state(joint_record(spec), q, s_open)
    state.q_dot, state.regime = q_dot, (Regime.STATIC if q_dot == 0.0 else Regime.KINETIC)
    return state


def _rest_state(record: np.ndarray, q: float, s_open: bool) -> JointState:
    """The joint of ``record`` at rest at ``q`` clamped into its limits, with
    :func:`initial_state`'s held target: the target policy evaluated with
    ``prev_target = q``. A fit's forward run starts here."""
    lo, hi, target, latched = _rest_slots(record.tolist())
    q = min(max(q, lo), hi)
    if not latched:
        held = target
    elif s_open:
        held = hi if q > target else q
    else:
        held = lo if q < target else q
    return JointState(q=q, s_open=s_open, held_target=held)


def joint_record(spec: JointSpec) -> np.ndarray:
    """The packed record of ``spec`` (read-only): each slot of
    :data:`RECORD_SLOTS` holds the spec's value at that path, or 0.0 where
    its stiffness or target type has no such field; then 1.0 or 0.0 for a
    scheduled stiffness and for a latch target."""
    record = np.zeros(_RECORD_SIZE)
    for path, slot in RECORD_SLOTS.items():
        owner, name = _field(spec, path)
        if hasattr(owner, name):
            record[slot] = getattr(owner, name)
    record[_SCHEDULED] = not isinstance(spec.stiffness, ConstantStiffness)
    record[_LATCHED] = not isinstance(spec.target_policy, FixedTarget)
    record.flags.writeable = False
    return record


def _field(spec: JointSpec, path: str) -> tuple[object, str]:
    """What a :data:`RECORD_SLOTS` path names: the spec's component and the
    leaf for ``component.leaf``, else the spec and the name."""
    owner, _, name = path.rpartition(".")
    return (getattr(spec, owner) if owner else spec), name


def apply_params(spec: JointSpec, params: Mapping[str, float]) -> JointSpec:
    """Return a copy of ``spec`` with parameter paths replaced (e.g.
    ``"mu_s"``, ``"stiffness.k_low"``). A path must be a key of
    :data:`RECORD_SLOTS` whose field :func:`_field` finds on ``spec``, the
    slots :func:`joint_record` fills; else ``ValueError``."""
    for path, value in params.items():
        if path not in RECORD_SLOTS or not hasattr(*_field(spec, path)):
            raise ValueError(f"spec has no parameter '{path}'")
        owner, name = _field(spec, path)
        changed = replace(owner, **{name: value})
        head = path.rpartition(".")[0]
        spec = replace(spec, **{head: changed}) if head else changed
    return spec


def steps_for(duration: float, dt: float) -> int:
    """Number of integration steps covering ``duration`` (ceil, with a guard
    against float fuzz in the quotient). The one duration rule, which
    scenarios run too: ``ValueError`` unless ``duration`` is finite and > 0
    and its quotient by ``dt`` is finite."""
    if not 0.0 < duration < math.inf:  # NaN included
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    steps = duration / dt - 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"duration {duration} at dt={dt} takes more steps than a run can count")
    return max(1, math.ceil(steps))


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
    record = joint_record(spec)
    for k in range(n):
        state = replace(state)
        _advance(record, state, (force_schedule(k * dt),), dt, [])
        series.append(state)
    return series


def rollout(spec: JointSpec, forces: Sequence[float], dt: float, state0: JointState) -> np.ndarray:
    """Positions of ``spec`` driven by presampled ``forces`` from ``state0``.

    ``forces[k]`` is the external effort of step ``k`` (the schedule sampled
    at ``t = k * dt``). Returns ``len(forces) + 1`` positions, the first
    being ``state0.q``: the ``q`` series of :func:`simulate_joint` under the
    same forces, without a state object per step. ``state0`` is untouched.
    ``spec`` is read back as a file's reader reads a joint, then must pass
    :func:`assets.check_joint`, raising as :func:`assets.validate` does
    otherwise, so both steppers meet only the joints they agree on. Runs
    the compiled stepper where it loads (see the module doc).
    """
    forces = np.asarray(forces, dtype=float)
    if forces.ndim != 1:
        raise ValueError(f"forces must be one effort per step (1-D), got shape {forces.shape}")
    check_dt(dt)
    _SHAPES[JointSpec].read_back(spec, "spec.")
    report = ValidationReport()
    check_joint(report, spec, "spec")
    raise_on_issues(report)
    out = np.empty(len(forces) + 1)
    _run(joint_record(spec), replace(state0), np.ascontiguousarray(forces), dt, out)
    return out


def _run(
    record: np.ndarray, state, forces: np.ndarray, dt: float, out: np.ndarray, out_dot=None, observed=None, args=None
) -> float:
    """Step the joint of ``record`` over the contiguous float64 ``forces``
    from ``state``: a :class:`JointState`, advanced in place, or a start row
    (5 float64 in ``_stepper.c``'s order), left as is. Writes its position
    before the first step and after each into ``out`` (contiguous float64,
    at least ``len(forces) + 1`` long), each minus its sample where
    ``observed`` (as long) is given, and, if given, its velocities likewise
    into ``out_dot``. Returns the sum of squares of those residuals, as
    ``trajectory.pairwise_dot`` gives it, or 0.0 with no ``observed``.
    ``args`` is :func:`_args` of these buffers, for a row ``state``, where
    the caller holds it (buffers that never move); it is built here
    otherwise. The caller checks ``dt``. One call of the compiled stepper,
    or :func:`_advance` where it does not load (see the module doc).
    """
    kernel = _kernel()[0]
    if kernel is None:
        return _python_run(record, state, forces, dt, out, out_dot, observed)
    if type(state) is not JointState:
        return kernel(*(args or _args(record, state.ctypes.data, None, forces, dt, out, out_dot, observed)))
    packed = _PackedState(*_row(state))
    sse = kernel(*_args(record, packed, packed, forces, dt, out, out_dot, observed))
    state.q, state.q_dot, _, regime, state.held_target = packed[:]
    state.regime = _KINETIC if regime else _STATIC
    return sse


def _args(record, start, end, forces, dt, out, out_dot=None, observed=None) -> tuple:
    """The compiled stepper's arguments for :func:`_run`'s buffers: the
    addresses of the arrays, NULL (``None``) for an absent series, and
    ``start`` and ``end`` as given (an address, a ctypes array or None)."""
    return (
        record.ctypes.data, start, end, forces.ctypes.data, len(forces), dt,
        None if observed is None else observed.ctypes.data, out.ctypes.data, None if out_dot is None else out_dot.ctypes.data,
    )  # fmt: skip


def _row(state: JointState) -> tuple:
    """``state`` as the stepper's row: its five slots in ``_stepper.c``'s order."""
    return state.q, state.q_dot, state.s_open, state.regime is _KINETIC, state.held_target


def _python_run(record, state, forces, dt, out, out_dot, observed) -> float:
    """:func:`_run` on the Python loop."""
    if type(state) is not JointState:
        q, q_dot, s_open, regime, held = state.tolist()
        state = JointState(q, q_dot, s_open != 0.0, _KINETIC if regime else _STATIC, held)
    q, q_dot = [state.q], [state.q_dot]
    _advance(record, state, forces.tolist(), dt, q, q_dot if out_dot is not None else None)
    if out_dot is not None:
        out_dot[: len(q_dot)] = q_dot
    if observed is None:
        out[: len(q)] = q
        return 0.0
    r = out[: len(q)]
    np.subtract(q, observed, out=r)
    return pairwise_dot(r, r)


def _advance(record: np.ndarray, state: JointState, forces: Iterable[float], dt: float, out: list, out_dot=None) -> None:
    """Apply each of ``forces`` in turn to ``state`` in place, appending
    every new position to ``out`` and, if given, every new velocity to
    ``out_dot``. The Python stepper: the joint's packed ``record`` is read
    once, then each step works on plain floats. ``_stepper.c`` is the same
    function in C; both change together. The caller checks ``dt``.
    """
    (lo, hi, damping, v_target, mu_s, floor, inertia, k, k_high, k_low, k_max, alpha, lam, k_edge, t_edge,
     scheduled, latched) = record.tolist()
    if not k > 0.0:
        k = 0.0
    q_target = state.held_target if latched else t_edge  # a latch keeps its last target
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


# -- the compiled stepper ----------------------------------------------------

# (artjoint_advance or None, why): None until the first _run (or _stepper)
# loads the library (artjoint._native).
# Tests set (None, reason) here to run the Python loop.
_compiled: "tuple[Callable | None, str] | None" = None
# The state the stepper advances, in _stepper.c's order: q, q_dot, s_open,
# regime (1.0 kinetic), held_target.
_PackedState = ctypes.c_double * 5


def _kernel() -> "tuple[Callable | None, str]":
    global _compiled
    if _compiled is None:
        lib, why = _native.library()
        _compiled = (None if lib is None else lib.artjoint_advance), why
    return _compiled


def _stepper() -> tuple[str, str]:
    """``("compiled", library path)`` or ``("python", why not compiled)``:
    the stepper :func:`_run` runs, loaded if no run has loaded it yet."""
    kernel, why = _kernel()
    return ("compiled" if kernel is not None else "python"), why
