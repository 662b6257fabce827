"""The stepper against a reference written here from the public effort
primitives: for random joints, starts and force schedules every state of
``simulate_joint`` and every position of ``rollout`` equal the reference's
bit for bit, signed zeros included, on the compiled stepper (where it
loads) and on the Python loop; so do the compiled stepper's positions,
velocities and end state when called directly."""

import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import assets, dynamics
from artjoint.trajectory import pairwise_dot

from conftest import make_joint


@st.composite
def cases(draw):
    """(spec, state0, schedule, duration, dt): a joint with a constant or
    scheduled drive and a fixed or latch target, started at rest, moving or
    at a stop, under forces that stay below breakaway, ramp across it, or
    push into either stop.

    Hypothesis draws the structure (which branches, which start, which
    push) and the exact edge values (signed zeros, positions on a bound or a
    threshold, sub-ulp velocities); a seeded generator draws the other
    magnitudes, so examples spread over the parameter space instead of
    clustering on Hypothesis's favourite floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform

    def point_in(lo, hi, *marks):
        """A position in [lo, hi]; one draw in four lands exactly on ``lo``,
        ``hi`` or one of ``marks``."""
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([lo, hi, *marks]))
        return u(lo, hi)

    lo = draw(st.sampled_from([0.0, -0.0])) if draw(st.integers(0, 9)) == 0 else u(-1.0, 0.5)
    hi = lo + u(0.05, 2.0)
    if draw(st.booleans()):
        stiffness = aj.ConstantStiffness(k=draw(st.sampled_from([0.0, -0.0])) if draw(st.integers(0, 4)) == 0 else u(0.0, 60.0))
    else:
        k_low = u(0.0, 5.0)
        stiffness = aj.StiffnessSchedule(
            k_high=k_low + u(0.0, 30.0),
            k_low=k_low,
            k_max=u(0.0, 60.0),
            alpha=u(0.0, 80.0),
            lambda_=u(0.0, 40.0),
            q_threshold=point_in(lo, hi),
        )
    edge = point_in(lo, hi)
    floor = draw(st.sampled_from([0.0, u(0.0, 1.0)]))
    spec = make_joint(
        q_lower_bound=lo,
        q_upper_bound=hi,
        damping_D=draw(st.sampled_from([0.0, 0.05, 0.5, 5.0])) * u(0.0, 1.0),
        mu_s=u(0.0, 0.5),
        coulomb_floor=floor,
        effective_inertia=float(np.exp(u(np.log(0.02), np.log(5.0)))),
        stiffness=stiffness,
        target_policy=aj.LatchTarget(q_threshold=edge) if draw(st.booleans()) else aj.FixedTarget(q_target=edge),
        target_velocity=draw(st.sampled_from([0.0, u(-0.5, 0.5)])),
    )
    start = draw(st.sampled_from(["rest", "moving", "lower stop", "upper stop"]))
    if start == "lower stop" or start == "upper stop":
        q0 = lo if start == "lower stop" else hi
        # possibly creeping by less than one ulp of q per step
        q_dot0 = draw(st.sampled_from([0.0, 1e-300, -1e-300, u(-3.0, 3.0)]))
    else:
        q0 = point_in(lo, hi, edge, getattr(stiffness, "q_threshold", lo))
        q_dot0 = draw(st.sampled_from([0.0, -0.0])) if start == "rest" else u(-3.0, 3.0)
    state0 = aj.initial_state(spec, q=q0, q_dot=q_dot0, s_open=draw(st.booleans()))

    dt = draw(st.sampled_from([aj.DT_MAX, u(1e-4, aj.DT_MAX)]))
    duration = int(rng.integers(50, 1000)) * dt
    # the breakaway threshold at the start, and a force level past it
    breakaway = spec.mu_s * abs(aj.drive_effort(spec, state0)) + floor
    past = breakaway * u(1.01, 5.0) + u(0.0, 20.0)
    push = draw(st.sampled_from(["under breakaway", "ramp", "into upper stop", "into lower stop"]))
    if push == "under breakaway":
        # the threshold itself holds: static friction takes |f| <= breakaway
        levels = [breakaway * draw(st.sampled_from([1.0, -1.0, u(-1.0, 1.0)])) for _ in range(rng.integers(1, 5))]
    elif push == "ramp":
        sign = draw(st.sampled_from([1.0, -1.0]))
        levels = [sign * past * i / 8 for i in range(9)]
    else:
        sign = 1.0 if push == "into upper stop" else -1.0
        levels = [sign * past * u(1.0, 10.0), breakaway * u(-1.0, 1.0)]
    edges = [duration * i / len(levels) for i in range(len(levels))]
    schedule = aj.PiecewiseForce(steps=tuple(zip(edges, map(float, levels))))
    return spec, state0, schedule.value_at, duration, dt


def reference_step(spec, state, f_ext, dt):
    """One step from ``stiffness_at``, ``target_at``, ``drive_effort`` and
    ``friction_effort``, then semi-implicit Euler and limit clamping, in the
    order the model documents."""
    bounds = (spec.q_lower_bound, spec.q_upper_bound)
    k = aj.stiffness_at(spec.stiffness, state.q, state.s_open, bounds)
    q_target = aj.target_at(spec.target_policy, state.q, state.s_open, state.held_target, bounds)
    tau = k * (q_target - state.q) + spec.damping_D * (spec.target_velocity - state.q_dot)
    assert bits(tau) == bits(aj.drive_effort(spec, state))
    f_friction, regime = aj.friction_effort(spec, state, tau, f_ext)
    if regime is aj.Regime.STATIC:
        return aj.JointState(q=state.q, q_dot=0.0, s_open=state.s_open, regime=regime, held_target=q_target)
    q_dot = state.q_dot + dt * ((tau + f_ext) + f_friction) / spec.effective_inertia
    q = state.q + dt * q_dot
    if q <= spec.q_lower_bound:
        q, q_dot = spec.q_lower_bound, 0.0
    elif q >= spec.q_upper_bound:
        q, q_dot = spec.q_upper_bound, 0.0
    return aj.JointState(q=q, q_dot=q_dot, s_open=state.s_open, regime=regime, held_target=q_target)


def bits(x: float) -> str:
    """``x`` exactly: equal strings mean equal values and equal signs of zero."""
    return float(x).hex()


def fields(state):
    return bits(state.q), bits(state.q_dot), state.s_open, state.regime, bits(state.held_target)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_simulate_joint_and_rollout_match_the_reference_step(case):
    spec, state0, schedule, duration, dt = case
    forces = [schedule(k * dt) for k in range(aj.steps_for(duration, dt))]
    reference = [state0]
    for f in forces:
        reference.append(reference_step(spec, reference[-1], f, dt))
    start = fields(state0)
    got = aj.simulate_joint(spec, schedule, duration, dt, state0=state0)
    assert list(map(fields, got)) == list(map(fields, reference))
    assert fields(state0) == start
    assert len({id(state0), *map(id, got)}) == len(got) + 1  # every state a new object
    positions = aj.rollout(spec, forces, dt, state0)
    assert list(map(bits, positions)) == [bits(s.q) for s in reference]
    assert fields(state0) == start
    stepped = aj.step(spec, state0, forces[0], dt)
    assert fields(stepped) == fields(reference[1])
    assert stepped is not state0 and fields(state0) == start
    compiled = compiled_run(spec, state0, forces, dt)
    if compiled is not None:
        assert compiled == ([bits(s.q) for s in reference], [bits(s.q_dot) for s in reference], fields(reference[-1]))


def compiled_run(spec, state0, forces, dt):
    """The compiled stepper's positions and velocities from ``state0`` under
    ``forces``, the start's included, and its end state as :func:`fields`
    gives it; or None where the Python loop runs. The start row is left as
    it was, and with no observed series the stepper returns 0.0."""
    kernel = dynamics._kernel()[0]
    if kernel is None:
        return None
    record = dynamics.joint_record(spec)
    forces = np.array(forces, dtype=float)
    start = np.array(dynamics._row(state0), dtype=float)
    row, end = start.tobytes(), np.full(5, np.nan)
    out, out_dot = np.empty(len(forces) + 1), np.empty(len(forces) + 1)
    sse = kernel(*(a.ctypes.data for a in (record, start, end, forces)), len(forces), dt, None, out.ctypes.data, out_dot.ctypes.data)
    assert sse == 0.0 and start.tobytes() == row
    q, q_dot, s_open, regime, held = end.tolist()
    end = bits(q), bits(q_dot), bool(s_open), (aj.Regime.KINETIC if regime else aj.Regime.STATIC), bits(held)
    return list(map(bits, out)), list(map(bits, out_dot)), end


def test_the_python_loop_matches_the_reference_step(python_stepper):
    test_simulate_joint_and_rollout_match_the_reference_step()


def test_rollout_rejects_a_joint_that_fails_its_checks_on_both_steppers(stepper):
    """A joint built in code and never validated, with a negative surge
    rate: ``math.exp`` overflows where the C ``exp`` returns ``inf``, so the
    two steppers would part ways. ``rollout`` checks the joint first, as
    ``assets.validate`` does, and raises the same error on both."""
    spec = make_joint(
        q_lower_bound=0.0,
        q_upper_bound=2.0,
        stiffness=aj.StiffnessSchedule(k_high=10.0, k_low=1.0, k_max=5.0, alpha=1.0, lambda_=-1000.0, q_threshold=2.0),
    )
    state0 = aj.initial_state(spec, q=1.0)
    with pytest.raises(aj.AssetValidationError, match=r"spec\.stiffness: .* lambda_ must be >= 0"):
        aj.rollout(spec, [0.0] * 3, 0.001, state0)


def test_rollout_rejects_forces_that_are_not_one_per_step_on_both_steppers(stepper):
    """Given rows of forces, the compiled stepper would step through their
    first floats and the Python loop would fail on a row; ``rollout``
    raises the same error on both before stepping."""
    spec = make_joint()
    state0 = aj.initial_state(spec, q=0.25)
    for forces, shape in (([[5, 5], [5, 5]], r"\(2, 2\)"), (5.0, r"\(\)")):
        with pytest.raises(ValueError, match=rf"forces must be one effort per step \(1-D\), got shape {shape}"):
            aj.rollout(spec, forces, 0.001, state0)


def test_record_slots_cover_every_float_parameter():
    """``joint_record`` reads only the paths that have a slot, so a float
    parameter without one would reach neither stepper: the slots are the
    float fields of a joint and, under their component, of every stiffness
    and target type."""

    def floats(cls, prefix=""):
        return {prefix + f.name for f in dataclasses.fields(cls) if f.type in ("float", float)}

    paths = floats(aj.JointSpec)
    for owner, union in (("stiffness", assets.StiffnessProfile), ("target_policy", assets.TargetPolicy)):
        for cls in typing.get_args(union):
            paths |= floats(cls, f"{owner}.")
    assert set(dynamics.RECORD_SLOTS) == paths


@pytest.mark.parametrize(
    "stiffness",
    [aj.ConstantStiffness(k=2.5), aj.StiffnessSchedule(k_high=12.0, k_low=1.0, k_max=8.0, alpha=4.0, lambda_=5.0, q_threshold=0.4)],
    ids=["constant", "schedule"],
)
@pytest.mark.parametrize("policy", [aj.FixedTarget(q_target=0.2), aj.LatchTarget(q_threshold=0.5)], ids=["fixed", "latch"])
def test_apply_params_sets_exactly_the_slots_joint_record_fills(stiffness, policy):
    """The two users of the parameter-path rule agree: for every path,
    ``apply_params`` succeeds exactly where ``joint_record`` fills the
    path's slot from the path's own field, and then the result's record is
    the joint's with that one slot set to the new value, bit for bit. Every
    float of the joint is distinct and nonzero, so a filled slot shows which
    field filled it (slot 14 is shared by a latch's threshold and a fixed
    target)."""
    spec = make_joint(q_lower_bound=-0.5, q_upper_bound=1.5, damping_D=0.7, target_velocity=0.03, mu_s=0.2,
                      coulomb_floor=0.3, effective_inertia=1.9, stiffness=stiffness, target_policy=policy)  # fmt: skip
    record = dynamics.joint_record(spec)
    for path, slot in dynamics.RECORD_SLOTS.items():
        owner, _, name = path.rpartition(".")
        component = getattr(spec, owner) if owner else spec
        has_field = name in {f.name for f in dataclasses.fields(component)}
        fills = has_field and bits(record[slot]) == bits(getattr(component, name))
        value = 0.0625 + slot  # no float of the joint
        try:
            changed = dynamics.apply_params(spec, {path: value})
        except ValueError as exc:
            assert str(exc) == f"spec has no parameter '{path}'"
            changed = None
        assert (changed is not None) == fills == has_field, path
        if changed is not None:
            expected = record.copy()
            expected[slot] = value
            assert list(map(bits, dynamics.joint_record(changed))) == list(map(bits, expected)), path


def test_rollout_starts_at_the_initial_position_and_checks_dt():
    spec = make_joint()
    state0 = aj.initial_state(spec, q=0.25)
    assert aj.rollout(spec, [], 0.001, state0).tolist() == [0.25]
    assert len(aj.rollout(spec, [1.0] * 5, 0.001, state0)) == 6
    with pytest.raises(aj.NonPositiveDtError):
        aj.rollout(spec, [1.0], 0.0, state0)
    with pytest.raises(aj.UnstableDtError):
        aj.rollout(spec, [1.0], 2 * aj.DT_MAX, state0)


def test_run_takes_empty_single_and_read_only_buffers(stepper):
    """``dynamics._run`` on zero-length, one-element, read-only and sliced
    force arrays, with a read-only (``joint_record``'s own) or a writable
    record: positions, velocities and end state equal the reference
    step's bit for bit, and the output buffers past the run stay untouched."""
    read_only = np.array([6.0, -2.5, 0.0, 9.0, -9.0])
    read_only.flags.writeable = False
    schedule = aj.StiffnessSchedule(k_high=12.0, k_low=1.0, k_max=8.0, alpha=4.0, lambda_=5.0, q_threshold=0.4)
    dt = 1e-3
    for policy in (aj.LatchTarget(q_threshold=0.5), aj.FixedTarget(q_target=0.2)):
        spec = make_joint(q_lower_bound=0.0, q_upper_bound=1.0, damping_D=0.5, mu_s=0.2, coulomb_floor=0.3,
                          stiffness=schedule, target_policy=policy)  # fmt: skip
        record = dynamics.joint_record(spec)
        assert not record.flags.writeable
        for state0 in (aj.initial_state(spec, q=0.3, q_dot=0.5, s_open=True), aj.initial_state(spec, q=0.45)):
            for forces in (np.empty(0), np.array([4.0]), read_only, np.linspace(-3.0, 6.0, 9)[2:7]):
                reference = [state0]
                for f in forces.tolist():
                    reference.append(reference_step(spec, reference[-1], f, dt))
                for rec in (record, record.copy()):
                    state = dataclasses.replace(state0)
                    out, out_dot = np.full(len(forces) + 3, np.nan), np.full(len(forces) + 3, np.nan)
                    dynamics._run(rec, state, forces, dt, out, out_dot)
                    n = len(forces)
                    assert list(map(bits, out[: n + 1])) == [bits(s.q) for s in reference]
                    assert list(map(bits, out_dot[: n + 1])) == [bits(s.q_dot) for s in reference]
                    assert np.isnan(out[n + 1 :]).all() and np.isnan(out_dot[n + 1 :]).all()
                    assert fields(state) == fields(reference[-1])


# numpy's pairwise summation changes shape at these lengths: under 8 terms,
# up to 128 in 8 accumulators, then halves; 1,601 is the bundled fitspec's
PAIRWISE_EDGES = [1, 7, 8, 9, 16, 128, 129, 136, 256, 257, 1601]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(st.sampled_from(PAIRWISE_EDGES), st.integers(1, 4101)),
    st.sampled_from(["spread", "close"]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]), max_size=8),
)
def test_run_returns_the_pairwise_sum_of_squares_of_its_residuals(stepper, length, magnitudes, seed, specials):
    """With an observed series, ``_run`` writes position minus observed
    and returns the sum of their squares, bit for bit as ``pairwise_dot``
    sums it, for every length and magnitude. A joint at rest at 0.0 under
    no force stays there, so its residuals are exactly minus the observed
    series (signed zeros aside, which square alike): here ``r``, with
    exponents spread from underflow to 1e150 or close together, and the
    special values put in at drawn places."""
    rng = np.random.default_rng(seed)
    if magnitudes == "spread":
        r = rng.choice([-1.0, 1.0], length) * 10.0 ** rng.uniform(-330.0, 150.0, length)
    else:
        r = rng.normal(size=length) * 10.0 ** float(rng.integers(-150, 148))
    r[rng.integers(0, length, len(specials))] = specials
    spec = make_joint()
    record, start = dynamics.joint_record(spec), np.array(dynamics._row(aj.initial_state(spec, q=0.0)))
    out = np.full(length + 1, np.nan)
    sse = dynamics._run(record, start, np.zeros(length - 1), 1e-3, out, None, -r)
    assert np.array_equal(out[:length], r) and np.isnan(out[length])
    assert bits(sse) == bits(pairwise_dot(r, r))
