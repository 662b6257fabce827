"""Parameter identification for a single joint from an observed trajectory.

A :class:`FitProblem`, frozen and derived once when built, pairs an observed
position series with a joint spec template and a set of free parameter
paths (e.g. ``"damping_D"``, ``"stiffness.k_max"``). :func:`load_fitspec`
reads one from a ``.fitspec.json`` file, whose keys ``FitProblem`` declares
in the field table assets and scenarios use. :func:`residuals` is
one forward run of the candidate minus the observed samples; :func:`objective`
is their sum of squares. Each is one ``dynamics._run`` over buffers each
thread binds at its first evaluation of a problem, so an evaluation only
writes the free parameters before the call. :func:`fit` minimizes the
objective in two stages:

- a global stage of coordinate-wise golden-section sweeps over the whole
  parameter boxes, which leaves the stiction plateau (where the joint never
  breaks away and the SSE is flat) but then gains little per sweep;
- once a sweep lowers the SSE by less than ``HANDOVER_FRACTION`` of its
  starting SSE, a projected Levenberg-Marquardt polish on a forward-difference
  Jacobian, which also yields standard errors and a condition number.

Every forward run of a fit, the polish's included, is one :func:`objective`
call, and the polish reads the run's residuals from the thread's buffers.
The evaluation budget (default 5000) caps both stages together.
:attr:`FitResult.stop_reason` says why a fit ended. Everything is
deterministic: ties inside a line search keep the smaller parameter value,
the difference steps and their order are fixed, and every reduction runs in
numpy's pairwise order (the compiled stepper sums the objective's squares
in that order itself), numpy's own loops or plain floats, never in a
threaded BLAS or LAPACK call.

Simulation convention: the forward run starts at rest at the first observed
sample (``q0 = observed[0]``, ``q_dot0 = 0``), with the open flag from the
problem (default closed).
"""

from __future__ import annotations

import itertools
import math
import threading
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import assets, dynamics, trajectory
from .assets import JointSpec, ValidationReport, check_joint
from .assets import _BOOL, _FLOAT, _PAIR, _SHAPES, _STR, _as_str, _check_keys, _decode_json, _declare, _list_of, _map_of, _require_dict
from .dynamics import RECORD_SLOTS, _rest_state, apply_params, check_dt, initial_state, joint_record, simulate_joint
from .errors import AssetSyntaxError, InsufficientDataError, UnknownJointError, UnstableDtError
from .scenario import _FORCE_PROFILE
from .trajectory import Trajectory, pairwise_dots

MIN_OBSERVED_SAMPLES = 10
DEFAULT_BUDGET = 5000
# Hand over to the polish once a sweep lowers the SSE by less than this share
# of its starting SSE. On the bundled drawer_sprung fitspec a sweep that
# leaves the stiction plateau cuts the SSE 1,000-fold or more, a later one at
# most 7-fold.
HANDOVER_FRACTION = 0.99
MAX_SWEEPS = 60
_LINE_TOLERANCE = 1e-4  # a line search stops at this bracket, relative to the box
_DIFF_STEP = 1e-7  # forward-difference step, relative to the box
_STEP_TOLERANCE = 1e-10  # the polish converges below this step, relative to every box
_INITIAL_DAMPING = 1e-6  # times the largest eigenvalue of J^T J: the golden stage starts it close
_DAMPING_FACTOR = 10.0  # damping divides by this after an accepted step, multiplies after a rejected one
_MAX_REJECTIONS = 6  # rejected steps in a row after which the polish has stalled
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # interval shrink ratio per iteration


@dataclass(frozen=True)
class FitProblem:
    """One-joint identification problem, frozen and complete when built.

    ``free`` lists parameter paths on the spec template (see
    :func:`~artjoint.dynamics.apply_params`); every free parameter
    needs a box in ``bounds`` and a start in ``init`` (inside the box), and
    both name free parameters only. The joint must pass
    :func:`~artjoint.assets.check_joint` everywhere in the box, the observed
    series must start at t = 0, its sample step must pass
    :func:`~artjoint.dynamics.check_dt` and every observed sample must be
    finite. ``channel`` defaults to the observed trajectory's single
    channel. Construction (``dataclasses.replace``
    included) checks all this and derives ``dt``, a read-only copy of the
    channel (``observed_q``) and ``force_samples``, ``forces(k * dt)`` for
    ``k < len(observed) - 1``: the times simulate_joint samples.
    """

    observed: Trajectory
    forces: Callable[[float], float]  # or any object with a value_at(t) method
    spec_template: JointSpec
    free: Sequence[str]
    bounds: Mapping[str, tuple[float, float]]
    init: Mapping[str, float]
    channel: str = ""
    s_open0: bool = False
    dt: float = field(init=False, repr=False, compare=False)
    observed_q: np.ndarray = field(init=False, repr=False, compare=False)
    force_samples: np.ndarray = field(init=False, repr=False, compare=False)
    record: np.ndarray = field(init=False, repr=False, compare=False)
    slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _q0: float = field(init=False, repr=False, compare=False)
    _threads: threading.local = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if hasattr(self.forces, "value_at"):
            object.__setattr__(self, "forces", self.forces.value_at)
        object.__setattr__(self, "free", tuple(self.free))
        object.__setattr__(self, "bounds", types.MappingProxyType({name: tuple(pair) for name, pair in self.bounds.items()}))
        object.__setattr__(self, "init", types.MappingProxyType(dict(self.init)))
        if len(self.observed) < MIN_OBSERVED_SAMPLES:
            raise InsufficientDataError(
                f"need at least {MIN_OBSERVED_SAMPLES} observed samples, got {len(self.observed)}"
            )
        if not self.free:
            raise ValueError("free parameter list is empty")
        if not self.channel:
            names = self.observed.channel_names
            if len(names) != 1:
                raise ValueError(f"observed trajectory has {len(names)} channels; pass channel= explicitly")
            object.__setattr__(self, "channel", names[0])
        if self.channel not in self.observed.channels:
            raise ValueError(f"observed trajectory has no channel '{self.channel}'")
        object.__setattr__(self, "observed_q", np.array(self.observed.channels[self.channel], dtype=float))
        self.observed_q.flags.writeable = False
        bad = np.flatnonzero(~np.isfinite(self.observed_q))
        if len(bad):
            raise ValueError(
                f"observed channel '{self.channel}' has a non-finite sample "
                f"({self.observed_q[bad[0]]}) at t = {self.observed.times[bad[0]]}"
            )
        if self.observed.times[0] != 0.0:  # the force samples are taken at k * dt from t = 0
            raise ValueError(f"observed trajectory must start at t = 0, not at t = {self.observed.times[0]}")
        steps = np.diff(self.observed.times)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("observed trajectory must be uniformly sampled")
        object.__setattr__(self, "dt", float(steps[0]))
        for name in self.free:
            if name not in self.bounds:
                raise ValueError(f"free parameter '{name}' has no bounds")
            if name not in self.init:
                raise ValueError(f"free parameter '{name}' has no initial value")
            lo, hi = self.bounds[name]
            if not (lo < hi):
                raise ValueError(f"bounds for '{name}' must satisfy lo < hi, got [{lo}, {hi}]")
            if not (lo <= self.init[name] <= hi):
                raise ValueError(f"init for '{name}' ({self.init[name]}) outside bounds [{lo}, {hi}]")
        for label, given in (("bounds", self.bounds), ("init", self.init)):
            stray = sorted(set(given) - set(self.free))
            if stray:
                raise ValueError(f"{label} name(s) {stray} are not free parameters")
        check_dt(self.dt)
        # The box must admit only valid joints. check_joint's rules on float
        # parameters are linear inequalities, so the valid set is convex and
        # the box's corners decide it. Each free parameter at either end with
        # the others at init goes first, for a message that names one.
        start = {name: self.init[name] for name in self.free}
        ends = (([name], {**start, name: value}) for name in self.free for value in self.bounds[name])
        boxes = [self.bounds[name] for name in self.free]
        corners = ((self.free, dict(zip(self.free, corner))) for corner in itertools.product(*boxes))
        for names, params in itertools.chain(ends, corners):
            report = ValidationReport()
            check_joint(report, apply_params(self.spec_template, params), "spec")
            if not report.ok:
                raise ValueError(
                    f"bounds for {', '.join(map(repr, names))} admit an invalid joint: "
                    f"at {', '.join(f'{name} = {params[name]}' for name in names)}, {report.issues[0].message}"
                )
        samples = np.array([self.forces(k * self.dt) for k in range(len(self.observed_q) - 1)], dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "force_samples", samples)
        # every path passed apply_params above, so each names a record slot
        object.__setattr__(self, "record", joint_record(self.spec_template))
        object.__setattr__(self, "slots", tuple(RECORD_SLOTS[name] for name in self.free))
        object.__setattr__(self, "_q0", float(self.observed_q[0]))
        # each thread's _Buffers, bound at its first evaluation: a copy, deep
        # copy or unpickling is rebuilt through this constructor
        # (__reduce__), so no problem holds another's buffers or addresses
        object.__setattr__(self, "_threads", threading.local())

    def __reduce__(self):
        """Pickle and deep-copy as a constructor call on the init fields, so
        the copy derives its own arrays and binds its own buffers."""
        args = (self.observed, self.forces, self.spec_template, self.free, dict(self.bounds), dict(self.init))
        return type(self), args + (self.channel, self.s_open0)


class _Buffers:
    """One thread's buffers for evaluating a problem, bound at its first
    evaluation: a writable copy of the record, the start row, the residual
    series and the stepper's arguments over them and the problem's arrays
    (:func:`~artjoint.dynamics._args`). The start row is the rest state at
    the clamped first sample, taken once unless a free parameter sits in a
    slot it reads. ctypes releases the GIL while the stepper runs, so no
    two threads share these."""

    def __init__(self, problem: FitProblem):
        self.record = problem.record.copy()
        self.start = np.empty(5)
        self.rest_is_free = not set(problem.slots).isdisjoint(dynamics._REST_SLOTS)
        if not self.rest_is_free:
            self.start[:] = dynamics._row(_rest_state(self.record, problem._q0, problem.s_open0))
        self.out = np.empty(len(problem.observed_q))
        self.args = dynamics._args(
            self.record, dynamics._address(self.start), None, problem.force_samples, problem.dt, self.out, None, problem.observed_q
        )

    def run(self, problem: FitProblem, params: Mapping[str, float]) -> float:
        """Write ``params`` into the record (and the start row where it reads
        them), make one ``dynamics._run`` and return its SSE, leaving the
        residuals in ``out``."""
        record = self.record
        try:
            for name, slot in zip(problem.free, problem.slots):
                record[slot] = params[name]
        except KeyError:
            missing = [name for name in problem.free if name not in params]
            raise ValueError(f"params give no value for free parameter(s) {missing}") from None
        if len(params) != len(problem.free):
            raise ValueError(f"params name(s) {sorted(set(params) - set(problem.free))} are not free parameters")
        if self.rest_is_free:
            self.start[:] = dynamics._row(_rest_state(record, problem._q0, problem.s_open0))
        return dynamics._run(
            record, self.start, problem.force_samples, problem.dt, self.out, None, problem.observed_q, self.args
        )


def _buffers(problem: FitProblem) -> _Buffers:
    """The calling thread's buffers for ``problem``, bound on its first call."""
    threads = problem._threads
    try:
        return threads.buffers
    except AttributeError:
        threads.buffers = _Buffers(problem)
        return threads.buffers


def residuals(problem: FitProblem, params: Mapping[str, float]) -> np.ndarray:
    """Simulated minus observed position at each observed sample time, for
    ``params`` giving each free parameter a value, as a fresh array. The
    simulation is one ``dynamics._run`` of the template's record with those
    values in their slots, on the problem's force samples from rest at the
    clamped first sample (:func:`~artjoint.dynamics.initial_state`'s rule),
    keeping positions only. A free parameter missing from ``params``, or a
    name in it that is not free, raises ``ValueError`` naming it."""
    buffers = _buffers(problem)
    buffers.run(problem, params)
    return buffers.out.copy()


def objective(problem: FitProblem, params: Mapping[str, float]) -> float:
    """Sum of squared position error of the candidate's forward simulation at
    the observed sample times: ``r . r`` of :func:`residuals`, summed as
    :func:`~artjoint.trajectory.pairwise_dot` sums it, by the stepper that
    makes the run, over this thread's buffers."""
    return _buffers(problem).run(problem, params)


@dataclass(frozen=True)
class FitResult:
    """``iterations`` counts golden sweeps. ``stop_reason`` is
    ``"converged"`` (the only one that sets ``converged``), ``"budget
    exhausted"``, ``"sweep limit reached"`` or ``"polish stalled"``.
    ``standard_errors`` (per free parameter, in its units) and
    ``condition_number`` (of the box-scaled Jacobian) come from the polish's
    last Jacobian, and are ``None`` if the fit stopped before the polish
    built one. A rank-deficient Jacobian has an infinite condition number,
    and an infinite standard error for each parameter in its null space."""

    params: dict[str, float]
    residual_sse: float
    iterations: int
    n_evals: int
    converged: bool
    stop_reason: str
    standard_errors: dict[str, float] | None = None
    condition_number: float | None = None



class _BudgetExhausted(Exception):
    pass


@dataclass
class _Tracker:
    """Makes every forward run of a fit: counts it against the budget, makes
    one :func:`objective` call, looked up at call time, and remembers the
    best point evaluated. The run's residuals are left in the calling
    thread's buffers (``_buffers(problem).out``). ``linearization`` holds the
    polish's last ``J^T J`` eigensystem with the SSE and sample count at its
    base point, for :func:`_uncertainty`."""

    problem: FitProblem
    budget: int
    n_evals: int = 0
    best_sse: float = math.inf
    best_params: dict[str, float] = field(default_factory=dict)
    linearization: tuple[list[float], list[list[float]], float, int] | None = None

    def __call__(self, params: Mapping[str, float]) -> float:
        if self.n_evals >= self.budget:
            raise _BudgetExhausted
        self.n_evals += 1
        value = objective(self.problem, params)
        if value < self.best_sse:
            self.best_sse = value
            self.best_params = dict(params)
        return value


def _golden_line(track: _Tracker, params: dict[str, float], name: str, lo: float, hi: float) -> None:
    """Golden-section search for ``name`` on [lo, hi] with the others fixed.
    Updates ``params`` in place to the best evaluated point (ties keep the
    smaller value; the tracker remembers the global best)."""
    best_x, best_f = params[name], track.best_sse if params == track.best_params else None
    if best_f is None:
        best_f = track({**params, name: best_x})

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = track({**params, name: c})
    fd = track({**params, name: d})
    for x, f in ((c, fc), (d, fd)):
        if f < best_f or (f == best_f and x < best_x):
            best_x, best_f = x, f
    # Shrink until the bracket is small against the box: the polish refines.
    tol = _LINE_TOLERANCE * (hi - lo)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = track({**params, name: c})
            x, f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = track({**params, name: d})
            x, f = d, fd
        if f < best_f or (f == best_f and x < best_x):
            best_x, best_f = x, f
    params[name] = best_x


def _eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvectors (the columns of the second result) of a
    small symmetric matrix by cyclic Jacobi rotations (Numerical Recipes
    section 11.1), in plain floats: the same bits whatever BLAS or LAPACK
    numpy links and however many threads it runs."""
    p = len(a)
    a = [row[:] for row in a]
    v = [[float(i == j) for j in range(p)] for i in range(p)]
    for _ in range(50):
        for i, j in itertools.combinations(range(p), 2):
            off = 100.0 * abs(a[i][j])
            if abs(a[i][i]) + off != abs(a[i][i]) or abs(a[j][j]) + off != abs(a[j][j]):
                theta = (a[j][j] - a[i][i]) / (2.0 * a[i][j])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for m in (a, v):  # columns i and j
                    for row in m:
                        row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
                a[i], a[j] = [c * x - s * y for x, y in zip(a[i], a[j])], [s * x + c * y for x, y in zip(a[i], a[j])]
            a[i][j] = a[j][i] = 0.0
        if not any(a[i][j] for i, j in itertools.combinations(range(p), 2)):
            break
    return [a[i][i] for i in range(p)], v


def _polish(track: _Tracker, params: dict[str, float]) -> str:
    """Projected Levenberg-Marquardt (More 1978) from ``params`` on the
    box-scaled parameters ``u = (x - lo) / (hi - lo)``; returns the stop
    reason and raises ``_BudgetExhausted`` from the tracker.

    Each iteration writes a forward-difference Jacobian into one (p, n)
    array, one forward run per free parameter in ``free`` order with a step
    of ``_DIFF_STEP`` of its box up (down where that would leave the box);
    eigendecomposes ``J^T J`` once, keeping it on the tracker; and solves
    the damped normal equations ``(J^T J + damping I) du = -J^T r`` for as
    many dampings as it needs. Every candidate is clipped to the box."""
    problem = track.problem
    out = _buffers(problem).out  # the residuals of the tracker's last run
    jacobian = np.empty((len(problem.free), len(out)))
    sse = track(params)
    r = out.copy()
    damping = None
    while True:
        for row, name in zip(jacobian, problem.free):
            lo, hi = problem.bounds[name]
            x = params[name]
            shifted = x + _DIFF_STEP * (hi - lo)
            if shifted > hi:
                shifted = x - _DIFF_STEP * (hi - lo)
            track({**params, name: shifted})
            np.subtract(out, r, out=row)
            row *= (hi - lo) / (shifted - x)
        vals, vecs = _eigh(pairwise_dots(jacobian[:, None], jacobian).tolist())
        vals = [max(val, 0.0) for val in vals]  # J^T J is positive semidefinite
        track.linearization = (vals, vecs, sse, len(r))
        grad = pairwise_dots(jacobian, r).tolist()
        if damping is None:
            damping = _INITIAL_DAMPING * max(vals) or 1.0
        for _ in range(_MAX_REJECTIONS):
            # du = -(J^T J + damping I)^-1 J^T r through the eigensystem
            coeffs = [sum(row[k] * g for row, g in zip(vecs, grad)) / (val + damping) for k, val in enumerate(vals)]
            trial = {}
            for name, row in zip(problem.free, vecs):
                lo, hi = problem.bounds[name]
                du = -sum(x * coeff for x, coeff in zip(row, coeffs))
                trial[name] = min(max(params[name] + du * (hi - lo), lo), hi)
            if all(abs(trial[name] - params[name]) <= _STEP_TOLERANCE * (hi - lo) for name, (lo, hi) in problem.bounds.items()):
                return "converged"
            sse_trial = track(trial)
            if sse_trial < sse:
                params, sse = trial, sse_trial
                np.copyto(r, out)
                damping /= _DAMPING_FACTOR
                break
            damping *= _DAMPING_FACTOR
        else:
            return "polish stalled"


def _uncertainty(
    problem: FitProblem, vals: list[float], vecs: list[list[float]], sse: float, n: int
) -> tuple[dict[str, float], float]:
    """Standard errors ``sqrt(diag(s2 (J^T J)^-1))`` with ``s2 = SSE / (n - p)``,
    scaled back from box units, and the condition number of ``J``, from the
    eigensystem of ``J^T J`` in box units (eigenvalues ``vals``, eigenvectors
    the columns of ``vecs``). A parameter with a share in a null direction
    of ``J`` has an infinite standard error, and a singular ``J`` an
    infinite condition number."""
    s2 = sse / (n - len(vals)) if n > len(vals) else math.inf
    standard_errors = {}
    for name, row in zip(problem.free, vecs):
        lo, hi = problem.bounds[name]
        variance = sum(x * x / val if val > 0.0 else math.inf for x, val in zip(row, vals) if x)
        standard_errors[name] = (hi - lo) * math.sqrt(s2 * variance) if variance < math.inf else math.inf
    return standard_errors, math.sqrt(max(vals) / min(vals)) if min(vals) > 0.0 else math.inf


def fit(problem: FitProblem, budget: int = DEFAULT_BUDGET) -> FitResult:
    """Minimize :func:`objective` in two stages.

    The global stage sweeps coordinate-wise golden-section line searches,
    each over its parameter's whole box, in the declared order. Once a sweep
    lowers the best SSE by at most ``HANDOVER_FRACTION`` of that sweep's
    starting SSE, a projected Levenberg-Marquardt polish starts from the best
    point; it converges when its step falls below ``_STEP_TOLERANCE`` of
    every box and stalls after ``_MAX_REJECTIONS`` rejected steps in a row.
    ``budget`` caps the forward runs of both stages together; reaching it, or
    ``MAX_SWEEPS`` sweeps without a handover, returns the best point so far
    with ``converged = False``.
    """
    track = _Tracker(problem=problem, budget=budget)
    params = {name: float(problem.init[name]) for name in problem.free}
    sweeps = 0
    reason = "sweep limit reached"
    try:
        before = track(params)
        while sweeps < MAX_SWEEPS:
            sweeps += 1
            for name in problem.free:
                lo, hi = problem.bounds[name]
                _golden_line(track, params, name, lo, hi)
            after = track.best_sse
            if before - after <= HANDOVER_FRACTION * before:
                reason = _polish(track, dict(track.best_params))
                break
            before = after
    except _BudgetExhausted:
        reason = "budget exhausted"
    standard_errors, condition_number = _uncertainty(problem, *track.linearization) if track.linearization else (None, None)
    return FitResult(
        params=dict(track.best_params) if track.best_params else params,
        residual_sse=track.best_sse,
        iterations=sweeps,
        n_evals=track.n_evals,
        converged=reason == "converged",
        stop_reason=reason,
        standard_errors=standard_errors,
        condition_number=condition_number,
    )


def generate_synthetic(
    spec: JointSpec,
    forces: Callable[[float], float],
    duration: float,
    dt: float,
    noise_sd: float = 0.0,
    seed: int = 0,
    q0: float = 0.0,
    s_open0: bool = False,
) -> Trajectory:
    """Simulate ``spec`` from rest at ``q0``, as a fit does, and return its
    position channel (named ``"<joint id>.q"``) with seeded Gaussian noise."""
    state0 = initial_state(spec, q=q0, s_open=s_open0)
    series = simulate_joint(spec, forces, duration=duration, dt=dt, state0=state0)
    q = np.fromiter((s.q for s in series), dtype=float, count=len(series))
    if noise_sd > 0.0:
        q = q + np.random.default_rng(seed).normal(0.0, noise_sd, size=len(q))
    times = np.arange(len(q), dtype=float) * dt
    return Trajectory(times=times, channels={f"{spec.id}.q": q})


# every fitspec key but "asset", "joint", "overrides" and "observed", which
# load_fitspec reads itself: paths resolve against the file, and the rest make
# the template. Read only: a FitProblem keeps its forces as a function.
_declare(
    FitProblem,
    {"free": _list_of(_STR), "bounds": _map_of(_PAIR), "init": _map_of(_FLOAT), "forces": _FORCE_PROFILE, "channel": _STR, "s_open0": _BOOL},
)


def load_fitspec(path: "str | Path") -> FitProblem:
    """Load a ``.fitspec.json`` file into a :class:`FitProblem`. ``asset`` and
    ``observed`` resolve relative to it; the template is the asset's ``joint``
    with ``overrides`` applied (:func:`~artjoint.dynamics.apply_params`).
    A shape error raises :class:`AssetSyntaxError` at its key, and so does a
    problem :class:`FitProblem` rejects, at ``fitspec``; an observed sample
    step above the guard raises :class:`UnstableDtError` at ``fitspec.observed``."""
    p = Path(path)
    root = _require_dict(_decode_json(p.read_text(encoding="utf-8"), str(p)), "fitspec")
    shape = _SHAPES[FitProblem]
    _check_keys(root, ("asset", "joint", "observed") + shape.required, shape.optional + ("overrides",), "fitspec")
    # parse_asset and import_csv are called through their modules, where the benchmark's tracer wraps them
    assembly = assets.parse_asset(p.parent / _as_str(root["asset"], "fitspec.asset"))
    joint_id = _as_str(root["joint"], "fitspec.joint")
    template = next((j for j in assembly.joints if j.id == joint_id), None)
    if template is None:
        raise UnknownJointError(f"fitspec joint '{joint_id}' not present in asset '{assembly.id}'")
    overrides = _map_of(_FLOAT).read(root.get("overrides", {}), "fitspec.overrides")
    args = shape.args(root, "fitspec.")
    # a bad box, start or parameter path (ValueError) is a syntax error in a file
    try:
        return FitProblem(
            observed=trajectory.import_csv(p.parent / _as_str(root["observed"], "fitspec.observed")),
            spec_template=apply_params(template, overrides),
            **args,
        )
    except UnstableDtError as exc:  # a fit steps at the observed sample step
        raise UnstableDtError(exc.message, "fitspec.observed") from None
    except ValueError as exc:
        raise AssetSyntaxError(str(exc), "fitspec") from None
