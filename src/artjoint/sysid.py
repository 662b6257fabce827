"""Parameter identification for a single joint from an observed trajectory.

A :class:`FitProblem` pairs an observed position series with a joint spec
template and a set of free parameter paths (e.g. ``"damping_D"``,
``"stiffness.k_max"``). The objective forward-simulates the candidate at the
observed sample times and sums squared position error. :func:`fit` minimizes
it by coordinate-wise golden-section line searches over the parameter boxes,
restarting the sweep over the full box until a sweep improves the SSE by less
than 1e-8 relative; the evaluation budget (default 5000) and the sweep limit
(60) return best-so-far with ``converged = False`` when reached. Everything is
deterministic: ties inside a line search keep the smaller parameter value.

Simulation convention: the forward run starts at rest at the first observed
sample (``q0 = observed[0]``, ``q_dot0 = 0``), with the open flag from the
problem (default closed).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .assets import JointSpec, ValidationReport, check_joint
from .dynamics import check_dt, initial_state, rollout, simulate_joint, steps_for
from .errors import InsufficientDataError
from .trajectory import Trajectory

MIN_OBSERVED_SAMPLES = 10
DEFAULT_BUDGET = 5000
SWEEP_RELATIVE_TOLERANCE = 1e-8
MAX_SWEEPS = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # interval shrink ratio per iteration


@dataclass
class FitProblem:
    """One-joint identification problem.

    ``free`` lists parameter paths on the spec template; every free parameter
    needs a box in ``bounds`` and a start in ``init`` (inside the box), and
    both name free parameters only. The joint must pass
    :func:`~artjoint.assets.check_joint` everywhere in the box, and the
    observed sample step must pass :func:`~artjoint.dynamics.check_dt`.
    ``channel`` defaults to the observed trajectory's single channel.
    """

    observed: Trajectory
    forces: Callable[[float], float]  # or any object with a value_at(t) method
    spec_template: JointSpec
    free: Sequence[str]
    bounds: Mapping[str, tuple[float, float]]
    init: Mapping[str, float]
    channel: str = ""
    s_open0: bool = False
    # forces at the simulated step times, sampled on first use; replace()
    # leaves it unset, so a changed schedule or trajectory is sampled afresh
    _force_samples: tuple[float, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if hasattr(self.forces, "value_at"):
            self.forces = self.forces.value_at
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
            self.channel = names[0]
        if self.channel not in self.observed.channels:
            raise ValueError(f"observed trajectory has no channel '{self.channel}'")
        steps = np.diff(self.observed.times)
        if len(steps) == 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("observed trajectory must be uniformly sampled")
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

    @property
    def dt(self) -> float:
        return float(self.observed.times[1] - self.observed.times[0])

    def _sampled_forces(self) -> tuple[float, ...]:
        """``forces(k * dt)`` for every step of the forward run over the
        observed window, sampled once per problem at the times
        :func:`simulate_joint` samples."""
        if self._force_samples is None:
            dt = self.dt
            n = steps_for((len(self.observed) - 1) * dt, dt)
            self._force_samples = tuple(self.forces(k * dt) for k in range(n))
        return self._force_samples


@functools.cache
def _numeric_fields(cls: type) -> frozenset[str]:
    """The fields of record class ``cls`` a parameter path may set: those
    annotated ``float``."""
    return frozenset(f.name for f in dataclasses.fields(cls) if f.type in ("float", float))


def apply_params(spec: JointSpec, params: Mapping[str, float]) -> JointSpec:
    """Return a copy of ``spec`` with dotted parameter paths replaced (e.g.
    ``"mu_s"``, ``"stiffness.k_low"``); a path must name a float field of the
    spec or, as ``component.leaf``, of one of its components."""
    top: dict[str, float] = {}
    nested: dict[str, dict[str, float]] = {}
    for path, value in params.items():
        if "." in path:
            head, leaf = path.split(".", 1)
            if "." in leaf:
                raise ValueError(f"parameter path '{path}' nests too deep")
            nested.setdefault(head, {})[leaf] = value
        else:
            top[path] = value
    numeric = _numeric_fields(type(spec))
    for name in top:
        if name not in numeric:
            raise ValueError(f"spec has no parameter '{name}'")
    out = dataclasses.replace(spec, **top)
    for head, leaves in nested.items():
        component = getattr(out, head) if head in out.__dataclass_fields__ else None
        if not dataclasses.is_dataclass(component):
            raise ValueError(f"spec has no component '{head}'")
        for leaf in leaves:
            if leaf not in _numeric_fields(type(component)):
                raise ValueError(f"spec component '{head}' has no parameter '{leaf}'")
        out = dataclasses.replace(out, **{head: dataclasses.replace(component, **leaves)})
    return out


def objective(problem: FitProblem, params: Mapping[str, float]) -> float:
    """Sum of squared position error of the candidate's forward simulation at
    the observed sample times. The simulation is
    :func:`~artjoint.dynamics.rollout` on the problem's memoized force
    samples: the stepper the scenario runtime uses, keeping positions only."""
    spec = apply_params(problem.spec_template, params)
    observed = problem.observed.channels[problem.channel]
    n = len(observed)
    dt = problem.dt
    q0 = float(observed[0])
    q0 = min(max(q0, spec.q_lower_bound), spec.q_upper_bound)
    state0 = initial_state(spec, q=q0, s_open=problem.s_open0)
    sim = rollout(spec, problem._sampled_forces(), dt, state0)
    diff = sim[:n] - observed
    return float(np.dot(diff, diff))


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    residual_sse: float
    iterations: int
    n_evals: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


@dataclass
class _Tracker:
    fn: Callable[[Mapping[str, float]], float]
    budget: int
    n_evals: int = 0
    best_sse: float = math.inf
    best_params: dict[str, float] = field(default_factory=dict)

    def __call__(self, params: Mapping[str, float]) -> float:
        if self.n_evals >= self.budget:
            raise _BudgetExhausted
        self.n_evals += 1
        value = self.fn(params)
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
    # Shrink until the bracket is negligible relative to the box.
    tol = 1e-7 * (hi - lo)
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


def fit(problem: FitProblem, budget: int = DEFAULT_BUDGET) -> FitResult:
    """Coordinate-wise golden-section refinement with full-box restarts.

    Each sweep line-searches every free parameter over its whole box (the
    restart), in the declared order. Converged when a full sweep improves the
    best SSE by less than ``SWEEP_RELATIVE_TOLERANCE`` relative to the
    problem's scale (the larger of the SSE at ``init`` and the current SSE, so
    near-exact fits terminate instead of chasing rounding noise). Hitting
    ``budget`` objective evaluations or ``MAX_SWEEPS`` sweeps returns the
    best-so-far with ``converged = False``.
    """
    track = _Tracker(fn=lambda p: objective(problem, p), budget=budget)
    params = {name: float(problem.init[name]) for name in problem.free}
    converged = False
    sweeps = 0
    try:
        before = track(params)
        scale = before
        while sweeps < MAX_SWEEPS:
            sweeps += 1
            for name in problem.free:
                lo, hi = problem.bounds[name]
                _golden_line(track, params, name, lo, hi)
            after = track.best_sse
            if before - after <= SWEEP_RELATIVE_TOLERANCE * max(scale, after):
                converged = True
                break
            before = after
    except _BudgetExhausted:
        converged = False
    best = dict(track.best_params) if track.best_params else dict(params)
    return FitResult(
        params=best,
        residual_sse=track.best_sse,
        iterations=sweeps,
        n_evals=track.n_evals,
        converged=converged,
    )


def generate_synthetic(
    spec: JointSpec,
    forces: Callable[[float], float],
    duration: float,
    dt: float,
    noise_sd: float = 0.0,
    seed: int = 0,
    q0: float = 0.0,
    q_dot0: float = 0.0,
    s_open0: bool = False,
) -> Trajectory:
    """Simulate ``spec`` and return its position channel (named
    ``"<joint id>.q"``) with seeded Gaussian noise added."""
    state0 = initial_state(spec, q=q0, q_dot=q_dot0, s_open=s_open0)
    series = simulate_joint(spec, forces, duration=duration, dt=dt, state0=state0)
    q = np.fromiter((s.q for s in series), dtype=float, count=len(series))
    if noise_sd > 0.0:
        q = q + np.random.default_rng(seed).normal(0.0, noise_sd, size=len(q))
    times = np.arange(len(q), dtype=float) * dt
    return Trajectory(times=times, channels={f"{spec.id}.q": q})
