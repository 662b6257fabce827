"""Scenarios: placed assemblies, external force schedules, and the run loop.

A scenario file (``.scenario.json``) names the assets to place, the forces to
apply to joints over time, what to record, and optionally initial joint
states and an environment block. Everything is addressed by qualified refs:
``"<assembly>/<joint>"`` or ``"<assembly>/<marker>"``.

The runtime advances in segments, since only a tick where a
``ThresholdCrossed`` fires needs the behavior rules. Per segment: sample the
force schedules, step the joints the triggers watch, test each threshold rule
once for its first crossing, cut at the earliest, bring every joint to that
tick, fire the rules that cross there and apply their effects, then store the
values the recordings need. A segment of more than one tick, such as each of
:func:`run`'s, steps each joint with one ``dynamics._run`` call into float64
arrays, which ``run`` copies into its columns. A one-tick segment, the env's
tick, steps each joint through ``dynamics._advance`` in plain floats and
never loads the compiled stepper: the float64 buffers and ``ctypes``
conversions of a kernel call cost more than the one step they would carry.
Marker channels come after the run, from one forward-kinematics call per
placement over its whole joint series. For the env, the runtime keeps one
geometry memo: whenever the bits of the joint positions that place a marker
change, it walks the forward-kinematics plan it built for each placement with
a marker (the same walk ``forward_kinematics`` runs, without its
configuration check) and rebuilds one table of every marker's world point,
which every marker query reads. Runs are seedless and bit-deterministic: the
same scenario always yields the same bytes when exported.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Union

import numpy as np

from . import assets as assets_mod
from . import behaviors as bh
from . import dynamics, kinematics
from .assets import Assembly, JointSpec, Marker, _as_float, _as_str, _check_keys, _decode_json, _read_text, _require_dict
from .assets import _BOOL, _FLOAT, _PAIR, _SHAPES, _STR, _VEC3, _Codec, _declare, _list_of, _map_of, _plain, _record, _tagged
from .errors import AssetSyntaxError, UnknownJointError
from .geometry import Pose, Vec3, vec_cross, vec_sub
from .kinematics import find_marker, forward_kinematics
from .trajectory import Trajectory, check_csv_safe

# --------------------------------------------------------------------------
# force schedules


@dataclass(frozen=True)
class ConstantForce:
    """``value`` on ``[t_start, t_end)``, zero outside. Construction checks
    that ``value`` is finite and the edges are not NaN (``ValueError``); an
    edge may be infinite."""

    value: float
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self):
        _check_effort(self.value, (self.t_start, self.t_end))

    def value_at(self, t: float) -> float:
        return self.value if self.t_start <= t < self.t_end else 0.0

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """:meth:`value_at` at every sample time of ``t``, bit for bit."""
        return np.where((self.t_start <= t) & (t < self.t_end), self.value, 0.0)


@dataclass(frozen=True)
class PiecewiseForce:
    """Zero-order hold over ``steps`` of (time, value): the latest step at or
    before ``t`` applies; zero before the first; the last value holds on.
    Construction checks for at least one step, finite values and strictly
    increasing step times, none NaN (``ValueError``)."""

    steps: tuple[tuple[float, float], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = [t for t, _ in self.steps]
        if not self.steps:
            raise ValueError("piecewise profile needs at least one step")
        for t, value in self.steps:
            _check_effort(value, (t,))
        if ts != sorted(ts) or len(set(ts)) != len(ts):
            raise ValueError("piecewise step times must be strictly increasing")
        object.__setattr__(self, "_times", tuple(ts))

    def value_at(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        return self.steps[idx][1] if idx >= 0 else 0.0

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """:meth:`value_at` at every sample time of ``t``, bit for bit."""
        return np.array([0.0] + [v for _, v in self.steps])[np.searchsorted(self._times, t, side="right")]


ForceProfile = Union[ConstantForce, PiecewiseForce]


def _check_effort(value: float, times: tuple[float, ...]) -> None:
    """A profile's effort is finite and its times are not NaN (``ValueError``)."""
    if not math.isfinite(value):
        raise ValueError(f"force value must be finite, got {value}")
    if any(map(math.isnan, times)):
        raise ValueError("force window edges and step times must not be NaN")


@dataclass(frozen=True)
class ForceSchedule:
    joint: str  # qualified "assembly/joint"
    profile: ForceProfile


# --------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class Placement:
    name: str
    assembly: Assembly
    world_pose: Pose = Pose()
    asset_path: str = ""  # the "asset" file load_scenario read the assembly from, not a key


@dataclass(frozen=True)
class JointInit:
    q: float
    q_dot: float = 0.0
    s_open: bool = False


@dataclass(frozen=True)
class RewardParams:
    """The closure-task reward weights (see :mod:`artjoint.envs`), the
    record an env block's ``reward_weights`` holds; each key is optional."""

    lambda1: float = 0.5
    lambda2: float = 0.125
    lambda3: float = 10.0
    lambda4: float = -0.01


@dataclass(frozen=True)
class EnvConfig:
    """Environment block: goal joint, its handle marker, the point-agent
    effector parameters and the reward weights; its scenario checks it."""

    goal_joint: str
    handle_marker: str
    effector_start: Vec3
    action_max: float = 10.0
    contact_radius: float = 0.05
    reward_weights: RewardParams = RewardParams()


@dataclass(frozen=True)
class Scenario:
    """Placed assemblies, force schedules, recordings, initial states and an
    optional env block.

    Construction, ``dataclasses.replace`` included, checks every invariant:
    first the file reader's checks, on the written form of each placement
    (its ``assembly`` by type) and of every declared key but a ``None``
    ``env`` (``dt`` by :func:`dynamics.check_dt`); then unique slash-free
    assembly names, placed assemblies that pass :func:`assets.validate` and
    unit placement orientations (the assets' pose rule), a duration
    :func:`dynamics.steps_for` accepts, env limits > 0, initial positions
    within their joint's limits, unique and CSV-safe recordings, and that
    every ref resolves. It stores the read-back ``initial``, read-only.
    :meth:`joint` and :meth:`marker` are the only ref lookups.
    """

    assemblies: tuple[Placement, ...]
    duration: float
    dt: float = 0.001
    forces: tuple[ForceSchedule, ...] = ()
    recordings: tuple[str, ...] = ()
    initial: Mapping[str, JointInit] = field(default_factory=dict)
    env: "EnvConfig | None" = None
    _by_name: dict[str, Placement] = field(init=False, repr=False, compare=False)
    _joints: dict[str, JointSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read = {  # the file reader's checks, on the written form of each placement and declared key
            key: codec.read(codec.write(getattr(self, key)), key)
            for key, codec in _READ_BACK.items()
            if key != "env" or self.env is not None
        }
        object.__setattr__(self, "initial", MappingProxyType(read["initial"]))
        by_name: dict[str, Placement] = {}
        for i, pl in enumerate(self.assemblies):
            loc = f"assemblies[{i}].name"
            if "/" in pl.name or not pl.name:
                raise AssetSyntaxError(f"assembly name '{pl.name}' must be non-empty and slash-free", loc)
            if pl.name in by_name:
                raise AssetSyntaxError(f"duplicate assembly name '{pl.name}'", loc)
            by_name[pl.name] = pl
            report = assets_mod.ValidationReport(
                [replace(x, path=f"assemblies[{i}].assembly.{x.path}") for x in assets_mod.validate(pl.assembly)]
            )
            assets_mod._check_pose(report, pl.world_pose, f"assemblies[{i}].world_pose")
            assets_mod.raise_on_issues(report)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "_joints", {f"{pl.name}/{j.id}": j for pl in self.assemblies for j in pl.assembly.joints}
        )

        try:
            dynamics.steps_for(self.duration, self.dt)
        except ValueError as exc:
            raise AssetSyntaxError(str(exc), "duration") from None
        for schedule in self.forces:
            self.joint(schedule.joint)
        for ref, init in self.initial.items():
            lo, hi = self.joint(ref).bounds
            if not (lo <= init.q <= hi):
                raise AssetSyntaxError(f"initial q={init.q} outside limits [{lo}, {hi}]", f"initial['{ref}']")
        for i, ref in enumerate(self.recordings):
            if ref in self.recordings[:i]:
                raise AssetSyntaxError(f"duplicate recording '{ref}'", f"recordings[{i}]")
            try:
                check_csv_safe(ref)  # the stem of every channel name the recording writes
            except ValueError as exc:
                raise AssetSyntaxError(str(exc), f"recordings[{i}]") from None
            if ref not in self._joints:
                self.marker(ref)
        if self.env is not None:
            if self.env.action_max <= 0.0 or self.env.contact_radius <= 0.0:
                raise AssetSyntaxError("action_max and contact_radius must be > 0", "env")
            self.joint(self.env.goal_joint)
            self.marker(self.env.handle_marker)

    def _placement(self, ref: str) -> tuple[Placement, str]:
        if "/" not in ref:
            raise UnknownJointError(f"reference '{ref}' must look like '<assembly>/<joint-or-marker>'")
        name, local = ref.split("/", 1)
        if name not in self._by_name:
            raise UnknownJointError(f"reference '{ref}' names unknown assembly '{name}'")
        return self._by_name[name], local

    def joint(self, ref: str) -> JointSpec:
        """The joint ``assembly/joint`` names (:class:`UnknownJointError` if none)."""
        spec = self._joints.get(ref)
        if spec is None:
            pl, local = self._placement(ref)
            raise UnknownJointError(f"assembly '{pl.name}' has no joint '{local}' (reference '{ref}')")
        return spec

    def marker(self, ref: str) -> tuple[Placement, Marker]:
        """The placement and marker ``assembly/marker`` names
        (:class:`UnknownMarkerError` if none or ambiguous)."""
        pl, local = self._placement(ref)
        return pl, find_marker(pl.assembly, local)


# --------------------------------------------------------------------------
# loading


def _read_steps(value, loc: str) -> tuple[tuple[float, float], ...]:
    steps = _STEPS.read(value, loc)
    try:
        PiecewiseForce(steps)  # its own checks of the steps, reported here
    except ValueError as exc:
        raise AssetSyntaxError(str(exc), loc) from None
    return steps


def _read_edge(value, loc: str) -> float:
    """A force window edge: a number, infinite where the window is open on
    that side (as ``t_end`` is by default)."""
    return value if isinstance(value, float) and math.isinf(value) else _as_float(value, loc)


def _read_dt(value, loc: str) -> float:
    """A timestep :func:`dynamics.check_dt` accepts (a NaN one, which only code gives, is not > 0)."""
    dynamics.check_dt(value if isinstance(value, float) else _as_float(value, loc))
    return value


def _read_assembly(value, loc: str) -> Assembly:
    """A placed assembly, checked by type: :func:`assets.validate` checks the rest."""
    if not isinstance(value, Assembly):
        raise AssetSyntaxError(f"expected a record of type Assembly, got {type(value).__name__}", loc)
    return value


def _read_initial(value, loc: str) -> dict[str, JointInit]:
    return {ref: _SHAPES[JointInit].read(entry, f"{loc}['{ref}']") for ref, entry in _require_dict(value, loc).items()}


FORCE_PROFILE_TYPES = {"constant": ConstantForce, "piecewise": PiecewiseForce}

_STEPS = _list_of(_PAIR)
_FORCE_PROFILE = _tagged(FORCE_PROFILE_TYPES)
_EDGE = _Codec(_read_edge, _plain)
_declare(ConstantForce, {"value": _FLOAT, "t_start": _EDGE, "t_end": _EDGE})
_declare(PiecewiseForce, {"steps": _Codec(_read_steps, _STEPS.write)})
_declare(ForceSchedule, {"joint": _STR, "profile": _FORCE_PROFILE})
_declare(JointInit, {"q": _FLOAT, "q_dot": _FLOAT, "s_open": _BOOL})
_declare(RewardParams, {"lambda1": _FLOAT, "lambda2": _FLOAT, "lambda3": _FLOAT, "lambda4": _FLOAT})
_declare(
    EnvConfig,
    {
        "goal_joint": _STR,
        "handle_marker": _STR,
        "effector_start": _VEC3,
        "action_max": _FLOAT,
        "contact_radius": _FLOAT,
        "reward_weights": _record(RewardParams),
    },
)
# every key but "assemblies", which load_scenario reads itself because asset
# paths resolve against the scenario file's directory
_declare(
    Scenario,
    {
        "duration": _FLOAT,
        "dt": _Codec(_read_dt, _plain),
        "forces": _list_of(_record(ForceSchedule)),
        "recordings": _list_of(_STR),
        "initial": _Codec(_read_initial, _map_of(_record(JointInit)).write),
        "env": _record(EnvConfig),
    },
)
_declare(Placement, {"name": _STR, "assembly": _Codec(_read_assembly, _plain), "world_pose": _record(Pose)})
_READ_BACK = {"assemblies": _list_of(_record(Placement)), **_SHAPES[Scenario].codecs}


def _read_placement(value, loc: str, base: Path) -> Placement:
    data = _require_dict(value, loc)
    _check_keys(data, ("asset",), ("name", "world_pose"), loc)
    source = str(base / _as_str(data["asset"], f"{loc}.asset"))  # an absolute "asset" stays as it is
    # built unvalidated: Scenario validates every placed assembly once
    assembly = assets_mod.assembly_from_dict(_decode_json(_read_text(Path(source)), source), source)
    args = {"name": assembly.id, **_SHAPES[Placement].args(data, f"{loc}.")}
    return Placement(assembly=assembly, asset_path=source, **args)


def load_scenario(path: "str | Path") -> Scenario:
    """Load and cross-validate a ``.scenario.json`` file.

    Asset paths resolve relative to the scenario file. Raises
    :class:`AssetSyntaxError` for shape problems, the asset errors for broken
    assets, and UnknownJoint/UnknownMarker for dangling references.
    """
    p = Path(path)
    root = _require_dict(_decode_json(_read_text(p), str(p)), str(p))
    shape = _SHAPES[Scenario]
    _check_keys(root, ("assemblies",) + shape.required, shape.optional, str(p))
    placement = _Codec(lambda value, loc: _read_placement(value, loc, p.parent), _plain)
    placements = _list_of(placement).read(root["assemblies"], "assemblies")
    return Scenario(assemblies=placements, **shape.args(root, ""))


# --------------------------------------------------------------------------
# runtime

_CHUNK = 512  # the most ticks per segment: bounds the buffers


def _marker_point(pl: Placement, marker: Marker, poses: Mapping[str, Pose]) -> Vec3:
    """World position of ``marker`` given its placement's module poses."""
    return pl.world_pose.transform_point(poses[marker.module_id].transform_point(marker.local_point))


class ScenarioRuntime:
    """Mutable run state shared by :func:`run` and the manipulation env.

    Owns one live joint state per joint, bound behavior rules, property bag,
    and tick counter. ``states`` is a read-only mapping: write a state's
    fields, never replace it, as the runtime holds the same objects
    elsewhere. :meth:`advance` moves the states in place a segment at a
    time: between firings the joints are independent, as effects never set
    ``q`` or ``q_dot`` and a ``SignalReceived`` fires only in the tick of an
    emit. Marker geometry at the live joint positions is one memo, read by
    every marker query: the bits of the positions of the plan joints of the
    placements with a marker, those placements' module poses, and
    :meth:`marker_table`.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.joints = scenario._joints
        self.joint_records = {ref: dynamics.joint_record(joint) for ref, joint in self.joints.items()}
        states: dict[str, dynamics.JointState] = {}
        for ref, joint in self.joints.items():
            init = scenario.initial.get(ref) or JointInit(q=min(max(0.0, joint.q_lower_bound), joint.q_upper_bound))
            states[ref] = dynamics.initial_state(joint, q=init.q, q_dot=init.q_dot, s_open=init.s_open)
        self._states = states  # what _segments iterates: the proxy costs a call per lookup
        self.states: Mapping[str, dynamics.JointState] = MappingProxyType(states)
        self.rules = bh.bind({pl.name: pl.assembly for pl in scenario.assemblies})
        self.properties: dict[str, Union[float, bool]] = {}
        self._profiles: dict[str, list[ForceProfile]] = {}
        for schedule in scenario.forces:
            self._profiles.setdefault(schedule.joint, []).append(schedule.profile)
        self._thresholds = [rule for rule in self.rules if isinstance(rule.trigger, bh.ThresholdCrossed)]
        # the joints a trigger watches step first in a segment: they decide the cut
        self._watched = {rule.trigger.joint: states[rule.trigger.joint] for rule in self._thresholds}
        self._others = {ref: state for ref, state in states.items() if ref not in self._watched}
        #: every (placement, marker) pair of the scenario, the keys of :meth:`marker_table`
        self.markers = tuple((pl, marker) for pl in scenario.assemblies for marker in pl.assembly.markers())
        # the geometry memo's inputs: each placement with a marker and its FK
        # plan, the live state of every joint of those plans in plan order,
        # and the packer of their positions' bits, the memo key
        self._plans = tuple((pl, kinematics.fk_plan(pl.assembly)) for pl in {pl.name: pl for pl, _ in self.markers}.values())
        self._plan_states = tuple(states[f"{pl.name}/{step.joint.id}"] for pl, plan in self._plans for step in plan.joints)
        self._pack = struct.Struct(f"{len(self._plan_states)}d").pack
        # placement -> child module -> the plan joint that places it
        self._parent_joint = {pl.name: {step.child: step for step in plan.joints} for pl, plan in self._plans}
        # (position bits, placement -> module poses, marker table); None: not built yet
        self._geometry: tuple["bytes | None", dict[str, dict[str, Pose]], tuple[Vec3, ...]] = (None, {}, ())
        self.k = 0  # completed ticks

    @property
    def t(self) -> float:
        return self.k * self.scenario.dt

    def scheduled_forces(self, k0: int, n: int) -> dict[str, np.ndarray]:
        """Each scheduled joint's forces on ticks ``k0 .. k0 + n - 1``, bit for
        bit ``sum(p.value_at(k * dt) for p in profiles)`` at each tick ``k``."""
        if not self._profiles:
            return {}
        t = np.arange(k0, k0 + n) * self.scenario.dt
        return {ref: sum((p.values_at(t) for p in ps), np.zeros(n)) for ref, ps in self._profiles.items()}

    def tick(self, extra_forces: "Mapping[str, float] | None" = None) -> list[bh.EventRecord]:
        """Advance one step: ``advance(1, extra_forces)``."""
        return self.advance(1, extra_forces)

    def advance(self, n_ticks: int, extra_forces: "Mapping[str, float] | None" = None) -> list[bh.EventRecord]:
        """Advance ``n_ticks`` steps, adding the per-joint ``extra_forces`` to
        the schedules on each, and return their behavior event records."""
        return [record for *_, records in self._segments(n_ticks, extra_forces or {}) for record in records]

    def _segments(self, n_ticks: int, extra_forces: Mapping[str, float]) -> Iterator[tuple[int, dict, dict, list]]:
        """Advance ``n_ticks`` steps, yielding each segment's length ``m``,
        per joint its positions and velocities at the segment's start and
        after each of its ``m`` ticks, and its records. A segment ends at a
        cut or after ``_CHUNK`` ticks. One ``bh.first_crossing`` per
        threshold rule is its only crossing test: the earliest hit is the
        cut, and the rules hit there are those ``bh.evaluate`` fires. How a
        segment steps its joints: see the module doc."""
        dt, joint_records, states = self.scenario.dt, self.joint_records, self._states
        end = self.k + n_ticks
        while self.k < end:
            n = min(end - self.k, _CHUNK)
            forces = self.scheduled_forces(self.k, n)
            if n == 1:  # the env's tick: plain floats (see the module doc)
                forces = {ref: f.item() for ref, f in forces.items()}
                for ref, value in extra_forces.items():
                    forces[ref] = forces.get(ref, 0.0) + float(value)
                q, q_dot = {}, {}
                for ref, state in states.items():
                    q[ref], q_dot[ref] = [state.q], [state.q_dot]
                    dynamics._advance(joint_records[ref], state, (forces.get(ref, 0.0),), dt, q[ref], q_dot[ref])
                m = 1  # the one tick is the cut: every rule that crosses in it fires
                fired = [rule for rule in self._thresholds if bh.first_crossing(rule.trigger, q[rule.trigger.joint])]
            else:
                zeros = np.zeros(n)
                for ref, value in extra_forces.items():
                    forces[ref] = forces.get(ref, zeros) + float(value)
                q, q_dot = {ref: np.empty(n + 1) for ref in states}, {ref: np.empty(n + 1) for ref in states}
                start = {ref: (s.q, s.q_dot, s.regime, s.held_target) for ref, s in self._watched.items()}
                for ref, state in self._watched.items():
                    dynamics._run(joint_records[ref], state, forces.get(ref, zeros), dt, q[ref], q_dot[ref])
                hits = [bh.first_crossing(rule.trigger, q[rule.trigger.joint]) for rule in self._thresholds]
                m = min((i for i in hits if i is not None), default=n)
                if m < n:  # a cut: step the watched joints again from the start, to the firing tick
                    for ref, state in self._watched.items():
                        state.q, state.q_dot, state.regime, state.held_target = start[ref]
                        dynamics._run(joint_records[ref], state, forces.get(ref, zeros)[:m], dt, q[ref], q_dot[ref])
                for ref, state in self._others.items():
                    dynamics._run(joint_records[ref], state, forces.get(ref, zeros)[:m], dt, q[ref], q_dot[ref])
                fired = [rule for rule, i in zip(self._thresholds, hits) if i == m]
            self.k += m
            effects, records = bh.evaluate(self.rules, fired, self.t)
            if effects:
                bh.apply(effects, states, self.properties)
            yield m, q, q_dot, records

    # -- geometry -------------------------------------------------------------

    def marker_table(self) -> tuple[Vec3, ...]:
        """World position of each of :attr:`markers` at the live joint
        positions, in that order; callers must not rely on it after the
        state moves.

        The geometry memo: it walks again, one unchecked
        ``kinematics.plan_poses`` call per placement with a marker (the
        dynamics keep every position within its limits), only when the
        exact bits of those placements' joint positions change (``-0.0``
        and ``0.0`` differ), so it follows any in-place write to a ``q``.
        The poses equal :func:`~artjoint.kinematics.forward_kinematics` at
        those positions.
        """
        q = [state.q for state in self._plan_states]
        bits = self._pack(*q)
        if bits != self._geometry[0]:
            values = iter(q)
            poses = {pl.name: kinematics.plan_poses(plan, [next(values) for _ in plan.joints]) for pl, plan in self._plans}
            self._geometry = bits, poses, tuple(_marker_point(pl, m, poses[pl.name]) for pl, m in self.markers)
        return self._geometry[2]

    def marker_position(self, ref: str) -> Vec3:
        """World position (including the placement pose) of ``assembly/marker``."""
        return self.marker_table()[self.markers.index(self.scenario.marker(ref))]

    def marker_jacobian(self, ref: str) -> dict[str, Vec3]:
        """:meth:`table_jacobian` of the marker ``assembly/marker`` names."""
        return self.table_jacobian(self.markers.index(self.scenario.marker(ref)))

    def table_jacobian(self, i: int) -> dict[str, Vec3]:
        """d(world position of ``markers[i]``)/d(q_j) for every joint on the
        marker's root path: the joint's world axis for prismatic, axis ×
        lever arm for revolute."""
        pl, marker = self.markers[i]
        point = self.marker_table()[i]
        poses = self._geometry[1][pl.name]
        parent_joint = self._parent_joint[pl.name]
        columns: dict[str, Vec3] = {}
        module_id = marker.module_id
        while module_id in parent_joint:
            joint, module_id, _, _ = parent_joint[module_id]
            parent_pose = pl.world_pose.compose(poses[module_id])
            axis_w = parent_pose.rotate(joint.axis)
            if joint.kind == assets_mod.PRISMATIC:
                columns[f"{pl.name}/{joint.id}"] = axis_w
            else:
                arm = vec_sub(point, parent_pose.transform_point(joint.anchor))
                columns[f"{pl.name}/{joint.id}"] = vec_cross(axis_w, arm)
        return columns


# --------------------------------------------------------------------------
# run


def run(scenario: Scenario) -> tuple[Trajectory, bh.EventLog]:
    """Run to ``duration`` and return the recorded trajectory and event log.

    The series includes the initial sample: ``steps_for(duration, dt) + 1``
    rows, sample k at ``t = k * dt``, recorded after that tick's effects.
    Each runtime segment fills its rows of the joint columns: ``(q, q_dot)``
    of every recorded joint and ``q`` of every joint of a placement with a
    recorded marker. After the run, one forward-kinematics call per such
    placement over its whole ``q`` series gives the marker channels, equal
    sample for sample to :meth:`ScenarioRuntime.marker_position`.
    """
    runtime = ScenarioRuntime(scenario)
    n = dynamics.steps_for(scenario.duration, scenario.dt)
    channels: dict[str, np.ndarray] = {}  # in recording order; marker channels are filled after the run
    q_series: dict[str, np.ndarray] = {}
    q_dot_series: dict[str, np.ndarray] = {}
    marked: dict[str, tuple[Placement, list[tuple[str, Marker]]]] = {}  # name -> placement, its recorded markers
    for ref in scenario.recordings:
        if ref in runtime.joints:
            state = runtime.states[ref]  # sample 0; the segments fill the rest
            channels[f"{ref}.q"] = q_series[ref] = np.full(n + 1, state.q)
            channels[f"{ref}.q_dot"] = q_dot_series[ref] = np.full(n + 1, state.q_dot)
        else:
            pl, marker = scenario.marker(ref)
            marked.setdefault(pl.name, (pl, []))[1].append((ref, marker))
            channels.update(dict.fromkeys((f"{ref}.x", f"{ref}.y", f"{ref}.z")))
    for pl, _ in marked.values():
        for joint in pl.assembly.joints:
            ref = f"{pl.name}/{joint.id}"
            q_series.setdefault(ref, np.full(n + 1, runtime.states[ref].q))
    log = bh.EventLog()
    k = 1  # the first row a segment fills
    for m, q, q_dot, records in runtime._segments(n, {}):
        log.extend(records)
        for ref, column in q_series.items():
            column[k : k + m] = q[ref][1 : m + 1]
        for ref, column in q_dot_series.items():
            column[k : k + m] = q_dot[ref][1 : m + 1]
        k += m

    for pl, recorded in marked.values():
        poses = forward_kinematics(pl.assembly, {j.id: q_series[f"{pl.name}/{j.id}"] for j in pl.assembly.joints})
        for ref, marker in recorded:
            for axis, x in zip("xyz", _marker_point(pl, marker, poses)):
                # a module that no joint moves has float coordinates: a constant column
                channels[f"{ref}.{axis}"] = x if isinstance(x, np.ndarray) else np.full(n + 1, x)
    times = np.arange(n + 1, dtype=float) * scenario.dt
    return Trajectory(times=times, channels=channels), log
