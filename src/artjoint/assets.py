"""Articulated-object assets: rigid modules connected by driven joints.

An assembly is a tree of :class:`RigidModule` nodes whose edges are
:class:`JointSpec` joints (prismatic or revolute). Assets round-trip through
a strict JSON format (``.artjoint.json``): unknown keys are rejected, every
number is written with shortest round-trip precision, and
``parse_asset(serialize_asset(a))`` reproduces ``a`` exactly.

Frame conventions: a joint's ``axis`` and ``anchor`` are expressed in the
parent module's frame; ``rest_pose`` is the child's pose relative to the
parent module (relative to ``base_frame`` for the root module).
"""

from __future__ import annotations

import dataclasses
import json
import keyword
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Union

from . import behaviors as bh
from .errors import (
    AssetSyntaxError,
    AssetValidationError,
    CyclicStructureError,
    InvalidLimitsError,
    MissingModuleError,
    NonUnitAxisError,
    UnresolvedReferenceError,
)
from .geometry import IDENTITY_POSE, Pose, Vec3, quat_norm, vec_norm

UNIT_TOLERANCE = 1e-9

PRISMATIC = "prismatic"
REVOLUTE = "revolute"
JOINT_KINDS = (PRISMATIC, REVOLUTE)


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Marker:
    """A named point on a module, in that module's local frame (meters)."""

    module_id: str
    name: str
    local_point: Vec3


@dataclass(frozen=True)
class RigidModule:
    id: str
    mass: float  # kg, > 0
    rest_pose: Pose = IDENTITY_POSE
    markers: tuple[Marker, ...] = ()
    affordance_label: str = ""


@dataclass(frozen=True)
class ConstantStiffness:
    k: float


@dataclass(frozen=True)
class StiffnessSchedule:
    """Position-dependent drive stiffness.

    Within ``(q_lower_bound, q_threshold]`` the profile is a linear fall-off
    from ``k_high`` when the joint is flagged open, and ``k_low`` plus an
    exponential surge ``k_max * exp(-lambda_ * (q - q_lower_bound))`` when it
    is not (the door-closer ramp). ``k_high`` holds at the lower bound and
    ``k_low`` beyond the threshold. See ``dynamics.stiffness_at``.
    """

    k_high: float
    k_low: float
    k_max: float
    alpha: float
    lambda_: float
    q_threshold: float


StiffnessProfile = Union[ConstantStiffness, StiffnessSchedule]


@dataclass(frozen=True)
class FixedTarget:
    q_target: float


@dataclass(frozen=True)
class LatchTarget:
    """Open/closed-dependent drive target with hysteresis.

    Targets the upper bound when the joint is past ``q_threshold`` and open,
    the lower bound when below and not open, and otherwise holds the
    previously evaluated target. See ``dynamics.target_at``.
    """

    q_threshold: float


TargetPolicy = Union[FixedTarget, LatchTarget]


@dataclass(frozen=True)
class JointSpec:
    """One driven degree of freedom connecting two modules.

    ``axis``/``anchor`` live in the parent module's frame; ``axis`` must be
    unit length. Position units are meters (prismatic) or radians (revolute);
    efforts are N or N·m accordingly. ``damping_D`` doubles as the kinetic
    friction coefficient, and the breakaway threshold while at rest is
    ``mu_s * |tau_drive| + coulomb_floor``.
    """

    id: str
    kind: str  # "prismatic" | "revolute"
    parent_module: str
    child_module: str
    axis: Vec3
    anchor: Vec3 = (0.0, 0.0, 0.0)
    q_lower_bound: float = 0.0
    q_upper_bound: float = 1.0
    damping_D: float = 0.0
    mu_s: float = 0.0
    coulomb_floor: float = 0.0
    effective_inertia: float = 1.0
    stiffness: StiffnessProfile = ConstantStiffness(0.0)
    target_policy: TargetPolicy = FixedTarget(0.0)
    target_velocity: float = 0.0

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.q_lower_bound, self.q_upper_bound)


@dataclass(frozen=True)
class Assembly:
    id: str
    root_module: str
    modules: tuple[RigidModule, ...]
    joints: tuple[JointSpec, ...] = ()
    behaviors: tuple[bh.BehaviorRule, ...] = ()
    category: str = ""
    base_frame: Pose = IDENTITY_POSE

    def module(self, module_id: str) -> RigidModule:
        for m in self.modules:
            if m.id == module_id:
                return m
        raise KeyError(f"no module '{module_id}' in assembly '{self.id}'")

    def joint(self, joint_id: str) -> JointSpec:
        for j in self.joints:
            if j.id == joint_id:
                return j
        raise KeyError(f"no joint '{joint_id}' in assembly '{self.id}'")

    def markers(self) -> tuple[Marker, ...]:
        return tuple(marker for m in self.modules for marker in m.markers)


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    path: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __iter__(self):
        return iter(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def add(self, code: str, path: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, path, message))


def _check_pose(report: ValidationReport, pose: Pose, path: str) -> None:
    if abs(quat_norm(pose.orientation) - 1.0) > UNIT_TOLERANCE:
        report.add("non-unit-quaternion", path, f"orientation is not unit length: {pose.orientation}")


def check_joint(report: ValidationReport, joint: JointSpec, path: str) -> None:
    """The rules one joint satisfies on its own: unit axis, ordered limits,
    positive inertia, non-negative friction and stiffness parameters, and
    thresholds and fixed targets within the limits."""
    if abs(vec_norm(joint.axis) - 1.0) > UNIT_TOLERANCE:
        report.add("non-unit-axis", f"{path}.axis", f"joint '{joint.id}' axis is not unit length: {joint.axis}")
    lo, hi = joint.q_lower_bound, joint.q_upper_bound
    if not (lo < hi):
        report.add("invalid-limits", path, f"joint '{joint.id}' requires q_lower_bound < q_upper_bound, got [{lo}, {hi}]")
    if not (joint.effective_inertia > 0.0):
        report.add("non-positive-inertia", path, f"joint '{joint.id}' effective_inertia must be > 0")
    for name in ("damping_D", "mu_s", "coulomb_floor"):
        if getattr(joint, name) < 0.0:
            report.add("negative-parameter", f"{path}.{name}", f"joint '{joint.id}' {name} must be >= 0")

    st = joint.stiffness
    if isinstance(st, ConstantStiffness):
        if st.k < 0.0:
            report.add("invalid-stiffness", f"{path}.stiffness", f"joint '{joint.id}' constant stiffness must be >= 0")
    else:
        for name in ("k_high", "k_low", "k_max", "alpha", "lambda_"):
            if getattr(st, name) < 0.0:
                report.add("invalid-stiffness", f"{path}.stiffness", f"joint '{joint.id}' schedule {name} must be >= 0")
        if st.k_low > st.k_high:
            report.add("invalid-stiffness", f"{path}.stiffness", f"joint '{joint.id}' schedule requires k_low <= k_high")
        if lo < hi and not (lo <= st.q_threshold <= hi):
            report.add("threshold-out-of-range", f"{path}.stiffness", f"joint '{joint.id}' stiffness q_threshold {st.q_threshold} outside [{lo}, {hi}]")

    tp = joint.target_policy
    if isinstance(tp, FixedTarget):
        if lo < hi and not (lo <= tp.q_target <= hi):
            report.add("target-out-of-limits", f"{path}.target_policy", f"joint '{joint.id}' fixed target {tp.q_target} outside [{lo}, {hi}]")
    else:
        if lo < hi and not (lo <= tp.q_threshold <= hi):
            report.add("threshold-out-of-range", f"{path}.target_policy", f"joint '{joint.id}' latch q_threshold {tp.q_threshold} outside [{lo}, {hi}]")


def validate(assembly: Assembly) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises.

    Covered: unique ids, tree-ness rooted at root_module, positive masses and
    inertias, unit axes (1e-9), ordered limits, non-negative
    friction/stiffness parameters, thresholds and fixed targets within
    limits, unit quaternions, marker-name uniqueness per module, and behavior
    rules with unique ids, in-limit fixed targets, and the reference and
    effect-list rules of :func:`behaviors.rule_issues`.
    """
    report = ValidationReport()
    module_ids = [m.id for m in assembly.modules]
    module_set = set(module_ids)

    if not assembly.modules:
        report.add("missing-module", "modules", "assembly has no modules")
    for i, mid in enumerate(module_ids):
        if module_ids.index(mid) != i:
            report.add("duplicate-id", f"modules[{i}]", f"duplicate module id '{mid}'")
    if assembly.root_module not in module_set:
        report.add("missing-module", "root_module", f"root module '{assembly.root_module}' not defined")

    _check_pose(report, assembly.base_frame, "base_frame")
    for i, module in enumerate(assembly.modules):
        path = f"modules[{i}]"
        if not (module.mass > 0.0):
            report.add("non-positive-mass", path, f"module '{module.id}' mass must be > 0, got {module.mass}")
        _check_pose(report, module.rest_pose, f"{path}.rest_pose")
        seen = set()
        for marker in module.markers:
            if marker.module_id != module.id:
                report.add("missing-module", path, f"marker '{marker.name}' carries module_id '{marker.module_id}'")
            if marker.name in seen:
                report.add("duplicate-marker", path, f"duplicate marker name '{marker.name}' on module '{module.id}'")
            seen.add(marker.name)

    joint_ids = [j.id for j in assembly.joints]
    for i, jid in enumerate(joint_ids):
        if joint_ids.index(jid) != i:
            report.add("duplicate-id", f"joints[{i}]", f"duplicate joint id '{jid}'")

    parent_of: dict[str, str] = {}
    for i, joint in enumerate(assembly.joints):
        path = f"joints[{i}]"
        for end, mid in (("parent_module", joint.parent_module), ("child_module", joint.child_module)):
            if mid not in module_set:
                report.add("missing-module", f"{path}.{end}", f"joint '{joint.id}' references unknown module '{mid}'")
        if joint.child_module in parent_of:
            report.add("cyclic-structure", path, f"module '{joint.child_module}' has more than one parent joint")
        parent_of[joint.child_module] = joint.parent_module
        if joint.child_module == assembly.root_module:
            report.add("cyclic-structure", path, f"root module '{assembly.root_module}' cannot be a joint child")

        check_joint(report, joint, path)

    # Tree check: every non-root module reachable from the root through joints.
    if assembly.root_module in module_set:
        children: dict[str, list[str]] = {}
        for joint in assembly.joints:
            children.setdefault(joint.parent_module, []).append(joint.child_module)
        reached = set()
        stack = [assembly.root_module]
        while stack:
            mid = stack.pop()
            if mid in reached:
                continue  # a cycle re-visiting; flagged below by parent counts
            reached.add(mid)
            stack.extend(children.get(mid, ()))
        unreachable = [mid for mid in module_ids if mid not in reached]
        for mid in unreachable:
            report.add("cyclic-structure", "modules", f"module '{mid}' is not reachable from root '{assembly.root_module}'")

    limits = {j.id: (j.q_lower_bound, j.q_upper_bound) for j in assembly.joints}
    rule_ids = set()
    for i, rule in enumerate(assembly.behaviors):
        path = f"behaviors[{i}]"
        if rule.id in rule_ids:
            report.add("duplicate-id", path, f"duplicate rule id '{rule.id}'")
        rule_ids.add(rule.id)
        for code, suffix, message in bh.rule_issues(rule, limits.keys(), module_set):
            report.add(code, path + suffix, message)
        for k, effect in enumerate(rule.effects):
            if isinstance(effect, bh.SetFixedTarget) and effect.joint in limits:
                lo, hi = limits[effect.joint]
                if not (lo <= effect.q_target <= hi):
                    report.add("target-out-of-limits", f"{path}.effects[{k}]", f"rule '{rule.id}' sets target {effect.q_target} outside [{lo}, {hi}] of joint '{effect.joint}'")
    return report


_RAISE_BY_CODE = {
    "missing-module": MissingModuleError,
    "invalid-limits": InvalidLimitsError,
    "cyclic-structure": CyclicStructureError,
    "non-unit-axis": NonUnitAxisError,
    "unresolved-reference": UnresolvedReferenceError,
    "empty-effects": UnresolvedReferenceError,
}


def raise_on_issues(report: ValidationReport) -> None:
    """Raise the typed error for the first issue of a failed report."""
    if report.ok:
        return
    first = report.issues[0]
    cls = _RAISE_BY_CODE.get(first.code, AssetValidationError)
    extra = f" (+{len(report.issues) - 1} more issue(s))" if len(report.issues) > 1 else ""
    raise cls(f"{first.path}: {first.message}{extra}")


# --------------------------------------------------------------------------
# strict JSON reading helpers


def _reject_constant(text: str):
    raise AssetSyntaxError(f"non-finite JSON constant '{text}' is not allowed", "")


def _decode_json(text: str, source: str) -> Any:
    """Decode the text of an asset, scenario or fitspec file: malformed JSON
    and the non-finite constants ``NaN``/``Infinity`` raise
    :class:`AssetSyntaxError`."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise AssetSyntaxError(str(exc), source) from None


def _require_dict(value: Any, loc: str) -> dict:
    if not isinstance(value, dict):
        raise AssetSyntaxError(f"expected an object, got {type(value).__name__}", loc)
    return value


def _require_list(value: Any, loc: str) -> list:
    if not isinstance(value, list):
        raise AssetSyntaxError(f"expected an array, got {type(value).__name__}", loc)
    return value


def _check_keys(data: dict, required: tuple, optional: tuple, loc: str) -> None:
    for key in required:
        if key not in data:
            raise AssetSyntaxError(f"missing required key '{key}'", loc)
    allowed = set(required) | set(optional)
    unknown = [k for k in data if k not in allowed]
    if unknown:
        raise AssetSyntaxError(f"unknown key(s) {unknown}", loc)


def _as_str(value: Any, loc: str) -> str:
    if not isinstance(value, str):
        raise AssetSyntaxError(f"expected a string, got {type(value).__name__}", loc)
    return value


def _as_bool(value: Any, loc: str) -> bool:
    if not isinstance(value, bool):
        raise AssetSyntaxError(f"expected a boolean, got {type(value).__name__}", loc)
    return value


def _as_float(value: Any, loc: str) -> float:
    # bool is an int subclass; reject it as a number explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AssetSyntaxError(f"expected a number, got {type(value).__name__}", loc)
    out = float(value)
    if not math.isfinite(out):
        raise AssetSyntaxError(f"number must be finite, got {out}", loc)
    return out


def _as_vec(value: Any, n: int, loc: str) -> tuple:
    items = _require_list(value, loc)
    if len(items) != n:
        raise AssetSyntaxError(f"expected {n} numbers, got {len(items)}", loc)
    return tuple(_as_float(v, f"{loc}[{i}]") for i, v in enumerate(items))


# --------------------------------------------------------------------------
# record codec: each file record class declares its JSON shape once
#
# A shape lists the record's JSON keys in file order, each with a codec: a
# reader ``(value, location) -> field value`` and a writer ``field value ->
# JSON value``. Parsing, serialization and defaults all follow from it: a key
# is required exactly when its dataclass field has no default, and an absent
# optional key is not passed, so the dataclass default applies.


class _Codec(NamedTuple):
    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]


def _field_name(key: str) -> str:
    """The field a JSON key fills: the key itself, with an underscore
    appended where it is a Python keyword (``lambda`` -> ``lambda_``)."""
    return key + "_" if keyword.iskeyword(key) else key


class _Shape:
    def __init__(self, cls: type, codecs: dict[str, _Codec]):
        has_default = {
            f.name: f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
            for f in dataclasses.fields(cls)
        }
        self.cls = cls
        self.codecs = codecs
        self.names = {key: _field_name(key) for key in codecs}
        self.required = tuple(key for key, name in self.names.items() if not has_default[name])
        self.optional = tuple(key for key, name in self.names.items() if has_default[name])

    def args(self, data: dict, prefix: str) -> dict:
        """Constructor arguments from the keys present in ``data`` (already
        checked); key ``k`` is read at location ``prefix + k``."""
        return {self.names[key]: codec.read(data[key], prefix + key) for key, codec in self.codecs.items() if key in data}

    def read(self, value: Any, loc: str) -> Any:
        data = _require_dict(value, loc)
        _check_keys(data, self.required, self.optional, loc)
        return self.cls(**self.args(data, f"{loc}."))

    def write(self, obj: Any) -> dict:
        return {key: codec.write(getattr(obj, self.names[key])) for key, codec in self.codecs.items()}


_SHAPES: dict[type, _Shape] = {}


def _declare(cls: type, codecs: dict[str, _Codec]) -> None:
    _SHAPES[cls] = _Shape(cls, codecs)


def _write(obj: Any) -> dict:
    return _SHAPES[type(obj)].write(obj)


def _plain(value: Any) -> Any:
    return value


def _as_flag_or_float(value: Any, loc: str) -> Union[float, bool]:
    return value if isinstance(value, bool) else _as_float(value, loc)


_STR = _Codec(_as_str, _plain)
_FLOAT = _Codec(_as_float, _plain)
_BOOL = _Codec(_as_bool, _plain)
_PAIR = _Codec(lambda value, loc: _as_vec(value, 2, loc), list)
_VEC3 = _Codec(lambda value, loc: _as_vec(value, 3, loc), list)
_QUAT = _Codec(lambda value, loc: _as_vec(value, 4, loc), list)


def _record(cls: type) -> _Codec:
    """A nested record; ``cls`` must be declared already."""
    return _Codec(_SHAPES[cls].read, _write)


def _list_of(item: _Codec) -> _Codec:
    return _Codec(
        lambda value, loc: tuple(item.read(v, f"{loc}[{i}]") for i, v in enumerate(_require_list(value, loc))),
        lambda items: [item.write(v) for v in items],
    )


def _map_of(item: _Codec) -> _Codec:
    """An object of free-form keys; key ``k`` is read at ``loc.k``."""
    return _Codec(
        lambda value, loc: {key: item.read(v, f"{loc}.{key}") for key, v in _require_dict(value, loc).items()},
        lambda items: {key: item.write(v) for key, v in items.items()},
    )


def _one_of(choices: tuple[str, ...]) -> _Codec:
    def read(value: Any, loc: str) -> str:
        text = _as_str(value, loc)
        if text not in choices:
            raise AssetSyntaxError(f"expected one of {choices}, got '{text}'", loc)
        return text

    return _Codec(read, _plain)


def _tagged(types: dict[str, type]) -> _Codec:
    """A tagged union, written ``{"type": tag, ...fields}``; ``types`` maps
    each tag to its record class."""
    tags = {cls: tag for tag, cls in types.items()}

    def read(value: Any, loc: str) -> Any:
        data = _require_dict(value, loc)
        tag = _as_str(data.get("type", ""), f"{loc}.type")
        if tag not in types:
            raise AssetSyntaxError(f"unknown type '{tag}', expected one of {list(types)}", loc)
        return _SHAPES[types[tag]].read({k: v for k, v in data.items() if k != "type"}, loc)

    return _Codec(read, lambda obj: {"type": tags[type(obj)], **_write(obj)})


STIFFNESS_TYPES = {"constant": ConstantStiffness, "schedule": StiffnessSchedule}
TARGET_POLICY_TYPES = {"fixed": FixedTarget, "latch": LatchTarget}

_declare(Pose, {"position": _VEC3, "orientation": _QUAT})
_declare(Marker, {"module_id": _STR, "name": _STR, "local_point": _VEC3})
_declare(RigidModule, {"id": _STR, "mass": _FLOAT, "rest_pose": _record(Pose), "affordance_label": _STR})
_declare(ConstantStiffness, {"k": _FLOAT})
_declare(
    StiffnessSchedule,
    {"k_high": _FLOAT, "k_low": _FLOAT, "k_max": _FLOAT, "alpha": _FLOAT, "lambda": _FLOAT, "q_threshold": _FLOAT},
)
_declare(FixedTarget, {"q_target": _FLOAT})
_declare(LatchTarget, {"q_threshold": _FLOAT})
_declare(
    JointSpec,
    {
        "id": _STR,
        "kind": _one_of(JOINT_KINDS),
        "parent_module": _STR,
        "child_module": _STR,
        "axis": _VEC3,
        "anchor": _VEC3,
        "q_lower_bound": _FLOAT,
        "q_upper_bound": _FLOAT,
        "damping_D": _FLOAT,
        "mu_s": _FLOAT,
        "coulomb_floor": _FLOAT,
        "effective_inertia": _FLOAT,
        "stiffness": _tagged(STIFFNESS_TYPES),
        "target_policy": _tagged(TARGET_POLICY_TYPES),
        "target_velocity": _FLOAT,
    },
)
_declare(bh.ThresholdCrossed, {"joint": _STR, "value": _FLOAT, "direction": _one_of(bh.DIRECTIONS)})
_declare(bh.SignalReceived, {"name": _STR})
_declare(bh.SetOpenState, {"joint": _STR, "value": _BOOL})
_declare(bh.SetFixedTarget, {"joint": _STR, "q_target": _FLOAT})
_declare(bh.EmitSignal, {"name": _STR})
_declare(bh.SetProperty, {"target": _STR, "key": _STR, "value": _Codec(_as_flag_or_float, _plain)})
_declare(
    bh.BehaviorRule,
    {"id": _STR, "trigger": _tagged(bh.TRIGGER_TYPES), "effects": _list_of(_tagged(bh.EFFECT_TYPES))},
)
# every key but "markers": the file keeps all markers in one top-level list,
# which assembly_from_dict and assembly_to_dict move into and out of modules
_declare(
    Assembly,
    {
        "id": _STR,
        "category": _STR,
        "base_frame": _record(Pose),
        "root_module": _STR,
        "modules": _list_of(_record(RigidModule)),
        "joints": _list_of(_record(JointSpec)),
        "behaviors": _list_of(_record(bh.BehaviorRule)),
    },
)
_MARKERS = _list_of(_record(Marker))


def assembly_from_dict(data: Any, source: str = "<data>") -> Assembly:
    """Build an Assembly from decoded JSON, strictly (unknown keys rejected).

    Raises :class:`AssetSyntaxError` for shape problems and
    :class:`MissingModuleError` for markers naming modules that don't exist.
    No other semantic validation happens here — see :func:`validate`.
    """
    root = _require_dict(data, source)
    shape = _SHAPES[Assembly]
    _check_keys(root, shape.required, shape.optional + ("markers",), source)
    args = shape.args(root, "")

    markers_by_module: dict[str, list[Marker]] = {m.id: [] for m in args["modules"]}
    for i, marker in enumerate(_MARKERS.read(root.get("markers", []), "markers")):
        if marker.module_id not in markers_by_module:
            raise MissingModuleError(f"markers[{i}]: marker '{marker.name}' references unknown module '{marker.module_id}'")
        markers_by_module[marker.module_id].append(marker)
    args["modules"] = tuple(
        dataclasses.replace(m, markers=tuple(markers_by_module[m.id])) for m in args["modules"]
    )
    return Assembly(**args)


def parse_asset_text(text: str, source: str = "<text>") -> Assembly:
    """Parse asset JSON text into a fully validated Assembly.

    Raises :class:`AssetSyntaxError` (malformed JSON/shape) or the typed
    validation error for the first failed invariant (MissingModuleError,
    InvalidLimitsError, CyclicStructureError, NonUnitAxisError, or
    AssetValidationError).
    """
    assembly = assembly_from_dict(_decode_json(text, source), source)
    raise_on_issues(validate(assembly))
    return assembly


def parse_asset(path: "str | Path") -> Assembly:
    """Load and validate a ``.artjoint.json`` file. See :func:`parse_asset_text`."""
    p = Path(path)
    return parse_asset_text(p.read_text(encoding="utf-8"), source=str(p))


# --------------------------------------------------------------------------
# serialization


def assembly_to_dict(assembly: Assembly) -> dict:
    return {**_write(assembly), "markers": _MARKERS.write(assembly.markers())}


def serialize_asset(assembly: Assembly) -> str:
    """Encode an assembly as canonical asset JSON.

    Numbers are emitted with shortest round-trip precision (Python float
    repr), so ``parse_asset_text(serialize_asset(a)) == a`` exactly.
    """
    return json.dumps(assembly_to_dict(assembly), indent=2, allow_nan=False) + "\n"
