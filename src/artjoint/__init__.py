"""Deterministic simulation of articulated-object joints.

The package models single-degree-of-freedom joints (drawers, doors, lids,
buttons) with position-dependent stiffness, latch-style hysteretic targets
and stick/slip friction; assemblies of rigid modules connected by such
joints; event-driven behavior rules (threshold triggers, signal chains);
scenario files that run several assemblies under scheduled external forces;
a small manipulation environment with a shaped reward; and parameter
identification from recorded trajectories.
"""

from .assets import (
    PRISMATIC,
    REVOLUTE,
    Assembly,
    ConstantStiffness,
    FixedTarget,
    JointSpec,
    LatchTarget,
    Marker,
    RigidModule,
    StiffnessSchedule,
    ValidationIssue,
    ValidationReport,
    assembly_from_dict,
    assembly_to_dict,
    parse_asset,
    parse_asset_text,
    serialize_asset,
    validate,
)
from .behaviors import (
    BehaviorRule,
    EmitSignal,
    EventLog,
    EventRecord,
    SetFixedTarget,
    SetOpenState,
    SetProperty,
    SignalReceived,
    ThresholdCrossed,
    bind,
)
from .dynamics import (
    DT_MAX,
    JointState,
    Regime,
    drive_effort,
    friction_effort,
    initial_state,
    simulate_joint,
    steps_for,
    step,
    stiffness_at,
    target_at,
)
from .envs import ManipulationEnv, RewardInputs, RewardParams, closure_fraction, reward
from .errors import (
    ActionOutOfBoundsError,
    ArtjointError,
    AssetSyntaxError,
    AssetValidationError,
    CyclicStructureError,
    DisjointTimeSpansError,
    InsufficientDataError,
    InvalidLimitsError,
    MalformedCsvError,
    MissingModuleError,
    NonPositiveDtError,
    NonUnitAxisError,
    SignalLoopError,
    UnknownJointError,
    UnknownMarkerError,
    UnresolvedReferenceError,
    UnstableDtError,
)
from .geometry import IDENTITY_POSE, Pose
from .kinematics import forward_kinematics, joint_transform, marker_world
from .scenario import (
    ConstantForce,
    EnvConfig,
    ForceSchedule,
    JointInit,
    PiecewiseForce,
    Placement,
    Scenario,
    ScenarioRuntime,
    load_scenario,
    run,
)
from .sysid import FitProblem, FitResult, apply_params, fit, generate_synthetic, objective
from .trajectory import (
    ChannelStats,
    ComparisonResult,
    Trajectory,
    average,
    compare,
    export_csv,
    import_csv,
)

__version__ = "0.1.0"

__all__ = [
    "PRISMATIC",
    "REVOLUTE",
    "DT_MAX",
    "IDENTITY_POSE",
    "__version__",
    # assets
    "Assembly",
    "ConstantStiffness",
    "FixedTarget",
    "JointSpec",
    "LatchTarget",
    "Marker",
    "RigidModule",
    "StiffnessSchedule",
    "ValidationIssue",
    "ValidationReport",
    "assembly_from_dict",
    "assembly_to_dict",
    "parse_asset",
    "parse_asset_text",
    "serialize_asset",
    "validate",
    # behaviors
    "BehaviorRule",
    "EmitSignal",
    "EventLog",
    "EventRecord",
    "SetFixedTarget",
    "SetOpenState",
    "SetProperty",
    "SignalReceived",
    "ThresholdCrossed",
    "bind",
    # dynamics
    "JointState",
    "Regime",
    "drive_effort",
    "friction_effort",
    "initial_state",
    "simulate_joint",
    "step",
    "steps_for",
    "stiffness_at",
    "target_at",
    # envs
    "ManipulationEnv",
    "RewardInputs",
    "RewardParams",
    "closure_fraction",
    "reward",
    # errors
    "ActionOutOfBoundsError",
    "ArtjointError",
    "AssetSyntaxError",
    "AssetValidationError",
    "CyclicStructureError",
    "DisjointTimeSpansError",
    "InsufficientDataError",
    "InvalidLimitsError",
    "MalformedCsvError",
    "MissingModuleError",
    "NonPositiveDtError",
    "NonUnitAxisError",
    "SignalLoopError",
    "UnknownJointError",
    "UnknownMarkerError",
    "UnresolvedReferenceError",
    "UnstableDtError",
    # geometry / kinematics
    "Pose",
    "forward_kinematics",
    "joint_transform",
    "marker_world",
    # scenario
    "ConstantForce",
    "EnvConfig",
    "ForceSchedule",
    "JointInit",
    "PiecewiseForce",
    "Placement",
    "Scenario",
    "ScenarioRuntime",
    "load_scenario",
    "run",
    # sysid
    "FitProblem",
    "FitResult",
    "apply_params",
    "fit",
    "generate_synthetic",
    "objective",
    # trajectory
    "ChannelStats",
    "ComparisonResult",
    "Trajectory",
    "average",
    "compare",
    "export_csv",
    "import_csv",
]
