"""Scenario loading, the segmented runtime, recordings, and force schedules."""

import dataclasses
import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import assets, cli
from artjoint import fixtures as fx
from artjoint import scenario as scenario_mod
from artjoint.geometry import quat_from_axis_angle

from conftest import with_marker_point


def load(name):
    return aj.load_scenario(fx.scenario_path(name))


def simple_scenario(assembly, *, duration=1.0, dt=0.001, forces=(), recordings=(), initial=None):
    return aj.Scenario(
        assemblies=(aj.Placement(name=assembly.id, assembly=assembly),),
        duration=duration,
        dt=dt,
        forces=tuple(forces),
        recordings=tuple(recordings),
        initial=initial or {},
    )


# ---------------------------------------------------------------------------
# force profiles


def test_constant_force_window_is_half_open():
    f = aj.ConstantForce(value=2.0, t_start=0.5, t_end=2.5)
    assert f.value_at(0.499) == 0.0
    assert f.value_at(0.5) == 2.0
    assert f.value_at(2.499) == 2.0
    assert f.value_at(2.5) == 0.0
    assert aj.ConstantForce(value=1.0).value_at(1e9) == 1.0  # open-ended by default


def test_piecewise_force_zero_order_hold():
    f = aj.PiecewiseForce(steps=((0.5, 1.0), (1.0, -2.0), (2.0, 0.25)))
    assert f.value_at(0.0) == 0.0  # before the first step
    assert f.value_at(0.5) == 1.0
    assert f.value_at(0.999) == 1.0
    assert f.value_at(1.0) == -2.0
    assert f.value_at(5.0) == 0.25  # last value holds on


def test_piecewise_steps_must_increase():
    with pytest.raises(ValueError):
        aj.PiecewiseForce(steps=((1.0, 0.0), (0.5, 1.0)))
    with pytest.raises(ValueError):
        aj.PiecewiseForce(steps=())


def test_piecewise_step_time_error_is_reported_at_the_steps(tmp_path):
    profile = {"type": "piecewise", "steps": [[0.0, 1.0], [0.5, 2.0], [0.5, 3.0]]}
    with pytest.raises(aj.AssetSyntaxError, match="strictly increasing") as exc:
        write_and_load(tmp_path, scenario_dict(forces=[{"joint": "drawer/slide", "profile": profile}]))
    assert exc.value.location == "forces[0].profile.steps"


# code-built profiles the file reader would refuse: a non-finite effort, or a
# NaN window edge or step time
@pytest.mark.parametrize(
    "make",
    [
        lambda: aj.ConstantForce(value=math.nan),
        lambda: aj.ConstantForce(value=math.inf),
        lambda: aj.ConstantForce(value=-math.inf, t_end=1.0),
        lambda: aj.ConstantForce(value=2.0, t_start=math.nan),
        lambda: aj.ConstantForce(value=2.0, t_end=math.nan),
        lambda: dataclasses.replace(aj.ConstantForce(value=2.0), value=math.nan),
        lambda: aj.PiecewiseForce(steps=((0.0, math.nan),)),
        lambda: aj.PiecewiseForce(steps=((0.0, 2.0), (0.5, math.inf))),
        lambda: aj.PiecewiseForce(steps=((0.0, 2.0), (math.nan, 1.0))),
        lambda: aj.PiecewiseForce(steps=((math.nan, 2.0),)),
    ],
    ids=["nan", "inf", "-inf", "nan-start", "nan-end", "replace", "nan-step", "inf-step", "nan-time", "nan-first-time"],
)
def test_force_profile_rejects_a_non_finite_effort_or_a_nan_time(make):
    with pytest.raises(ValueError, match="force value must be finite|force window edges and step times must not be NaN"):
        make()


def test_force_profile_edges_may_be_infinite():
    always = aj.ConstantForce(value=2.0, t_start=-math.inf, t_end=math.inf)
    assert always.value_at(-1e300) == always.value_at(1e300) == 2.0
    assert aj.PiecewiseForce(steps=((-math.inf, 1.0), (0.5, 2.0))).value_at(-1e300) == 1.0


# ---------------------------------------------------------------------------
# loading and validation


def test_load_drawer_scenario():
    scenario = load("drawer")
    assert scenario.duration == 4.0
    assert scenario.dt == 0.001
    assert scenario.recordings == ("drawer/slide", "drawer/handle")
    assert scenario.forces[0].joint == "drawer/slide"
    assert scenario.initial["drawer/slide"].q == 0.0


def scenario_dict(**overrides):
    data = {
        "assemblies": [{"asset": str(fx.asset_path("drawer"))}],
        "duration": 1.0,
        "recordings": ["drawer/slide"],
    }
    data.update(overrides)
    return data


def write_and_load(tmp_path, data):
    path = tmp_path / "case.scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return aj.load_scenario(path)


def test_asset_paths_resolve_relative_to_scenario_file(tmp_path, drawer):
    asset = tmp_path / "nested" / "asset.artjoint.json"
    asset.parent.mkdir()
    asset.write_text(aj.serialize_asset(drawer), encoding="utf-8")
    data = scenario_dict(assemblies=[{"asset": "nested/asset.artjoint.json"}])
    scenario = write_and_load(tmp_path, data)
    assert scenario.assemblies[0].assembly == drawer
    # every optional key left out takes the default of the code-built Scenario
    scenario = write_and_load(tmp_path, {"assemblies": [{"asset": "nested/asset.artjoint.json"}], "duration": 1.0})
    placement = aj.Placement(name=drawer.id, assembly=drawer, asset_path=str(asset))
    assert scenario == aj.Scenario(assemblies=(placement,), duration=1.0)


def test_unknown_force_joint_rejected(tmp_path):
    data = scenario_dict(forces=[{"joint": "drawer/bogus", "profile": {"type": "constant", "value": 1.0}}])
    with pytest.raises(aj.UnknownJointError, match="bogus"):
        write_and_load(tmp_path, data)


def test_unknown_assembly_in_ref_rejected(tmp_path, drawer):
    data = scenario_dict(recordings=["cupboard/slide"])
    with pytest.raises(aj.UnknownJointError, match="cupboard"):
        write_and_load(tmp_path, data)
    with pytest.raises(aj.UnknownJointError, match="nope"):
        simple_scenario(drawer, recordings=("nope/slide",))


def test_unknown_marker_recording_rejected(tmp_path):
    data = scenario_dict(recordings=["drawer/fingerprint"])
    with pytest.raises(aj.UnknownMarkerError, match="fingerprint"):
        write_and_load(tmp_path, data)


def test_bare_reference_rejected(tmp_path):
    data = scenario_dict(recordings=["slide"])
    with pytest.raises(aj.UnknownJointError, match="assembly"):
        write_and_load(tmp_path, data)


def test_dt_guards(tmp_path):
    with pytest.raises(aj.NonPositiveDtError):
        write_and_load(tmp_path, scenario_dict(dt=0.0))
    with pytest.raises(aj.AssetSyntaxError, match="stability"):
        write_and_load(tmp_path, scenario_dict(dt=0.02))
    with pytest.raises(aj.AssetSyntaxError):
        write_and_load(tmp_path, scenario_dict(duration=-1.0))
    scenario = write_and_load(tmp_path, scenario_dict())
    with pytest.raises(aj.AssetSyntaxError, match="stability"):
        dataclasses.replace(scenario, dt=0.02)
    for duration in (0.0, math.nan, math.inf, 1e308):
        with pytest.raises(aj.AssetSyntaxError, match="duration"):
            dataclasses.replace(scenario, duration=duration)
    with pytest.raises(aj.NonPositiveDtError):
        dataclasses.replace(scenario, dt=math.nan)
    env_scenario = load("trashcan_env")
    with pytest.raises(aj.AssetSyntaxError, match="contact_radius"):
        dataclasses.replace(env_scenario, env=dataclasses.replace(env_scenario.env, contact_radius=-1.0))
    with pytest.raises(aj.AssetSyntaxError, match="outside limits") as exc:
        write_and_load(tmp_path, scenario_dict(initial={"drawer/slide": {"q": 5.0}}))
    assert exc.value.location == "initial['drawer/slide']"
    assert cli.main(["simulate", str(tmp_path / "case.scenario.json"), "--out", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


def env_block():
    return {"goal_joint": "drawer/slide", "handle_marker": "drawer/handle", "effector_start": [0.0, 0.0, 0.0]}


def test_unknown_scenario_key_rejected(tmp_path):
    with pytest.raises(aj.AssetSyntaxError, match="gravity"):
        write_and_load(tmp_path, scenario_dict(gravity=9.81))
    profile = {"type": "constant", "value": 1.0, "gravity": 9.81}
    with pytest.raises(aj.AssetSyntaxError, match="gravity") as exc:
        write_and_load(tmp_path, scenario_dict(forces=[{"joint": "drawer/slide", "profile": profile}]))
    assert exc.value.location == "forces[0].profile"
    with pytest.raises(aj.AssetSyntaxError, match="gravity") as exc:
        write_and_load(tmp_path, scenario_dict(env={**env_block(), "gravity": 9.81}))
    assert exc.value.location == "env"
    with pytest.raises(aj.AssetSyntaxError, match=r"unknown key\(s\) \['nope'\]") as exc:
        write_and_load(tmp_path, scenario_dict(env={**env_block(), "reward_weights": {"nope": 1.0}}))
    assert exc.value.location == "env.reward_weights"
    with pytest.raises(aj.AssetSyntaxError, match="expected a number, got str") as exc:
        write_and_load(tmp_path, scenario_dict(env={**env_block(), "reward_weights": {"lambda3": "high"}}))
    assert exc.value.location == "env.reward_weights.lambda3"
    scenario = write_and_load(tmp_path, scenario_dict(env={**env_block(), "reward_weights": {"lambda3": 0.0}}))
    assert scenario.env.reward_weights == aj.RewardParams(lambda3=0.0)
    with pytest.raises(TypeError):
        aj.RewardParams(nope=1.0)  # in code, an unknown weight has no name to go under


def test_initial_states_and_reward_weights_are_read_only_copies(drawer):
    initial = {"drawer/slide": aj.JointInit(q=0.1)}
    env = aj.EnvConfig(goal_joint="drawer/slide", handle_marker="drawer/handle", effector_start=(0.0, 0.0, 0.0), reward_weights=aj.RewardParams(lambda3=0.0))
    scenario = dataclasses.replace(simple_scenario(drawer, initial=initial), env=env)
    with pytest.raises(TypeError):
        scenario.initial["drawer/slide"] = aj.JointInit(q=9.0)  # would get past the limit check
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.env.reward_weights.lambda3 = math.nan  # would get past the reader's finite check
    initial["drawer/slide"] = aj.JointInit(q=9.0)
    assert dict(scenario.initial) == {"drawer/slide": aj.JointInit(q=0.1)}
    longer = dataclasses.replace(scenario, duration=2.0)
    assert (longer.initial, longer.env) == (scenario.initial, scenario.env)
    with pytest.raises(TypeError):
        longer.initial["drawer/slide"] = aj.JointInit(q=9.0)
    document = json.loads(json.dumps(assets._write(scenario)))
    assert document["initial"] == {"drawer/slide": {"q": 0.1, "q_dot": 0.0, "s_open": False}}
    assert document["env"]["reward_weights"] == {"lambda1": 0.5, "lambda2": 0.125, "lambda3": 0.0, "lambda4": -0.01}
    assert aj.Scenario(assemblies=scenario.assemblies, **assets._SHAPES[aj.Scenario].args(document, "")) == scenario


def test_missing_required_scenario_key_rejected(tmp_path):
    data = scenario_dict()
    del data["duration"]
    with pytest.raises(aj.AssetSyntaxError, match="duration"):
        write_and_load(tmp_path, data)
    profile = {"type": "piecewise"}
    with pytest.raises(aj.AssetSyntaxError, match="steps") as exc:
        write_and_load(tmp_path, scenario_dict(forces=[{"joint": "drawer/slide", "profile": profile}]))
    assert exc.value.location == "forces[0].profile"
    env = env_block()
    del env["effector_start"]
    with pytest.raises(aj.AssetSyntaxError, match="effector_start") as exc:
        write_and_load(tmp_path, scenario_dict(env=env))
    assert exc.value.location == "env"
    env = write_and_load(tmp_path, scenario_dict(env=env_block())).env
    assert env == aj.EnvConfig("drawer/slide", "drawer/handle", (0.0, 0.0, 0.0))


def test_duplicate_assembly_names_rejected(tmp_path):
    asset = str(fx.asset_path("drawer"))
    data = scenario_dict(assemblies=[{"asset": asset}, {"asset": asset}])
    with pytest.raises(aj.AssetSyntaxError, match="duplicate"):
        write_and_load(tmp_path, data)
    data = scenario_dict(recordings=["drawer/slide", "drawer/handle", "drawer/slide"])
    with pytest.raises(aj.AssetSyntaxError, match="duplicate recording 'drawer/slide'") as exc:
        write_and_load(tmp_path, data)
    assert exc.value.location == "recordings[2]"
    assert cli.main(["simulate", str(tmp_path / "case.scenario.json"), "--out", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name", ["draw,er", "draw\ner", "draw\rer", 'draw"er'])
def test_recording_with_a_csv_unsafe_name_rejected(tmp_path, drawer, name):
    data = scenario_dict(assemblies=[{"asset": str(fx.asset_path("drawer")), "name": name}], recordings=[f"{name}/slide"])
    with pytest.raises(aj.AssetSyntaxError, match="CSV-safe") as exc:
        write_and_load(tmp_path, data)
    assert exc.value.location == "recordings[0]"
    placement = aj.Placement(name=name, assembly=drawer)
    aj.Scenario(assemblies=(placement,), duration=1.0)  # the name alone is fine; recording under it is not
    with pytest.raises(aj.AssetSyntaxError, match="CSV-safe"):
        aj.Scenario(assemblies=(placement,), duration=1.0, recordings=(f"{name}/handle",))


def test_code_built_scenario_rejects_an_invalid_assembly(trashcan):
    lid = dataclasses.replace(trashcan.joint("lid"), axis=(2.0, 0.0, 0.0))
    bent = dataclasses.replace(trashcan, joints=tuple(lid if j.id == "lid" else j for j in trashcan.joints))
    with pytest.raises(aj.NonUnitAxisError, match=r"^assemblies\[0\]\.assembly\.joints\[\d\]\.axis: joint 'lid' axis"):
        simple_scenario(bent, duration=0.1)


@pytest.mark.parametrize(
    "change, path",
    [
        (lambda a: dataclasses.replace(a, joints=(dataclasses.replace(a.joints[0], damping_D=math.inf),)), "joints[0].damping_D"),
        (lambda a: with_marker_point(a, (0.22, math.inf, 0.1)), "markers[0].local_point[1]"),
    ],
    ids=["damping_D", "marker"],
)
def test_code_built_scenario_rejects_a_non_finite_asset_number(drawer, change, path):
    # either would run to NaN channels
    with pytest.raises(aj.AssetValidationError, match=r"must be finite, got inf") as exc:
        simple_scenario(change(drawer), duration=0.01, forces=[aj.ForceSchedule("drawer/slide", aj.ConstantForce(value=2.0))])
    assert str(exc.value).startswith(f"assemblies[0].assembly.{path}: ")


@pytest.mark.parametrize(
    "orientation, error, match",
    [
        pytest.param((0.0, 2.0, 0.0, 0.0), aj.AssetValidationError, r"^assemblies\[0\]\.world_pose: orientation is not unit length", id="orientation0"),
        pytest.param((0.0, 0.0, 0.0, 0.0), aj.AssetValidationError, r"^assemblies\[0\]\.world_pose: orientation is not unit length", id="orientation1"),
        # a NaN shows no length the unit rule can read: the reader refuses the number
        pytest.param((math.nan, 1.0, 0.0, 0.0), aj.AssetSyntaxError, r"^assemblies\[0\]\.world_pose\.orientation\[0\]: number must be finite", id="orientation2"),
    ],
)
def test_code_built_scenario_rejects_a_non_unit_placement_orientation(trashcan, orientation, error, match):
    scenario = simple_scenario(trashcan, duration=0.1)
    bent = dataclasses.replace(scenario.assemblies[0], world_pose=aj.Pose(orientation=orientation))
    with pytest.raises(error, match=match):
        dataclasses.replace(scenario, assemblies=(bent,))


@pytest.mark.parametrize("position", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
def test_code_built_scenario_rejects_a_non_finite_placement_position(drawer, position):
    # either would run to NaN marker channels
    scenario = simple_scenario(drawer, duration=0.1, recordings=("drawer/handle",))
    moved = dataclasses.replace(scenario.assemblies[0], world_pose=aj.Pose(position=position))
    with pytest.raises(aj.AssetSyntaxError, match="number must be finite") as exc:
        dataclasses.replace(scenario, assemblies=(moved,))
    axis = next(i for i, x in enumerate(position) if not math.isfinite(x))
    assert exc.value.location == f"assemblies[0].world_pose.position[{axis}]"


ENV = {"goal_joint": "drawer/slide", "handle_marker": "drawer/handle", "effector_start": (0.0, 0.0, 0.0)}
NAN, INF = math.nan, math.inf


# code-built numbers the file reader would refuse (non-finite, or the wrong
# count), each with the location the reader reports; the ids are the ones
# these cases had when each was reported at its record
@pytest.mark.parametrize(
    "env, q_dot, location",
    [
        pytest.param({"action_max": NAN}, 0.0, "env.action_max", id="env0-0.0-env"),
        pytest.param({"action_max": INF}, 0.0, "env.action_max", id="env1-0.0-env"),
        pytest.param({"contact_radius": NAN}, 0.0, "env.contact_radius", id="env2-0.0-env"),
        pytest.param({"contact_radius": INF}, 0.0, "env.contact_radius", id="env3-0.0-env"),
        pytest.param({"effector_start": (0.0, 0.0)}, 0.0, "env.effector_start", id="env4-0.0-env"),
        pytest.param({"effector_start": (0.0, 0.0, 0.0, 0.0)}, 0.0, "env.effector_start", id="env5-0.0-env"),
        pytest.param({"effector_start": (0.0, NAN, 0.0)}, 0.0, "env.effector_start[1]", id="env6-0.0-env"),
        pytest.param({"effector_start": (-INF, 0.0, 0.0)}, 0.0, "env.effector_start[0]", id="env7-0.0-env"),
        pytest.param({"reward_weights": aj.RewardParams(lambda3=NAN)}, 0.0, "env.reward_weights.lambda3", id="env8-0.0-env.reward_weights"),
        pytest.param({"reward_weights": aj.RewardParams(lambda4=-INF)}, 0.0, "env.reward_weights.lambda4", id="env9-0.0-env.reward_weights"),
        pytest.param({}, NAN, "initial['drawer/slide'].q_dot", id="env10-nan-initial['drawer/slide']"),
        pytest.param({}, INF, "initial['drawer/slide'].q_dot", id="env11-inf-initial['drawer/slide']"),
        pytest.param({}, -INF, "initial['drawer/slide'].q_dot", id="env12--inf-initial['drawer/slide']"),
    ],
)
def test_code_built_scenario_rejects_what_the_file_reader_would(drawer, env, q_dot, location):
    good = simple_scenario(drawer, initial={"drawer/slide": aj.JointInit(q=0.1, q_dot=-0.5)})
    good = dataclasses.replace(good, env=aj.EnvConfig(**ENV, reward_weights=aj.RewardParams(lambda3=0.0)))
    with pytest.raises(aj.AssetSyntaxError) as exc:
        dataclasses.replace(good, env=aj.EnvConfig(**{**ENV, **env}), initial={"drawer/slide": aj.JointInit(q=0.1, q_dot=q_dot)})
    assert exc.value.location == location


# values a JSON file can hold that the reader refuses, each as a change to
# the file's document and the same change to the scenario built in code
@pytest.mark.parametrize(
    "document, code, location",
    [
        pytest.param({"recordings": ["drawer/slide", 5]}, lambda s: {"recordings": ("drawer/slide", 5)}, "recordings[1]", id="recording"),
        pytest.param(
            {"initial": {"drawer/slide": {"q": 0.1, "s_open": 1.0}}},
            lambda s: {"initial": {"drawer/slide": aj.JointInit(q=0.1, s_open=1.0)}},
            "initial['drawer/slide'].s_open",
            id="s_open",
        ),
        pytest.param({"env": {**env_block(), "action_max": "10"}}, lambda s: {"env": aj.EnvConfig(**ENV, action_max="10")}, "env.action_max", id="action_max"),
        pytest.param(
            {"env": {**env_block(), "effector_start": [0.0, 0.0]}},
            lambda s: {"env": aj.EnvConfig(**{**ENV, "effector_start": (0.0, 0.0)})},
            "env.effector_start",
            id="effector_start",
        ),
        pytest.param(
            {"assemblies": [{"asset": str(fx.asset_path("drawer")), "world_pose": {"position": [0.0, 0.0]}}]},
            lambda s: {"assemblies": (dataclasses.replace(s.assemblies[0], world_pose=aj.Pose(position=(0.0, 0.0))),)},
            "assemblies[0].world_pose.position",
            id="world_pose",
        ),
        pytest.param(
            {"assemblies": [{"asset": str(fx.asset_path("drawer")), "name": 5}]},
            lambda s: {"assemblies": (dataclasses.replace(s.assemblies[0], name=5),)},
            "assemblies[0].name",
            id="name",
        ),
        pytest.param(
            {"forces": [{"joint": 5, "profile": {"type": "constant", "value": 1.0}}]},
            lambda s: {"forces": (aj.ForceSchedule(5, aj.ConstantForce(value=1.0)),)},
            "forces[0].joint",
            id="force_joint",
        ),
        # a value of the wrong kind where a collection or number belongs
        pytest.param({"duration": True}, lambda s: {"duration": True}, "duration", id="duration_true"),
        pytest.param({"forces": 5}, lambda s: {"forces": 5}, "forces", id="forces_number"),
        pytest.param({"recordings": {}}, lambda s: {"recordings": {}}, "recordings", id="recordings_object"),
        pytest.param({"initial": 5}, lambda s: {"initial": 5}, "initial", id="initial_number"),
        pytest.param({"dt": "x"}, lambda s: {"dt": "x"}, "dt", id="dt_string"),
        pytest.param(
            {"env": {**env_block(), "effector_start": 5}},
            lambda s: {"env": aj.EnvConfig(**{**ENV, "effector_start": 5})},
            "env.effector_start",
            id="effector_start_number",
        ),
        pytest.param(
            {"assemblies": [{"asset": str(fx.asset_path("drawer")), "world_pose": {"position": 5}}]},
            lambda s: {"assemblies": (dataclasses.replace(s.assemblies[0], world_pose=aj.Pose(position=5)),)},
            "assemblies[0].world_pose.position",
            id="position_number",
        ),
    ],
)
def test_code_built_and_file_built_scenarios_fail_alike(tmp_path, drawer, document, code, location):
    with pytest.raises(aj.AssetSyntaxError) as from_file:
        write_and_load(tmp_path, scenario_dict(**document))
    good = simple_scenario(drawer, recordings=("drawer/slide",))
    with pytest.raises(aj.AssetSyntaxError) as in_code:
        dataclasses.replace(good, **code(good))
    assert (in_code.value.location, in_code.value.message) == (from_file.value.location, from_file.value.message)
    assert from_file.value.location == location


@pytest.mark.parametrize(
    "code, record, location",
    [
        (lambda s: {"env": dataclasses.replace(s.env, reward_weights={"lambda1": 0.5})}, "RewardParams", "env.reward_weights"),
        (lambda s: {"initial": {**s.initial, "trashcan/lid": {"q": 1.8}}}, "JointInit", "initial['trashcan/lid']"),
        (lambda s: {"env": {"goal_joint": "trashcan/lid"}}, "EnvConfig", "env"),
        # built, it used to fail only in run, on the dict's missing values_at
        (
            lambda s: {"forces": (aj.ForceSchedule("trashcan/lid", {"type": "constant", "value": 1.0}),)},
            "ConstantForce or PiecewiseForce",
            "forces[0].profile",
        ),
    ],
    ids=["reward_weights", "initial", "env", "profile"],
)
def test_a_record_given_as_a_dict_in_code_names_the_record_expected(code, record, location):
    scenario = load("trashcan_env")
    with pytest.raises(aj.AssetSyntaxError) as exc:
        dataclasses.replace(scenario, **code(scenario))
    assert (exc.value.location, exc.value.message) == (location, f"expected a record of type {record}, got dict")


# the one-field swap sweep: each nested field of a bundled scenario (the
# placed assemblies' internals and asset_path aside) swapped in code for each
# of these values
SWAP_VALUES = (None, "x", 1.5, NAN, INF, -1.0, 0, True, (), {}, (0.0, 1.0), {"type": "constant", "value": 1.0}, 5)


class ProfileRefused(Exception):
    """A force profile refused its own construction (``ValueError`` or
    ``TypeError``): the swap built no scenario to check."""


def swap_paths(value, path=()):
    """The path to every nested field of ``value``: dataclass fields, tuple
    items and mapping values, in order."""
    if isinstance(value, aj.Assembly):
        return
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value) if f.init and f.name != "asset_path"]
    elif isinstance(value, tuple):
        items = list(enumerate(value))
    elif isinstance(value, Mapping):
        items = list(value.items())
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from swap_paths(child, path + (key,))


def swapped(value, path, new):
    """``value`` with the field at ``path`` replaced by ``new``, rebuilt
    outward with ``dataclasses.replace``."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, tuple):
        return value[:key] + (swapped(value[key], rest, new),) + value[key + 1 :]
    if not dataclasses.is_dataclass(value):
        return {**value, key: swapped(value[key], rest, new)}
    child = swapped(getattr(value, key), rest, new)
    try:
        return dataclasses.replace(value, **{key: child})
    except (ValueError, TypeError):
        if isinstance(value, (aj.ConstantForce, aj.PiecewiseForce)):
            raise ProfileRefused from None  # the profile's own checks
        raise


@pytest.mark.parametrize("name", fx.SCENARIO_NAMES)
def test_every_one_field_swap_in_code_runs_or_fails_with_an_artjoint_error(name):
    base = dataclasses.replace(load(name), duration=0.05)
    built, refused, escaped = 0, 0, []
    for path in list(swap_paths(base)):
        for value in SWAP_VALUES:
            try:
                scenario = swapped(base, path, value)
            except (ProfileRefused, aj.ArtjointError):
                refused += 1
                continue
            except Exception as exc:
                escaped.append((path, value, f"built: {type(exc).__name__}: {exc}"))
                continue
            built += 1
            try:
                if scenario.env is None:
                    aj.run(scenario)
                else:
                    env = aj.ManipulationEnv(scenario)
                    env.reset()
                    env.step(np.zeros(3))
            except Exception as exc:
                escaped.append((path, value, f"ran: {type(exc).__name__}: {exc}"))
    assert escaped == []
    assert built and refused


def test_load_validates_each_placed_asset_once(tmp_path, monkeypatch, drawer):
    validate, calls = assets.validate, []

    def counting_validate(assembly):
        calls.append(assembly.id)
        return validate(assembly)

    monkeypatch.setattr(assets, "validate", counting_validate)
    asset = str(fx.asset_path("drawer"))
    write_and_load(tmp_path, scenario_dict(assemblies=[{"asset": asset}, {"asset": asset, "name": "b"}]))
    assert calls == ["drawer", "drawer"]

    bent = json.loads(aj.serialize_asset(drawer))
    bent["joints"][0]["axis"] = [2.0, 0.0, 0.0]
    (tmp_path / "bent.artjoint.json").write_text(json.dumps(bent), encoding="utf-8")
    data = scenario_dict(assemblies=[{"asset": asset}, {"asset": "bent.artjoint.json", "name": "bent"}])
    with pytest.raises(aj.NonUnitAxisError, match=r"^assemblies\[1\]\.assembly\.joints\[0\]\.axis: joint 'slide' axis"):
        write_and_load(tmp_path, data)


def test_code_built_scenario_rejects_a_rule_naming_an_unknown_joint(trashcan):
    rule = trashcan.behaviors[0]
    ghost = dataclasses.replace(rule, effects=(aj.SetOpenState(joint="ghost", value=False),))
    with pytest.raises(aj.UnresolvedReferenceError, match="unknown joint 'ghost'"):
        simple_scenario(dataclasses.replace(trashcan, behaviors=(ghost,)), duration=0.1)


def test_bad_profile_type_rejected(tmp_path):
    data = scenario_dict(forces=[{"joint": "drawer/slide", "profile": {"type": "sine", "value": 1.0}}])
    with pytest.raises(aj.AssetSyntaxError, match="sine"):
        write_and_load(tmp_path, data)


# ---------------------------------------------------------------------------
# running


def test_run_length_and_time_base():
    scenario = load("drawer")
    trajectory, _ = aj.run(scenario)
    n = aj.steps_for(scenario.duration, scenario.dt)
    assert len(trajectory) == n + 1
    assert trajectory.times[0] == 0.0
    assert trajectory.times[-1] == pytest.approx(scenario.duration, abs=1e-9)
    assert set(trajectory.channel_names) == {
        "drawer/slide.q",
        "drawer/slide.q_dot",
        "drawer/handle.x",
        "drawer/handle.y",
        "drawer/handle.z",
    }


def test_run_is_deterministic(tmp_path):
    scenario = load("microwave")
    first, log_a = aj.run(scenario)
    second, log_b = aj.run(scenario)
    assert first.equals(second)
    assert log_a.records == log_b.records
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    aj.export_csv(first, pa)
    aj.export_csv(second, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_zero_forces_leave_joints_at_rest(drawer):
    scenario = simple_scenario(drawer, duration=0.2, recordings=("drawer/slide",))
    trajectory, log = aj.run(scenario)
    assert np.all(trajectory.channel("drawer/slide.q") == 0.0)
    assert np.all(trajectory.channel("drawer/slide.q_dot") == 0.0)
    assert len(log) == 0


def test_initial_conditions_respected(drawer):
    scenario = simple_scenario(
        drawer,
        duration=0.05,
        recordings=("drawer/slide",),
        initial={"drawer/slide": aj.JointInit(q=0.12)},
    )
    trajectory, _ = aj.run(scenario)
    assert trajectory.channel("drawer/slide.q")[0] == 0.12


def test_default_initial_q_clamps_zero_into_limits():
    data = aj.assembly_to_dict(aj.parse_asset(fx.asset_path("drawer")))
    data["joints"][0]["q_lower_bound"] = 0.2
    data["joints"][0]["target_policy"] = {"type": "fixed", "q_target": 0.2}
    shifted = aj.assembly_from_dict(data)
    scenario = simple_scenario(shifted, duration=0.01, recordings=("drawer/slide",))
    trajectory, _ = aj.run(scenario)
    assert trajectory.channel("drawer/slide.q")[0] == 0.2


def test_drawer_pull_is_monotone_and_tracks_marker():
    scenario = load("drawer")
    trajectory, _ = aj.run(scenario)
    q = trajectory.channel("drawer/slide.q")
    assert np.all(np.diff(q) >= 0.0)
    assert q[-1] > 0.05
    # the handle marker rides the tray: x = 0.22 + q, y = 0, z = 0.1
    assert np.allclose(trajectory.channel("drawer/handle.x"), 0.22 + q, atol=1e-12)
    assert np.all(trajectory.channel("drawer/handle.y") == 0.0)
    assert np.allclose(trajectory.channel("drawer/handle.z"), 0.1, atol=1e-15)


def test_finer_timestep_agrees(drawer):
    profile = aj.ConstantForce(value=2.0, t_start=0.0, t_end=1.5)
    base = simple_scenario(
        drawer,
        duration=3.0,
        forces=(aj.ForceSchedule(joint="drawer/slide", profile=profile),),
        recordings=("drawer/slide",),
    )
    coarse, _ = aj.run(base)
    fine, _ = aj.run(dataclasses.replace(base, dt=base.dt / 10))
    q_coarse = coarse.channel("drawer/slide.q")[-1]
    q_fine = fine.channel("drawer/slide.q")[-1]
    assert abs(q_coarse - q_fine) <= 1e-3 * max(1.0, abs(q_coarse))
    # the comparison helper sees them as close too, despite the bases
    assert aj.compare(coarse, fine).pooled_rmse < 1e-2


def test_microwave_button_press_opens_door_once():
    trajectory, log = aj.run(load("microwave"))
    assert log.count_effects("set_open_state") == 1
    assert log.count_effects("set_fixed_target") == 1
    q = trajectory.channel("microwave/door.q")
    assert q[-1] == 1.5  # latched open against the stop


def test_event_timestamps_lie_on_the_grid():
    _, log = aj.run(load("microwave"))
    dt = 0.001
    for record in log:
        k = record.t / dt
        assert abs(k - round(k)) < 1e-6


def test_runtime_marker_jacobian_matches_finite_differences(trashcan):
    scenario = simple_scenario(
        trashcan,
        duration=0.01,
        recordings=("trashcan/lid_rim",),
        initial={"trashcan/lid": aj.JointInit(q=0.7)},
    )
    runtime = aj.ScenarioRuntime(scenario)
    jac = runtime.marker_jacobian("trashcan/lid_rim")
    assert set(jac) == {"trashcan/lid"}
    h = 1e-6
    base = np.array(aj.marker_world(trashcan, {"lid": 0.7, "button": 0.0}, "lid_rim"))
    bumped = np.array(aj.marker_world(trashcan, {"lid": 0.7 + h, "button": 0.0}, "lid_rim"))
    fd = (bumped - base) / h
    assert np.allclose(jac["trashcan/lid"], fd, atol=1e-5)


def test_runtime_marker_geometry_follows_every_tick(trashcan):
    world = aj.Pose(position=(0.3, -0.2, 0.1), orientation=quat_from_axis_angle((0.0, 0.6, 0.8), 0.7))
    scenario = aj.Scenario(
        assemblies=(aj.Placement(name="trashcan", assembly=trashcan, world_pose=world),),
        duration=1.0,
        initial={"trashcan/lid": aj.JointInit(q=0.7)},
    )
    runtime = aj.ScenarioRuntime(scenario)
    bounds = {j.id: j.bounds for j in trashcan.joints}

    def world_point(q, name):
        return np.array(world.transform_point(aj.marker_world(trashcan, q, name)))

    seen = []
    for k in range(51):
        if k:
            runtime.tick({"trashcan/lid": 10.0, "trashcan/button": 2.0})
        q = {j: runtime.states[f"trashcan/{j}"].q for j in bounds}
        for name in ("lid_rim", "button_cap"):
            ref = f"trashcan/{name}"
            assert runtime.marker_position(ref) == tuple(world_point(q, name))
            for joint_ref, column in runtime.marker_jacobian(ref).items():
                j = joint_ref.split("/")[1]
                h = 1e-7 if q[j] + 1e-7 <= bounds[j][1] else -1e-7
                fd = (world_point({**q, j: q[j] + h}, name) - world_point(q, name)) / h
                assert np.allclose(column, fd, atol=1e-5)
        seen.append(runtime.marker_position("trashcan/lid_rim"))
        seen.append(runtime.marker_position("trashcan/button_cap"))
    assert len(set(seen)) == 2 * 51  # both joints moved on every tick


def test_run_computes_fk_once_per_marker_placement(fk_calls, drawer, trashcan):
    scenario = load("microwave")
    trajectory, _ = aj.run(scenario)
    n = aj.steps_for(scenario.duration, scenario.dt)
    assert len(trajectory) == n + 1
    assert fk_calls == ["microwave"]

    # a placement that records only joints needs no forward kinematics
    fk_calls.clear()
    two = aj.Scenario(
        assemblies=(aj.Placement(name="drawer", assembly=drawer), aj.Placement(name="trashcan", assembly=trashcan)),
        duration=0.05,
        recordings=("drawer/slide", "trashcan/lid_rim"),
    )
    aj.run(two)
    assert fk_calls == ["trashcan"]


def test_run_marker_columns_equal_marker_position_after_every_tick(drawer, trashcan):
    rotated = aj.Pose(position=(0.3, -0.2, 0.1), orientation=quat_from_axis_angle((0.0, 0.6, 0.8), 0.7))
    shifted = aj.Pose(position=(-1.5, 2.0, 0.25))
    scenario = aj.Scenario(
        assemblies=(
            aj.Placement(name="bin", assembly=trashcan, world_pose=rotated),
            aj.Placement(name="chest", assembly=drawer, world_pose=shifted),
        ),
        duration=0.4,
        forces=(
            aj.ForceSchedule("bin/lid", aj.ConstantForce(value=10.0)),
            aj.ForceSchedule("bin/button", aj.ConstantForce(value=2.0, t_end=0.2)),
            aj.ForceSchedule("chest/slide", aj.ConstantForce(value=20.0)),
        ),
        recordings=("bin/lid_rim", "chest/slide", "bin/button_cap", "chest/handle"),
        initial={"bin/lid": aj.JointInit(q=0.3)},
    )
    trajectory, _ = aj.run(scenario)
    markers = ("bin/lid_rim", "bin/button_cap", "chest/handle")
    assert trajectory.channel_names == [
        "bin/lid_rim.x", "bin/lid_rim.y", "bin/lid_rim.z",
        "chest/slide.q", "chest/slide.q_dot",
        "bin/button_cap.x", "bin/button_cap.y", "bin/button_cap.z",
        "chest/handle.x", "chest/handle.y", "chest/handle.z",
    ]  # fmt: skip

    runtime = aj.ScenarioRuntime(scenario)
    n = aj.steps_for(scenario.duration, scenario.dt)
    assert len(trajectory) == n + 1
    for k in range(n + 1):
        if k:
            runtime.tick()
        for ref in markers:
            got = tuple(trajectory.channels[f"{ref}.{axis}"][k] for axis in "xyz")
            assert got == runtime.marker_position(ref), (ref, k)
        state = runtime.states["chest/slide"]
        assert (trajectory.channels["chest/slide.q"][k], trajectory.channels["chest/slide.q_dot"][k]) == (
            state.q,
            state.q_dot,
        )
    for ref in markers:
        assert len(set(trajectory.channels[f"{ref}.x"])) > 1  # every marker moved


def test_run_marker_that_no_joint_moves_is_a_constant_column(drawer, fk_calls):
    chest = aj.assembly_to_dict(drawer)
    chest["markers"].append({"module_id": "cabinet", "name": "corner", "local_point": [0.4, -0.3, 0.9]})
    post = {
        "id": "post",
        "category": "fixed",
        "base_frame": {"position": [0.0, 1.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]},
        "root_module": "pole",
        "modules": [{"id": "pole", "mass": 1.0}],
        "joints": [],
        "markers": [{"module_id": "pole", "name": "tip", "local_point": [0.0, 0.0, 1.2]}],
        "behaviors": [],
    }
    scenario = aj.Scenario(
        assemblies=(
            aj.Placement(name="chest", assembly=aj.assembly_from_dict(chest)),
            aj.Placement(name="post", assembly=aj.assembly_from_dict(post), world_pose=aj.Pose(position=(2.0, 0, 0))),
        ),
        duration=0.3,
        forces=(aj.ForceSchedule("chest/slide", aj.ConstantForce(value=20.0)),),
        recordings=("chest/corner", "chest/handle", "post/tip"),
    )
    trajectory, _ = aj.run(scenario)
    assert fk_calls == ["drawer", "post"]
    n = aj.steps_for(scenario.duration, scenario.dt)
    runtime = aj.ScenarioRuntime(scenario)
    for ref in ("chest/corner", "post/tip"):
        for axis, value in zip("xyz", runtime.marker_position(ref)):
            column = trajectory.channels[f"{ref}.{axis}"]
            assert column.shape == (n + 1,)
            assert (column == value).all()
    assert len(set(trajectory.channels["chest/handle.x"])) > 1


def test_runtime_tick_accepts_extra_forces(drawer):
    scenario = simple_scenario(drawer, duration=1.0, recordings=("drawer/slide",))
    runtime = aj.ScenarioRuntime(scenario)
    for _ in range(200):
        runtime.tick({"drawer/slide": 2.0})
    assert runtime.states["drawer/slide"].q > 0.005
    assert runtime.t == pytest.approx(0.2)


def test_runtime_advances_each_joint_like_the_reference_stepper(drawer, microwave):
    """After every ``advance`` call, of 1, 7 or more than ``_CHUNK`` ticks,
    each joint's state equals ``simulate_joint``'s under that joint's summed
    schedule plus the call's extra forces, bit for bit; the first 30 calls
    are single ticks, so every one of those ticks is compared. The one rule
    only marks a property, so it moves no joint; it fires mid-segment, so
    the runtime cuts there and steps the watched joint again."""
    mark = aj.BehaviorRule(
        id="mark",
        trigger=aj.ThresholdCrossed(joint="slide", value=0.0125, direction="rising"),
        effects=(aj.SetProperty(target="tray", key="past_mark", value=True),),
    )
    drawer = dataclasses.replace(drawer, behaviors=(mark,))
    microwave = dataclasses.replace(microwave, behaviors=())
    lo, hi = microwave.joint("door").bounds
    scenario = aj.Scenario(
        assemblies=(aj.Placement(name="drawer", assembly=drawer), aj.Placement(name="microwave", assembly=microwave)),
        duration=1.3,
        forces=(
            aj.ForceSchedule("drawer/slide", aj.ConstantForce(value=3.0, t_end=0.15)),
            aj.ForceSchedule("drawer/slide", aj.PiecewiseForce(steps=((0.05, -1.0), (0.2, 0.5)))),
            aj.ForceSchedule("microwave/door", aj.PiecewiseForce(steps=((0.0, 0.4), (0.1, -0.8)))),
        ),
        initial={"microwave/door": aj.JointInit(q=lo + 0.25 * (hi - lo))},
    )
    n, dt = aj.steps_for(scenario.duration, scenario.dt), scenario.dt
    press = {"microwave/button": 5.0, "drawer/slide": -0.5}
    long = (scenario_mod._CHUNK + 88, None)
    calls = [(1, press if k % 7 == 3 else None) for k in range(30)]
    calls += [(7, press), (1, press), long, (7, {"microwave/door": -0.3}), (1, None)]
    calls.append((n - sum(ticks for ticks, _ in calls), {"drawer/slide": 0.25}))
    assert calls[-1][0] > scenario_mod._CHUNK
    runtime, other = aj.ScenarioRuntime(scenario), aj.ScenarioRuntime(scenario)
    live = dict(runtime.states)
    assert not {id(s) for s in live.values()} & {id(s) for s in other.states.values()}
    got, ends, log = [], [], []
    for ticks, extra in calls:
        log += runtime.advance(ticks, extra)
        assert all(runtime.states[ref] is state for ref, state in live.items())
        got.append({ref: fields(state) for ref, state in live.items()})
        ends.append(runtime.k)
    assert ends[-1] == n

    extras = [extra for ticks, extra in calls for _ in range(ticks)]
    for ref, state0 in aj.ScenarioRuntime(scenario).states.items():
        profiles = [f.profile for f in scenario.forces if f.joint == ref]
        forces = [sum(p.value_at(k * dt) for p in profiles) for k in range(n)]
        forces = [f + extra[ref] if extra and ref in extra else f for f, extra in zip(forces, extras)]
        series = aj.simulate_joint(scenario.joint(ref), lambda t: forces[round(t / dt)], scenario.duration, dt, state0)
        assert [fields(series[k]) for k in ends] == [state[ref] for state in got], ref
        assert len({s.q for s in series}) > 1, ref  # the joint moved
        if ref == "drawer/slide":
            crossing = next(k for k, s in enumerate(series) if s.q >= mark.trigger.value)
    (fired,) = [r for r in log if r.kind == "effect"]
    start = ends[calls.index(long) - 1]
    assert fired.t == crossing * dt and start < crossing < start + scenario_mod._CHUNK
    assert runtime.properties == {"drawer/tray.past_mark": True}


def test_runtime_advances_each_joint_like_the_reference_stepper_on_the_python_loop(python_stepper, drawer, microwave):
    test_runtime_advances_each_joint_like_the_reference_stepper(drawer, microwave)


def fields(state):
    """Every field of a joint state, floats exactly (signed zeros included)."""
    return state.q.hex(), state.q_dot.hex(), state.s_open, state.regime, state.held_target.hex()


# ---------------------------------------------------------------------------
# the segmented runtime against the per-tick reference


def event_log_text(log) -> str:
    return "".join(f"{r.t!r}\t{r.kind}\t{r.rule_id}\t{r.detail}\t{r.effect_type}\n" for r in log)


def per_tick_reference(scenario):
    """Every channel of ``run(scenario)`` and its event log text, built with
    one-tick ``advance`` calls and the runtime's own marker positions."""
    runtime = aj.ScenarioRuntime(scenario)
    n = aj.steps_for(scenario.duration, scenario.dt)
    columns, log = {}, aj.EventLog()
    for k in range(n + 1):
        if k:
            log.extend(runtime.advance(1) if k % 2 else runtime.tick())
        for ref in scenario.recordings:
            if ref in runtime.joints:
                state = runtime.states[ref]
                values = {f"{ref}.q": state.q, f"{ref}.q_dot": state.q_dot}
            else:
                values = dict(zip((f"{ref}.x", f"{ref}.y", f"{ref}.z"), runtime.marker_position(ref)))
            for name, value in values.items():
                columns.setdefault(name, []).append(float(value).hex())
    return columns, event_log_text(log)


def assert_run_matches_per_tick_reference(scenario):
    trajectory, log = aj.run(scenario)
    columns, events = per_tick_reference(scenario)
    assert trajectory.channel_names == list(columns)
    for name, expected in columns.items():
        assert [float(v).hex() for v in trajectory.channels[name]] == expected, name
    assert event_log_text(log) == events
    return log


def seeded_scene(seed: int, copies: int) -> aj.Scenario:
    """``copies`` of every fixture scenario in one scene, each under its own
    name and a random world pose, with every force scaled by up to 10%."""
    rng = np.random.default_rng(seed)
    placements, forces, recordings, initial = [], [], [], {}
    for copy in range(copies):
        for name in fx.FIXTURE_NAMES:
            source = load(name)
            (placement,) = source.assemblies
            new = f"{placement.name}_{copy}"

            def rename(ref):
                return f"{new}/{ref.split('/', 1)[1]}"

            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            pose = aj.Pose(position=tuple(float(x) for x in rng.uniform(-2.0, 2.0, size=3)),
                           orientation=quat_from_axis_angle((0.0, 0.6, 0.8), angle))  # fmt: skip
            placements.append(aj.Placement(name=new, assembly=placement.assembly, world_pose=pose))
            for schedule in source.forces:
                profile = dataclasses.replace(schedule.profile, value=schedule.profile.value * float(rng.uniform(0.9, 1.1)))
                forces.append(aj.ForceSchedule(rename(schedule.joint), profile))
            recordings += [rename(ref) for ref in source.recordings]
            initial.update({rename(ref): init for ref, init in source.initial.items()})
    return aj.Scenario(
        assemblies=tuple(placements),
        duration=max(load(name).duration for name in fx.FIXTURE_NAMES),
        forces=tuple(forces),
        recordings=tuple(recordings),
        initial=initial,
    )


@pytest.mark.parametrize("name", fx.SCENARIO_NAMES)
def test_run_equals_the_per_tick_reference_on_every_fixture(name):
    assert_run_matches_per_tick_reference(load(name))


def test_run_equals_the_per_tick_reference_on_a_seeded_multi_copy_scene():
    log = assert_run_matches_per_tick_reference(seeded_scene(seed=7, copies=2))
    assert log.count_effects("set_open_state") == 4  # each microwave and trashcan copy fires once


CRAFTED_TICKS = 700


def crafted_scene(drawer, trashcan, rising_tick, falling_tick=None):
    """Two drawers and a trashcan. A rule on drawer ``pull`` fires on the
    rising crossing at ``rising_tick`` and one on drawer ``push`` on the
    falling crossing at ``falling_tick``; each emits a signal that a trashcan
    rule turns into effects, one through a second emit. The thresholds are
    the slides' own positions at those ticks in a run without rules. A
    ``rising_tick`` given as the pair ``(tick, tick)`` adds a second rule on
    ``pull``'s slide, ``pull_again``, whose threshold lies halfway into the
    step that reaches ``tick``: both cross there, and both emit."""
    pull = aj.ForceSchedule("pull/slide", aj.ConstantForce(value=2.0))
    push = aj.ForceSchedule("push/slide", aj.ConstantForce(value=-2.0))
    base = aj.Scenario(
        assemblies=(aj.Placement(name="pull", assembly=drawer), aj.Placement(name="push", assembly=drawer)),
        duration=CRAFTED_TICKS * 0.001,
        forces=(pull, push),
        recordings=("pull/slide", "push/slide"),
        initial={"push/slide": aj.JointInit(q=0.3)},
    )
    free, _ = aj.run(base)

    def drawer_with(rule_id, direction, tick, signal):
        if tick is None:
            return drawer
        q = free.channels[f"{rule_id}/slide.q"]
        if isinstance(tick, tuple):
            tick, _ = tick
            values = {rule_id: float(q[tick]), f"{rule_id}_again": float((q[tick - 1] + q[tick]) / 2)}
        else:
            values = {rule_id: float(q[tick])}
        rules = tuple(
            aj.BehaviorRule(name, aj.ThresholdCrossed("slide", value, direction), (aj.EmitSignal(signal),))
            for name, value in values.items()
        )
        return dataclasses.replace(drawer, behaviors=rules)

    chained = (
        aj.BehaviorRule("slam", aj.SignalReceived("pulled"), (aj.SetOpenState("lid", False), aj.SetFixedTarget("lid", 0.0))),
        aj.BehaviorRule("relay", aj.SignalReceived("pushed"), (aj.EmitSignal("relayed"),)),
        aj.BehaviorRule("mark", aj.SignalReceived("relayed"), (aj.SetProperty("lid", "marked", True), aj.SetFixedTarget("button", 0.004))),
    )  # fmt: skip
    return dataclasses.replace(
        base,
        assemblies=(
            aj.Placement(name="pull", assembly=drawer_with("pull", "rising", rising_tick, "pulled")),
            aj.Placement(name="push", assembly=drawer_with("push", "falling", falling_tick, "pushed")),
            aj.Placement(name="bin", assembly=dataclasses.replace(trashcan, behaviors=trashcan.behaviors + chained)),
        ),
        recordings=("pull/slide", "push/slide", "bin/lid", "bin/button", "bin/lid_rim"),
        initial={**base.initial, "bin/lid": aj.JointInit(q=1.8, s_open=True)},
    )


@pytest.mark.parametrize(
    "rising_tick, falling_tick",
    [
        (1, None),  # the first tick
        (CRAFTED_TICKS, None),  # the last tick
        (scenario_mod._CHUNK, None),  # the last tick of the first chunk
        (scenario_mod._CHUNK + 1, None),  # the first tick of the second chunk
        (None, scenario_mod._CHUNK),
        (300, 300),  # two triggers in one tick
        (200, scenario_mod._CHUNK - 1),  # two cuts in one chunk
        # two rules on one slide cross in one tick: at a cut inside a chunk, at a chunk's last tick
        pytest.param((300, 300), None, id="300+300-None"),
        pytest.param((scenario_mod._CHUNK, scenario_mod._CHUNK), None, id="512+512-None"),
    ],
)
def test_run_equals_the_per_tick_reference_at_crafted_crossings(drawer, trashcan, rising_tick, falling_tick):
    scenario = crafted_scene(drawer, trashcan, rising_tick, falling_tick)
    log = assert_run_matches_per_tick_reference(scenario)
    fired = sorted((r.t, r.rule_id) for r in log if r.kind == "trigger")
    expected = []
    if isinstance(rising_tick, tuple):
        rising_tick, _ = rising_tick
        # both fire, in rule order, and their one signal fires the trashcan rule once
        in_order = [r.rule_id for r in log if r.kind == "trigger" and r.t == rising_tick * 0.001]
        assert in_order == ["pull/pull", "pull/pull_again", "bin/slam"]
        expected.append((rising_tick * 0.001, "pull/pull_again"))
    if rising_tick:
        expected += [(rising_tick * 0.001, "pull/pull"), (rising_tick * 0.001, "bin/slam")]
    if falling_tick:
        expected += [(falling_tick * 0.001, "push/push"), (falling_tick * 0.001, "bin/relay"), (falling_tick * 0.001, "bin/mark")]
    assert fired == sorted(expected)

    # one advance over the whole run ends in the same live states
    runtime, reference = aj.ScenarioRuntime(scenario), aj.ScenarioRuntime(scenario)
    live = dict(runtime.states)
    runtime.advance(CRAFTED_TICKS)
    for _ in range(CRAFTED_TICKS):
        reference.tick()
    assert all(runtime.states[ref] is state for ref, state in live.items())
    assert runtime.states == reference.states
    assert runtime.properties == reference.properties == ({"bin/lid.marked": True} if falling_tick else {})


@pytest.mark.parametrize("rising_tick", [1, scenario_mod._CHUNK + 1])
def test_a_segment_cut_at_its_first_tick_on_the_python_loop(python_stepper, drawer, trashcan, rising_tick):
    """A cut at a segment's first tick re-steps the watched joints and steps
    the others over one-element slices of the segment's forces."""
    test_run_equals_the_per_tick_reference_at_crafted_crossings(drawer, trashcan, rising_tick, None)


@pytest.mark.parametrize("tick", [1, 200, scenario_mod._CHUNK, scenario_mod._CHUNK + 1])
def test_signal_loop_leaves_the_runtime_at_the_firing_tick(drawer, trashcan, tick):
    """The tick whose rules raise SignalLoopError is stepped and counted, and
    none of its effects apply, as with one-tick advances."""
    looping = (
        aj.BehaviorRule("ping", aj.SignalReceived("pulled"), (aj.SetOpenState("lid", False), aj.EmitSignal("pong"))),
        aj.BehaviorRule("pong", aj.SignalReceived("pong"), (aj.EmitSignal("pulled"),)),
    )
    scenario = crafted_scene(drawer, dataclasses.replace(trashcan, behaviors=looping), tick)
    free = aj.ScenarioRuntime(dataclasses.replace(scenario, assemblies=tuple(
        dataclasses.replace(pl, assembly=dataclasses.replace(pl.assembly, behaviors=())) for pl in scenario.assemblies
    )))  # fmt: skip
    for _ in range(tick):
        free.tick()
    with pytest.raises(aj.SignalLoopError, match=f"t={tick * 0.001}"):
        aj.run(scenario)
    for step in ("advance", "tick"):
        runtime = aj.ScenarioRuntime(scenario)
        with pytest.raises(aj.SignalLoopError):
            if step == "advance":
                runtime.advance(CRAFTED_TICKS)
            else:
                for _ in range(CRAFTED_TICKS):
                    runtime.tick()
        assert runtime.k == tick
        assert runtime.states == free.states  # the lid is still open: no effect applied
        assert runtime.states["bin/lid"].s_open
        assert runtime.properties == {}


# ---------------------------------------------------------------------------
# force sampling


def sample_times(dt):
    """Sample times ``k * dt`` of a window, or any float, infinities included."""
    on_grid = st.integers(-5, 1200).map(lambda k: k * dt)
    return st.one_of(on_grid, st.floats(-1.0, 2.0), st.sampled_from([-math.inf, math.inf]))


@st.composite
def profiles(draw, dt):
    values = st.one_of(st.sampled_from([-0.0, 0.0, 1.5, -2.25]), st.floats(-1e3, 1e3, allow_nan=False))
    if draw(st.booleans()):
        t_start, t_end = draw(sample_times(dt)), draw(sample_times(dt))
        return aj.ConstantForce(value=draw(values), t_start=min(t_start, t_end), t_end=max(t_start, t_end))
    times = sorted(set(draw(st.lists(sample_times(dt).filter(math.isfinite), min_size=1, max_size=5))))
    return aj.PiecewiseForce(steps=tuple((t, draw(values)) for t in times))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_schedule_sampler_equals_the_scalar_sum(data, drawer):
    dt = data.draw(st.sampled_from([0.001, 0.0005, 0.003, 0.01, 1 / 700]))
    mix = data.draw(st.lists(profiles(dt), min_size=1, max_size=4))
    k0, n = data.draw(st.integers(0, 1000)), data.draw(st.integers(1, 300))
    scenario = simple_scenario(drawer, dt=dt, forces=[aj.ForceSchedule("drawer/slide", p) for p in mix])
    sampled = aj.ScenarioRuntime(scenario).scheduled_forces(k0, n)["drawer/slide"]
    ticks = range(k0, k0 + n)
    assert [f.hex() for f in sampled] == [float(sum(p.value_at(k * dt) for p in mix)).hex() for k in ticks]
    t = np.arange(k0, k0 + n) * dt
    for profile in mix:  # each profile on its own, signbit included
        assert [float(v).hex() for v in profile.values_at(t)] == [float(profile.value_at(k * dt)).hex() for k in ticks]
