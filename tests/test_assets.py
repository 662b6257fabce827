"""Asset parsing, serialization round-trips, and structural validation."""

import dataclasses
import json
import math

import numpy as np
import pytest

import artjoint as aj
from artjoint import assets
from artjoint import fixtures as fx

from conftest import load_assembly, random_assembly_dict, with_marker_point


# ---------------------------------------------------------------------------
# round-trips


@pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
def test_fixture_round_trip_structural_equality(name):
    first = load_assembly(name)
    text = aj.serialize_asset(first)
    second = aj.parse_asset_text(text)
    assert second == first
    # serialize is a fixpoint: the same bytes come back out
    assert aj.serialize_asset(second) == text


def test_random_assemblies_round_trip():
    rng = np.random.default_rng(21)
    for i in range(50):
        data = random_assembly_dict(rng, i)
        first = aj.assembly_from_dict(data)
        assert aj.validate(first).ok
        second = aj.parse_asset_text(aj.serialize_asset(first))
        assert second == first


def test_parse_asset_reads_files(tmp_path, drawer):
    path = tmp_path / "copy.artjoint.json"
    path.write_text(aj.serialize_asset(drawer), encoding="utf-8")
    assert aj.parse_asset(path) == drawer


def test_to_dict_from_dict_round_trip(microwave):
    assert aj.assembly_from_dict(aj.assembly_to_dict(microwave)) == microwave


# ---------------------------------------------------------------------------
# strict parsing

def drawer_dict():
    return aj.assembly_to_dict(load_assembly("drawer"))


def microwave_dict():
    return aj.assembly_to_dict(load_assembly("microwave"))


# nested records: (location, path to the record in the microwave dict)
NESTED_RECORDS = (
    ("joints[1].stiffness", ("joints", 1, "stiffness")),
    ("behaviors[0].effects[1]", ("behaviors", 0, "effects", 1)),
    ("modules[1].rest_pose", ("modules", 1, "rest_pose")),
)


def nested(data, path):
    for key in path:
        data = data[key]
    return data


# the fields a loader reads itself, from what is not one key of the record
READ_BY_A_LOADER = {
    (aj.RigidModule, "markers"),  # the asset file's top-level markers list
    (aj.Scenario, "assemblies"),  # asset paths resolve against the scenario file
    (aj.Placement, "asset_path"),  # the resolved "asset" path, not a file key
    (aj.FitProblem, "observed"),  # the fitspec's "observed" CSV file
    (aj.FitProblem, "spec_template"),  # its "asset", "joint" and "overrides"
}


@pytest.mark.parametrize("cls", list(assets._SHAPES), ids=lambda cls: cls.__name__)
def test_each_declared_record_declares_every_field(cls):
    # a field with no key would be neither read from a file nor checked in code
    keys = {assets._field_name(key) for key in assets._SHAPES[cls].codecs}
    own = {f.name for f in dataclasses.fields(cls) if f.init} - {name for c, name in READ_BY_A_LOADER if c is cls}
    assert keys == own


def test_unknown_key_rejected():
    data = drawer_dict()
    data["surprise"] = 1
    with pytest.raises(aj.AssetSyntaxError, match="surprise"):
        aj.assembly_from_dict(data)
    for location, path in NESTED_RECORDS:
        data = microwave_dict()
        nested(data, path)["surprise"] = 1
        with pytest.raises(aj.AssetSyntaxError, match="surprise") as exc:
            aj.assembly_from_dict(data)
        assert exc.value.location == location


def test_unknown_joint_key_rejected():
    data = drawer_dict()
    data["joints"][0]["speling"] = 2.0
    with pytest.raises(aj.AssetSyntaxError):
        aj.assembly_from_dict(data)


def test_missing_required_key_rejected():
    data = drawer_dict()
    del data["joints"][0]["axis"]
    with pytest.raises(aj.AssetSyntaxError, match="axis"):
        aj.assembly_from_dict(data)
    # every key of a pose is optional
    for (location, path), key in ((NESTED_RECORDS[0], "k"), (NESTED_RECORDS[1], "q_target")):
        data = microwave_dict()
        del nested(data, path)[key]
        with pytest.raises(aj.AssetSyntaxError, match=key) as exc:
            aj.assembly_from_dict(data)
        assert exc.value.location == location


def test_wrong_type_rejected():
    data = drawer_dict()
    data["modules"][0]["mass"] = "heavy"
    with pytest.raises(aj.AssetSyntaxError):
        aj.assembly_from_dict(data)
    data = microwave_dict()
    data["joints"][0]["kind"] = "spherical"
    with pytest.raises(aj.AssetSyntaxError, match="spherical") as exc:
        aj.assembly_from_dict(data)
    assert exc.value.location.endswith(".kind")
    data = microwave_dict()
    data["behaviors"][0]["trigger"]["direction"] = "sideways"
    with pytest.raises(aj.AssetSyntaxError, match="sideways") as exc:
        aj.assembly_from_dict(data)
    assert exc.value.location.endswith(".direction")


def test_bool_is_not_a_number():
    data = drawer_dict()
    data["joints"][0]["damping_D"] = True
    with pytest.raises(aj.AssetSyntaxError):
        aj.assembly_from_dict(data)


def test_nan_and_infinity_rejected_in_files(tmp_path, drawer):
    text = aj.serialize_asset(drawer)
    for bad in ("NaN", "Infinity", "-Infinity"):
        mutated = text.replace('"q_upper_bound": 0.45', f'"q_upper_bound": {bad}')
        assert mutated != text
        path = tmp_path / "bad.json"
        path.write_text(mutated, encoding="utf-8")
        with pytest.raises(aj.AssetSyntaxError):
            aj.parse_asset(path)


def test_non_json_text_rejected():
    with pytest.raises(aj.AssetSyntaxError):
        aj.parse_asset_text("{not json")


def test_top_level_must_be_object():
    with pytest.raises(aj.AssetSyntaxError):
        aj.parse_asset_text("[1, 2, 3]")


def test_bad_vector_arity_rejected():
    data = drawer_dict()
    data["joints"][0]["axis"] = [1.0, 0.0]
    with pytest.raises(aj.AssetSyntaxError):
        aj.assembly_from_dict(data)


def test_unknown_stiffness_type_rejected():
    data = drawer_dict()
    data["joints"][0]["stiffness"] = {"type": "cubic", "k": 1.0}
    with pytest.raises(aj.AssetSyntaxError):
        aj.assembly_from_dict(data)


# ---------------------------------------------------------------------------
# validation issues


def test_fixtures_validate_clean():
    for name in fx.FIXTURE_NAMES:
        report = aj.validate(load_assembly(name))
        assert report.ok, list(report)


def test_missing_module_issue():
    data = drawer_dict()
    data["joints"][0]["child_module"] = "ghost"
    report = aj.validate(aj.assembly_from_dict(data))
    assert not report.ok
    assert any(issue.code == "missing-module" for issue in report)


def test_invalid_limits_issue():
    data = drawer_dict()
    data["joints"][0]["q_lower_bound"] = 1.0
    data["joints"][0]["q_upper_bound"] = -1.0
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "invalid-limits" for issue in report)


def test_non_unit_axis_issue():
    data = drawer_dict()
    data["joints"][0]["axis"] = [1.0, 1.0, 0.0]
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "non-unit-axis" for issue in report)


def first_joint(assembly, **changes):
    """``assembly`` with ``changes`` made to its first joint."""
    return dataclasses.replace(assembly, joints=(dataclasses.replace(assembly.joints[0], **changes),) + assembly.joints[1:])


def first_schedule(assembly, **changes):
    """``assembly`` with ``changes`` made to its first joint's stiffness schedule."""
    return first_joint(assembly, stiffness=dataclasses.replace(assembly.joints[0].stiffness, **changes))


NAN = math.nan
UNIT_NAN = aj.Pose(orientation=(NAN, 0.0, 0.0, 0.0))


# a code-built NaN (the file reader rejects NaN on its own) in each number a
# validation comparison reads: validation fails with one issue, the finite
# scan's at the number's path, as no order rule can show a NaN violates it
@pytest.mark.parametrize(
    "name, change, path",
    [
        pytest.param("drawer", lambda a: first_joint(a, axis=(NAN, 0.0, 0.0)), "joints[0].axis[0]", id="axis"),
        pytest.param("drawer", lambda a: first_joint(a, damping_D=NAN), "joints[0].damping_D", id="damping_D"),
        pytest.param("drawer", lambda a: first_joint(a, mu_s=NAN), "joints[0].mu_s", id="mu_s"),
        pytest.param("drawer", lambda a: first_joint(a, coulomb_floor=NAN), "joints[0].coulomb_floor", id="coulomb_floor"),
        pytest.param("drawer", lambda a: first_joint(a, effective_inertia=NAN), "joints[0].effective_inertia", id="effective_inertia"),
        pytest.param("drawer", lambda a: first_joint(a, q_lower_bound=NAN), "joints[0].q_lower_bound", id="q_lower_bound"),
        pytest.param("drawer", lambda a: first_joint(a, stiffness=aj.ConstantStiffness(k=NAN)), "joints[0].stiffness.k", id="k"),
        pytest.param("drawer", lambda a: first_joint(a, target_policy=aj.FixedTarget(q_target=NAN)), "joints[0].target_policy.q_target", id="q_target"),
        pytest.param("microwave", lambda a: first_schedule(a, k_low=NAN), "joints[0].stiffness.k_low", id="k_low"),
        pytest.param("microwave", lambda a: first_schedule(a, k_high=NAN), "joints[0].stiffness.k_high", id="k_high"),
        pytest.param("microwave", lambda a: first_schedule(a, q_threshold=NAN), "joints[0].stiffness.q_threshold", id="q_threshold"),
        pytest.param("drawer", lambda a: dataclasses.replace(a, base_frame=UNIT_NAN), "base_frame.orientation[0]", id="base_frame"),
        pytest.param(
            "drawer",
            lambda a: dataclasses.replace(a, modules=(dataclasses.replace(a.modules[0], rest_pose=UNIT_NAN),) + a.modules[1:]),
            "modules[0].rest_pose.orientation[0]",
            id="rest_pose",
        ),
        pytest.param(
            "drawer",
            lambda a: dataclasses.replace(a, modules=(dataclasses.replace(a.modules[0], mass=NAN),) + a.modules[1:]),
            "modules[0].mass",
            id="mass",
        ),
    ],
)
def test_nan_fails_every_validation_comparison(name, change, path):
    report = aj.validate(change(load_assembly(name)))
    assert [(issue.code, issue.path) for issue in report] == [("non-finite", path)]


INF = math.inf


# a code-built non-finite number (the file reader refuses them) that no other
# rule reads, and its path in the asset file
@pytest.mark.parametrize(
    "change, path",
    [
        *[
            pytest.param(lambda a, name=name: first_joint(a, **{name: INF}), f"joints[0].{name}", id=name)
            for name in ("damping_D", "mu_s", "coulomb_floor", "effective_inertia", "q_upper_bound", "target_velocity")
        ],
        pytest.param(lambda a: first_joint(a, anchor=(0.0, INF, 0.0)), "joints[0].anchor[1]", id="anchor"),
        pytest.param(
            lambda a: dataclasses.replace(a, modules=(dataclasses.replace(a.modules[0], mass=INF),) + a.modules[1:]),
            "modules[0].mass",
            id="mass",
        ),
        pytest.param(
            lambda a: dataclasses.replace(a, modules=(dataclasses.replace(a.modules[0], rest_pose=aj.Pose(position=(INF, 0.0, 0.0))),) + a.modules[1:]),
            "modules[0].rest_pose.position[0]",
            id="rest_pose",
        ),
        pytest.param(lambda a: dataclasses.replace(a, base_frame=aj.Pose(position=(0.0, 0.0, NAN))), "base_frame.position[2]", id="base_frame"),
        pytest.param(lambda a: with_marker_point(a, (0.22, 0.0, INF)), "markers[0].local_point[2]", id="marker"),
    ],
)
def test_non_finite_number_is_reported_once_at_its_file_path(change, path):
    report = aj.validate(change(load_assembly("drawer")))
    assert [(issue.code, issue.path) for issue in report] == [("non-finite", path)]
    assert report.issues[0].message.startswith("number must be finite, got ")


def test_two_parents_is_cyclic_structure():
    data = drawer_dict()
    extra = json.loads(json.dumps(data["joints"][0]))
    extra["id"] = "slide2"
    data["joints"].append(extra)
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "cyclic-structure" for issue in report)


def test_unreachable_module_is_cyclic_structure():
    data = drawer_dict()
    data["modules"].append(
        {
            "id": "floating",
            "mass": 1.0,
            "rest_pose": {"position": [0.0, 0.0, 0.0], "orientation": [1.0, 0.0, 0.0, 0.0]},
            "affordance_label": "",
        }
    )
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "cyclic-structure" for issue in report)


def test_parse_asset_raises_typed_error(tmp_path):
    data = drawer_dict()
    data["joints"][0]["axis"] = [2.0, 0.0, 0.0]
    path = tmp_path / "bad.artjoint.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(aj.NonUnitAxisError):
        aj.parse_asset(path)


def test_parse_asset_raises_invalid_limits(tmp_path):
    data = drawer_dict()
    data["joints"][0]["q_upper_bound"] = data["joints"][0]["q_lower_bound"]
    path = tmp_path / "bad.artjoint.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(aj.InvalidLimitsError):
        aj.parse_asset(path)


def test_validation_report_collects_multiple_issues():
    data = drawer_dict()
    data["joints"][0]["axis"] = [3.0, 0.0, 0.0]
    data["joints"][0]["q_lower_bound"] = 9.0
    data["modules"][0]["mass"] = -1.0
    report = aj.validate(aj.assembly_from_dict(data))
    codes = {issue.code for issue in report}
    assert {"non-unit-axis", "invalid-limits", "non-positive-mass"} <= codes
    assert len(report) >= 3


def test_behavior_reference_validation():
    data = aj.assembly_to_dict(load_assembly("microwave"))
    data["behaviors"][0]["effects"][0]["joint"] = "ghost"
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "unresolved-reference" for issue in report)


def test_fixed_target_outside_limits_flagged():
    data = drawer_dict()
    data["joints"][0]["target_policy"] = {"type": "fixed", "q_target": 99.0}
    report = aj.validate(aj.assembly_from_dict(data))
    assert any(issue.code == "target-out-of-limits" for issue in report)


def test_random_assemblies_stay_trees_and_break_detectably():
    rng = np.random.default_rng(22)
    for i in range(30):
        data = random_assembly_dict(rng, i)
        assert aj.validate(aj.assembly_from_dict(data)).ok
        if data["joints"]:
            # rewire one joint's child to the root: no longer a tree
            broken = json.loads(json.dumps(data))
            broken["joints"][0]["child_module"] = broken["root_module"]
            report = aj.validate(aj.assembly_from_dict(broken))
            assert any(issue.code == "cyclic-structure" for issue in report)
