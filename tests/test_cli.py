"""End-to-end checks of the ``python -m artjoint`` command line."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artjoint as aj
from artjoint import cli, dynamics, sysid
from artjoint import fixtures as fx

PKG_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "data"
DRAWER_ASSET_REL = "src/artjoint/fixtures/data/drawer.artjoint.json"


def run_cli(*args, cwd=PKG_ROOT, env=None):
    """``python -m artjoint ARGS`` in a child process that imports the
    package from this checkout's ``src``, installed or not."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "artjoint", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def json_doc(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# exit codes and argument handling


def test_no_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_missing_file_is_a_usage_error(tmp_path):
    proc = run_cli("validate", tmp_path / "nope.artjoint.json")
    assert proc.returncode == 2
    assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_asset():
    proc = run_cli("validate", DRAWER_ASSET_REL)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("ok")


def test_validate_json_matches_golden():
    proc = run_cli("validate", DRAWER_ASSET_REL, "--json")
    golden = json.loads((GOLDEN_DIR / "validate_drawer.json").read_text())
    assert json_doc(proc) == golden


def test_validate_reports_issues(tmp_path):
    data = json.loads((PKG_ROOT / DRAWER_ASSET_REL).read_text())
    data["joints"][0]["q_upper_bound"] = -1.0  # below the lower bound
    bad = tmp_path / "bad.artjoint.json"
    bad.write_text(json.dumps(data))

    proc = run_cli("validate", bad, "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert [issue["code"] for issue in doc["issues"]] == ["invalid-limits"]

    human = run_cli("validate", bad)
    assert human.returncode == 1
    assert "invalid-limits" in human.stdout
    assert "issue(s) found" in human.stdout


def test_validate_rejects_non_json(tmp_path):
    noise = tmp_path / "noise.artjoint.json"
    noise.write_text("this is not json")
    proc = run_cli("validate", noise)
    assert proc.returncode == 1
    assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_loadable_csv(tmp_path):
    out = tmp_path / "drawer.csv"
    proc = run_cli("simulate", fx.scenario_path("drawer"), "--out", out, "--json")
    doc = json_doc(proc)
    assert doc["command"] == "simulate"
    (entry,) = doc["runs"]
    assert entry["out"] == str(out)
    assert entry["dt"] == 0.001
    assert entry["duration"] == 4.0

    trajectory = aj.import_csv(out)
    assert len(trajectory) == entry["samples"] == 4001
    assert "drawer/slide.q" in trajectory.channel_names


def test_simulate_reports_the_stepper_in_text_output_only(tmp_path, capsys):
    out = tmp_path / "drawer.csv"
    assert cli.main(["simulate", str(fx.scenario_path("drawer")), "--out", str(out)]) == 0
    kind, why = dynamics._stepper()
    stdout = capsys.readouterr().out
    assert stdout.count("stepper: ") == 1 and stdout.endswith(f"stepper: {kind} ({why})\n")
    assert cli.main(["simulate", str(fx.scenario_path("drawer")), "--out", str(out), "--json"]) == 0
    assert "stepper" not in json.loads(capsys.readouterr().out)


def test_simulate_is_bit_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", fx.scenario_path("microwave"), "--out", a)
    run_cli("simulate", fx.scenario_path("microwave"), "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_overrides_dt_and_duration(tmp_path):
    out = tmp_path / "short.csv"
    proc = run_cli(
        "simulate", fx.scenario_path("drawer"), "--out", out, "--dt", "0.002", "--duration", "1.0", "--json"
    )
    (entry,) = json_doc(proc)["runs"]
    assert entry["dt"] == 0.002
    assert entry["duration"] == 1.0
    assert entry["samples"] == 501


def test_simulate_rejects_unstable_dt(tmp_path):
    proc = run_cli("simulate", fx.scenario_path("drawer"), "--out", tmp_path / "x.csv", "--dt", "0.02")
    assert proc.returncode == 1
    assert "stability" in proc.stderr
    proc = run_cli("simulate", fx.scenario_path("drawer"), "--out", tmp_path / "x.csv", "--duration", "0")
    assert proc.returncode == 1
    assert "duration" in proc.stderr
    # a non-finite value is rejected as a domain error, not an internal one
    for flag, value in (("--dt", "nan"), ("--duration", "nan"), ("--duration", "inf")):
        proc = run_cli("simulate", fx.scenario_path("drawer"), "--out", tmp_path / "x.csv", flag, value)
        assert proc.returncode == 1, (flag, value, proc.stderr)
        assert proc.stderr.startswith("error: ") and flag[2:] in proc.stderr, proc.stderr
    # a step count that overflows, and a run too long for memory to hold
    for value in ("1e308", "1e12"):
        proc = run_cli("simulate", fx.scenario_path("drawer"), "--out", tmp_path / "x.csv", "--duration", value)
        assert proc.returncode == 1, (value, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_simulate_multiple_scenarios_need_a_directory(tmp_path):
    paths = [fx.scenario_path("drawer"), fx.scenario_path("oven")]
    proc = run_cli("simulate", *paths, "--out", tmp_path / "single.csv")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr

    ok = run_cli("simulate", *paths, "--out", tmp_path, "--json")
    doc = json_doc(ok)
    assert [Path(r["out"]).name for r in doc["runs"]] == ["drawer.csv", "oven.csv"]
    for entry in doc["runs"]:
        assert Path(entry["out"]).is_file()


def test_simulate_rejects_scenarios_that_share_an_output(tmp_path):
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    shutil.copy(fx.scenario_path("drawer"), copy_dir / "drawer.scenario.json")
    shutil.copy(fx.asset_path("drawer"), copy_dir / "drawer.artjoint.json")
    out = tmp_path / "out"
    out.mkdir()
    proc = run_cli("simulate", fx.scenario_path("drawer"), copy_dir / "drawer.scenario.json", "--out", out)
    assert proc.returncode == 2
    assert "usage error" in proc.stderr
    assert str(out / "drawer.csv") in proc.stderr
    assert list(out.iterdir()) == []


def test_simulate_rejects_a_csv_unsafe_recording_at_load(tmp_path):
    data = json.loads(fx.scenario_path("drawer").read_text(encoding="utf-8"))
    data["assemblies"][0].update(asset=str(fx.asset_path("drawer")), name="draw,er")
    data["forces"][0]["joint"] = "draw,er/slide"
    data["recordings"] = ["draw,er/slide"]
    data["initial"] = {}
    path = tmp_path / "comma.scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("simulate", path, "--out", tmp_path / "x.csv")
    assert proc.returncode == 1, proc.stderr
    assert "recordings[0]" in proc.stderr and "CSV-safe" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# compare


def write_csv(path, times, **channels):
    aj.export_csv(aj.Trajectory(times=np.asarray(times, dtype=float),
                                channels={k: np.asarray(v, dtype=float) for k, v in channels.items()}), path)


def test_compare_tolerance_gates_the_exit_code(tmp_path):
    times = np.arange(5) * 0.1
    write_csv(tmp_path / "a.csv", times, q=np.zeros(5))
    write_csv(tmp_path / "b.csv", times, q=np.full(5, 0.1))

    tight = run_cli("compare", tmp_path / "a.csv", tmp_path / "b.csv", "--tolerance", "0.05", "--json")
    assert tight.returncode == 1
    doc = json.loads(tight.stdout)
    assert doc["within_tolerance"] is False
    assert doc["pooled_rmse"] == pytest.approx(0.1, rel=1e-12)
    assert doc["channels"]["q"]["max_abs"] == pytest.approx(0.1, rel=1e-12)

    loose = run_cli("compare", tmp_path / "a.csv", tmp_path / "b.csv", "--tolerance", "0.2")
    assert loose.returncode == 0
    assert "within tolerance" in loose.stdout


def test_compare_identical_files_pass_at_zero_tolerance(tmp_path):
    out = tmp_path / "run.csv"
    run_cli("simulate", fx.scenario_path("oven"), "--out", out)
    proc = run_cli("compare", out, out, "--json")
    doc = json_doc(proc)
    assert doc["pooled_rmse"] == 0.0
    assert doc["within_tolerance"] is True


def test_compare_channel_mismatch_is_a_domain_error(tmp_path):
    times = np.arange(5) * 0.1
    write_csv(tmp_path / "a.csv", times, q=np.zeros(5))
    write_csv(tmp_path / "b.csv", times, v=np.zeros(5))
    proc = run_cli("compare", tmp_path / "a.csv", tmp_path / "b.csv")
    assert proc.returncode == 1
    assert "channel" in proc.stderr


# ---------------------------------------------------------------------------
# fit


def test_fit_bundled_problem_recovers_parameters(tmp_path):
    out = tmp_path / "params.json"
    proc = run_cli("fit", fx.fitspec_path("drawer_sprung"), "--out", out, "--json")
    doc = json_doc(proc)
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["n_evals"] <= 5000
    assert payload["params"] == doc["params"]
    truth = {"damping_D": 2.0, "mu_s": 0.1, "coulomb_floor": 0.3}
    for name, expected in truth.items():
        assert abs(payload["params"][name] - expected) / expected < 0.05
    assert payload["residual_sse"] < 1e-6


def test_fit_rejects_malformed_fitspec(tmp_path):
    spec = tmp_path / "broken.fitspec.json"
    spec.write_text(json.dumps({"asset": "missing.artjoint.json"}))
    proc = run_cli("fit", spec, "--out", tmp_path / "params.json")
    assert proc.returncode == 1
    assert "fitspec" in proc.stderr
    for text, hint in (("{not json", "Expecting"), ('{"asset": NaN}', "non-finite JSON constant 'NaN'")):
        spec.write_text(text)
        proc = run_cli("fit", spec, "--out", tmp_path / "params.json")
        assert proc.returncode == 1
        assert hint in proc.stderr
    shipped = json.loads(fx.fitspec_path("drawer_sprung").read_text())
    data_dir = fx.fitspec_path("drawer_sprung").parent
    for key in ("asset", "observed"):
        shipped[key] = str(data_dir / shipped[key])
    coarse = tmp_path / "coarse.csv"
    times = np.arange(20) * 0.02
    aj.export_csv(aj.Trajectory(times=times, channels={"slide.q": np.full(len(times), 0.35)}), coarse)
    holed = tmp_path / "holed.csv"
    bundled = aj.import_csv(shipped["observed"])
    q = bundled.channel("slide.q").copy()
    q[800] = math.nan
    aj.export_csv(aj.Trajectory(times=bundled.times, channels={"slide.q": q}), holed)
    shifted = tmp_path / "shifted.csv"
    aj.export_csv(aj.Trajectory(times=bundled.times + 5.0, channels=bundled.channels), shifted)
    for change, hint in (
        ({"observed": str(holed)}, "observed channel 'slide.q' has a non-finite sample (nan) at t = 1.6"),
        ({"observed": str(shifted)}, "observed trajectory must start at t = 0, not at t = 5.0"),
        ({"init": {**shipped["init"], "damping_D": 99.0}}, "init for 'damping_D' (99.0) outside bounds"),
        ({"overrides": {"nope": 1.0}}, "spec has no parameter 'nope'"),
        ({"overrides": {"bounds": 1.0}}, "spec has no parameter 'bounds'"),
        ({"overrides": {"stiffness": 1.0}}, "spec has no parameter 'stiffness'"),
        ({"overrides": {"id": 1.0}}, "spec has no parameter 'id'"),
        ({"init": {**shipped["init"], "typo": 1.0}}, "init name(s) ['typo'] are not free parameters"),
        ({"bounds": {**shipped["bounds"], "other": [0, 1]}}, "bounds name(s) ['other'] are not free parameters"),
        (
            {"bounds": {**shipped["bounds"], "damping_D": [-1.0, 6.0]}},
            "bounds for 'damping_D' admit an invalid joint: at damping_D = -1.0",
        ),
        (
            {
                "free": [*shipped["free"], "effective_inertia"],
                "bounds": {**shipped["bounds"], "effective_inertia": [0.0, 2.0]},
                "init": {**shipped["init"], "effective_inertia": 1.0},
            },
            "bounds for 'effective_inertia' admit an invalid joint: at effective_inertia = 0.0",
        ),
    ):
        spec.write_text(json.dumps({**shipped, **change}))
        proc = run_cli("fit", spec, "--out", tmp_path / "params.json")
        assert proc.returncode == 1, proc.stderr
        assert f"fitspec: {hint}" in proc.stderr
    spec.write_text(json.dumps({**shipped, "observed": str(coarse)}))
    proc = run_cli("fit", spec, "--out", tmp_path / "params.json")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: fitspec.observed: dt=0.02 exceeds the stability guard 0.01\n"


def test_fit_reports_the_sweep_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sysid, "MAX_SWEEPS", 1)
    out = tmp_path / "params.json"
    assert cli.main(["fit", str(fx.fitspec_path("drawer_sprung")), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 1
    assert payload["n_evals"] < sysid.DEFAULT_BUDGET
    assert payload["stop_reason"] == "sweep limit reached"
    assert (payload["standard_errors"], payload["condition_number"]) == (None, None)  # no polish ran
    stdout = capsys.readouterr().out
    assert "sweep limit reached" in stdout
    assert "budget exhausted" not in stdout


def test_fit_reports_stop_reason_and_uncertainty(tmp_path, capsys):
    out = tmp_path / "params.json"
    assert cli.main(["fit", str(fx.fitspec_path("drawer_sprung")), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["stop_reason"] == "converged"
    assert sorted(payload["standard_errors"]) == sorted(payload["params"])
    assert all(0.0 <= se < 1e-9 for se in payload["standard_errors"].values())  # an exact fit
    assert 1.0 < payload["condition_number"] < 1e6
    stdout = capsys.readouterr().out
    assert "sweeps, converged)" in stdout
    assert "damping_D = 2 (standard error " in stdout
    assert "condition number " in stdout
    kind, why = dynamics._stepper()
    assert stdout.count("stepper: ") == 1 and f"stepper: {kind} ({why})\n" in stdout


def test_fit_writes_null_for_an_infinite_uncertainty(tmp_path, monkeypatch):
    result = sysid.FitResult(
        params={"damping_D": 2.0},
        residual_sse=1.0,
        iterations=2,
        n_evals=40,
        converged=False,
        stop_reason="polish stalled",
        standard_errors={"damping_D": math.inf},
        condition_number=math.inf,
    )
    monkeypatch.setattr(cli, "fit", lambda problem: result)
    out = tmp_path / "params.json"
    assert cli.main(["fit", str(fx.fitspec_path("drawer_sprung")), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    assert (payload["standard_errors"], payload["condition_number"]) == ({"damping_D": None}, None)
    assert (payload["stop_reason"], payload["converged"]) == ("polish stalled", False)


# ---------------------------------------------------------------------------
# demo


@pytest.mark.parametrize("name", fx.FIXTURE_NAMES)
def test_demo_fixtures_pass_their_checks(name):
    proc = run_cli("demo", name, "--json")
    doc = json_doc(proc)
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])


def test_demo_json_matches_golden():
    proc = run_cli("demo", "trashcan", "--json")
    golden = json.loads((GOLDEN_DIR / "demo_trashcan.json").read_text())
    assert json_doc(proc) == golden


def test_demo_unknown_fixture_is_a_usage_error():
    proc = run_cli("demo", "dishwasher")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr


def test_fixture_lookups_honor_the_environment_override(tmp_path):
    for name in os.listdir(fx.fixtures_dir()):
        shutil.copy(fx.fixtures_dir() / name, tmp_path / name)
    env = {**os.environ, "ARTJOINT_FIXTURES": str(tmp_path)}

    proc = run_cli("demo", "trashcan", env=env)
    assert proc.returncode == 0

    # cut the run short so the pedal press never happens: the override copy,
    # not the installed data, must be what the demo loads
    scenario = json.loads((tmp_path / "trashcan.scenario.json").read_text())
    scenario["duration"] = 0.1
    (tmp_path / "trashcan.scenario.json").write_text(json.dumps(scenario))
    cut = run_cli("demo", "trashcan", "--json", env=env)
    assert cut.returncode == 1
    doc = json.loads(cut.stdout)
    assert doc["ok"] is False
    assert "0 release(s)" in doc["checks"][0]["detail"]


# ---------------------------------------------------------------------------
# average


def test_average_cli_means_per_sample(tmp_path):
    times = np.arange(4) * 0.5
    write_csv(tmp_path / "t1.csv", times, q=[0.0, 1.0, 2.0, 3.0])
    write_csv(tmp_path / "t2.csv", times, q=[2.0, 3.0, 4.0, 5.0])
    out = tmp_path / "mean.csv"
    proc = run_cli("average", tmp_path / "t1.csv", tmp_path / "t2.csv", "--out", out, "--json")
    doc = json_doc(proc)
    assert doc == {"command": "average", "out": str(out), "n_trials": 2, "n_samples": 4}
    mean = aj.import_csv(out)
    assert np.array_equal(mean.channel("q"), [1.0, 2.0, 3.0, 4.0])


def test_average_mismatched_trials_is_a_domain_error(tmp_path):
    write_csv(tmp_path / "t1.csv", np.arange(4) * 0.5, q=np.zeros(4))
    write_csv(tmp_path / "t2.csv", np.arange(3) * 0.5, q=np.zeros(3))
    proc = run_cli("average", tmp_path / "t1.csv", tmp_path / "t2.csv", "--out", tmp_path / "m.csv")
    assert proc.returncode == 1
