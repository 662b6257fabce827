"""Command-line front end.

Subcommands: ``validate`` an asset file, ``simulate`` scenarios to CSV,
``compare`` two trajectory CSVs, ``fit`` joint parameters from a fit-problem
description, ``demo`` a bundled fixture with self-checking summaries, and
``average`` repeated-trial CSVs sample-by-sample.

Exit codes: 0 success, 1 domain failure (validation issues, comparison above
tolerance, simulation/fit errors, a run too long for memory), 2 usage error,
3 internal error.  Each subcommand accepts ``--json`` to emit one
machine-readable document on stdout instead of the human-readable lines.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics, fixtures
# the benchmark's tracer wraps cli.parse_asset, unused here, and cli.import_csv by name
from .assets import _decode_json, assembly_from_dict, parse_asset, validate
from .errors import ArtjointError
from .scenario import Scenario, load_scenario, run
from .sysid import fit, load_fitspec
from .trajectory import Trajectory, average, compare, export_csv, import_csv


class _UsageError(Exception):
    pass


def _emit(args, document: dict, human_lines: "list[str]") -> None:
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for line in human_lines:
            print(line)


# --------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    source = str(args.asset)
    assembly = assembly_from_dict(_decode_json(Path(source).read_text(encoding="utf-8"), source), source)
    report = validate(assembly)
    doc = {
        "command": "validate",
        "asset": str(args.asset),
        "ok": report.ok,
        "issues": [
            {"code": i.code, "path": i.path, "message": i.message} for i in report
        ],
    }
    lines = [f"{i.code} at {i.path}: {i.message}" for i in report]
    lines.append("ok" if report.ok else f"{len(report)} issue(s) found")
    _emit(args, doc, lines)
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# simulate


def _out_csv_name(scenario_path: Path) -> str:
    name = scenario_path.name
    if name.endswith(".scenario.json"):
        return name[: -len(".scenario.json")] + ".csv"
    return scenario_path.stem + ".csv"


def cmd_simulate(args) -> int:
    paths = [Path(p) for p in args.scenarios]
    out = Path(args.out)
    if len(paths) > 1 and not out.is_dir():
        raise _UsageError("--out must be an existing directory when simulating multiple scenarios")
    targets = [out / _out_csv_name(path) if out.is_dir() else out for path in paths]
    clashes = sorted({str(target) for target in targets if targets.count(target) > 1})
    if clashes:
        raise _UsageError(f"several scenarios would write {', '.join(clashes)}")

    runs = []
    lines = []
    for path, target in zip(paths, targets):
        scenario = load_scenario(path)
        overrides = {}
        if args.dt is not None:
            overrides["dt"] = args.dt
        if args.duration is not None:
            overrides["duration"] = args.duration
        if overrides:
            scenario = replace(scenario, **overrides)
        trajectory, _ = run(scenario)
        export_csv(trajectory, target)
        runs.append(
            {
                "scenario": str(path),
                "out": str(target),
                "samples": len(trajectory),
                "dt": scenario.dt,
                "duration": scenario.duration,
            }
        )
        lines.append(f"{path} -> {target} ({len(trajectory)} samples, dt={scenario.dt})")
    lines.append("stepper: {} ({})".format(*dynamics._stepper()))
    _emit(args, {"command": "simulate", "runs": runs}, lines)
    return 0


# --------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    a = import_csv(args.a)
    b = import_csv(args.b)
    try:
        result = compare(a, b)
    except ValueError as exc:
        raise ArtjointError(str(exc)) from None
    ok = result.pooled_rmse <= args.tolerance
    doc = {
        "command": "compare",
        "a": str(args.a),
        "b": str(args.b),
        "tolerance": args.tolerance,
        "pooled_rmse": result.pooled_rmse,
        "pooled_max_abs": result.pooled_max_abs,
        "within_tolerance": ok,
        "n_samples": result.n_samples,
        "channels": {
            name: {"rmse": st.rmse, "max_abs": st.max_abs}
            for name, st in sorted(result.per_channel.items())
        },
    }
    lines = [
        f"{name}: rmse={st.rmse:.6g} max_abs={st.max_abs:.6g}"
        for name, st in sorted(result.per_channel.items())
    ]
    lines.append(
        f"pooled rmse {result.pooled_rmse:.6g} over {result.n_samples} samples "
        f"({'within' if ok else 'ABOVE'} tolerance {args.tolerance:g})"
    )
    _emit(args, doc, lines)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# fit


# the benchmark's fit workload loads its problems by this name
_load_fit_problem = load_fitspec


def _finite_or_none(value: "float | None") -> "float | None":
    """``value`` for a JSON document, which has no infinity."""
    return value if value is not None and math.isfinite(value) else None


def cmd_fit(args) -> int:
    problem = load_fitspec(args.fitspec)
    result = fit(problem)
    errors = result.standard_errors
    payload = {
        "params": dict(sorted(result.params.items())),
        "residual_sse": result.residual_sse,
        "iterations": result.iterations,
        "n_evals": result.n_evals,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "standard_errors": None if errors is None else {name: _finite_or_none(errors[name]) for name in sorted(errors)},
        "condition_number": _finite_or_none(result.condition_number),
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    doc = {"command": "fit", "fitspec": str(args.fitspec), "out": str(out), **payload}
    lines = [
        f"{name} = {value:.6g}" + ("" if errors is None else f" (standard error {errors[name]:.2g})")
        for name, value in sorted(result.params.items())
    ]
    lines.append(
        f"residual sse {result.residual_sse:.6g} after {result.n_evals} evaluations "
        f"({result.iterations} sweeps, {result.stop_reason})"
    )
    if result.condition_number is not None:
        lines.append(f"condition number {result.condition_number:.3g} (box-scaled Jacobian)")
    lines.append("stepper: {} ({})".format(*dynamics._stepper()))
    lines.append(f"wrote {out}")
    _emit(args, doc, lines)
    return 0


# --------------------------------------------------------------------------
# demo


def _release_time(scenario: Scenario, ref: str) -> float:
    ends = [s.profile.t_end for s in scenario.forces if s.joint == ref]
    if not ends:
        raise ArtjointError(f"no force schedule on '{ref}' to take a release time from")
    return max(ends)


def _demo_checks(name: str, scenario: Scenario, trajectory: Trajectory, events) -> "list[tuple[str, bool, str]]":
    if name == "drawer":
        q = trajectory.channels["drawer/slide.q"]
        lo, hi = scenario.joint("drawer/slide").bounds
        return [
            ("tray moved under the scheduled pull", q[-1] > 0.0, f"final q = {q[-1]:.4f} m"),
            ("displacement monotone non-decreasing", bool(np.all(np.diff(q) >= 0.0)), ""),
            ("final position inside travel limits", lo <= q[-1] <= hi, f"limits [{lo}, {hi}]"),
        ]
    if name == "microwave":
        q = trajectory.channels["microwave/door.q"]
        _, hi = scenario.joint("microwave/door").bounds
        releases = events.count_effects("set_open_state")
        return [
            ("button press released the latch exactly once", releases == 1, f"{releases} release(s)"),
            ("door swung to the open stop", abs(q[-1] - hi) <= 1e-3, f"final q = {q[-1]:.4f} rad"),
        ]
    if name == "oven":
        q = trajectory.channels["oven/door.q"]
        q_dot = trajectory.channels["oven/door.q_dot"]
        lo, _ = scenario.joint("oven/door").bounds
        t_release = _release_time(scenario, "oven/door")
        after = trajectory.times >= t_release
        v_release = abs(float(q_dot[np.argmax(after)]))
        v_peak = float(np.max(np.abs(q_dot[after])))
        return [
            ("door reached the closed stop", q[-1] == lo, f"final q = {q[-1]:.4f} rad"),
            (
                "closer snapped the door (peak speed over release speed)",
                v_peak >= 1.5 * v_release,
                f"release {v_release:.3f} rad/s, peak {v_peak:.3f} rad/s",
            ),
        ]
    if name == "trashcan":
        q = trajectory.channels["trashcan/lid.q"]
        lo, _ = scenario.joint("trashcan/lid").bounds
        slams = events.count_effects("set_open_state")
        return [
            ("pedal press released the lid exactly once", slams == 1, f"{slams} release(s)"),
            ("lid slammed to the closed stop", q[-1] == lo, f"final q = {q[-1]:.4f} rad"),
        ]
    raise _UsageError(f"unknown fixture '{name}' (expected one of {', '.join(fixtures.FIXTURE_NAMES)})")


def cmd_demo(args) -> int:
    if args.fixture not in fixtures.FIXTURE_NAMES:
        raise _UsageError(f"unknown fixture '{args.fixture}' (expected one of {', '.join(fixtures.FIXTURE_NAMES)})")
    path = fixtures.scenario_path(args.fixture)
    scenario = load_scenario(path)
    trajectory, events = run(scenario)
    checks = [(label, bool(passed), detail) for label, passed, detail in _demo_checks(args.fixture, scenario, trajectory, events)]
    ok = all(passed for _, passed, _ in checks)
    doc = {
        "command": "demo",
        "fixture": args.fixture,
        "ok": ok,
        "checks": [
            {"label": label, "ok": passed, "detail": detail} for label, passed, detail in checks
        ],
    }
    lines = [f"{args.fixture}: {len(trajectory)} samples at dt={scenario.dt}"]
    for label, passed, detail in checks:
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'ok  ' if passed else 'FAIL'} {label}{suffix}")
    _emit(args, doc, lines)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# average


def cmd_average(args) -> int:
    trials = [import_csv(p) for p in args.csvs]
    try:
        mean = average(trials)
    except ValueError as exc:
        raise ArtjointError(str(exc)) from None
    export_csv(mean, args.out)
    doc = {
        "command": "average",
        "out": str(args.out),
        "n_trials": len(trials),
        "n_samples": len(mean),
    }
    _emit(args, doc, [f"averaged {len(trials)} trial(s) -> {args.out} ({len(mean)} samples)"])
    return 0


# --------------------------------------------------------------------------
# parser / entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="artjoint", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="structurally check an asset file")
    p.add_argument("asset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run scenarios and write trajectory CSVs")
    p.add_argument("scenarios", nargs="+")
    p.add_argument("--out", required=True, help="output CSV path (directory when simulating several)")
    p.add_argument("--dt", type=float, default=None, help="override the scenario timestep")
    p.add_argument("--duration", type=float, default=None, help="override the scenario duration")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[common], help="compare two trajectory CSVs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tolerance", type=float, default=0.0, help="pooled-RMSE pass threshold")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", parents=[common], help="fit joint parameters from a .fitspec.json")
    p.add_argument("fitspec")
    p.add_argument("--out", required=True, help="where to write the fitted parameters JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("demo", parents=[common], help="run a bundled fixture and check its behavior")
    p.add_argument("fixture", help=f"one of: {', '.join(fixtures.FIXTURE_NAMES)}")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("average", parents=[common], help="average repeated-trial CSVs per sample")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_average)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArtjointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
