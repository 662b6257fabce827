"""Run one artjoint benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

A run sets up the workload (import, parse every input, generate the seeded
inputs), then runs passes of the workload's fixed ops until ``--seconds``
have passed and at least two passes are done. It runs in one process and
one thread, pinned to one CPU. Every op's output is checked. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics from the traced ones, with spans
written to ``perfbench/out/``.

Stdout ends with two JSON lines: run metadata (``{"meta": ...}``), then the
result ``{"correct", "attempted", "failed", "metrics"}``. Without the
package sources under ``src/`` the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # this process plus six fresh ones, spread over the run

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "s_per_solution": "s",
    "joint_steps_per_s": "1/s",
    "op_us_mean": "us",
    "op_us_p99": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "scenario.load_ms": "ms",
    "assets.parse_ms": "ms",
    "scenario.run.calls": "count",
    "scenario.run.self_ms": "ms",
    "scenario.tick.calls": "count",
    "scenario.tick.self_us": "us",
    "scenario.forces.us": "us",
    "dynamics.step.calls": "count",
    "dynamics.step.us": "us",
    "dynamics.share": "ratio",
    "dynamics.simulate_joint.self_ms": "ms",
    "behaviors.evaluate.calls": "count",
    "behaviors.evaluate.us": "us",
    "behaviors.fire_ratio": "ratio",
    "behaviors.apply.calls": "count",
    "kinematics.fk.calls": "count",
    "kinematics.fk.us": "us",
    "kinematics.fk.per_tick": "calls/tick",
    "kinematics.share": "ratio",
    "envs.step.self_us": "us",
    "envs.marker_queries.per_step": "calls/step",
    "envs.reset_ms": "ms",
    "sysid.objective.calls": "count",
    "sysid.objective.ms": "ms",
    "sysid.objective.self_ms": "ms",
    "sysid.fit.sweeps": "count",
    "sysid.fit.improving_ratio": "ratio",
    "sysid.fit.accurate_ratio": "ratio",
    "trajectory.export.ms": "ms",
    "trajectory.export.mb_per_s": "MB/s",
    "trajectory.import.ms": "ms",
    "trajectory.import.mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly between traced passes (and traced runs) of one seed.
REPEATING_COUNTS = ("dynamics.step.calls", "kinematics.fk.calls", "behaviors.evaluate.calls", "sysid.objective.calls")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("simulate", "fit", "env"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smoke-test sizes: fewer scene copies, starts and episodes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> "str | None":
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:  # no git on this host
        return None
    return done.stdout.strip() or None


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# per-layer metrics from aggregated spans


def _by_name(stats_list) -> dict:
    totals: dict[str, list] = {}
    for stats in stats_list:
        for (_, _, name), (calls, total, self_s) in stats.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return totals


def layer_metrics(setup_stats, setup_counters, traced, untraced_walls) -> dict:
    """``traced`` holds (wall, PassResult, stats, counters) per traced pass."""
    n_passes = len(traced)
    pass_wall = sum(wall for wall, _, _, _ in traced)
    in_passes = _by_name([stats for _, _, stats, _ in traced])
    everywhere = _by_name([setup_stats] + [stats for _, _, stats, _ in traced])
    counters = sum((c for _, _, _, c in traced), setup_counters.copy())

    def calls(name, totals=in_passes):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name, totals=in_passes):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def per_pass(name):
        return calls(name) / n_passes

    def mean(name, scale, self_time=False, totals=in_passes):
        c, total, self_s = totals.get(name, [0, 0.0, 0.0])
        return (self_s if self_time else total) / c * scale if c else 0.0

    def share(name):
        return seconds(name) / pass_wall

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    env_queries = sum(
        c
        for stats in (s for _, _, s, _ in traced)
        for (_, parent, name), (c, _, _) in stats.items()
        if parent == "envs.step" and name in ("scenario.marker_position", "scenario.marker_jacobian")
    )
    fits = [f for _, result, _, _ in traced for f in result.fits]
    return {
        "scenario.load_ms": mean("scenario.load", 1e3, totals=everywhere),
        "assets.parse_ms": mean("assets.parse_asset", 1e3, totals=everywhere),
        "scenario.run.calls": per_pass("scenario.run"),
        "scenario.run.self_ms": mean("scenario.run", 1e3, self_time=True),
        "scenario.tick.calls": per_pass("scenario.tick"),
        "scenario.tick.self_us": mean("scenario.tick", 1e6, self_time=True),
        "scenario.forces.us": mean("scenario.forces", 1e6),
        "dynamics.step.calls": per_pass("dynamics.step"),
        "dynamics.step.us": mean("dynamics.step", 1e6),
        "dynamics.share": share("dynamics.step"),
        "dynamics.simulate_joint.self_ms": mean("dynamics.simulate_joint", 1e3, self_time=True),
        "behaviors.evaluate.calls": per_pass("behaviors.evaluate"),
        "behaviors.evaluate.us": mean("behaviors.evaluate", 1e6),
        "behaviors.fire_ratio": ratio(counters["behaviors.fired"], calls("behaviors.evaluate")),
        "behaviors.apply.calls": per_pass("behaviors.apply"),
        "kinematics.fk.calls": per_pass("kinematics.fk"),
        "kinematics.fk.us": mean("kinematics.fk", 1e6),
        "kinematics.fk.per_tick": ratio(calls("kinematics.fk"), calls("scenario.tick")),
        "kinematics.share": share("kinematics.fk"),
        "envs.step.self_us": mean("envs.step", 1e6, self_time=True),
        "envs.marker_queries.per_step": ratio(env_queries, calls("envs.step")),
        "envs.reset_ms": mean("envs.reset", 1e3),
        "sysid.objective.calls": per_pass("sysid.objective"),
        "sysid.objective.ms": mean("sysid.objective", 1e3),
        "sysid.objective.self_ms": mean("sysid.objective", 1e3, self_time=True),
        "sysid.fit.sweeps": ratio(sum(f["sweeps"] for f in fits), len(fits)),
        "sysid.fit.improving_ratio": ratio(counters["sysid.improving"], calls("sysid.objective")),
        "sysid.fit.accurate_ratio": ratio(sum(f["accurate"] for f in fits), len(fits)),
        # `fit` imports its observed CSV during set-up
        "trajectory.export.ms": mean("trajectory.export", 1e3, totals=everywhere),
        "trajectory.export.mb_per_s": ratio(counters["trajectory.export.bytes"] / 1e6, seconds("trajectory.export", everywhere)),
        "trajectory.import.ms": mean("trajectory.import", 1e3, totals=everywhere),
        "trajectory.import.mb_per_s": ratio(counters["trajectory.import.bytes"] / 1e6, seconds("trajectory.import", everywhere)),
        "trace.overhead_ratio": statistics.median(w for w, _, _, _ in traced) / statistics.median(untraced_walls),
    }


def repeating_counts(stats) -> dict:
    totals = _by_name([stats])
    return {name: totals.get(name[: -len(".calls")], [0])[0] for name in REPEATING_COUNTS}


# --------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = parse_args(argv)
    # Stay on one CPU so the run never migrates mid-pass; fresh set-up
    # processes inherit this.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if not (SRC / "artjoint" / "__init__.py").is_file():
        print(f"perfbench: no artjoint sources under {SRC}", file=sys.stderr)
        return 2
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import artjoint
    import numpy as np

    from tracing import Tracer, records
    from workloads import WORKLOADS

    if SRC.resolve() not in Path(artjoint.__file__).resolve().parents:
        print(f"perfbench: imported artjoint from {artjoint.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        workload = WORKLOADS[args.workload](args.seed, args.small, work_dir, expected)
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload.setup()
        setup_s = time.perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_stats, setup_counters = tracer.take() if tracer else ({}, None)

        untraced, traced = [], []  # (wall, PassResult[, stats, counters])
        setup_samples = [setup_s]
        t_begin = time.perf_counter()
        index = 0
        while (
            len(untraced) < 2
            or (tracer and len(traced) < 2)
            or time.perf_counter() - t_begin < args.seconds
        ):
            if tracer and index % 2 == 1:
                with tracer.installed():
                    t0 = time.perf_counter()
                    result = workload.run_pass(index, tracer)
                    wall = time.perf_counter() - t0
                traced.append((wall, result, *tracer.take()))
            else:
                t0 = time.perf_counter()
                result = workload.run_pass(index)
                wall = time.perf_counter() - t0
                untraced.append((wall, result))
                if not tracer and len(setup_samples) < SETUP_SAMPLES and (
                    time.perf_counter() - t_begin >= args.seconds * len(setup_samples) / SETUP_SAMPLES
                ):
                    setup_samples.append(setup_in_fresh_process(args))
            index += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = [r for _, r in untraced] + [t[1] for t in traced]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0
    fits = [f for r in results for f in r.fits]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops": {"attempted": attempted, "failed": failed, "per_pass": results[0].attempted},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "notes": [note for r in results for note in r.notes][:20],
    }
    if fits:
        meta["fit"] = {
            "first_pass": results[0].fits,
            "accurate_ratio": sum(f["accurate"] for f in fits) / len(fits),
        }

    if tracer:
        counts = [repeating_counts(stats) for _, _, stats, _ in traced]
        repeat = all(c == counts[0] for c in counts)
        correct = correct and repeat
        values = layer_metrics(setup_stats, setup_counters, traced, [w for w, _ in untraced])
        units = PER_LAYER_UNITS
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for rec in records(setup_stats):
                fh.write(json.dumps(rec) + "\n")
            for _, _, stats, _ in traced:
                for rec in records(stats):
                    fh.write(json.dumps(rec) + "\n")
            for span in tracer.op_spans:
                fh.write(json.dumps({"op_span": span}) + "\n")
        meta["tracing"] = {"counts_per_pass": counts, "counts_repeat": repeat, "spans": str(spans_path.relative_to(ROOT))}
    else:
        walls = [w for w, _ in untraced]
        # op latency statistics are taken within each pass, then the median
        # over passes is reported, so one disturbed pass cannot move them
        timed = [np.array(r.latencies) * 1e6 for _, r in untraced if r.latencies]

        def per_pass(stat):
            return statistics.median(float(stat(lat)) for lat in timed) if timed else 0.0
        setup_samples += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - len(setup_samples))]
        values = {
            # the mean, not the median: single set-ups fall near either of two
            # speeds, and a median of seven flips between them (WORKLOADS.md)
            "setup_s": statistics.fmean(setup_samples),
            "wall_s": statistics.median(walls),
            # no solution at all only happens alongside a failed op
            "s_per_solution": statistics.median(w / max(r.solutions, 1) for w, r in untraced),
            "joint_steps_per_s": statistics.median(r.joint_steps / w for w, r in untraced),
            "op_us_mean": per_pass(np.mean),
            "op_us_p99": per_pass(lambda lat: np.percentile(lat, 99)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        meta["pass_walls_s"] = walls
        meta["setup_samples_s"] = setup_samples
        meta["op_samples"] = sum(lat.size for lat in timed)
        # not a gated metric: env step latency is bimodal (steps with and
        # without contact), so its median jumps between the two modes
        meta["op_us_p50"] = per_pass(np.median)

    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
