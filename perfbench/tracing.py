"""In-memory span tracer for the benchmark's traced runs.

The tracer swaps module and class attributes of ``artjoint`` for timing
wrappers while it is installed, and puts the originals back afterwards. It
wraps the binding each caller looks up at call time (``scenario`` calls
``dynamics.step`` and its own ``forward_kinematics`` import, ``fit`` calls
``sysid.objective``, which calls ``sysid.simulate_joint``, and the fitspec
loader in ``cli`` calls its own ``parse_asset`` and ``import_csv`` imports),
so nothing inside the package changes.

Spans are aggregated per (op id, parent span, span name) into call count,
total time and self time (total minus the time of wrapped calls made inside
it). One fit makes about two million ``dynamics.step`` calls, which is too
many to keep one record each.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import Counter

# (span name, "module[.Class]" under artjoint, attribute)
TARGETS = (
    ("assets.parse_asset", "assets", "parse_asset"),
    ("assets.parse_asset", "cli", "parse_asset"),
    ("scenario.load", "scenario", "load_scenario"),
    ("scenario.run", "scenario", "run"),
    ("scenario.tick", "scenario.ScenarioRuntime", "tick"),
    ("scenario.forces", "scenario.ScenarioRuntime", "scheduled_forces"),
    ("scenario.marker_position", "scenario.ScenarioRuntime", "marker_position"),
    ("scenario.marker_jacobian", "scenario.ScenarioRuntime", "marker_jacobian"),
    ("kinematics.fk", "scenario", "forward_kinematics"),
    ("kinematics.fk", "kinematics", "forward_kinematics"),
    ("dynamics.step", "dynamics", "step"),
    ("dynamics.simulate_joint", "dynamics", "simulate_joint"),
    ("dynamics.simulate_joint", "sysid", "simulate_joint"),
    ("behaviors.evaluate", "behaviors", "evaluate"),
    ("behaviors.apply", "behaviors", "apply"),
    ("envs.step", "envs.ManipulationEnv", "step"),
    ("envs.reset", "envs.ManipulationEnv", "reset"),
    ("sysid.objective", "sysid", "objective"),
    ("sysid.fit", "sysid", "fit"),
    ("trajectory.export", "trajectory", "export_csv"),
    ("trajectory.import", "trajectory", "import_csv"),
    ("trajectory.import", "cli", "import_csv"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module(f"artjoint.{module_name}")
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects aggregated spans and counters, tagged with the current op id.

    ``stats`` maps (op, parent, name) to [calls, total_s, self_s];
    ``counters`` holds the per-layer outcome counts the wrappers observe.
    """

    def __init__(self):
        self.op = "setup"
        self.stats: dict[tuple[str, str, str], list] = {}
        self.counters: Counter = Counter()
        self.op_spans: list[dict] = []
        self._stack: list[list] = [["setup", 0.0]]
        self._best_sse: dict[str, float] = {}
        self._observers = {
            "behaviors.evaluate": self._observe_evaluate,
            "sysid.objective": self._observe_objective,
            "trajectory.export": self._observe_export,
            "trajectory.import": self._observe_import,
        }

    # -- observers: outcome counts measured where the work happens ----------

    def _observe_evaluate(self, args, result) -> None:
        if result[0]:
            self.counters["behaviors.fired"] += 1

    def _observe_objective(self, args, result) -> None:
        if result < self._best_sse.get(self.op, float("inf")):
            self._best_sse[self.op] = result
            self.counters["sysid.improving"] += 1

    def _observe_export(self, args, result) -> None:
        self.counters["trajectory.export.bytes"] += os.path.getsize(args[1])

    def _observe_import(self, args, result) -> None:
        self.counters["trajectory.import.bytes"] += os.path.getsize(args[0])

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent[1] += elapsed
                key = (self.op, parent[0], name)
                record = stats.get(key)
                if record is None:
                    stats[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owner_name, attr in TARGETS:
                owner = _resolve(owner_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op_span(self, op_id: str):
        """Tag the spans recorded inside the block with ``op_id``."""
        outer_op, outer_stack = self.op, self._stack[:]
        self.op = op_id
        self._stack[:] = [[op_id, 0.0]]
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_spans.append({"op": op_id, "start": start, "end": time.perf_counter()})
            self.op = outer_op
            self._stack[:] = outer_stack

    def take(self) -> tuple[dict, Counter]:
        """Return and clear the spans and counters recorded so far."""
        stats, counters = self.stats.copy(), self.counters.copy()
        self.stats.clear()
        self.counters.clear()
        return stats, counters


def records(stats: dict) -> list[dict]:
    """Aggregated spans as JSON-ready records."""
    return [
        {"op": op, "parent": parent, "name": name, "calls": c, "total_s": total, "self_s": self_s}
        for (op, parent, name), (c, total, self_s) in stats.items()
    ]
