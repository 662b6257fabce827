"""Bundled reference assemblies and the scenarios that exercise them.

Four assets ship with the package: a friction-dominated sliding drawer, a
microwave whose door latch releases when its button is pressed, an oven door
with a closer that snaps it shut below the release threshold, and a pedal
trashcan whose lid slams when the pedal button fires.  Each asset has a
matching scenario; ``trashcan_env`` adds the effector-interaction variant
used by :class:`artjoint.ManipulationEnv`.

Set ``ARTJOINT_FIXTURES`` to point the lookups somewhere else (useful for
testing modified copies without reinstalling).
"""
from __future__ import annotations

import os
from pathlib import Path

FIXTURE_NAMES = ("drawer", "microwave", "oven", "trashcan")
SCENARIO_NAMES = FIXTURE_NAMES + ("trashcan_env",)
FITSPEC_NAMES = ("drawer_sprung",)


def fixtures_dir() -> Path:
    override = os.environ.get("ARTJOINT_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def asset_path(name: str) -> Path:
    """Path of the ``.artjoint.json`` file for a bundled asset name."""
    return fixtures_dir() / f"{name}.artjoint.json"


def scenario_path(name: str) -> Path:
    """Path of the ``.scenario.json`` file for a bundled scenario name."""
    return fixtures_dir() / f"{name}.scenario.json"


def fitspec_path(name: str) -> Path:
    """Path of the ``.fitspec.json`` file for a bundled fit problem."""
    return fixtures_dir() / f"{name}.fitspec.json"
