"""Byte gate: each bundled scenario's exported CSV and event log, and one
scripted trashcan_env episode, hash to the digests committed in
``tests/data/golden_digests.json``, on the compiled stepper and writer (where
they load), on the Python loop and through ``trajectory._reprs``.

A refactor that is meant to keep simulation output unchanged must leave
these digests alone. A change that moves output on purpose regenerates them
(and ``perfbench/expected.json``) with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

import artjoint as aj
from artjoint import fixtures as fx
from conftest import press_and_close

REPO_ROOT = Path(__file__).resolve().parents[1]
DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def event_log_text(log: aj.EventLog) -> str:
    """One tab-separated line per record: t, kind, rule_id, detail, effect_type."""
    return "".join(f"{r.t!r}\t{r.kind}\t{r.rule_id}\t{r.detail}\t{r.effect_type}\n" for r in log)


def scenario_digests(name: str, work_dir: Path) -> tuple[str, str]:
    """(sha256 of the exported CSV bytes, sha256 of the event log text)."""
    trajectory, log = aj.run(aj.load_scenario(fx.scenario_path(name)))
    csv_path = work_dir / f"{name}.csv"
    aj.export_csv(trajectory, csv_path)
    return (
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(event_log_text(log).encode("utf-8")).hexdigest(),
    )


def env_episode_digest() -> str:
    """sha256 over each step of the scripted press-and-close episode on
    trashcan_env: the observation's float64 bytes, ``float(reward).hex()``
    and ``done``."""
    digest = hashlib.sha256()
    env = aj.ManipulationEnv(aj.load_scenario(fx.scenario_path("trashcan_env")))
    for _, obs, reward, done in press_and_close(env):
        digest.update(obs.tobytes())  # float64
        digest.update(f"{float(reward).hex()}\t{done}\n".encode("utf-8"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", fx.SCENARIO_NAMES)
def test_scenario_output_matches_golden_digests(name, golden, tmp_path):
    csv_digest, events_digest = scenario_digests(name, tmp_path)
    assert csv_digest == golden["csv_sha256"][name]
    assert events_digest == golden["events_sha256"][name]


def test_env_episode_matches_golden_digest(golden):
    assert env_episode_digest() == golden["env_episode_sha256"]["trashcan_env"]


@pytest.mark.parametrize("name", fx.SCENARIO_NAMES)
def test_scenario_output_matches_golden_digests_on_the_python_loop(python_stepper, name, golden, tmp_path):
    test_scenario_output_matches_golden_digests(name, golden, tmp_path)


def test_env_episode_matches_golden_digest_on_the_python_loop(python_stepper, golden):
    test_env_episode_matches_golden_digest(golden)


@pytest.mark.parametrize("name", fx.SCENARIO_NAMES)
def test_scenario_output_matches_golden_digests_through_reprs(python_csv, name, golden, tmp_path):
    test_scenario_output_matches_golden_digests(name, golden, tmp_path)


def test_golden_csv_digests_agree_with_the_benchmark(golden):
    expected = json.loads((REPO_ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    for name, digest in expected["fixture_csv_sha256"].items():
        assert golden["csv_sha256"][name] == digest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pairs = {name: scenario_digests(name, Path(tmp)) for name in fx.SCENARIO_NAMES}
    doc = {
        "csv_sha256": {name: pair[0] for name, pair in pairs.items()},
        "events_sha256": {name: pair[1] for name, pair in pairs.items()},
        "env_episode_sha256": {"trashcan_env": env_episode_digest()},
    }
    DIGESTS_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {DIGESTS_PATH}\n")
