"""Loading the compiled stepper: it loads wherever ``cc`` is on ``PATH``, its
library is cached under a name that changes with the source, a stale,
half-written or failed build is never loaded, an unwritable cache falls
back to a temporary directory, and without a compiler the fit runs the
Python loop to the same bits. Every run of forces enters through
``dynamics._run``, and nothing is built before the first: not for a fit
problem, nor for an env episode."""

import importlib.resources
import shutil
from pathlib import Path

import pytest

import artjoint as aj
from artjoint import dynamics, fixtures, sysid

import test_sysid
from conftest import press_and_close


@pytest.fixture()
def load(monkeypatch):
    """``load(cache, source=None)``: ``dynamics._load_kernel()`` with the
    cache under ``cache`` and, if given, another source file."""

    def load(cache, source=None):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        if source is not None:
            monkeypatch.setattr(dynamics, "_SOURCE", source)
        return dynamics._load_kernel()

    return load


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


def test_the_compiled_stepper_loads_where_cc_is_on_path():
    kind, why = dynamics._stepper()
    assert kind == ("compiled" if shutil.which("cc") else "python"), why


def test_nothing_is_built_before_the_first_rollout(monkeypatch):
    """Loading a fitspec and deriving a start from it (the fit benchmark's
    set-up) build and load nothing: the first evaluation does."""
    monkeypatch.setattr(dynamics, "_compiled", None)
    problem = sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))
    seeded = test_sysid.benchmark_start(problem, 1)
    assert dynamics._compiled is None
    sysid.residuals(problem, dict(problem.init))
    assert dynamics._compiled is not None
    monkeypatch.setattr(dynamics, "_compiled", None)
    sysid.objective(seeded, dict(seeded.init))
    assert dynamics._compiled is not None


def test_an_env_episode_builds_nothing_and_the_first_run_does(monkeypatch):
    """The env's ticks are one-tick segments, which step in floats, so env
    set-up and a scripted episode never pay for a build; the first
    multi-tick run loads the kernel."""
    monkeypatch.setattr(dynamics, "_compiled", None)
    scenario = aj.load_scenario(fixtures.scenario_path("trashcan_env"))
    *_, (_, _, _, done) = press_and_close(aj.ManipulationEnv(scenario))
    assert done and dynamics._compiled is None
    aj.run(scenario)
    assert dynamics._compiled is not None


def test_every_run_of_forces_enters_through_run_and_the_env_tick_does_not(monkeypatch):
    """``dynamics._run`` is the one multi-step entry: the fit's residuals,
    ``rollout`` and a multi-tick ``run`` each reach it, and a scripted env
    episode steps through ``_advance`` alone. Both are wrapped by module
    attribute, as the benchmark's tracer wraps what it times."""
    calls = []
    for name in ("_run", "_advance"):
        original = getattr(dynamics, name)

        def wrapped(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(dynamics, name, wrapped)

    problem = sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))
    spec = problem.spec_template
    scenario = aj.load_scenario(fixtures.scenario_path("drawer"))
    for label, action in (
        ("residuals", lambda: sysid.residuals(problem, dict(problem.init))),
        ("rollout", lambda: aj.rollout(spec, [1.0] * 3, 0.001, aj.initial_state(spec, q=0.35))),
        ("run", lambda: aj.run(scenario)),
    ):
        calls.clear()
        action()
        assert "_run" in calls, label
    calls.clear()
    *_, (_, _, _, done) = press_and_close(aj.ManipulationEnv(aj.load_scenario(fixtures.scenario_path("trashcan_env"))))
    assert done and "_advance" in calls and "_run" not in calls


def test_the_source_ships_with_the_package():
    assert (importlib.resources.files("artjoint") / "_stepper.c").is_file()


@needs_cc
def test_an_edited_source_gets_a_new_library(load, tmp_path):
    source = dynamics._SOURCE
    kernel, path = load(tmp_path)
    assert kernel is not None, path
    assert Path(path).parent == tmp_path / "artjoint" and Path(path).is_file()
    edited = tmp_path / "_stepper.c"
    edited.write_text(source.read_text() + "/* edited */\n")
    kernel, edited_path = load(tmp_path, edited)
    assert kernel is not None, edited_path
    assert edited_path != path and Path(edited_path).parent == Path(path).parent
    assert load(tmp_path, source)[1] == path  # the first build, found in the cache


@needs_cc
def test_stale_half_written_and_failed_builds_are_never_loaded(load, tmp_path):
    name = Path(load(tmp_path / "first")[1]).name
    cache = tmp_path / "second" / "artjoint"
    cache.mkdir(parents=True)
    # an older build and one cut off mid-write: neither is a loadable library
    stale, partial = cache / "_stepper-0123456789abcdef.so", cache / f"{name}.abcd1234.tmp"
    for junk in (stale, partial):
        junk.write_bytes(b"\x7fELF cut short")
    kernel, path = load(tmp_path / "second")
    assert kernel is not None, path
    assert path == str(cache / name)
    assert stale.read_bytes() == partial.read_bytes() == b"\x7fELF cut short"

    broken = tmp_path / "broken.c"
    broken.write_text(dynamics._SOURCE.read_text() + "this does not compile\n")
    kernel, why = load(tmp_path / "third", broken)
    assert kernel is None and why.startswith("cc failed: ") and "error" in why and "\n" not in why
    assert list((tmp_path / "third" / "artjoint").iterdir()) == []  # no library, no temporary file


@needs_cc
def test_an_unwritable_cache_builds_in_a_temporary_directory(load, tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory would go")
    kernel, why = load(blocker)
    assert kernel is not None, why
    assert f"({blocker / 'artjoint'} is not writable)" in why
    assert not Path(why.split(",")[0]).exists()  # removed once loaded
    assert blocker.read_text() == "a file where the cache directory would go"


@pytest.mark.parametrize("label", sorted(test_sysid.PINNED_FITS))
def test_without_a_compiler_the_fit_runs_the_python_loop_to_the_same_pins(monkeypatch, tmp_path, label):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(dynamics, "_compiled", None)
    assert dynamics._stepper() == ("python", "no C compiler (cc) on PATH")
    problem = sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))
    test_sysid.test_fit_on_the_bundled_fitspec_is_pinned(problem, label)
