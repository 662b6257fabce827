"""Loading the compiled library, the stepper (``_stepper.c``) and the CSV
row writer and reader (``_csv.c``) built as one: it loads wherever ``cc``
is on ``PATH``, it is cached under a name that changes with either source,
a stale, half-written or failed build is never loaded, an unwritable cache
falls back to a temporary directory, both sources compile without a
warning, and without a compiler the fit runs the Python loop to the same
bits and ``export_csv`` writes the same bytes through ``_reprs``. Every run
of forces enters through ``dynamics._run``, and nothing is built before the
first run, export or import: not for an env episode, and for a fit problem
only the library its CSV import loads."""

import importlib.resources
import shutil
import subprocess
from pathlib import Path

import pytest

import artjoint as aj
from artjoint import _native, dynamics, fixtures, sysid, trajectory

import test_sysid
from conftest import press_and_close


@pytest.fixture()
def load(monkeypatch):
    """``load(cache, sources=None)``: ``_native._load()`` with the cache
    under ``cache`` and, if given, other source files."""

    def load(cache, sources=None):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        if sources is not None:
            monkeypatch.setattr(_native, "_SOURCES", sources)
        return _native._load()

    return load


# the loaded library, the bound stepper and the CSV writer and reader's
# library: None until loaded
LOADED = ((_native, "_loaded"), (dynamics, "_compiled"), (trajectory, "_compiled"))


@pytest.fixture()
def unloaded(monkeypatch):
    """Nothing of :data:`LOADED` loaded, as in a fresh process."""
    for module, name in LOADED:
        monkeypatch.setattr(module, name, None)


def loaded() -> tuple[bool, ...]:
    """Whether each of :data:`LOADED` is loaded."""
    return tuple(getattr(module, name) is not None for module, name in LOADED)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


def test_the_compiled_stepper_loads_where_cc_is_on_path():
    """And the CSV writer and reader with it, from the one library."""
    kind, why = dynamics._stepper()
    assert kind == ("compiled" if shutil.which("cc") else "python"), why
    assert (trajectory._library()[0] is not None) == (kind == "compiled")
    assert trajectory._library()[1] == why  # one library, one reason


def test_nothing_is_built_before_the_first_rollout(unloaded):
    """Loading a fitspec and deriving a start from it (the fit benchmark's
    set-up) bind no stepper: the first evaluation does. The library is
    loaded by the import of the fitspec's observed CSV."""
    problem = sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))
    seeded = test_sysid.benchmark_start(problem, 1)
    assert loaded() == (True, False, True)
    sysid.residuals(problem, dict(problem.init))
    assert loaded() == (True, True, True)
    dynamics._compiled = None
    sysid.objective(seeded, dict(seeded.init))
    assert dynamics._compiled is not None


def test_an_env_episode_builds_nothing_and_the_first_run_does(unloaded, tmp_path):
    """The env's ticks are one-tick segments, which step in floats, so
    loading a scenario, env set-up and a scripted episode never pay for a
    build; the first multi-tick run loads the library, and so does the
    first export on its own, and the first import."""
    scenario = aj.load_scenario(fixtures.scenario_path("trashcan_env"))
    *_, (_, _, _, done) = press_and_close(aj.ManipulationEnv(scenario))
    assert done and loaded() == (False, False, False)
    t, _ = aj.run(scenario)
    assert loaded() == (True, True, False)
    _native._loaded = dynamics._compiled = None
    aj.export_csv(t, tmp_path / "t.csv")
    assert loaded() == (True, False, True)
    _native._loaded = trajectory._compiled = None
    assert aj.import_csv(tmp_path / "t.csv") == t
    assert loaded() == (True, False, True)


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
    for name in ("_stepper.c", "_csv.c"):
        assert (importlib.resources.files("artjoint") / name).is_file(), name


@needs_cc
def test_both_sources_compile_without_a_warning():
    """As ``_native`` feeds them to ``cc``: one translation unit, its
    flags, and every warning of ``-Wall -Wextra`` an error."""
    flags = [*_native._CFLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    result = subprocess.run(["cc", *flags, "-x", "c", "-"], input=_native._source(), capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")


@needs_cc
def test_an_edited_source_gets_a_new_library(load, tmp_path):
    """Editing either source renames the library."""
    sources = _native._SOURCES
    lib, path = load(tmp_path)
    assert lib is not None, path
    assert Path(path).parent == tmp_path / "artjoint" and Path(path).is_file()
    names = {path}
    for edited, source in enumerate(sources):
        copy = tmp_path / source.name
        copy.write_text(source.read_text() + "/* edited */\n")
        lib, edited_path = load(tmp_path, sources[:edited] + (copy,) + sources[edited + 1 :])
        assert lib is not None, edited_path
        assert edited_path not in names and Path(edited_path).parent == Path(path).parent, source.name
        names.add(edited_path)
    assert load(tmp_path, sources)[1] == path  # the first build, found in the cache


@needs_cc
def test_stale_half_written_and_failed_builds_are_never_loaded(load, tmp_path):
    name = Path(load(tmp_path / "first")[1]).name
    cache = tmp_path / "second" / "artjoint"
    cache.mkdir(parents=True)
    # an older build and one cut off mid-write: neither is a loadable library
    stale, partial = cache / "_artjoint-0123456789abcdef.so", cache / f"{name}.abcd1234.tmp"
    for junk in (stale, partial):
        junk.write_bytes(b"\x7fELF cut short")
    lib, path = load(tmp_path / "second")
    assert lib is not None, path
    assert path == str(cache / name)
    assert stale.read_bytes() == partial.read_bytes() == b"\x7fELF cut short"

    broken = tmp_path / "_csv.c"
    broken.write_text(_native._SOURCES[1].read_text() + "this does not compile\n")
    lib, why = load(tmp_path / "third", (_native._SOURCES[0], broken))
    assert lib is None and why.startswith("cc failed: ") and "error" in why and "\n" not in why
    assert "_csv.c:" in why  # the file the error is in, by name
    assert list((tmp_path / "third" / "artjoint").iterdir()) == []  # no library, no temporary file


@needs_cc
def test_an_unwritable_cache_builds_in_a_temporary_directory(load, tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file where the cache directory would go")
    lib, why = load(blocker)
    assert lib is not None, why
    assert f"({blocker / 'artjoint'} is not writable)" in why
    assert not Path(why.split(",")[0]).exists()  # removed once loaded
    assert blocker.read_text() == "a file where the cache directory would go"


@pytest.mark.parametrize("label", sorted(test_sysid.PINNED_FITS))
def test_without_a_compiler_the_fit_runs_the_python_loop_to_the_same_pins(monkeypatch, unloaded, tmp_path, label):
    """... and ``export_csv`` writes, through ``_reprs``, the bytes the
    compiled writer wrote where it loaded, which ``import_csv`` reads back
    through ``_read_rows``."""
    t, _ = aj.run(aj.load_scenario(fixtures.scenario_path("microwave")))
    aj.export_csv(t, tmp_path / "compiled.csv")
    monkeypatch.setenv("PATH", str(tmp_path))
    for module, name in LOADED:
        setattr(module, name, None)
    assert dynamics._stepper() == ("python", "no C compiler (cc) on PATH")
    problem = sysid.load_fitspec(fixtures.fitspec_path("drawer_sprung"))
    test_sysid.test_fit_on_the_bundled_fitspec_is_pinned(problem, label)
    aj.export_csv(t, tmp_path / "reprs.csv")
    assert trajectory._library() == (None, "no C compiler (cc) on PATH")
    assert (tmp_path / "reprs.csv").read_bytes() == (tmp_path / "compiled.csv").read_bytes()
    assert aj.import_csv(tmp_path / "reprs.csv") == t
