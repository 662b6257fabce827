"""Trajectory container, comparison metrics, averaging, and CSV round-trip."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import fixtures as fx
from artjoint import trajectory as trajectory_mod

from test_benchmark_contract import load_perfbench


def make_trajectory(times, **channels):
    return aj.Trajectory(times=np.asarray(times, dtype=float), channels={k: np.asarray(v, dtype=float) for k, v in channels.items()})


# ---------------------------------------------------------------------------
# container invariants


def test_times_must_increase():
    with pytest.raises(ValueError):
        make_trajectory([0.0, 0.1, 0.1], a=[1, 2, 3])
    with pytest.raises(ValueError):
        make_trajectory([0.0, -0.1], a=[1, 2])


def test_channel_length_must_match():
    with pytest.raises(ValueError):
        make_trajectory([0.0, 0.1], a=[1.0])


def test_len_and_names():
    t = make_trajectory([0.0, 0.1, 0.2], b=[1, 2, 3], a=[0, 0, 0])
    assert len(t) == 3
    assert t.channel_names == ["b", "a"]  # insertion order, not sorted
    assert list(t.channel("a")) == [0, 0, 0]


def test_equality_is_exact_and_trajectories_stay_unhashable():
    a = make_trajectory([0.0, 0.1, 0.2], q=[0.3, 0.4, 0.5])
    assert a == make_trajectory([0.0, 0.1, 0.2], q=[0.3, 0.4, 0.5])
    assert a != make_trajectory([0.0, 0.1, 0.2], q=[0.3, 0.4, 0.6])
    assert a != make_trajectory([0.0, 0.1, 0.2], r=[0.3, 0.4, 0.5])
    assert a != make_trajectory([0.0, 0.1, 0.3], q=[0.3, 0.4, 0.5])
    assert a != "q"
    # a NaN equals a NaN, as a CSV round trip of one gives it back
    gap = make_trajectory([0.0, 1.0], a=[math.nan, 1.0])
    assert gap.equals(gap) and gap == make_trajectory([0.0, 1.0], a=[math.nan, 1.0])
    assert gap != make_trajectory([0.0, 1.0], a=[math.nan, 2.0])
    assert gap != make_trajectory([0.0, 1.0], a=[0.0, 1.0])
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_is_zero():
    t = make_trajectory([0.0, 0.1, 0.2], a=[1.0, 2.0, 3.0])
    result = aj.compare(t, t)
    assert result.pooled_rmse == 0.0
    assert result.pooled_max_abs == 0.0
    assert result.per_channel["a"].rmse == 0.0
    assert result.n_samples == 3


def test_compare_constant_offset():
    times = np.linspace(0, 1, 11)
    a = make_trajectory(times, q=np.zeros(11))
    b = make_trajectory(times, q=np.full(11, 0.1))
    result = aj.compare(a, b)
    assert result.per_channel["q"].rmse == pytest.approx(0.1, rel=1e-12)
    assert result.per_channel["q"].max_abs == pytest.approx(0.1, rel=1e-12)
    assert result.pooled_rmse == pytest.approx(0.1, rel=1e-12)


def test_compare_matches_two_pass_oracle():
    rng = np.random.default_rng(51)
    times = np.cumsum(rng.uniform(0.01, 0.1, size=200))
    a = make_trajectory(times, x=rng.normal(size=200), y=rng.normal(size=200))
    b = make_trajectory(times, x=rng.normal(size=200), y=rng.normal(size=200))
    result = aj.compare(a, b)

    total_sq, total_n, pooled_max = 0.0, 0, 0.0
    for name in ("x", "y"):
        diffs = [float(u) - float(v) for u, v in zip(a.channels[name], b.channels[name])]
        sq = math.fsum(d * d for d in diffs)
        rmse = math.sqrt(sq / len(diffs))
        max_abs = max(abs(d) for d in diffs)
        assert result.per_channel[name].rmse == pytest.approx(rmse, rel=1e-12)
        assert result.per_channel[name].max_abs == pytest.approx(max_abs, rel=1e-12)
        total_sq += sq
        total_n += len(diffs)
        pooled_max = max(pooled_max, max_abs)
    assert result.pooled_rmse == pytest.approx(math.sqrt(total_sq / total_n), rel=1e-12)
    assert result.pooled_max_abs == pytest.approx(pooled_max, rel=1e-12)


def test_compare_is_symmetric_on_shared_base():
    rng = np.random.default_rng(52)
    times = np.linspace(0, 2, 50)
    a = make_trajectory(times, q=rng.normal(size=50))
    b = make_trajectory(times, q=rng.normal(size=50))
    assert aj.compare(a, b).pooled_rmse == pytest.approx(aj.compare(b, a).pooled_rmse, rel=1e-12)


def test_compare_resamples_linearly():
    # b holds q(t) = 2 t on a coarse base; sampled anywhere it interpolates
    a = make_trajectory([0.05, 0.15, 0.25], q=[0.1, 0.3, 0.5])
    b = make_trajectory([0.0, 0.1, 0.2, 0.3], q=[0.0, 0.2, 0.4, 0.6])
    result = aj.compare(a, b)
    assert result.pooled_rmse == pytest.approx(0.0, abs=1e-15)
    assert result.n_samples == 3


def test_compare_restricts_to_overlap():
    a = make_trajectory([0.0, 1.0, 2.0, 3.0], q=[0.0, 1.0, 2.0, 3.0])
    b = make_trajectory([1.5, 2.5], q=[1.5, 2.5])
    result = aj.compare(a, b)
    assert result.n_samples == 1  # only t=2.0 falls inside [1.5, 2.5]
    assert result.pooled_rmse == pytest.approx(0.0, abs=1e-15)


def test_compare_disjoint_spans():
    a = make_trajectory([0.0, 1.0], q=[0.0, 0.0])
    b = make_trajectory([2.0, 3.0], q=[0.0, 0.0])
    with pytest.raises(aj.DisjointTimeSpansError):
        aj.compare(a, b)


def test_compare_channel_mismatch():
    a = make_trajectory([0.0, 1.0], q=[0.0, 0.0])
    b = make_trajectory([0.0, 1.0], r=[0.0, 0.0])
    with pytest.raises(ValueError, match="channel sets differ"):
        aj.compare(a, b)


def test_compare_empty_rejected():
    empty = make_trajectory([], q=[])
    with pytest.raises(ValueError):
        aj.compare(empty, empty)


def test_compare_is_bit_identical_with_one_blas_thread(tmp_path):
    # 20,001 samples: past the length at which BLAS dot products may split
    # over threads, so a BLAS reduction in compare would show here
    rng = np.random.default_rng(3)
    times = np.arange(20_001) * 1e-3
    for name in ("a", "b"):
        aj.export_csv(make_trajectory(times, q=rng.normal(size=len(times)), r=rng.normal(size=len(times))), tmp_path / f"{name}.csv")
    script = "import sys; import artjoint as aj; print(repr(aj.compare(aj.import_csv(sys.argv[1]), aj.import_csv(sys.argv[2]))))"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(aj.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "a.csv"), str(tmp_path / "b.csv")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    in_process = aj.compare(aj.import_csv(tmp_path / "a.csv"), aj.import_csv(tmp_path / "b.csv"))
    assert proc.stdout == repr(in_process) + "\n"


# numpy's pairwise summation changes shape at these lengths: under 8 terms,
# up to 128 in 8 accumulators, then halves; 1,601 and 12,001 are the fit
# tests' series, the second past numpy's 8,192-element buffer
PAIRWISE_EDGES = [1, 7, 8, 9, 128, 129, 1601, 12001]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PAIRWISE_EDGES),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]), max_size=8),
)
def test_pairwise_dots_equal_pairwise_dot_of_each_row_pair(length, rows, seed, specials):
    """The polish's ``J^T J`` and ``J^T r`` are one ``pairwise_dots`` each
    over a (p, n) Jacobian; every entry equals ``pairwise_dot`` of its row
    pair bit for bit, with exponents spread from underflow to 1e150 and
    signed zeros and subnormals put in at drawn places."""
    rng = np.random.default_rng(seed)
    jacobian = rng.choice([-1.0, 1.0], (rows, length)) * 10.0 ** rng.uniform(-330.0, 150.0, (rows, length))
    r = rng.choice([-1.0, 1.0], length) * 10.0 ** rng.uniform(-330.0, 150.0, length)
    for row in (*jacobian, r):
        row[rng.integers(0, length, len(specials))] = specials
    normal = trajectory_mod.pairwise_dots(jacobian[:, None], jacobian)
    gradient = trajectory_mod.pairwise_dots(jacobian, r)
    assert normal.shape == (rows, rows) and gradient.shape == (rows,)
    for i, a in enumerate(jacobian):
        assert gradient[i].tobytes() == np.float64(trajectory_mod.pairwise_dot(a, r)).tobytes()
        for j, b in enumerate(jacobian):
            assert normal[i, j].tobytes() == np.float64(trajectory_mod.pairwise_dot(a, b)).tobytes()


# ---------------------------------------------------------------------------
# average


def test_average_is_per_sample_mean():
    times = [0.0, 0.1, 0.2]
    trials = [
        make_trajectory(times, q=[0.0, 1.0, 2.0]),
        make_trajectory(times, q=[2.0, 3.0, 4.0]),
        make_trajectory(times, q=[4.0, 5.0, 6.0]),
    ]
    mean = aj.average(trials)
    assert list(mean.channel("q")) == [2.0, 3.0, 4.0]
    assert list(mean.times) == times


def test_average_requires_shared_base_and_channels():
    a = make_trajectory([0.0, 0.1], q=[0.0, 0.0])
    with pytest.raises(ValueError):
        aj.average([a, make_trajectory([0.0, 0.2], q=[0.0, 0.0])])
    with pytest.raises(ValueError):
        aj.average([a, make_trajectory([0.0, 0.1], r=[0.0, 0.0])])
    with pytest.raises(ValueError):
        aj.average([])


def test_average_of_one_is_identity():
    a = make_trajectory([0.0, 0.1], q=[0.3, 0.4])
    assert aj.average([a]).equals(a)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(53)
    t = make_trajectory(np.cumsum(rng.uniform(1e-4, 0.1, size=300)), a=rng.normal(size=300), b=rng.normal(size=300) * 1e-17)
    path = tmp_path / "t.csv"
    aj.export_csv(t, path)
    back = aj.import_csv(path)
    assert back.equals(t)
    # and the file itself is a fixpoint
    path2 = tmp_path / "t2.csv"
    aj.export_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def reference_export_csv(trajectory, path):
    """The row-at-a-time writer: one ``csv.writer`` row of ``repr(float(v))`` per sample."""
    names = trajectory.channel_names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + names)
        for row in zip(trajectory.times, *(trajectory.channels[n] for n in names)):
            writer.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("odd_name", ["odd name"])
def test_csv_export_writes_the_reference_bytes(tmp_path, odd_name):
    n = 2 * 1024 + 37  # more rows than one block
    rng = np.random.default_rng(5)
    specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-7, 1e16, 0.0])
    # NaNs of several payloads, both signs: distinct bit patterns that all write as 'nan'
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
                     0x7FF4000000000000, 0xFFF0000000000ABC], dtype=np.uint64).view(np.float64)
    t = make_trajectory(
        np.arange(n) * 0.001,
        **{
            "a/b.q": np.resize(specials, n),
            odd_name: rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),
            "c.x": np.where(np.arange(n) % 3 == 0, -0.0, rng.uniform(-1.0, 1.0, size=n)),
            "const": np.repeat([0.25, -1e-300, 7.0], 1024)[:n],  # one value per block
            "zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
            "nans": np.where(rng.random(n) < 0.8, nans[rng.integers(0, len(nans), size=n)], 1.5),
        },
    )
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    aj.export_csv(t, got)
    reference_export_csv(t, expected)
    assert got.read_bytes() == expected.read_bytes()

    back = aj.import_csv(got)
    assert back.channel_names == t.channel_names
    for name in ["t"] + t.channel_names:
        a, b = (back.times, t.times) if name == "t" else (back.channels[name], t.channels[name])
        assert [float(v).hex() for v in a] == [float(v).hex() for v in b], name  # signbit and all


@pytest.mark.parametrize("odd_name", ["odd name"])
def test_csv_export_writes_the_reference_bytes_through_reprs(python_csv, tmp_path, odd_name):
    test_csv_export_writes_the_reference_bytes(tmp_path, odd_name)


# ---------------------------------------------------------------------------
# the compiled row writer (_csv.c)

CSV_SOURCE = Path(trajectory_mod.__file__).with_name("_csv.c").read_text()


@pytest.fixture(scope="module")
def write_rows():
    """``artjoint_write_rows`` of the compiled library (skipped where it
    does not load)."""
    lib, why = trajectory_mod._library()
    if lib is None:
        pytest.skip(why)
    return lib.artjoint_write_rows


def compiled_cells(write_rows, values) -> list[str]:
    """Each of ``values`` as the compiled writer writes it: one column of
    one-cell rows."""
    column = np.ascontiguousarray(values, dtype=np.float64)
    addresses = np.array([column.ctypes.data], dtype=np.uintp)
    out = np.empty(len(column) * trajectory_mod._CELL_BYTES, dtype=np.uint8)
    size = write_rows(addresses.ctypes.data, 1, 0, len(column), out.ctypes.data)
    return out[:size].tobytes().decode("ascii").split("\n")[:-1]


def near(value: float, spread: int) -> st.SearchStrategy:
    """Bit patterns within ``spread`` ulps of ``value``."""
    bits = int(np.float64(value).view(np.uint64))
    return st.integers(-spread, spread).map(lambda d: bits + d)


BIT_PATTERNS = st.one_of(
    st.integers(0, 2**63 - 1),  # any magnitude, NaN payloads and infinities
    st.integers(1, 2**52 - 1),  # subnormals
    st.integers(0, 2046).map(lambda e: e << 52),  # powers of two, 0.0
    st.integers(1, 2046).flatmap(lambda e: st.integers(-2, 2).map(lambda d: (e << 52) + d)),  # and their neighbours
    st.integers(2**52 - 1, 2**52 + 1),  # around the smallest normal
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),  # NaN payloads
    near(1e-5, 64),  # the exponent form starts below 1e-4 ...
    near(1e-4, 64),
    near(1e16, 64),  # ... and at 1e16
    near(1e15, 64),
    st.integers(2**52 - 1, 2**52 + 1).map(lambda m: m + (1075 << 52)),  # integral values at 2^53
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.booleans(), BIT_PATTERNS), min_size=1, max_size=64))
@example([(False, 1), (True, 1), (False, 0x7FEFFFFFFFFFFFFF), (True, 0x7FEFFFFFFFFFFFFF), (False, 0), (True, 0)])
@example([(False, 0x7FF0000000000000), (True, 0x7FF0000000000000), (False, 0x7FF8000000000000), (True, 0x7FF0000000000ABC)])
def test_the_compiled_writer_writes_repr_of_every_bit_pattern(write_rows, cells):
    """Signed raw float64 bit patterns: subnormals, ``5e-324``, the largest
    double, powers of two, signed zeros, infinities, NaN payloads of both
    signs and values next to where the exponent form begins."""
    values = np.array([pattern | (sign << 63) for sign, pattern in cells], dtype=np.uint64).view(np.float64)
    assert compiled_cells(write_rows, values) == [repr(v) for v in values.tolist()]


def simulate_outputs() -> list[aj.Trajectory]:
    """The benchmark's simulate outputs: each bundled fixture's run and the
    seed-1 scene of three copies of each (``perfbench/workloads.py``)."""
    workloads = load_perfbench("workloads")
    paths = [fx.scenario_path(name) for name in fx.FIXTURE_NAMES]
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "scene.scenario.json"
        scene.write_text(json.dumps(workloads.make_scene(np.random.default_rng(1), 3)), encoding="utf-8")
        return [aj.run(aj.load_scenario(path))[0] for path in (*paths, scene)]


def test_the_compiled_writer_writes_every_simulate_output_as_reprs(write_rows, tmp_path, request):
    """Every cell of the five simulate outputs: the compiled writer's file
    is ``_reprs``'s, byte for byte."""
    outputs = simulate_outputs()
    assert sum(len(t) * (len(t.channels) + 1) for t in outputs) == 493_101
    for i, t in enumerate(outputs):
        aj.export_csv(t, tmp_path / f"{i}.compiled.csv")
    request.getfixturevalue("python_csv")
    for i, t in enumerate(outputs):
        aj.export_csv(t, tmp_path / f"{i}.reprs.csv")
        assert (tmp_path / f"{i}.compiled.csv").read_bytes() == (tmp_path / f"{i}.reprs.csv").read_bytes(), i


def c_array(name: str) -> list[int]:
    """The integers of ``_csv.c``'s table ``name``, in source order."""
    body = re.search(rf"\b{name}\[[^]]*\](?:\[\d+\])? = \{{(.*?)\}};", CSV_SOURCE, re.S).group(1)
    return [int(v, 0) for v in re.findall(r"0x[0-9a-f]+|\d+", body)]


def pow5bits(e: int) -> int:
    """ceil(log2(5^e)), 1 at e = 0."""
    return (5**e).bit_length()


def pow5_split(i: int) -> int:
    """floor(5^i * 2^(125 - pow5bits(i)))."""
    shift = pow5bits(i) - 125
    return 5**i >> shift if shift >= 0 else 5**i << -shift


def pow5_inv_floor(i: int) -> int:
    """floor(2^(pow5bits(i) + 124) / 5^i)."""
    return (1 << (pow5bits(i) + 124)) // 5**i


def corrections(exact, base_of, n: int) -> list[int]:
    """The 2-bit corrections of powers 0 .. n - 1, 16 to a word: ``exact(i)``
    less its power of a multiple of 26 (``base_of(i)``) times 5^|i - base|,
    shifted as ``_csv.c`` shifts it."""
    deltas = []
    for i in range(n):
        b = base_of(i)
        approximate = (exact(b) * 5 ** abs(i - b)) >> abs(pow5bits(i) - pow5bits(b))
        deltas.append(exact(i) - approximate)
    assert all(0 <= d <= 3 for d in deltas)
    return [sum(d << 2 * k for k, d in enumerate(deltas[w : w + 16])) for w in range(0, n, 16)]


def halves(values: list[int]) -> list[int]:
    return [part for v in values for part in (v & (2**64 - 1), v >> 64)]


def test_every_table_constant_of_the_compiled_writer_is_recomputed():
    """The tables of ``_csv.c`` from Python integers: 5^i over every
    exponent a double reaches (i <= 325) and 2^k / 5^i (i <= 290), and the
    magic multipliers of its logarithms over the ranges they state."""
    assert c_array("POW5") == [5**o for o in range(26)]
    assert c_array("POW5_SPLIT") == halves([pow5_split(b) for b in range(0, 326, 26)])
    assert c_array("POW5_INV_SPLIT") == halves([pow5_inv_floor(b) for b in range(0, 291 + 25, 26)])
    assert c_array("POW5_CORRECTION") == corrections(pow5_split, lambda i: i // 26 * 26, 326)
    assert c_array("POW5_INV_CORRECTION") == corrections(pow5_inv_floor, lambda i: (i + 25) // 26 * 26, 291)
    pairs = "".join(re.findall(r'"(\d+)"', CSV_SOURCE[CSV_SOURCE.index("PAIRS[200] =") :].split(";")[0]))
    assert pairs == "".join(f"{k:02d}" for k in range(100))
    for name, exact, limit in (
        ("pow5bits", lambda e: pow5bits(e), 3528),
        ("log10_pow2", lambda e: len(str(2**e)) - 1, 1650),
        ("log10_pow5", lambda e: len(str(5**e)) - 1, 2620),
    ):
        multiplier, shift, one = re.search(rf"int32_t {name}\(int32_t e\) {{ return \(int32_t\)\(\(\(uint32_t\)e \* (\d+)u\) >> (\d+)\)( \+ 1)?;", CSV_SOURCE).groups()
        assert f"exact for 0 <= e <= {limit} */\nstatic inline int32_t {name}(" in CSV_SOURCE
        assert all((e * int(multiplier) >> int(shift)) + bool(one) == exact(e) for e in range(limit + 1)), name


@pytest.mark.parametrize("writer", ["compiled", "reprs"])
def test_export_refuses_a_channel_resized_after_construction(tmp_path, request, writer):
    if writer == "reprs":
        request.getfixturevalue("python_csv")
    t = make_trajectory([0.0, 0.001, 0.002], q=[0.0, 0.1, 0.2])
    t.channels["q"] = np.zeros(2)
    with pytest.raises(ValueError, match="one sample per time"):
        aj.export_csv(t, tmp_path / "t.csv")


def test_csv_header_layout(tmp_path):
    t = make_trajectory([0.0, 0.001], **{"drawer/slide.q": [0.0, 0.5]})
    path = tmp_path / "t.csv"
    aj.export_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,drawer/slide.q"
    assert len(lines) == 3


def test_empty_trajectory_exports_header_only(tmp_path):
    t = make_trajectory([], q=[])
    path = tmp_path / "empty.csv"
    aj.export_csv(t, path)
    assert path.read_text() == "t,q\n"
    back = aj.import_csv(path)
    assert len(back) == 0
    assert back.channel_names == ["q"]


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", 'a"b'])
def test_csv_safe_channel_names_enforced(tmp_path, name):
    # csv.writer would quote ',', '"' and LF but not a lone CR, and csv.reader splits the header there
    t = make_trajectory([0.0], **{name: [1.0]})
    with pytest.raises(ValueError, match="CSV-safe"):
        aj.export_csv(t, tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "content, hint",
    [
        ("", "empty"),
        ("time,q\n0.0,1.0\n", "first header column"),
        ("t,q,q\n0.0,1.0,2.0\n", "duplicate"),
        ("t,q\n0.0\n", "columns"),
        ("t,q\n0.0,spam\n", "could not convert"),
        ("t,q\n0.1,1.0\n0.1,2.0\n", "increasing"),
    ],
)
def test_malformed_csv(tmp_path, content, hint):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(aj.MalformedCsvError, match=hint):
        aj.import_csv(path)


@pytest.mark.parametrize("rows", ["0,1\ninf,2\n", "0,1\ninf,2\ninf,3\n", "-inf,1\n0,2\n", "0,1\nnan,2\n"])
def test_import_csv_rejects_a_non_finite_time_without_a_warning(tmp_path, rows):
    # one inf time increases past every finite one, and inf - inf is a nan
    # that numpy warns about: the time base is checked for finiteness first
    path = tmp_path / "bad.csv"
    path.write_text("t,q\n" + rows, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(aj.MalformedCsvError, match=r"bad\.csv: times must be finite$"):
            aj.import_csv(path)


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a,b", 'a""b'])
def test_import_csv_rejects_a_header_name_export_would_refuse(tmp_path, name):
    # csv.reader reads each of these from a quoted cell; export_csv refuses the name
    path = tmp_path / "bad.csv"
    path.write_bytes(f't,"{name}"\n0.0,1.0\n'.encode("utf-8"))
    shown = repr(name.replace('""', '"'))
    with pytest.raises(aj.MalformedCsvError) as err:
        aj.import_csv(path)
    assert str(err.value) == f"{path}: header channel name {shown} is not CSV-safe"


@pytest.mark.parametrize(
    "text, message",
    [
        # a quoted header cell holding LF fails at the header, before any row
        ('t,"a\nb"\n0.0,1.0\n0.1,x\n', "{path}: header channel name 'a\\nb' is not CSV-safe"),
        # a quoted cell spans lines 2 and 3; the bad row is the file's line 4
        ('t,a\n"0.0\n",1.0\n0.1,x\n', "{path}:4: could not convert string to float: 'x'"),
        # the same with CRLF inside the cell and a blank line before the short row
        ('t,a\n"0.0\r\n",1.0\n\n0.1\n', "{path}:5: expected 2 columns, got 1"),
    ],
)
def test_import_csv_errors_name_the_file_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(aj.MalformedCsvError) as err:
        aj.import_csv(path)
    assert str(err.value) == message.format(path=path)


def reference_import_csv(path):
    """The row-at-a-time reader: ``csv.reader`` rows through ``float()``, with
    the texts of every :class:`MalformedCsvError`."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:  # a bad byte fails as a cell
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise aj.MalformedCsvError(f"{path}: empty file (no header)") from None
        if not header or header[0] != "t":
            raise aj.MalformedCsvError(f"{path}: first header column must be 't', got {header[:1]}")
        names = header[1:]
        if len(set(names)) != len(names):
            raise aj.MalformedCsvError(f"{path}: duplicate channel names in header")
        for name in names:
            if any(c in name for c in ',"\r\n') or any("\ud800" <= c <= "\udfff" for c in name):
                raise aj.MalformedCsvError(f"{path}: header channel name {name!r} is not CSV-safe")
        rows = []
        first = reader.line_num + 1
        for row in reader:
            lineno, first = first, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise aj.MalformedCsvError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                rows.append(list(map(float, row)))
            except ValueError as exc:
                raise aj.MalformedCsvError(f"{path}:{lineno}: {exc}") from None
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    try:
        return aj.Trajectory(times=data[:, 0], channels={name: data[:, i + 1] for i, name in enumerate(names)})
    except ValueError as exc:
        raise aj.MalformedCsvError(f"{path}: {exc}") from None


def import_outcome(read, path):
    """Channel names and the bits of every value, or the exception's type and text."""
    try:
        t = read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    columns = [t.times] + [t.channels[n] for n in t.channel_names]
    return t.channel_names, [np.asarray(c).view(np.int64).tolist() for c in columns]


_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.sampled_from(["-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "-2.2250738585072014e-308", "1e16"]),
)
_ODD_CELL = st.sampled_from(
    ["", " ", "#", "#1", "1_0", "-nan", "NaN", "+Infinity", "1e5", ".5", "5.", "abc", "0x10",
     "\x1c1.0", "1.0\x1f", "\u0661", "\xa02.5", "\t3\x0b"]
)
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def csv_texts(draw):
    """A header, then rows of ``repr`` floats under an increasing time column,
    with up to three edits: an odd or quoted or padded cell, a blank or
    whitespace-only line, a ragged row. Each line gets its own line end."""
    width = draw(st.integers(1, 4))
    header = ["t"] + [f"c{i}" for i in range(width - 1)]
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from([["time"], ["t", "c", "c"], ['"t"', "c"]]))
    rows = [[repr(0.5 * k)] + [draw(_FLOAT_TEXT) for _ in range(width - 1)] for k in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, len(row) - 1))
        edit = draw(st.integers(0, 5))
        if edit == 0:
            row[col] = draw(_ODD_CELL)
        elif edit == 1:
            row[col] = f'"{row[col]}"'
        elif edit == 2:
            row[col] = draw(_PAD) + row[col] + draw(_PAD)
        elif edit == 3:
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(["", " ", "\t"]))])
        elif edit == 4:
            if len(row) > 1 and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(_FLOAT_TEXT))
        else:
            row[0] = draw(_FLOAT_TEXT)  # times out of order
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(",".join(line) + draw(ends) for line in [header] + rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no end after the last line
    return text


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
@example(text="t,c0\n0.0,\x1c1.0\n")  # float() refuses U+001C, which some readers strip as whitespace
@example(text="t,c0\r0.0,-0.0\r0.5,nan\r")
@example(text='t,c0\n0.0,"1.0"\n')
@example(text="t,q\n0.0,1.0\n0.1,\udcff\n")  # the byte 0xff, not UTF-8: a bad cell on file line 3
@example(text="t,q\udcff\n0.0,1.0\n")  # and in a header name
@example(text="\ufefft,q\n0.0,1.0\n")  # a UTF-8 byte order mark is part of the first header cell
@example(text="t,q\n0.0,1.0\n0.1,2.0")  # no end after the last row
@example(text="t,q\n0.0,1e+400\n0.1,-1e-400\n0.2,4.9406564584124654e-324\n0.3,0.000001\n")
def test_import_csv_agrees_with_the_row_reader(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # a lone surrogate stands for the byte it escapes
    assert import_outcome(aj.import_csv, path) == import_outcome(reference_import_csv, path)


def test_import_csv_agrees_with_the_row_reader_through_read_rows(python_csv, tmp_path):
    test_import_csv_agrees_with_the_row_reader(tmp_path)


def test_import_csv_agrees_on_a_header_only_file(tmp_path, recwarn):
    for text in ["t,q\n", "t,q", "t\n", "t,q\n\n\r\n"]:
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert import_outcome(aj.import_csv, path) == import_outcome(reference_import_csv, path)
    assert not recwarn.list  # no "input contained no data"


def test_bundled_csvs_import_without_the_row_reader(tmp_path, monkeypatch):
    paths = [fx.fixtures_dir() / "drawer_sprung_observed.csv"]
    for name in fx.SCENARIO_NAMES:
        trajectory, _ = aj.run(aj.load_scenario(fx.scenario_path(name)))
        paths.append(tmp_path / f"{name}.csv")
        aj.export_csv(trajectory, paths[-1])
    calls = []
    reader = csv.reader
    monkeypatch.setattr(trajectory_mod.csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
    for path in paths:
        calls.clear()
        back = aj.import_csv(path)
        assert len(calls) == 1, path  # the header's reader; a second one is the row-by-row re-read
        assert import_outcome(lambda p: back, path) == import_outcome(reference_import_csv, path)


def test_bundled_csvs_import_without_the_row_reader_through_read_rows(python_csv, tmp_path, monkeypatch):
    test_bundled_csvs_import_without_the_row_reader(tmp_path, monkeypatch)


# ---------------------------------------------------------------------------
# the compiled row reader (_csv.c)


@pytest.fixture(params=["compiled", "python"])
def csv_path(request) -> str:
    """The test once through the compiled writer and reader (skipped where
    they do not load) and once through ``_reprs`` and ``_read_rows``, as
    :func:`python_csv` sets them."""
    if request.param == "python":
        request.getfixturevalue("python_csv")
    elif trajectory_mod._library()[0] is None:
        pytest.skip(trajectory_mod._library()[1])
    return request.param


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.booleans(), BIT_PATTERNS), min_size=1, max_size=64))
@example([(False, 1), (True, 1), (False, 0x7FEFFFFFFFFFFFFF), (True, 0x7FEFFFFFFFFFFFFF), (False, 0), (True, 0)])
@example([(False, 0x7FF0000000000000), (True, 0x7FF0000000000000), (False, 0x7FF8000000000000), (True, 0x7FF0000000000ABC)])
@example([(False, int(np.float64(v).view(np.uint64))) for v in (2.0**53, 2.0**53 + 2, 1e22, 1e23, 9007199254740993e-22, 0.1, 1e-05)])
def test_every_bit_pattern_reads_back_from_the_text_written(csv_path, tmp_path, cells):
    """Signed raw float64 bit patterns written by ``export_csv`` and read
    back by ``import_csv``: every value gives back its bits, every NaN the
    bits of ``float('nan')``, and each is ``float()`` of its ``repr``."""
    values = np.array([pattern | (sign << 63) for sign, pattern in cells], dtype=np.uint64).view(np.float64)
    path = tmp_path / "bits.csv"
    aj.export_csv(make_trajectory(np.arange(len(values)), v=values), path)
    back = aj.import_csv(path).channels["v"]
    assert bits(back) == bits([float(repr(v)) for v in values.tolist()])
    assert bits(back) == bits(np.where(np.isnan(values), math.nan, values))


def test_every_simulate_output_and_the_observed_csv_read_back_bit_equal(csv_path, tmp_path):
    """Every cell of the five simulate outputs reads back to the bits it
    was written from, and every cell of ``drawer_sprung_observed.csv`` to
    the bits ``float()`` reads from its text."""
    for i, t in enumerate(simulate_outputs()):
        aj.export_csv(t, tmp_path / f"{i}.csv")
        back = aj.import_csv(tmp_path / f"{i}.csv")
        assert back.channel_names == t.channel_names, i
        for a, b in zip([back.times, *back.channels.values()], [t.times, *t.channels.values()]):
            assert bits(a) == bits(b), i
    observed = fx.fixtures_dir() / "drawer_sprung_observed.csv"
    assert import_outcome(aj.import_csv, observed) == import_outcome(reference_import_csv, observed)


@pytest.mark.parametrize("block_bytes", [1, 7, 64, 4096])
def test_the_compiled_reader_carries_every_cut_line_into_the_next_block(tmp_path, monkeypatch, block_bytes):
    """Blocks shorter than a line, a cell, or one byte: each line a block
    cuts off is read whole from the next, the block grows for a line longer
    than itself, a last line with no end is a row, and no file is read
    again by the row reader."""
    if trajectory_mod._library()[0] is None:
        pytest.skip(trajectory_mod._library()[1])
    unended = tmp_path / "unended.csv"
    aj.export_csv(make_trajectory([0.0, 0.5, 1.0], q=[-1.5e-300, math.inf, 2.0**53 + 2]), unended)
    unended.write_bytes(unended.read_bytes().rstrip(b"\n"))
    calls = []
    reader = csv.reader
    monkeypatch.setattr(trajectory_mod.csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
    monkeypatch.setattr(trajectory_mod, "_BLOCK_BYTES", block_bytes)
    for path in (fx.fixtures_dir() / "drawer_sprung_observed.csv", unended):
        calls.clear()
        got = import_outcome(aj.import_csv, path)
        assert len(calls) == 1, path  # the header's reader only
        assert got == import_outcome(reference_import_csv, path)


def test_the_power_of_ten_table_of_the_compiled_reader_is_exact():
    """``POW10[k]`` is 10^k exactly, for k = 0 .. 22: 10^22 = 2^22 5^22 is
    the largest power of ten whose odd part, 5^22, fits in 53 bits."""
    body = re.search(r"\bPOW10\[23\] = \{(.*?)\};", CSV_SOURCE, re.S).group(1)
    table = [float(v) for v in re.findall(r"1e\d+", body)]
    assert [int(v) for v in table] == [10**k for k in range(23)]
