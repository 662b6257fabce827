"""Trajectory container, comparison metrics, averaging, and CSV round-trip."""

import csv
import math

import numpy as np
import pytest

import artjoint as aj


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


@pytest.mark.parametrize("odd_name", ["odd name", "odd\rname"])
def test_csv_export_writes_the_reference_bytes(tmp_path, odd_name):
    n = 2 * 1024 + 37  # more rows than one block
    rng = np.random.default_rng(5)
    specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-7, 1e16, 0.0])
    t = make_trajectory(
        np.arange(n) * 0.001,
        **{
            "a/b.q": np.resize(specials, n),
            odd_name: rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),
            "c.x": np.where(np.arange(n) % 3 == 0, -0.0, rng.uniform(-1.0, 1.0, size=n)),
        },
    )
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    aj.export_csv(t, got)
    reference_export_csv(t, expected)
    assert got.read_bytes() == expected.read_bytes()
    if "\r" in odd_name:
        return  # csv.writer leaves a lone CR unquoted, and csv.reader splits the header there

    back = aj.import_csv(got)
    assert back.channel_names == t.channel_names
    for name in ["t"] + t.channel_names:
        a, b = (back.times, t.times) if name == "t" else (back.channels[name], t.channels[name])
        assert [float(v).hex() for v in a] == [float(v).hex() for v in b], name  # nan, signbit and all


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


def test_csv_safe_channel_names_enforced(tmp_path):
    t = make_trajectory([0.0], **{"a,b": [1.0]})
    with pytest.raises(ValueError, match="CSV-safe"):
        aj.export_csv(t, tmp_path / "x.csv")


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
