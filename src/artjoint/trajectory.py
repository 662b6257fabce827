"""Uniformly sampled time series, comparison metrics, and CSV round-trip.

CSV layout: header ``t,<channel>,...`` then one row per sample. Floats are
written with shortest round-trip precision (``repr``), so export/import is
lossless and repeated runs produce bit-identical bytes. Export writes the
data rows 1,024 at a time with one call of the compiled writer
(``_csv.c``, Ryu's shortest digits laid out as ``repr`` lays them out) per
block into one reused buffer; where the package's compiled library
(``artjoint._native``) does not load, :func:`_reprs` formats each distinct
float of a block once, and is the reference the writer is held to. A
channel name must be CSV-safe (:func:`check_csv_safe`).

Import reads the header with :mod:`csv` and accepts every data cell that
``float()`` accepts: padded, quoted, ``1_0``, ``nan``/``inf`` in any case,
with ``\n``, ``\r\n`` or lone ``\r`` line ends; blank lines are skipped.
Plain numeric rows parse in one ``np.loadtxt`` call; any other file is read
again row by row, which raises :class:`MalformedCsvError` with the file
line where the first bad row starts. Header channel names must be CSV-safe,
as on export.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import _native
from .errors import DisjointTimeSpansError, MalformedCsvError

_BLOCK_ROWS = 1024  # CSV data rows per write
_CELL_BYTES = 25  # the longest repr of a float64 (24) and its ',' or '\n'


@dataclass
class Trajectory:
    """Sampled channels over a shared, finite, strictly increasing time base."""

    times: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.all(np.isfinite(self.times)):  # checked first: diff of inf - inf warns
            raise ValueError("times must be finite")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        self.channels = {name: np.asarray(vals, dtype=float) for name, vals in self.channels.items()}
        for name, vals in self.channels.items():
            if vals.shape != self.times.shape:
                raise ValueError(
                    f"channel '{name}' has {vals.shape[0] if vals.ndim else 0} samples, expected {len(self.times)}"
                )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def channel_names(self) -> list[str]:
        return list(self.channels)

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]

    def equals(self, other: "Trajectory") -> bool:
        """Exact structural equality (names, order, and every float)."""
        return (
            self.channel_names == other.channel_names
            and np.array_equal(self.times, other.times)
            and all(np.array_equal(self.channels[n], other.channels[n]) for n in self.channels)
        )

    def __eq__(self, other) -> bool:
        """:meth:`equals`; a trajectory stays unhashable."""
        return self.equals(other) if isinstance(other, Trajectory) else NotImplemented


@dataclass(frozen=True)
class ChannelStats:
    rmse: float
    max_abs: float


@dataclass(frozen=True)
class ComparisonResult:
    per_channel: dict[str, ChannelStats]
    pooled_rmse: float
    pooled_max_abs: float
    n_samples: int


def pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` of two 1-D arrays by numpy's own pairwise summation, the
    ``np.add.reduce`` loop ``np.sum`` runs, without its wrapper: BLAS
    ``dot`` threads long vectors, and its result then depends on the
    thread count. ``_stepper.c`` sums a fit's squared residuals in the
    same order."""
    return float(np.add.reduce(np.multiply(a, b)))


def pairwise_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` along the last axis of two broadcastable arrays, each by
    :func:`pairwise_dot`'s loop and equal to it bit for bit: the reduction
    runs over each contiguous row of the product."""
    return np.add.reduce(np.multiply(a, b), axis=-1)


def compare(a: Trajectory, b: Trajectory) -> ComparisonResult:
    """Per-channel and pooled RMSE / max-abs error between two trajectories.

    Both must carry identical channel sets. ``b`` is linearly interpolated
    onto ``a``'s samples restricted to the overlapping span (exact where the
    time bases agree); an empty overlap raises
    :class:`DisjointTimeSpansError`.
    """
    if a.channel_names != b.channel_names:
        if set(a.channel_names) == set(b.channel_names):
            pass  # same set, different order: fine, we index by name
        else:
            only_a = sorted(set(a.channel_names) - set(b.channel_names))
            only_b = sorted(set(b.channel_names) - set(a.channel_names))
            raise ValueError(f"channel sets differ (only in a: {only_a}, only in b: {only_b})")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot compare empty trajectories")

    t0 = max(a.times[0], b.times[0])
    t1 = min(a.times[-1], b.times[-1])
    if t0 > t1:
        raise DisjointTimeSpansError(
            f"time spans [{a.times[0]}, {a.times[-1]}] and [{b.times[0]}, {b.times[-1]}] do not overlap"
        )
    keep = (a.times >= t0) & (a.times <= t1)
    times = a.times[keep]
    if len(times) == 0:
        raise DisjointTimeSpansError("no samples of the first trajectory fall inside the overlap")
    sample_b = {name: np.interp(times, b.times, b.channels[name]) for name in a.channel_names}

    per_channel: dict[str, ChannelStats] = {}
    total_sq = 0.0
    total_n = 0
    pooled_max = 0.0
    for name in a.channel_names:
        diff = a.channels[name][keep] - sample_b[name]
        sq = pairwise_dot(diff, diff)
        max_abs = float(np.max(np.abs(diff))) if len(diff) else 0.0
        per_channel[name] = ChannelStats(rmse=float(np.sqrt(sq / len(diff))), max_abs=max_abs)
        total_sq += sq
        total_n += len(diff)
        pooled_max = max(pooled_max, max_abs)
    return ComparisonResult(
        per_channel=per_channel,
        pooled_rmse=float(np.sqrt(total_sq / total_n)),
        pooled_max_abs=pooled_max,
        n_samples=len(times),
    )


def average(trajectories: "list[Trajectory]") -> Trajectory:
    """Per-sample mean of trajectories sharing one time base and channel set
    (the way repeated trials of one experiment get pooled)."""
    if not trajectories:
        raise ValueError("nothing to average")
    first = trajectories[0]
    for other in trajectories[1:]:
        if not np.array_equal(first.times, other.times):
            raise ValueError("trajectories must share the same time base to be averaged")
        if first.channel_names != other.channel_names:
            raise ValueError("trajectories must share the same channels to be averaged")
    channels = {
        name: np.mean([t.channels[name] for t in trajectories], axis=0) for name in first.channel_names
    }
    return Trajectory(times=first.times.copy(), channels=channels)


def check_csv_safe(name: str) -> None:
    """Raise ``ValueError`` if ``name`` holds a comma, quote, CR or LF: a
    header cell that :func:`export_csv` writes unquoted must read back whole."""
    if "," in name or '"' in name or "\n" in name or "\r" in name:
        raise ValueError(f"channel name {name!r} is not CSV-safe")


def export_csv(trajectory: Trajectory, path: "str | Path") -> None:
    """Write ``t,<channels...>`` rows with shortest round-trip floats (whose ``repr`` needs no quoting)."""
    names = trajectory.channel_names
    for name in names:
        check_csv_safe(name)
    n = len(trajectory)
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in [trajectory.times, *trajectory.channels.values()]]
    if any(column.shape != (n,) for column in columns):  # the writer reads n floats of each
        raise ValueError("every channel must hold one sample per time")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["t"] + names)
    write_rows = _writer()[0]
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        if write_rows is None:
            for i in range(0, n, _BLOCK_ROWS):
                cells = [_reprs(column[i : i + _BLOCK_ROWS]) for column in columns]
                fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]).encode("ascii"))
            return
        addresses = np.array([column.ctypes.data for column in columns], dtype=np.uintp)
        block = np.empty(min(n, _BLOCK_ROWS) * len(columns) * _CELL_BYTES, dtype=np.uint8)
        for i in range(0, n, _BLOCK_ROWS):
            size = write_rows(addresses.ctypes.data, len(columns), i, min(_BLOCK_ROWS, n - i), block.ctypes.data)
            fh.write(block[:size])


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float, called once per distinct bit pattern (so
    ``-0.0`` and ``0.0`` stay apart) and gathered back in order."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return [text[j] for j in index.tolist()]


# (artjoint_write_rows or None, why): None until the first export_csv loads
# the library (artjoint._native).
# Tests set (None, reason) here to write through _reprs.
_compiled: "tuple[Callable | None, str] | None" = None


def _writer() -> "tuple[Callable | None, str]":
    global _compiled
    if _compiled is None:
        lib, why = _native.library()
        _compiled = (None if lib is None else lib.artjoint_write_rows), why
    return _compiled


def import_csv(path: "str | Path") -> Trajectory:
    """Read a trajectory CSV written by :func:`export_csv` (or shaped like
    one). Raises :class:`MalformedCsvError` on bad headers, ragged rows, or
    non-numeric cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsvError(f"{path}: empty file (no header)") from None
        if not header or header[0] != "t":
            raise MalformedCsvError(f"{path}: first header column must be 't', got {header[:1]}")
        names = header[1:]
        if len(set(names)) != len(names):
            raise MalformedCsvError(f"{path}: duplicate channel names in header")
        for name in names:
            try:
                check_csv_safe(name)
            except ValueError as exc:
                raise MalformedCsvError(f"{path}: header {exc}") from None
        try:
            with warnings.catch_warnings():  # a header-only file is a valid, empty trajectory
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != len(header):
            fh.seek(0)
            data = _read_rows(csv.reader(fh), path)
    try:
        return Trajectory(
            times=data[:, 0],
            channels={name: data[:, i + 1] for i, name in enumerate(names)},
        )
    except ValueError as exc:
        raise MalformedCsvError(f"{path}: {exc}") from None


def _plain_lines(lines):
    """``lines`` for ``np.loadtxt``, raising ``ValueError`` at a line holding
    U+001C..U+001F, which loadtxt strips around a number and ``float()``
    rejects."""
    for line in lines:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("information separator in a data line")
        yield line


def _read_rows(reader, path) -> np.ndarray:
    """The row-by-row reader behind :func:`import_csv`: each row after the
    header through ``float()``, with an error naming the file line where the
    first bad row starts (a quoted cell may span lines). The only path for
    what ``np.loadtxt`` refuses (quoted cells, ``1_0``, ...) and for the
    error texts."""
    header = next(reader)
    rows: list[list[float]] = []
    first = reader.line_num + 1
    for row in reader:
        lineno, first = first, reader.line_num + 1  # the file line the record starts on
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedCsvError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            rows.append(list(map(float, row)))
        except ValueError as exc:
            raise MalformedCsvError(f"{path}:{lineno}: {exc}") from None
    return np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
