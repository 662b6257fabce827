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

Import reads the header with :mod:`csv`, then the data rows in 1 MiB blocks
with the compiled reader (``_csv.c``), straight into one float64 array. It
takes ``repr``'s grammar only: ``-?D+(.D+)?(e[+-]D+)?``, ``inf``, ``-inf``
and ``nan``, cells joined by ``,`` and rows ended by ``\n`` (the last may
end the file instead). Any other file is read again by :func:`_read_rows`,
the reference, which accepts every data cell that ``float()`` accepts:
padded, quoted, ``1_0``, ``nan``/``inf`` in any case, with ``\n``, ``\r\n``
or lone ``\r`` line ends; blank lines are skipped. It also reads every file
where the library does not load, and raises :class:`MalformedCsvError` with
the file line where the first bad row starts; a byte that is not UTF-8 is a
bad cell there. Header channel names must be CSV-safe, as on export.
"""

from __future__ import annotations

import csv
import ctypes
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _native
from .errors import DisjointTimeSpansError, MalformedCsvError

_BLOCK_ROWS = 1024  # CSV data rows per write
_CELL_BYTES = 25  # the longest repr of a float64 (24) and its ',' or '\n'
_BLOCK_BYTES = 1 << 20  # CSV bytes per read on import


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
        """Exact structural equality (names, order, and every float, a NaN
        equal to a NaN)."""
        return (
            self.channel_names == other.channel_names
            and np.array_equal(self.times, other.times)
            and all(np.array_equal(self.channels[n], other.channels[n], equal_nan=True) for n in self.channels)
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


# a comma, quote, CR, LF or lone surrogate (what a byte that is not UTF-8
# decodes to on import)
_UNSAFE = re.compile('[,"\r\n\ud800-\udfff]')


def check_csv_safe(name: str) -> None:
    """Raise ``ValueError`` if ``name`` holds a comma, quote, CR, LF or a
    lone surrogate: a header cell that :func:`export_csv` writes unquoted
    in UTF-8 must read back whole."""
    if _UNSAFE.search(name):
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
    lib = _library()[0]
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        if lib is None:
            for i in range(0, n, _BLOCK_ROWS):
                cells = [_reprs(column[i : i + _BLOCK_ROWS]) for column in columns]
                fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]).encode("ascii"))
            return
        addresses = np.array([column.ctypes.data for column in columns], dtype=np.uintp)
        block = np.empty(min(n, _BLOCK_ROWS) * len(columns) * _CELL_BYTES, dtype=np.uint8)
        for i in range(0, n, _BLOCK_ROWS):
            size = lib.artjoint_write_rows(addresses.ctypes.data, len(columns), i, min(_BLOCK_ROWS, n - i), block.ctypes.data)
            fh.write(block[:size])


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float, called once per distinct bit pattern (so
    ``-0.0`` and ``0.0`` stay apart) and gathered back in order."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return [text[j] for j in index.tolist()]


# (the library of artjoint_write_rows and artjoint_read_rows or None, why):
# None until the first export_csv or import_csv loads it (artjoint._native).
# Tests set (None, reason) here to write through _reprs and read through
# _read_rows.
_compiled: "tuple[ctypes.CDLL | None, str] | None" = None


def _library() -> "tuple[ctypes.CDLL | None, str]":
    global _compiled
    if _compiled is None:
        _compiled = _native.library()
    return _compiled


def import_csv(path: "str | Path") -> Trajectory:
    """Read a trajectory CSV written by :func:`export_csv` (or shaped like
    one). Raises :class:`MalformedCsvError` on bad headers, ragged rows, or
    non-numeric cells."""
    with open(path, "rb") as fh:
        lib = _library()[0]
        data = None
        if lib is not None:
            lines = (line.decode("utf-8", "surrogateescape") for line in fh)  # as the re-read decodes them
            try:
                header = _header(csv.reader(lines), path)
                data = _parse(lib, fh, len(header))
            except csv.Error:  # at a lone CR, which ends a line only for the re-read
                pass
        if data is None:
            fh.seek(0)
            reader = csv.reader(io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline=""))
            header = _header(reader, path)
            data = _read_rows(reader, header, path)
    try:
        return Trajectory(
            times=data[:, 0],
            channels={name: data[:, i + 1] for i, name in enumerate(header[1:])},
        )
    except ValueError as exc:
        raise MalformedCsvError(f"{path}: {exc}") from None


def _header(reader, path) -> list[str]:
    """The header row of ``reader``: ``t`` and CSV-safe, distinct channel
    names."""
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
    return header


def _parse(lib: ctypes.CDLL, fh, width: int) -> "np.ndarray | None":
    """The data rows from ``fh``'s position on, ``width`` cells each, read
    by ``artjoint_read_rows`` a block at a time into one float64 array; or
    ``None`` at the first line outside its grammar. The block carries the
    tail of a line it cuts off into the next read, and grows only for a
    line longer than itself."""
    block = np.empty(_BLOCK_BYTES + 1, dtype=np.uint8)  # and the NUL the reader stops at
    data = np.empty((0, width))
    rows = filled = 0
    used = ctypes.c_long()
    while True:
        if filled == len(block) - 1:
            block = np.concatenate([block, np.empty_like(block)])
        got = fh.readinto(block[filled:-1])
        filled += got
        block[filled] = 0
        need = rows + filled // (2 * width) + 1  # the reader's bound: a row takes a byte and a separator per cell
        if len(data) < need:
            grown = np.empty((max(need, 2 * len(data)), width))
            grown[:rows] = data[:rows]
            data = grown
        n = lib.artjoint_read_rows(block.ctypes.data, filled, width, got == 0, data[rows:].ctypes.data, ctypes.byref(used))
        if n < 0:
            return None
        rows += n
        if got == 0:
            return data[:rows]
        filled -= used.value
        block[:filled] = block[used.value : used.value + filled]


def _read_rows(reader, header: list[str], path) -> np.ndarray:
    """The row-by-row reader behind :func:`import_csv`: each row after the
    header through ``float()``, with an error naming the file line where the
    first bad row starts (a quoted cell may span lines). The only path for
    what the compiled reader refuses (quoted cells, ``1_0``, ...), for the
    error texts, and where the library does not load."""
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
