"""Gridded daily rainfall datasets: loading, validation, and synthesis.

Locations live on an integer lattice (the grid need not be a full rectangle);
a location's neighbours are the up-to-eight surrounding lattice cells that
are present in the dataset.  Days carry a year label and days of one year are
contiguous.

``load_dataset`` keeps a parsed record in a binary sidecar beside its
rainfall CSV and reads it back while both CSVs keep their bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import stat
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import NumericError, ParseError, ValidationError
from .model import HIGH, LOW, RAIN_EPS, LatentState, check_fields

_NEIGHBOR_OFFSETS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
                     if (a, b) != (0, 0)]

LOCATIONS_HEADER = ["loc_id", "grid_x", "grid_y"]
RAINFALL_HEADER = ["loc_id", "day_index", "year", "rain_mm"]
# rows encoded per block when writing, which bounds the memory a block and
# the encoder's uint64 temporaries hold
_WRITE_BLOCK = 1 << 14
_M63 = (1 << 63) - 1
# the sidecar's key starts with this tag; a new tag retires every old sidecar,
# so change it whenever the arrays a sidecar holds or their meaning change
_SIDECAR_TAG = "rainpatterns-record-1"
# the arrays a sidecar holds, in make_dataset's argument order, and their dtypes
_SIDECAR_ARRAYS = (("rain", np.float64), ("grid_coords", np.int64),
                   ("year_of_day", np.int64))
_HASH_CHUNK = 1 << 20


@dataclass(frozen=True)
class RainfallDataset:
    """Immutable S x T daily rainfall matrix with grid and calendar metadata.

    Attributes
    ----------
    rain : ndarray, shape (S, T)
        Non-negative rainfall in mm/day; row = location, column = day.
    grid_coords : ndarray, shape (S, 2)
        Integer lattice coordinates, unique per location.
    year_of_day : ndarray, shape (T,)
        Year label of each day; equal labels form contiguous runs.
    pairs : tuple of two ndarray
        (src, dst) of every ordered neighbour pair, sorted by src, then dst.
    """

    rain: np.ndarray
    grid_coords: np.ndarray
    year_of_day: np.ndarray
    pairs: tuple

    @property
    def n_locations(self) -> int:
        return self.rain.shape[0]

    @property
    def n_days(self) -> int:
        return self.rain.shape[1]

    # per-record constants the sampler reads every sweep (the last four in
    # joint_log_density), computed on first use and read-only

    @cached_property
    def aggregate(self) -> np.ndarray:
        """Total rainfall per day (length T)."""
        return _locked(self.rain.sum(axis=0))

    @cached_property
    def rain_floored(self) -> np.ndarray:
        """Rainfall floored at ``RAIN_EPS``, as the Gamma term reads it."""
        return _locked(np.maximum(self.rain, RAIN_EPS))

    @cached_property
    def log_rain(self) -> np.ndarray:
        """Log of :attr:`rain_floored`."""
        return _locked(np.log(self.rain_floored))

    @cached_property
    def log_rain_total(self) -> np.ndarray:
        """Σ log x_c of each location, x_c the floored rainfall."""
        return _locked(self.log_rain.sum(axis=1))

    @cached_property
    def rain_floored_total(self) -> np.ndarray:
        """Σ x_c of each location, x_c the floored rainfall."""
        return _locked(self.rain_floored.sum(axis=1))

    def numeric_error(self, s: int, what: str) -> NumericError:
        """A NumericError naming location s, its wettest day and that day's
        rainfall, which ``what`` says is out of range."""
        t = int(self.rain[s].argmax())
        return NumericError(f"location {s}, day {t}: rainfall "
                            f"{self.rain[s, t]:g} mm {what}")


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset with planted patterns.

    ``n_day_patterns`` spatial patterns are planted on ``n_loc_groups``
    spatially contiguous location groups; each day draws one pattern, each
    cell takes the pattern's state flipped with probability ``flip_noise``,
    and rainfall is drawn from the per-state Gamma.  The day axis is split
    into ``n_years`` contiguous years.
    """

    n_locations: int = 64
    n_days: int = 400
    n_day_patterns: int = 4
    n_loc_groups: int = 6
    wet_shape: float = 8.0
    wet_rate: float = 0.5
    dry_shape: float = 0.5
    dry_rate: float = 2.0
    flip_noise: float = 0.1
    seed: int = 0
    n_years: int = 8

    def validate(self, where: str = "", keys: dict | None = None) -> None:
        """Reject a spec that cannot be planted (see ``check_fields``)."""
        counts = ("n_locations", "n_days", "n_day_patterns", "n_loc_groups",
                  "n_years")
        check_fields(self, (
            (counts, lambda v: v >= 1, ">= 1"),
            # numpy raises a ValueError, not a MemoryError, on 1e300 cells
            (counts, lambda v: v < 2 ** 31, "below 2^31"),
            (("seed",), lambda v: v >= 0, ">= 0"),
            (("flip_noise",), lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
            (("wet_shape", "wet_rate", "dry_shape", "dry_rate"),
             lambda v: 0 < v < math.inf, "finite and > 0"),
            (("n_loc_groups",), lambda v: v <= self.n_locations,
             "<= {n_locations}"),
            (("n_days",), lambda v: v >= max(self.n_years,
                                             4 * self.n_day_patterns),
             ">= {n_years} and >= 4 · {n_day_patterns}")), where, keys)


def _neighbour_pairs(index: dict) -> tuple:
    """(src, dst) of every ordered pair of lattice neighbours, sorted by src,
    then dst, from each location's index keyed by its (x, y)."""
    pairs = [(s, s2) for (x, y), s in index.items()
             for s2 in sorted(index[x + a, y + b] for a, b in _NEIGHBOR_OFFSETS
                              if (x + a, y + b) in index)]
    src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return _locked(src.copy()), _locked(dst.copy())


def make_dataset(rain: np.ndarray, grid_coords: np.ndarray,
                 year_of_day: np.ndarray) -> RainfallDataset:
    """Validate raw arrays and assemble a locked dataset."""
    rain = np.ascontiguousarray(rain, dtype=float)
    grid_coords = np.ascontiguousarray(grid_coords, dtype=np.int64)
    year_of_day = np.ascontiguousarray(year_of_day, dtype=np.int64)
    if rain.ndim != 2:
        raise ValidationError("rain must be a 2-D (locations x days) matrix")
    S, T = rain.shape
    if S < 1 or T < 1:
        raise ValidationError("dataset must have at least one location and day")
    if grid_coords.shape != (S, 2):
        raise ValidationError("grid_coords must have shape (S, 2)")
    if year_of_day.shape != (T,):
        raise ValidationError("year_of_day must have length T")
    if not np.isfinite(rain).all():
        raise ValidationError("rainfall contains non-finite values")
    if (rain < 0).any():
        s, t = np.argwhere(rain < 0)[0]
        raise ValidationError(f"negative rainfall at location {s}, day {t}")
    index = {(x, y): s for s, (x, y) in enumerate(grid_coords.tolist())}
    if len(index) != S:
        raise ValidationError("grid coordinates must be unique per location")
    # equal year labels must form contiguous runs
    change = np.flatnonzero(np.diff(year_of_day) != 0)
    starts = year_of_day[np.concatenate(([0], change + 1))]
    if (np.diff(np.sort(starts)) == 0).any():
        raise ValidationError("days of one year must be contiguous")
    return RainfallDataset(_locked(rain), _locked(grid_coords),
                           _locked(year_of_day), _neighbour_pairs(index))


def _check_header(path, fh, header: list[str]) -> None:
    """Read the first line of ``fh`` and check that it is ``header``."""
    first = fh.readline()
    if not first:
        raise ParseError(f"{path}: empty file")
    if next(csv.reader([first]), []) != header:
        raise ParseError(f"{path}:1: expected header {','.join(header)}")


def _read_table(path, header: list[str], kinds, checks):
    """Parse a header-checked numeric CSV into a structured array whose
    fields are named by ``header`` and typed by ``kinds``.

    ``checks(table)`` returns (mask, message) pairs: a mask flags the rows
    a check rejects and ``message(row)`` describes one.  An error names the
    first faulty line in file order: a parse fault, or a row flagged before
    it, described by the first check that flags the row.
    """
    with warnings.catch_warnings():
        # no rows is the caller's to report; "1.0" in an integer field
        # warns from numpy 1.23 until a 2.x release (2.4.6 raises)
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        table, error, row_lines = _parse_table(path, header, kinds)
    row, message = len(table), None
    for mask, describe in checks(table):
        hits = np.flatnonzero(mask[:row])
        if hits.size:
            row, message = int(hits[0]), describe
    if message is not None:
        raise ValidationError(f"{path}:{row_lines[row]}: {message(row)}")
    if error is not None:
        raise error
    return table


def _parse_table(path, header: list[str], kinds):
    """Read a CSV once and parse it with numpy: the rows before the first
    line numpy rejects (an undecodable byte reads as U+FFFD, which it
    rejects), that line's ParseError or None, and each row's line number.
    The file's bytes go on return, before any check runs."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), "utf-8", errors="replace")
    _check_header(path, text, header)
    dtype = np.dtype(list(zip(header, kinds)))
    load = partial(np.loadtxt, delimiter=",", dtype=dtype, comments=None,
                   ndmin=1)
    parts = []
    with contextlib.suppress(ValueError, DeprecationWarning):
        parts.append(load(text))
        # with one kind of line end and no blank line, each row has a line
        end = text.newlines
        if isinstance(end, str) and raw.count(end[-1].encode()) + (
                not raw.endswith(end.encode())) == len(parts[0]) + 1:
            return parts[0], None, range(2, len(parts[0]) + 2)
    text.seek(0)
    lines = text.read().split("\n")[1:]
    # lines parse alone: halve the span [lo, hi) that holds the first line
    # numpy rejects, keeping the rows of each half that parses
    lo, hi = (len(lines) if parts else 0), len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parts.append(load(lines[lo:mid]))
            lo = mid
        except (ValueError, DeprecationWarning):
            hi = mid
    floats = any(dtype[name].kind == "f" for name in dtype.names)
    error = None if lo == len(lines) else ParseError(f"{path}:{lo + 2}: " + (
        f"expected {len(header)} fields"
        if lines[lo].count(",") + 1 != len(header)
        else "malformed field" if floats else "non-integer field"))
    return (np.concatenate([np.empty(0, dtype), *parts]), error,
            np.flatnonzero([line != "" for line in lines[:lo]]) + 2)


def _repeats(values: np.ndarray) -> np.ndarray:
    """Flags each value that already occurred earlier in the array."""
    _, first = np.unique(values, return_index=True)
    seen = np.ones(len(values), dtype=bool)
    seen[first] = False
    return seen


def _load_locations(path) -> np.ndarray:
    """Validated grid coordinates, shape (S, 2), from a locations CSV."""
    def checks(t):
        loc = t["loc_id"]
        return [(_repeats(loc), lambda i: f"duplicate loc_id {loc[i]}")]

    table = _read_table(path, LOCATIONS_HEADER, [np.int64] * 3, checks)
    S = len(table)
    if S == 0:
        raise ValidationError(f"{path}: no locations")
    loc = table["loc_id"]
    if loc.min() != 0 or loc.max() != S - 1:
        raise ValidationError(f"{path}: loc_id must be dense from 0")
    grid_coords = np.empty((S, 2), dtype=np.int64)
    grid_coords[loc, 0] = table["grid_x"]
    grid_coords[loc, 1] = table["grid_y"]
    return grid_coords


def load_dataset(locations_file, rain_file) -> RainfallDataset:
    """Load and validate a dataset from the locations and rainfall CSVs.

    Both files are comma-separated with a header line, unquoted numeric
    fields and LF, CRLF or CR line ends; blank lines are skipped.  An error
    names the file and the line (``file:line``) of the first fault.

    A parsed record is kept in a sidecar, ``<rain_file>.npz``, keyed by a
    format tag and the sha256 of the bytes of both CSVs.  A later load whose
    CSVs hash to that key reads the sidecar in place of parsing them, and
    gets the same arrays.  A sidecar that is missing, unreadable, holds
    another key or fails validation is ignored and written anew; one that
    cannot be written is skipped without a word.  It is safe to delete.

    Parameters
    ----------
    locations_file : path
        CSV with header ``loc_id,grid_x,grid_y``; loc_id dense from 0.
    rain_file : path
        CSV with header ``loc_id,day_index,year,rain_mm``; one row per
        (location, day) pair, day_index dense from 0.
    """
    paths = (locations_file, rain_file)
    sidecar = os.fspath(rain_file) + ".npz"
    stamp = key = None
    with contextlib.suppress(OSError):  # the parse reports it as it always has
        stamp = _stamp(paths)
        if stamp is not None:
            key = _record_key(paths)
    if key is not None:
        cached = _read_sidecar(sidecar, key)
        if cached is not None:
            return cached
    d = _parse_dataset(locations_file, rain_file)
    # a CSV that changed since it was hashed would file d under a stale key
    if key is not None and _stamp(paths) == stamp:
        _write_sidecar(sidecar, key, d, like=rain_file)
    return d


def _stamp(paths) -> tuple | None:
    """Identity, size and modification time of each file; None unless all
    are regular files, as a pipe cannot be read once to hash and again to
    parse."""
    stats = [os.stat(path) for path in paths]
    if not all(stat.S_ISREG(st.st_mode) for st in stats):
        return None
    return tuple((st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
                 for st in stats)


def _record_key(paths) -> str:
    """The sidecar key of a record: the format tag and each file's sha256."""
    parts = [_SIDECAR_TAG]
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
                digest.update(chunk)
        parts.append(digest.hexdigest())
    return ":".join(parts)


def _read_sidecar(path: str, key: str) -> RainfallDataset | None:
    """The dataset a sidecar holds under ``key``, or None when it holds no
    valid record under that key."""
    try:
        # opened here so that it is closed whatever np.load raises
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                return None
            with npz:
                if str(npz["key"]) != key:
                    return None
                arrays = [npz[name] for name, _ in _SIDECAR_ARRAYS]
    # what damaged zip or npy bytes raise, depending on where they went wrong
    # (RuntimeError: an encryption flag or an unknown compression method)
    except (OSError, ValueError, EOFError, KeyError, RuntimeError,
            zipfile.BadZipFile):
        return None
    if any(a.dtype != dtype for a, (_, dtype) in zip(arrays, _SIDECAR_ARRAYS)):
        return None
    try:
        return make_dataset(*arrays)
    except ValidationError:
        return None


def _write_sidecar(path: str, key: str, d: RainfallDataset, like) -> None:
    """Write ``d`` under ``key`` to a temporary file beside ``path`` and
    rename it into place, with the permissions of the file ``like``; on any
    OSError leave nothing behind."""
    folder, base = os.path.split(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=base + ".", suffix=".tmp",
                                   dir=folder or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, key=np.array(key),
                     **{name: getattr(d, name) for name, _ in _SIDECAR_ARRAYS})
        # mkstemp's file is private; the copy is as readable as its source
        os.chmod(tmp, stat.S_IMODE(os.stat(like).st_mode))
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_dataset(locations_file, rain_file) -> RainfallDataset:
    """Parse and validate both CSVs (see :func:`load_dataset`)."""
    grid_coords = _load_locations(locations_file)
    S = len(grid_coords)

    def checks(t):
        loc, day, year, mm = (t[name] for name in RAINFALL_HEADER)
        days, first, rank = np.unique(day, return_index=True,
                                      return_inverse=True)
        return [
            ((loc < 0) | (loc >= S), lambda i: f"unknown loc_id {loc[i]}"),
            (~np.isfinite(mm), lambda i: "non-finite rain_mm"),
            (mm < 0, lambda i: "negative rainfall"),
            # one key per cell in the rows before the first unknown loc_id
            (_repeats(loc * len(days) + rank),
             lambda i: f"duplicate cell ({loc[i]}, {day[i]})"),
            (year != year[first[rank]],
             lambda i: f"conflicting year for day {day[i]}")]

    table = _read_table(rain_file, RAINFALL_HEADER, [np.int64] * 3 + [float],
                        checks)
    if len(table) == 0:
        raise ValidationError(f"{rain_file}: no rainfall rows")
    day = table["day_index"]
    T = int(day.max()) + 1
    if (day.min() != 0 or T > len(table)
            or not np.bincount(day, minlength=T).all()):
        raise ValidationError(f"{rain_file}: day_index must be dense from 0")
    if len(table) != S * T:
        raise ValidationError(
            f"{rain_file}: expected {S * T} cells, got {len(table)}")
    rain = np.empty((S, T))
    rain[table["loc_id"], day] = table["rain_mm"]
    years = np.empty(T, dtype=np.int64)
    years[day] = table["year"]  # every row of a day carries the same year
    return make_dataset(rain, grid_coords, years)


def _write_csv(path, header: list[str], *columns) -> None:
    """Write a numeric CSV from whole columns, one line per index, in blocks
    of ``_WRITE_BLOCK`` rows (``_write_blocks``)."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    _write_blocks(path, header, ([c[i:i + _WRITE_BLOCK] for c in columns]
                                 for i in range(0, n, _WRITE_BLOCK)))


def _write_blocks(path, header: list[str], blocks) -> None:
    """Write a numeric CSV from an iterable of blocks of rows, each a list of
    equal-length columns, encoding (``_block_bytes``) and writing each
    non-empty block before the next is drawn.  The columns hold integers
    or floats: integers are written in decimal and floats as the ``repr``
    of their double (from the vectorised encoder ``_shortest_texts``), with
    the header in csv quoting and csv's ``\\r\\n`` line ends."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for block in blocks:
            if len(block[0]):
                fh.write(_block_bytes(block))


def _block_bytes(columns) -> np.ndarray:
    """The CSV lines of a non-empty block of rows, as uint8 bytes."""
    cells = [_encode_cells(c) for c in columns]
    # a row per line: each field NUL-padded to its column's width and
    # followed by ","; the last "," and one more byte end the line
    lines = np.zeros((len(cells[0]), sum(c.itemsize + 1 for c in cells) + 1),
                     dtype=np.uint8)
    end = 0
    for c in cells:
        lines[:, end:end + c.itemsize] = c.view(np.uint8).reshape(len(c), -1)
        end += c.itemsize + 1
        lines[:, end - 1] = ord(",")
    lines[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return lines[lines != 0]


def _encode_cells(values: np.ndarray) -> np.ndarray:
    """The text of each of a non-empty block of integers or floats, as
    NUL-padded bytes.

    A float is cast to a double, and ``_shortest_texts`` builds its
    ``repr``.
    An integer indexes a table of the decimal texts of the block's values:
    of its range when that is shorter than the block, else of its distinct
    values, so the table never outgrows the block.
    """
    if values.dtype.kind == "f":
        return _shortest_texts(values.astype(np.float64))
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < len(values):
        wide = np.int64 if values.dtype.kind == "i" else np.uint64
        table, index = range(lo, hi + 1), values.astype(wide) - wide(lo)
    else:
        table, index = np.unique(values, return_inverse=True)
        table = table.tolist()
    return np.array([b"%d" % v for v in table])[index]


def _shortest_texts(x: np.ndarray) -> np.ndarray:
    """``repr``'s text of each of an array of doubles, as NUL-padded bytes.

    A normal double is written from its shortest decimal, laid out by
    ``repr``'s rules (``_text_layout``); zeros, subnormals, inf and nan take
    ``repr`` itself.  The rows are sorted by layout, so that each layout
    fills one run of rows with slices.
    """
    a = np.abs(x)
    normal = (a >= np.finfo(np.float64).smallest_normal) & (a < np.inf)
    rare = np.array([repr(v) for v in x[~normal].tolist()], dtype="S")
    negative = np.signbit(x[normal])
    d, k = _shortest_decimals(x[normal])
    # d has 16 or 17 digits: scale it to 17, the digits D of 0.D x 10^p
    short = d < 10 ** 16
    d = np.where(short, d * 10, d)
    p = k + 17 - short
    digits = np.empty((len(d), 17), np.uint8)
    high = d // 10 ** 8
    low, high = (d - high * 10 ** 8).astype(np.uint32), high.astype(np.uint32)
    for j in range(16, 8, -1):
        q, r = low // 10, high // 10
        digits[:, j], digits[:, j - 8] = low - q * 10, high - r * 10
        low, high = q, r
    digits[:, 0] = high
    digits += ord("0")
    n = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # D's own digits
    # one layout per (n, form, sign); the form is p + 3 (0-19) in fixed
    # notation, else 20-23 by the sign and width of e, the exponent of
    # d.ddd x 10^e
    e = np.abs(p - 1)
    form = np.where((p > -4) & (p <= 16), p + 3, 20 + 2 * (p < 1) + (e > 99))
    key = ((form * 18 + n) * 2 + negative).astype(np.int16)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    first = order[starts]
    layouts = [_text_layout(*v) for v in zip(
        n[first].tolist(), form[first].tolist(), negative[first].tolist())]
    width = max([len(t) for t, _, _ in layouts], default=1)
    digits = np.take(digits, order, axis=0)
    # the exponent forms sort last, so their rows are the tail of order
    tail = len(d) - np.count_nonzero(form >= 20)
    exponents = e[order[tail:], None] // [100, 10, 1] % 10 + ord("0")
    texts = np.zeros((len(d), width), np.uint8)
    for (t, dcols, xcols), i, j in zip(layouts, starts,
                                       np.append(starts[1:], len(d))):
        texts[i:j, :len(t)] = t
        texts[i:j, dcols] = digits[i:j, :len(dcols)]
        if len(xcols):
            texts[i:j, xcols] = exponents[i - tail:j - tail, 3 - len(xcols):]
    out = np.empty(len(normal), np.result_type(f"S{width}", rare))
    out[np.flatnonzero(normal)[order]] = texts.view(f"S{width}")[:, 0]
    out[~normal] = rare
    return out


@cache
def _text_layout(n: int, form: int, negative: bool):
    """``repr``'s layout of the n-digit doubles 0.D x 10^p of one form of
    ``_shortest_texts``: its bytes, with "d" for each digit and "x" for each
    exponent digit, and their columns."""
    digits, p = "d" * n, form - 3
    if form < 20:
        text = ("0." + "0" * -p + digits if p <= 0 else
                digits[:p] + "." + digits[p:] if p < n else
                digits + "0" * (p - n) + ".0")
    else:
        text = (digits[0] + "." * (n > 1) + digits[1:]
                + ("e-" if form > 21 else "e+") + "x" * (2 + form % 2))
    t = np.frombuffer(("-" * negative + text).encode(), np.uint8)
    return t, np.flatnonzero(t == ord("d")), np.flatnonzero(t == ord("x"))


def _shortest_decimals(x: np.ndarray):
    """The shortest decimal d x 10^k that reads back as |x|, for normal
    doubles; of the shortest, the nearest, with ties to the even digit.

    Giulietti's Schubfach ("The Schubfach way to render doubles", 2020), as
    the JDK's ``DoubleToDecimal`` computes it, in uint64 arithmetic.
    """
    bits = x.view(np.uint64)
    fraction = bits & (1 << 52) - 1
    exponent = (bits >> 52 & 0x7FF).astype(np.int64)
    c, q = fraction | 1 << 52, exponent - 1075
    # at a power of two the double below is nearer than the one above,
    # except at the smallest normal
    irregular = (fraction == 0) & (exponent > 1)
    k = q * 661971961083 - irregular * 274743187321 >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # 1 to 4
    g = [row[k + 324] for row in _shortest_tables()]
    # 4x, and the ends of the interval that reads back as x, all scaled by
    # 10^-k: vbl and vbr lie in it or not as c is even or odd
    cb, out = c << 2, c & 1
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - 2 + irregular << h)
    vbr = _rop(g, cb + 2 << h)
    s = vb >> 2
    # s >= 2^52, so first try the one multiple of ten in the interval
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    # else s or t, the one in the interval or, if both are, the nearer to x
    half = vb & 3
    nearer = (half < 2) | (half == 2) & (s & 1 == 0)
    d = np.where(uin & (nearer | ~win), s, t)
    return np.where(upin != wpin, np.where(upin, sp10, tp10), d), k


def _rop(g, cp):
    """g cp / 2^127 rounded to odd, for cp < 2^59, where g = g1 2^63 + g0
    is given as g1 and the 32-bit halves of g1 and g0."""
    g1, g1_high, g1_low, g0_high, g0_low = g
    cp_high, cp_low = cp >> 32, cp & 0xFFFFFFFF
    z = (g1 * cp >> 1) + _mul_high(g0_high, g0_low, cp_high, cp_low)
    return ((_mul_high(g1_high, g1_low, cp_high, cp_low) + (z >> 63))
            | ((z & _M63) + _M63) >> 63)


def _mul_high(a_high, a_low, b_high, b_low):
    """The high 64 bits of each product a b, from the 32-bit halves of
    a < 2^63 and b < 2^59, whose middle terms' sum cannot overflow."""
    return a_high * b_high + (a_low * b_high + a_high * b_low
                              + (a_low * b_low >> 32) >> 32)


@cache
def _shortest_tables():
    """Schubfach's g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for
    k = -324...292, as rows of g1 = floor(g / 2^63) and of the 32-bit halves
    of g1 and of g0 = g mod 2^63."""
    g = []
    for k in range(-324, 293):
        m = 10 ** abs(k)  # 10^-k for k > 0 lies in [2^-bits, 2^(1-bits))
        g.append(((m << 126) >> m.bit_length() if k <= 0
                  else (1 << 125 + m.bit_length()) // m) + 1)
    g1, g0 = np.array([divmod(v, 1 << 63) for v in g], np.uint64).T
    return np.stack([g1, g1 >> 32, g1 & 0xFFFFFFFF,
                     g0 >> 32, g0 & 0xFFFFFFFF])


def _cell_indices(shape) -> np.ndarray:
    """The row and the column of each cell of an array of ``shape``, in C
    order, as two columns of the smallest unsigned dtype that holds both."""
    return np.indices(shape, np.min_scalar_type(max(shape))).reshape(2, -1)


def save_dataset(d: RainfallDataset, locations_file, rain_file) -> None:
    """Write a dataset back out in the load_dataset CSV formats."""
    S, T = d.rain.shape
    _write_csv(locations_file, LOCATIONS_HEADER, np.arange(S),
               d.grid_coords[:, 0], d.grid_coords[:, 1])
    s, t = _cell_indices((S, T))
    _write_csv(rain_file, RAINFALL_HEADER, s, t, d.year_of_day[t],
               d.rain.ravel())


def compute_spatial_weights(d: RainfallDataset) -> np.ndarray:
    """Pearson-correlate each location's time series with its neighbours:
    one weight in [-1, 1] per pair of ``d.pairs``, equal to its mirror's.

    A location whose series has zero variance gets weight 0 on all its pairs:
    no coherence pull in either direction.  A series whose sum of squares
    overflows is a ``NumericError`` naming it and its largest day, unwarned.
    """
    if d.n_days < 2:
        raise ValidationError("correlation weights need at least two days")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = d.rain - d.rain.mean(axis=1, keepdims=True)
        sq = (centered * centered).sum(axis=1)
    if not np.isfinite(sq).all():
        raise d.numeric_error(int(np.isfinite(sq).argmin()),
                              "overflows the sum of squares of its series")
    norms = np.sqrt(sq).tolist()
    src, dst = d.pairs
    w = np.zeros(len(src))
    for e, (s, s2) in enumerate(zip(src.tolist(), dst.tolist())):
        if s < s2 and norms[s] * norms[s2] > 0:
            r = float(centered[s] @ centered[s2]) / (norms[s] * norms[s2])
            w[e] = min(max(r, -1.0), 1.0)
    # a pair s > s2 takes its mirror's weight: a @ b is b @ a bitwise
    lower = src > dst
    S = d.n_locations
    w[lower] = w[np.searchsorted(src * S + dst, dst[lower] * S + src[lower])]
    return _locked(w)


def discretize_by_mean(d: RainfallDataset) -> np.ndarray:
    """Threshold each cell against its location's mean daily rainfall.

    Strictly above the mean is state 1 (high); equal or below is state 2.
    A row's maximum is high unless the row is constant: the mean can round
    up to it, as (100, 100 − 2^-46)'s does.
    """
    means = d.rain.mean(axis=1, keepdims=True)
    top = d.rain.max(axis=1, keepdims=True)
    states = np.full(d.rain.shape, LOW, dtype=np.int8)
    np.copyto(states, HIGH, where=d.rain > means)
    np.copyto(states, HIGH, where=(d.rain == top)
              & (top > d.rain.min(axis=1, keepdims=True)))
    return states


def _lattice_coords(n: int) -> np.ndarray:
    side = math.ceil(math.sqrt(n))
    idx = np.arange(n)
    return np.stack([idx % side, idx // side], axis=1).astype(np.int64)


def generate_synthetic(spec: SyntheticSpec):
    """Generate a planted-pattern dataset plus its ground-truth latent state.

    Deterministic given the seed: the same spec always yields bit-identical
    rainfall, labels, and states.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    S, T, K, L = (spec.n_locations, spec.n_days, spec.n_day_patterns,
                  spec.n_loc_groups)
    coords = _lattice_coords(S)

    # contiguous location groups: nearest of L seed locations
    seeds = rng.choice(S, size=L, replace=False)
    d2 = ((coords[:, None, :] - coords[seeds][None, :, :]) ** 2).sum(axis=2)
    groups = d2.argmin(axis=1)  # 0-based; dense, as each seed owns itself

    # per-pattern group states; patterns must disagree on at least a fifth of
    # the locations pairwise so that planted clusters are recoverable
    group_sizes = np.bincount(groups, minlength=L)
    min_sep = max(0.2 * S, 1.0)
    group_states = np.empty((K, L), dtype=np.int8)
    for k in range(K):
        for _ in range(1000):
            # keep planted wet fractions moderate: mean-thresholding (and so
            # any method starting from it) is uninformative on a grid that is
            # wet nearly every day
            wet_prob = rng.uniform(0.15, 0.55)
            cand = np.where(rng.random(L) < wet_prob, HIGH, LOW).astype(np.int8)
            frac = (group_sizes * (cand == HIGH)).sum() / S
            if not 0.08 <= frac <= 0.6:
                continue
            if all((group_sizes * (cand != group_states[j])).sum() >= min_sep
                   for j in range(k)):
                group_states[k] = cand
                break
        else:
            raise ValidationError("could not plant well-separated patterns; "
                                  "increase n_loc_groups")
    patterns = group_states[:, groups]  # (K, S)

    # per-day pattern labels, resampled until all patterns occur
    while True:
        u_true = rng.integers(1, K + 1, size=T)
        if np.bincount(u_true, minlength=K + 1)[1:].all():
            break

    base = patterns[u_true - 1].T  # (S, T)
    flips = rng.random((S, T)) < spec.flip_noise
    z_true = np.where(flips, (HIGH + LOW) - base, base).astype(np.int8)

    shape = np.where(z_true == HIGH, spec.wet_shape, spec.dry_shape)
    scale = np.where(z_true == HIGH, 1.0 / spec.wet_rate, 1.0 / spec.dry_rate)
    rain = rng.gamma(shape, scale)

    # contiguous years of near-equal length
    bounds = np.linspace(0, T, spec.n_years + 1).round().astype(int)
    years = np.zeros(T, dtype=np.int64)
    for yidx in range(spec.n_years):
        years[bounds[yidx]:bounds[yidx + 1]] = yidx

    data = make_dataset(rain, coords, years)
    truth = LatentState(states=z_true, day_labels=u_true.astype(np.int64),
                        loc_labels=(groups + 1).astype(np.int64))
    return data, truth


def write_state(state: LatentState, folder, stem: str, tag: str) -> None:
    """Write a latent state in the three CSV layouts, ``<stem>_u.csv``
    (day_index,u_<tag>), ``<stem>_v.csv`` (loc_id,v_<tag>) and
    ``<stem>_z.csv`` (loc_id,day_index,z_<tag>), into ``folder``."""
    path = partial(os.path.join, folder)
    _write_csv(path(f"{stem}_u.csv"), ["day_index", f"u_{tag}"],
               np.arange(len(state.day_labels)), state.day_labels)
    _write_csv(path(f"{stem}_v.csv"), ["loc_id", f"v_{tag}"],
               np.arange(len(state.loc_labels)), state.loc_labels)
    s, t = _cell_indices(state.states.shape)
    _write_csv(path(f"{stem}_z.csv"), ["loc_id", "day_index", f"z_{tag}"],
               s, t, state.states.ravel())
