"""Gridded daily rainfall datasets: loading, validation, and synthesis.

Locations live on an integer lattice (the grid need not be a full rectangle);
a location's neighbourhood is the up-to-eight surrounding lattice cells that
are present in the dataset.  Days carry a year label and days of one year are
contiguous.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError
from .model import HIGH, LOW, LatentState

_NEIGHBOR_OFFSETS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
                     if (a, b) != (0, 0)]

LOCATIONS_HEADER = ["loc_id", "grid_x", "grid_y"]
RAINFALL_HEADER = ["loc_id", "day_index", "year", "rain_mm"]
_LOCATIONS_DTYPE = np.dtype([(name, np.int64) for name in LOCATIONS_HEADER])
_RAINFALL_DTYPE = np.dtype([("loc_id", np.int64), ("day_index", np.int64),
                            ("year", np.int64), ("rain_mm", np.float64)])
# rows formatted per block when writing, which bounds the Python objects alive
_WRITE_BLOCK = 1 << 16


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
    neighborhoods : tuple of ndarray
        Per-location sorted indices of lattice neighbours.
    """

    rain: np.ndarray
    grid_coords: np.ndarray
    year_of_day: np.ndarray
    neighborhoods: tuple

    @property
    def n_locations(self) -> int:
        return self.rain.shape[0]

    @property
    def n_days(self) -> int:
        return self.rain.shape[1]

    @property
    def aggregate(self) -> np.ndarray:
        """Total rainfall per day (length T)."""
        return self.rain.sum(axis=0)


@dataclass(frozen=True)
class SpatialWeights:
    """Correlation weights on neighbour pairs, symmetric and in [-1, 1]."""

    values: tuple          # per-location array aligned with neighborhoods
    neighborhoods: tuple

    @cached_property
    def edge_arrays(self):
        """Unordered neighbour pairs (i < j) and their weights, as arrays."""
        sizes = [len(nb) for nb in self.neighborhoods]
        ei = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        ej = np.concatenate(self.neighborhoods).astype(np.intp)
        w = np.concatenate(self.values).astype(float)
        keep = ei < ej
        return ei[keep], ej[keep], w[keep]


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

    def validate(self) -> None:
        if self.n_day_patterns < 1 or self.n_loc_groups < 1:
            raise ValidationError("need at least one planted pattern and group")
        if not 0.0 <= self.flip_noise < 0.5:
            raise ValidationError("flip_noise must lie in [0, 0.5)")
        if self.n_locations < 1 or self.n_days < 1:
            raise ValidationError("grid must be non-empty")
        if self.n_loc_groups > self.n_locations:
            raise ValidationError("more location groups than locations")
        if self.n_days < max(self.n_years, 4 * self.n_day_patterns):
            raise ValidationError("too few days for the requested years/patterns")
        for p in (self.wet_shape, self.wet_rate, self.dry_shape, self.dry_rate):
            if not p > 0:
                raise ValidationError("Gamma parameters must be positive")


def build_neighborhoods(grid_coords: np.ndarray) -> tuple:
    """Index the up-to-eight lattice neighbours of every location."""
    index = {(int(x), int(y)): s for s, (x, y) in enumerate(grid_coords)}
    out = []
    for x, y in grid_coords:
        nb = [index[(int(x) + a, int(y) + b)] for a, b in _NEIGHBOR_OFFSETS
              if (int(x) + a, int(y) + b) in index]
        out.append(np.array(sorted(nb), dtype=np.intp))
    return tuple(out)


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
    coords = {(int(x), int(y)) for x, y in grid_coords}
    if len(coords) != S:
        raise ValidationError("grid coordinates must be unique per location")
    # equal year labels must form contiguous runs
    change = np.flatnonzero(np.diff(year_of_day) != 0)
    starts = year_of_day[np.concatenate(([0], change + 1))]
    if len(np.unique(starts)) != len(starts):
        raise ValidationError("days of one year must be contiguous")
    for arr in (rain, grid_coords, year_of_day):
        arr.flags.writeable = False
    return RainfallDataset(rain, grid_coords, year_of_day,
                           build_neighborhoods(grid_coords))


def _read_rows(path, header: list[str]):
    """Yield (line_number, row) from a CSV after checking its header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if first != header:
            raise ParseError(f"{path}:1: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
            yield lineno, row


def _int64(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text} is outside the int64 range")
    return value


def _parse_rows(path, header: list[str], dtype: np.dtype):
    """Rows converted one at a time up to the first that fails.

    Returns the rows before it as a table and that row's ParseError (None
    when every row converts).  An all-integer table reports a
    "non-integer field", any other a "malformed field".
    """
    convs = [float if dtype[name].kind == "f" else _int64
             for name in dtype.names]
    message = "malformed field" if float in convs else "non-integer field"
    rows, error = [], None
    try:
        for lineno, row in _read_rows(path, header):
            try:
                rows.append(tuple(conv(v) for conv, v in zip(convs, row)))
            except ValueError:
                error = ParseError(f"{path}:{lineno}: {message}")
                break
    except ParseError as exc:  # a wrong field count
        error = exc
    return np.array(rows, dtype=dtype), error


def _read_table(path, header: list[str], dtype: np.dtype, first_fault):
    """Parse a header-checked numeric CSV into a structured array.

    ``first_fault(table)`` returns the first invalid row of a parsed table as
    (row, message), or None.  An error names the first faulty line in file
    order: a parse fault, or a row ``first_fault`` rejects before it.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path}: empty file")
        if next(csv.reader([first]), []) != header:
            raise ParseError(f"{path}:1: expected header {','.join(header)}")
        try:
            with warnings.catch_warnings():
                # a table without rows is reported by the caller
                warnings.simplefilter("ignore", UserWarning)
                # numpy 1.x reads "1.0" into an integer field with a warning
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(fh, delimiter=",", dtype=dtype,
                                   comments=None, ndmin=1)
            error = None
        except (ValueError, DeprecationWarning) as exc:
            table, error = _parse_rows(path, header, dtype)
            if error is None:  # a field Python reads but numpy does not
                raise ParseError(f"{path}: {exc}") from None
    fault = first_fault(table)
    if fault is not None:
        row, message = fault
        # blank lines are not rows, so count lines to name this one
        lineno, _ = next(itertools.islice(_read_rows(path, header), row, None))
        raise ValidationError(f"{path}:{lineno}: {message}")
    if error is not None:
        raise error
    return table


def _earliest_fault(n: int, checks):
    """The first faulty row of n rows as (row, message), or None.

    ``checks`` are (check, message) pairs in the order the checks apply to
    one row: ``check(m)`` flags each of the first m rows and ``message(i)``
    describes row i.  Each check sees only the rows before the earliest
    fault found so far, so a row with several faults reports the first.
    """
    fault = None
    for check, message in checks:
        hits = np.flatnonzero(check(n))
        if hits.size:
            n = int(hits[0])
            fault = (n, message(n))
    return fault


def _repeats(values: np.ndarray) -> np.ndarray:
    """Flags each value that already occurred earlier in the array."""
    _, first = np.unique(values, return_index=True)
    seen = np.ones(len(values), dtype=bool)
    seen[first] = False
    return seen


def _load_locations(path) -> np.ndarray:
    """Validated grid coordinates, shape (S, 2), from a locations CSV."""
    def first_fault(t):
        loc = t["loc_id"]
        return _earliest_fault(len(t), [
            (lambda m: _repeats(loc[:m]),
             lambda i: f"duplicate loc_id {loc[i]}")])

    table = _read_table(path, LOCATIONS_HEADER, _LOCATIONS_DTYPE, first_fault)
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
    fields and LF or CRLF line ends; blank lines are skipped.  An error
    names the file and the line (``file:line``) of the first fault.

    Parameters
    ----------
    locations_file : path
        CSV with header ``loc_id,grid_x,grid_y``; loc_id dense from 0.
    rain_file : path
        CSV with header ``loc_id,day_index,year,rain_mm``; one row per
        (location, day) pair, day_index dense from 0.
    """
    grid_coords = _load_locations(locations_file)
    S = len(grid_coords)

    def first_fault(t):
        loc, day, year, mm = (t[name] for name in RAINFALL_HEADER)
        days, first, rank = np.unique(day, return_index=True,
                                      return_inverse=True)
        return _earliest_fault(len(t), [
            (lambda m: (loc[:m] < 0) | (loc[:m] >= S),
             lambda i: f"unknown loc_id {loc[i]}"),
            (lambda m: mm[:m] < 0, lambda i: "negative rainfall"),
            # locations are known here, so each cell has its own key
            (lambda m: _repeats(loc[:m] * len(days) + rank[:m]),
             lambda i: f"duplicate cell ({loc[i]}, {day[i]})"),
            (lambda m: year[:m] != year[first[rank[:m]]],
             lambda i: f"conflicting year for day {day[i]}")])

    table = _read_table(rain_file, RAINFALL_HEADER, _RAINFALL_DTYPE,
                        first_fault)
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
    """Write a numeric CSV from whole columns, one line per index.

    Integers are written in decimal and floats as their ``repr``, with the
    header in csv quoting and csv's ``\\r\\n`` line ends.
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, n, _WRITE_BLOCK):
            block = [c[i:i + _WRITE_BLOCK].tolist() for c in columns]
            fh.writelines(line % row for row in zip(*block))


def save_dataset(d: RainfallDataset, locations_file, rain_file) -> None:
    """Write a dataset back out in the load_dataset CSV formats."""
    S, T = d.rain.shape
    _write_csv(locations_file, LOCATIONS_HEADER, np.arange(S),
               d.grid_coords[:, 0], d.grid_coords[:, 1])
    s, t = np.indices((S, T)).reshape(2, -1)
    _write_csv(rain_file, RAINFALL_HEADER, s, t, d.year_of_day[t],
               d.rain.ravel())


def compute_spatial_weights(d: RainfallDataset) -> SpatialWeights:
    """Pearson-correlate each location's time series with its neighbours.

    A location whose series has zero variance gets weight 0 on all its pairs:
    no coherence pull in either direction.
    """
    if d.n_days < 2:
        raise ValidationError("correlation weights need at least two days")
    centered = d.rain - d.rain.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    values = []
    for s, nb in enumerate(d.neighborhoods):
        row = np.zeros(len(nb))
        for k, s2 in enumerate(nb):
            denom = norms[s] * norms[s2]
            if denom > 0:
                row[k] = float(np.clip(centered[s] @ centered[s2] / denom, -1.0, 1.0))
        values.append(row)
    return SpatialWeights(tuple(values), d.neighborhoods)


def discretize_by_mean(d: RainfallDataset) -> np.ndarray:
    """Threshold each cell against its location's mean daily rainfall.

    Strictly above the mean is state 1 (high); equal or below is state 2.
    """
    means = d.rain.mean(axis=1, keepdims=True)
    return np.where(d.rain > means, HIGH, LOW).astype(np.int8)


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
        if len(np.unique(u_true)) == K:
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


def write_ground_truth(truth: LatentState, u_file, v_file, z_file) -> None:
    """Write the synthetic ground truth in the three CSV layouts."""
    _write_csv(u_file, ["day_index", "u_true"],
               np.arange(len(truth.day_labels)), truth.day_labels)
    _write_csv(v_file, ["loc_id", "v_true"],
               np.arange(len(truth.loc_labels)), truth.loc_labels)
    s, t = np.indices(truth.states.shape).reshape(2, -1)
    _write_csv(z_file, ["loc_id", "day_index", "z_true"], s, t,
               truth.states.ravel())
