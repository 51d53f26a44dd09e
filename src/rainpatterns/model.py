"""Latent-variable model: states, edge potentials, cluster priors, patterns.

Every day carries a cluster label selecting a canonical spatial pattern, and
every location carries a label selecting a canonical time series.  Grid cells
hold a binary state (1 = high rainfall, 2 = low rainfall) coupled to its
spatio-temporal neighbours, to the cluster patterns, and to the observed
rainfall through a per-location two-component Gamma model.

The day labels follow an exchangeable product-partition prior (Hartigan
1990; the PPMx of Müller, Quintana & Rosner, JCGS 2011) that weighs a
partition by Π_k α·Γ(n_k)·m_k! for cluster k's n_k days over m_k distinct
years, favouring patterns that recur across years.  The joint and the merge
move read its factor ``log_day_cohesion``, the Gibbs day step its ratio,
log n or log n·(m + 1) (``inference._LabelTables._joins``).

The tests check ``joint_log_density`` against one brute-force reference,
``brute_force_log_density`` in ``tests/conftest.py``, and the sampler's
conditionals against flips and enumerations of the joint (README, Tests).

The Gamma normaliser log Γ(a) is ``math.lgamma``, taken elementwise by
``log_gamma``, which reads +inf at the poles and past overflow; the engine,
the joint density and the tests' reference share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ValidationError

HIGH = 1  # "wet" state
LOW = 2   # "dry" state

# Rainfall floor (mm) applied before Gamma evaluation: the density is singular
# or zero at x = 0 depending on the shape, and dry days are ubiquitous.
RAIN_EPS = 0.01

# Floor for the per-cell variance in moment matching.
VAR_FLOOR = 0.01


def _lgamma(v: float) -> float:
    try:
        return math.lgamma(v)
    except (ValueError, OverflowError):
        return math.inf


def log_gamma(x) -> np.ndarray:
    """Elementwise ``math.lgamma`` of an array: log |Γ(x)|.

    This is the Gamma normaliser of the model's densities.  Where
    ``math.lgamma`` raises, at the poles (0 and the negative integers) and
    by overflow above about 2.6e305, the value is +inf, so a degenerate
    Gamma shape ends as a non-finite density, not a traceback; nan passes
    through.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_lgamma, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


@dataclass
class LatentState:
    """Current assignment of cell states and cluster labels.

    Attributes
    ----------
    states : ndarray, shape (S, T), values in {1, 2}
        Binary high/low rainfall state per location and day.
    day_labels : ndarray, shape (T,)
        Positive day-cluster labels, dense in {1..K}.
    loc_labels : ndarray, shape (S,)
        Positive location-cluster labels, dense in {1..L}.
    """

    states: np.ndarray
    day_labels: np.ndarray
    loc_labels: np.ndarray

    @property
    def n_day_clusters(self) -> int:
        return int(self.day_labels.max())

    @property
    def n_loc_clusters(self) -> int:
        return int(self.loc_labels.max())

    def copy(self) -> "LatentState":
        return LatentState(self.states.copy(), self.day_labels.copy(),
                           self.loc_labels.copy())

    def validate(self) -> None:
        if not ((self.states == HIGH) | (self.states == LOW)).all():
            raise ValidationError("cell states must be 1 (high) or 2 (low)")
        for name, labels in (("day", self.day_labels), ("loc", self.loc_labels)):
            if labels.size == 0 or labels.min() < 1:
                raise ValidationError(f"{name} labels must be positive")
            if np.diff(np.sort(labels), prepend=0).max() > 1:
                raise ValidationError(f"{name} labels must be dense 1..K")


def check_fields(obj, rules, where: str = "", keys: dict | None = None):
    """Reject the first field of ``obj`` that fails its test: ``rules``
    holds (fields, test, rule) triples, and the error names the field after
    ``where``, by its key where ``keys`` maps keys to fields, and states its
    rule, in which ``{field}`` stands for that field's name."""
    name = {f: f for f in vars(obj)} | {f: k for k, f in (keys or {}).items()}
    for fields, ok, rule in rules:
        for f in fields:
            value = getattr(obj, f)
            if not ok(value):
                got = f", got {value!r}" if np.ndim(value) == 0 else ""
                raise ValidationError(f"{where}{name[f]}: must be "
                                      f"{rule.format_map(name)}{got}")


@dataclass
class ModelParams:
    """Model parameters; scalars are user-set, arrays are model-estimated.

    ``day_concentration`` / ``loc_concentration`` are the new-cluster rates of
    the day and location clustering processes.  ``temporal_factor`` multiplies
    the joint density when temporally adjacent states agree; ``day_align`` and
    ``loc_align`` reward agreement between a cell state and its cluster's
    canonical pattern.  ``aggregate_sd`` is the shared width of the Gaussian
    kernel tying each day's total rainfall to its cluster mean.

    ``gamma_shape`` / ``gamma_rate`` are (S, 2) per-location Gamma parameters
    for the high and low states; ``aggregate_mean`` holds one mean total
    rainfall per day cluster.
    """

    day_concentration: float = 1.0
    loc_concentration: float = 1.0
    temporal_factor: float = 2.0
    day_align: float = 9.0
    loc_align: float = 3.0
    aggregate_sd: float = 1.0
    gamma_shape: np.ndarray | None = None
    gamma_rate: np.ndarray | None = None
    aggregate_mean: np.ndarray | None = None

    # each field's test, and how an error states it; NaN fails every test
    _RULES = (
        (("day_concentration", "loc_concentration", "temporal_factor"),
         lambda v: 0 < v < math.inf, "finite and > 0"),
        (("day_align", "loc_align"), lambda v: 0 <= v < math.inf,
         "finite and >= 0"),
        (("aggregate_sd",), lambda v: v > 0, "> 0"),  # +inf: no aggregate term
        (("gamma_shape", "gamma_rate"),
         lambda a: a is None or (a.ndim == 2 and a.shape[1] == 2
                                 and (a > 0).all() and np.isfinite(a).all()),
         "finite, positive and of shape (S, 2)"),
        (("aggregate_mean",), lambda a: a is None or np.isfinite(a).all(),
         "finite"),
    )

    def validate(self, where: str = "", keys: dict | None = None) -> None:
        """Reject a value the model cannot score (see ``check_fields``)."""
        check_fields(self, self._RULES, where, keys)


@dataclass
class PatternSet:
    """Canonical patterns extracted from a latent state.

    Row u of ``rain_patterns`` is the mean rainfall map of day cluster u, and
    ``state_patterns`` its element-wise modal state map (ties resolve to the
    low state).  ``rain_series`` / ``state_series`` are the analogous canonical
    time series per location cluster.  ``pattern_volume`` is the total mm/day
    of each rain pattern; ``modal_patterns`` leaves the rain fields None.
    """

    rain_patterns: np.ndarray | None   # (K, S) float
    state_patterns: np.ndarray         # (K, S) in {1, 2}
    rain_series: np.ndarray | None     # (L, T) float
    state_series: np.ndarray           # (L, T) in {1, 2}
    day_counts: np.ndarray             # (K,)
    year_counts: np.ndarray            # (K,)
    pattern_volume: np.ndarray | None  # (K,)

    @property
    def n_day_patterns(self) -> int:
        return self.state_patterns.shape[0]

    @property
    def n_loc_series(self) -> int:
        return self.state_series.shape[0]


def indicator_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of 0/1 arrays as float64 counts, taken in float32 while the
    summed dimension is below 2^24, where every partial sum is exact."""
    dtype = np.float32 if a.shape[-1] < 2 ** 24 else np.float64
    return (a.astype(dtype) @ b.astype(dtype)).astype(np.float64)


def onehot(labels: np.ndarray) -> np.ndarray:
    """(max label, n) float 0/1 membership of n items labelled from 1."""
    out = np.zeros((int(labels.max()), len(labels)))
    out[labels - 1, np.arange(len(labels))] = 1.0
    return out


def matches(rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Agreeing states of every state row with every column (by default,
    every other row), (R, C) floats: with r, c the HIGH indicators of n
    states, 2 r·c − Σr − Σc + n, from one ``indicator_dot`` and exact in
    integers."""
    r1 = rows == HIGH
    c1 = r1.T if cols is None else cols == HIGH
    out = indicator_dot(r1, c1)
    out *= 2.0
    out -= np.count_nonzero(r1, axis=1)[:, None]
    out -= np.count_nonzero(c1, axis=0)
    out += rows.shape[1]
    return out


def mode_states(ones_count: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Element-wise mode over {1, 2} given counts of ones; ties go to 2."""
    return np.where(2 * ones_count > totals, HIGH, LOW).astype(np.int8)


def modal_patterns(data, state: LatentState) -> PatternSet:
    """The state half of ``extract_patterns``: the modal state maps and
    series and the day and year counts, with None for the rain fields."""
    state.validate()
    z1 = state.states == HIGH
    per_year = days_per_year(state.day_labels, data.year_of_day)
    day_counts = per_year.sum(axis=1)
    day_wet = indicator_dot(z1, onehot(state.day_labels).T).T
    loc_onehot = onehot(state.loc_labels)
    loc_wet = indicator_dot(loc_onehot, z1)
    return PatternSet(None, mode_states(day_wet, day_counts[:, None]), None,
                      mode_states(loc_wet, loc_onehot.sum(axis=1)[:, None]),
                      day_counts, (per_year > 0).sum(axis=1), None)


def extract_patterns(data, state: LatentState) -> PatternSet:
    """Build canonical patterns and series from a latent state.

    Rain patterns are per-cluster means of the daily rainfall vectors, and
    ``modal_patterns`` gives the modal states; the location-cluster series
    are the transposed analogue over rainfall time series.
    """
    pats, rain = modal_patterns(data, state), data.rain
    rain_patterns = ((rain @ onehot(state.day_labels).T).T
                     / pats.day_counts[:, None])
    loc_onehot = onehot(state.loc_labels)
    return replace(
        pats, rain_patterns=rain_patterns,
        rain_series=loc_onehot @ rain / loc_onehot.sum(axis=1)[:, None],
        pattern_volume=rain_patterns.sum(axis=1))


def days_per_year(day_labels: np.ndarray, years: np.ndarray) -> np.ndarray:
    """(K, Y) days of each day cluster in each year, labels and years in
    sorted order; neither need be dense."""
    labels = np.unique(day_labels, return_inverse=True)[1]
    year_idx = np.unique(years, return_inverse=True)[1]
    n_years = int(year_idx.max()) + 1
    return np.bincount(labels * n_years + year_idx,
                       minlength=(int(labels.max()) + 1) * n_years
                       ).reshape(-1, n_years)


def log_day_cohesion(per_year: np.ndarray, concentration: float):
    """log(α·Γ(n)·m!) of each day cluster of n days over m distinct years.

    ``per_year`` holds a cluster's days in each year per row.  The day
    prior weighs a partition by the product of its clusters' cohesions, so
    day t joins a cluster of n days (t left out) with weight n, times
    m + 1 if t's year is new to it, or opens one with weight α; a merge
    changes the prior by the merged cluster's cohesion less the parts'.
    """
    return (math.log(concentration) + log_gamma(per_year.sum(axis=1))
            + log_gamma((per_year > 0).sum(axis=1) + 1))


def crp_log_prior_days(day_labels: np.ndarray, years: np.ndarray,
                       concentration: float) -> float:
    """Log-mass, up to a constant, of a day partition under the day prior.

    The sum of ``log_day_cohesion`` over the clusters: relabelling the
    clusters or permuting the days with their years leaves it unchanged.
    """
    return float(log_day_cohesion(days_per_year(day_labels, years),
                                  concentration).sum())


def crp_log_prior_locations(loc_labels: np.ndarray, concentration: float) -> float:
    """Log-mass of a location labelling under the Chinese-restaurant prior.

    The day prior's cohesions on a single year, normalised by
    α(α + 1)···(α + S − 1); exchangeable, like the day prior.
    """
    sizes = np.unique(loc_labels, return_counts=True)[1]
    return float(log_day_cohesion(sizes[:, None], concentration).sum()
                 - np.log(concentration + np.arange(sizes.sum())).sum())


def agreement_counts(state: LatentState, patterns: PatternSet,
                     ei: np.ndarray, ej: np.ndarray):
    """The joint density's integer terms, as (temporal, spatial, day, loc).

    ``temporal`` counts the agreeing adjacent-day pairs, ``spatial`` the
    agreeing days of each neighbour pair (ei[e], ej[e]), and ``day`` and
    ``loc`` the cells agreeing with their day's pattern row and their
    location's series row, where the label has one.  The neighbour pairs
    are popcounts of XORed bit-packed rows of the high indicator, so no
    (E, T) plane is built; the alignments are plain comparisons.
    """
    z = state.states
    S, T = z.shape
    high = z == HIGH
    rows = np.packbits(high, axis=1)
    temporal = S * (T - 1) - np.count_nonzero(high[:, 1:] != high[:, :-1])
    spatial = T - np.bitwise_count(rows[ei] ^ rows[ej]).sum(
        axis=1, dtype=np.int64)
    rows_u = state.day_labels - 1
    has_u = rows_u < patterns.n_day_patterns
    pat_high = patterns.state_patterns == HIGH
    day = np.count_nonzero(high[:, has_u] == pat_high.T[:, rows_u[has_u]])
    rows_v = state.loc_labels - 1
    has_v = rows_v < patterns.n_loc_series
    ser_high = patterns.state_series == HIGH
    loc = np.count_nonzero(high[has_v] == ser_high[rows_v[has_v]])
    return temporal, spatial, day, loc


def joint_log_density(data, weights, state: LatentState, params: ModelParams,
                      patterns: PatternSet) -> float:
    """Log of the joint density of (states, labels, rainfall).

    Sums the two clustering priors, every temporal and spatial edge counted
    once, the pattern-alignment terms, the per-cell Gamma data terms, and the
    per-day aggregate-rainfall terms.  Labels beyond the pattern rows (or the
    aggregate means) contribute neutrally, mirroring the sampling rules.

    The edge and alignment terms weigh the integers of
    ``agreement_counts``.  Each location's Gamma term reads its per-state
    count, Σ log x and Σ x: the high state's sums are row products of the
    data with the high indicator, the low state's the all-day totals cached
    on the dataset less the high state's, and exactly 0 where the location
    has no low day.
    """
    if params.gamma_shape is None or params.gamma_rate is None:
        raise ValidationError("joint density requires estimated Gamma parameters")
    T = state.states.shape[1]
    high = state.states == HIGH
    ei, ej, w = weights.edge_arrays
    temporal, spatial, day, loc = agreement_counts(state, patterns, ei, ej)

    logp = crp_log_prior_days(state.day_labels, data.year_of_day,
                              params.day_concentration)
    logp += crp_log_prior_locations(state.loc_labels, params.loc_concentration)
    logp += math.log(params.temporal_factor) * temporal
    logp += float(np.maximum(w, 0.0) @ spatial)
    logp += params.day_align * day
    logp += params.loc_align * loc

    # data terms, from each location's count, Σ log x and Σ x per state, x
    # floored at RAIN_EPS
    n_high = np.count_nonzero(high, axis=1)
    n_low = T - n_high
    slog_high = np.einsum("st,st->s", data.log_rain, high)
    sx_high = np.einsum("st,st->s", data.rain_floored, high)
    per_state = ((n_high, slog_high, sx_high),
                 (n_low,
                  np.where(n_low > 0, data.log_rain_total - slog_high, 0.0),
                  np.where(n_low > 0, data.rain_floored_total - sx_high, 0.0)))
    for k, (n, slog, sx) in enumerate(per_state):
        a = params.gamma_shape[:, k]
        b = params.gamma_rate[:, k]
        logp += float((n * (a * np.log(b) - log_gamma(a))
                       + (a - 1.0) * slog - b * sx).sum())

    # aggregate-rainfall terms
    mu = params.aggregate_mean
    if mu is not None and len(mu):
        y = data.aggregate
        rows_u = state.day_labels - 1
        has_mu = rows_u < len(mu)
        dev = (y[has_mu] - mu[rows_u[has_mu]]) / params.aggregate_sd
        logp += float(-0.5 * (dev * dev).sum())

    if not math.isfinite(logp):
        raise NumericError("joint log-density is not finite")
    return logp


def patterns_to_rows(patterns: PatternSet):
    """Flatten a pattern set into the two CSV table layouts.

    Returns (spatial_rows, temporal_rows, summary_rows) with columns
    (cluster_id, loc_id, crp_value, cdp_state), (cluster_id, day_index,
    cts_value, cds_state) and (cluster_id, n_days, n_years, aggregate_mm).
    """
    spatial = []
    for u in range(patterns.n_day_patterns):
        for s in range(patterns.rain_patterns.shape[1]):
            spatial.append((u + 1, s, float(patterns.rain_patterns[u, s]),
                            int(patterns.state_patterns[u, s])))
    temporal = []
    for v in range(patterns.n_loc_series):
        for t in range(patterns.rain_series.shape[1]):
            temporal.append((v + 1, t, float(patterns.rain_series[v, t]),
                             int(patterns.state_series[v, t])))
    summary = [(u + 1, int(patterns.day_counts[u]), int(patterns.year_counts[u]),
                float(patterns.pattern_volume[u]))
               for u in range(patterns.n_day_patterns)]
    return spatial, temporal, summary
