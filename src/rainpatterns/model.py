"""Latent-variable model: states, edge potentials, cluster priors, patterns.

Every day carries a cluster label selecting a canonical spatial pattern, and
every location carries a label selecting a canonical time series.  Grid cells
hold a binary state (1 = high rainfall, 2 = low rainfall) coupled to its
spatio-temporal neighbours, to the cluster patterns, and to the observed
rainfall through a per-location two-component Gamma model.

The tests check ``joint_log_density`` against one brute-force reference,
``brute_force_log_density`` in ``tests/conftest.py``, and the sampler's
conditionals against flips and enumerations of the joint (README, Tests);
the same file holds the oracle of the day step's n·m prior weights.

The Gamma normaliser log Γ(a) is ``math.lgamma``, taken elementwise by
``log_gamma``, which reads +inf at the poles and past overflow; the engine,
the joint density and the tests' reference share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
            used = np.unique(labels)
            if used.size != labels.max():
                raise ValidationError(f"{name} labels must be dense 1..K")


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

    def validate(self) -> None:
        for name in ("day_concentration", "loc_concentration",
                     "temporal_factor", "aggregate_sd"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        for name in ("day_align", "loc_align"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("gamma_shape", "gamma_rate"):
            arr = getattr(self, name)
            if arr is not None:
                if arr.ndim != 2 or arr.shape[1] != 2:
                    raise ValidationError(f"{name} must have shape (S, 2)")
                if not np.isfinite(arr).all() or (arr <= 0).any():
                    raise ValidationError(f"{name} must be finite and positive")

    def replace(self, **kw) -> "ModelParams":
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d.update(kw)
        return ModelParams(**d)


@dataclass
class PatternSet:
    """Canonical patterns extracted from a latent state.

    Row u of ``rain_patterns`` is the mean rainfall map of day cluster u, and
    ``state_patterns`` its element-wise modal state map (ties resolve to the
    low state).  ``rain_series`` / ``state_series`` are the analogous canonical
    time series per location cluster.  ``pattern_volume`` is the total mm/day
    of each rain pattern.
    """

    rain_patterns: np.ndarray   # (K, S) float
    state_patterns: np.ndarray  # (K, S) in {1, 2}
    rain_series: np.ndarray     # (L, T) float
    state_series: np.ndarray    # (L, T) in {1, 2}
    day_counts: np.ndarray      # (K,)
    year_counts: np.ndarray     # (K,)
    pattern_volume: np.ndarray  # (K,)

    @property
    def n_day_patterns(self) -> int:
        return self.rain_patterns.shape[0]

    @property
    def n_loc_series(self) -> int:
        return self.rain_series.shape[0]


def _mode_rows(ones_count: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Element-wise mode over {1, 2} given counts of ones; ties go to 2."""
    return np.where(2 * ones_count > totals, HIGH, LOW).astype(np.int8)


def extract_patterns(data, state: LatentState) -> PatternSet:
    """Build canonical patterns and series from a latent state.

    Rain patterns are per-cluster means of the daily rainfall vectors and
    state patterns their element-wise modal states; the location-cluster
    series are the transposed analogue over rainfall time series.
    """
    state.validate()
    rain = data.rain
    S, T = rain.shape
    z1 = (state.states == HIGH)

    K = state.n_day_clusters
    day_onehot = np.zeros((K, T))
    day_onehot[state.day_labels - 1, np.arange(T)] = 1.0
    day_counts = day_onehot.sum(axis=1)
    rain_patterns = (rain @ day_onehot.T).T / day_counts[:, None]
    wet_counts = (z1 @ day_onehot.T).T
    state_patterns = _mode_rows(wet_counts, day_counts[:, None])

    year_vals, year_idx = np.unique(data.year_of_day, return_inverse=True)
    pair = (state.day_labels - 1) * len(year_vals) + year_idx
    pair_counts = np.bincount(pair, minlength=K * len(year_vals))
    year_counts = (pair_counts.reshape(K, len(year_vals)) > 0).sum(axis=1)

    L = state.n_loc_clusters
    loc_onehot = np.zeros((L, S))
    loc_onehot[state.loc_labels - 1, np.arange(S)] = 1.0
    loc_counts = loc_onehot.sum(axis=1)
    rain_series = loc_onehot @ rain / loc_counts[:, None]
    wet_counts_s = loc_onehot @ z1
    state_series = _mode_rows(wet_counts_s, loc_counts[:, None])

    return PatternSet(
        rain_patterns=rain_patterns,
        state_patterns=state_patterns,
        rain_series=rain_series,
        state_series=state_series,
        day_counts=day_counts.astype(np.int64),
        year_counts=year_counts.astype(np.int64),
        pattern_volume=rain_patterns.sum(axis=1),
    )


def crp_log_prior_days(day_labels: np.ndarray, years: np.ndarray,
                       concentration: float) -> float:
    """Log-mass of a day labelling under the year-weighted sequential prior.

    Days arrive in order.  Day t joins a cluster k met before it with weight
    n_k(t)·m_k(t), where n_k(t) counts the cluster's earlier days and m_k(t)
    the distinct years they span, or opens a new cluster with weight
    ``concentration``; the normaliser is concentration + Σ_k n_k(t)·m_k(t).
    The first day opens the first cluster with mass one.  Both counts are
    running counts within each cluster, so any labelling of the same
    partition scores identically.
    """
    labels = np.unique(day_labels, return_inverse=True)[1]
    T = labels.size
    if T < 2:
        return 0.0
    year_idx = np.unique(years, return_inverse=True)[1]
    # the days of each cluster in time order, one cluster after another
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(labels[order]) != 0])
    start_of = np.repeat(starts, np.diff(np.r_[starts, T]))
    # 1 where a day is the first of its cluster in its year
    pair = labels * (int(year_idx.max()) + 1) + year_idx
    first = np.zeros(T, dtype=np.int64)
    first[np.unique(pair, return_index=True)[1]] = 1
    seen = np.cumsum(first[order]) - first[order]
    n = np.empty(T, dtype=np.int64)
    m = np.empty(T, dtype=np.int64)
    n[order] = np.arange(T) - start_of
    m[order] = seen - seen[start_of]
    # day t raises its cluster's mass n·m to (n + 1)·(m + first)
    grow = (n + 1) * (m + first) - n * m
    norm = concentration + (np.cumsum(grow) - grow)
    mass = n * m
    num = np.where(mass > 0, np.log(np.maximum(mass, 1)),
                   math.log(concentration))
    return float((num[1:] - np.log(norm[1:])).sum())


def crp_log_prior_locations(loc_labels: np.ndarray, concentration: float) -> float:
    """Log-mass of a location labelling under the plain sequential prior.

    The first location opens a cluster with mass one; each later location
    opens a new cluster with weight ``concentration`` or joins one with
    weight its size, over concentration + the number of locations before
    it.  The product over the sequence has this closed form.
    """
    sizes = np.unique(loc_labels, return_counts=True)[1]
    n = int(sizes.sum())
    return float((len(sizes) - 1) * math.log(concentration)
                 + log_gamma(sizes).sum()
                 - np.log(concentration + np.arange(1, n)).sum())


def joint_log_density(data, weights, state: LatentState, params: ModelParams,
                      patterns: PatternSet) -> float:
    """Log of the joint density of (states, labels, rainfall).

    Sums the two clustering priors, every temporal and spatial edge counted
    once, the pattern-alignment terms, the per-cell Gamma data terms, and the
    per-day aggregate-rainfall terms.  Labels beyond the pattern rows (or the
    aggregate means) contribute neutrally, mirroring the sampling rules.
    """
    if params.gamma_shape is None or params.gamma_rate is None:
        raise ValidationError("joint density requires estimated Gamma parameters")
    rain = data.rain
    z = state.states

    logp = crp_log_prior_days(state.day_labels, data.year_of_day,
                              params.day_concentration)
    logp += crp_log_prior_locations(state.loc_labels, params.loc_concentration)

    # temporal edges, one per adjacent day pair
    logp += math.log(params.temporal_factor) * int((z[:, 1:] == z[:, :-1]).sum())

    # spatial edges, one per unordered neighbour pair
    ei, ej, w = weights.edge_arrays
    pos = np.maximum(w, 0.0)
    logp += float(pos @ (z[ei, :] == z[ej, :]).sum(axis=1))

    # pattern alignment (day clusters)
    rows_u = state.day_labels - 1
    has_u = rows_u < patterns.n_day_patterns
    if has_u.any():
        pat = patterns.state_patterns[rows_u[has_u]]  # (t', S)
        logp += params.day_align * int((pat == z[:, has_u].T).sum())

    # series alignment (location clusters)
    rows_v = state.loc_labels - 1
    has_v = rows_v < patterns.n_loc_series
    if has_v.any():
        ser = patterns.state_series[rows_v[has_v]]  # (s', T)
        logp += params.loc_align * int((ser == z[has_v, :]).sum())

    # data terms, from each location's count, sum of log x and sum of x per
    # state
    xc = np.maximum(rain, RAIN_EPS)
    logx = np.log(xc)
    for k, code in enumerate((HIGH, LOW)):
        member = z == code
        a = params.gamma_shape[:, k]
        b = params.gamma_rate[:, k]
        logp += float((member.sum(axis=1) * (a * np.log(b) - log_gamma(a))
                       + (a - 1.0) * (logx * member).sum(axis=1)
                       - b * (xc * member).sum(axis=1)).sum())

    # aggregate-rainfall terms
    mu = params.aggregate_mean
    if mu is not None and len(mu):
        y = rain.sum(axis=0)
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
