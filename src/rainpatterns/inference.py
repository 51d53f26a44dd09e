"""Gibbs sampling of the latent state interleaved with ML parameter updates.

Each sweep resamples every cell state, then every day label, then every
location label, then refreshes the canonical patterns and the estimated
parameters from the current assignment.  The posterior point estimate is
voted from the labellings kept at the retained sweeps: each day and location
takes its most frequent label, the lowest of tied labels, and each cell its
majority state.

Cell states are visited in one scan order: the space-time lattice is split
into eight colour classes of mutually non-adjacent cells.  A class is one of
the four location-parity classes (both grid coordinate parities) crossed
with one day parity, so it is a dense block of locations × every other day,
and each block is updated with one vectorised draw.  Cells of one class are
conditionally independent given the rest, so updating a class at once is an
ordinary Gibbs scan in a different visit order and targets the same
distribution (Gonzalez et al., AISTATS 2011, "Parallel Gibbs Sampling: From
Colored Fields to Thin Junction Trees").  The z-sweep works on the states
split by day parity, z[:, 0::2] and z[:, 1::2], so a block's rows, its
spatial neighbours' rows and its Gamma term are contiguous, and its two
temporal neighbours are shifted slices of the other parity.

A label sweep draws all of its uniforms at once (the same stream as one
draw per label) and picks each label in plain Python from a handful of
candidate weights.

Every conditional has one implementation on the engine:
``cell_log_weights``, ``day_log_weights`` and ``loc_log_weights``.  The
sweeps draw from them and the exactness tests check them.  A frozen refit
differs only in its candidate labels: the frozen patterns stay enterable while
empty and one overflow label collects what fits none of them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import NumericError, ValidationError
from .model import (HIGH, LOW, RAIN_EPS, VAR_FLOOR, LatentState, ModelParams,
                    PatternSet, days_per_year, extract_patterns,
                    joint_log_density, log_day_cohesion, log_gamma, matches)

INIT_STRATEGIES = ("data", "pattern", "random")


@dataclass
class SamplerConfig:
    """Sweep counts, seed and initialisation strategy."""

    n_burnin: int = 200
    n_samples: int = 300
    seed: int = 0
    init: str = "data"

    def validate(self) -> None:
        if self.n_samples < 1:
            raise ValidationError("need at least one retained sweep")
        if self.n_burnin < 0:
            raise ValidationError("burn-in must be non-negative")
        if self.init not in INIT_STRATEGIES:
            raise ValidationError(f"init must be one of {INIT_STRATEGIES}")


@dataclass
class PosteriorSummary:
    """Per-variable modes over retained sweeps plus the log-density trace."""

    z_mode: np.ndarray
    u_mode: np.ndarray
    v_mode: np.ndarray
    n_retained: int
    log_density_trace: np.ndarray

    def as_state(self) -> LatentState:
        return LatentState(self.z_mode.copy(), self.u_mode.copy(),
                           self.v_mode.copy())


def _draw_label(cand: list, logw: list, u: float):
    """The candidate that uniform ``u`` picks with probability ∝ exp(logw)."""
    top = max(logw)
    cum = list(accumulate([math.exp(w - top) for w in logw]))
    return cand[bisect_right(cum, u * cum[-1])]


def _draw_cell_states(w: np.ndarray, rng) -> np.ndarray:
    """Draw one state per column of (2, n) log-weights, one uniform each.

    A high state ahead by more than exp's range gives p_low = 0 exactly.
    """
    with np.errstate(over="ignore"):
        p_low = 1.0 / (1.0 + np.exp(w[0] - w[1]))
    return np.where(rng.random(w.shape[1]) < p_low, LOW, HIGH).astype(np.int8)


def _vote(kept: list) -> np.ndarray:
    """Each item's most frequent label over the labellings ``kept``; a tie
    goes to the lowest label."""
    kept = np.array(kept)
    counts = np.zeros((kept.shape[1], int(kept.max()) + 1), dtype=np.int64)
    np.add.at(counts, (np.arange(kept.shape[1]), kept), 1)
    return counts.argmax(axis=1)  # label 0 has no votes


def _row_map(n_labels: int, n_rows: int) -> np.ndarray:
    """Label -> pattern row, -1 where a label has no pattern row.

    Covers every current label and one label past the pattern rows.
    """
    return np.array([i if i < n_rows else -1
                     for i in range(max(n_labels, n_rows + 1))], dtype=np.intp)


def _leader_init(states: np.ndarray, cap: int) -> np.ndarray:
    """Group days by state-vector similarity: greedy leader clustering.

    A day joins the nearest leader if it disagrees on at most a quarter of
    the locations, else founds a new leader while fewer than ``cap`` exist.
    Deterministic given the states.
    """
    S, T = states.shape
    thresh = S / 4.0
    leaders: list[np.ndarray] = []
    labels = np.empty(T, dtype=np.int64)
    for t in range(T):
        col = states[:, t]
        if leaders:
            dists = np.array([(lead != col).sum() for lead in leaders])
            best = int(dists.argmin())
        else:
            best = -1
        if best >= 0 and (dists[best] <= thresh or len(leaders) >= cap):
            labels[t] = best + 1
        else:
            leaders.append(col.copy())
            labels[t] = len(leaders)
    return labels


def update_params_ml(data, state: LatentState, work=None):
    """Moment-matched Gamma parameters and per-cluster aggregate means.

    For each location and state the Gamma shape and rate come from the sample
    mean and variance of the member rainfall values (variance with n-1
    denominator; zero when fewer than two members).  Floors on the variance
    and mean absorb degenerate cells.  Rainfall so large that a shape or rate
    leaves the positive doubles is a ``NumericError`` naming its location.
    ``work``, an (S, T) float array, is overwritten in place of a fresh one:
    a caller that repeats the call spares the fresh array's page faults.

    Returns (shape, rate, aggregate_mean).
    """
    rain = data.rain
    S, T = rain.shape
    shape = np.empty((S, 2))
    rate = np.empty((S, 2))
    masked = np.empty_like(rain) if work is None else work
    with np.errstate(over="ignore", invalid="ignore"):
        for k, code in enumerate((HIGH, LOW)):
            mask = state.states == code
            n = np.count_nonzero(mask, axis=1)
            np.multiply(rain, mask, out=masked)
            sx = masked.sum(axis=1)
            masked *= rain
            sxx = masked.sum(axis=1)
            m = np.divide(sx, n, out=np.zeros(S), where=n > 0)
            v = np.zeros(S)
            two = n >= 2
            v[two] = (sxx[two] - n[two] * m[two] ** 2) / (n[two] - 1)
            v = np.maximum(v, VAR_FLOOR)
            m = np.maximum(m, RAIN_EPS)
            shape[:, k] = m * m / v
            rate[:, k] = m / v
    bad = ~((shape > 0) & (rate > 0) & np.isfinite(shape)
            & np.isfinite(rate)).all(axis=1)
    if bad.any():
        raise data.numeric_error(int(bad.argmax()),
                                 "gives non-finite Gamma parameters")
    y = data.aggregate
    K = state.n_day_clusters
    counts = np.bincount(state.day_labels - 1, minlength=K)
    sums = np.bincount(state.day_labels - 1, weights=y, minlength=K)
    mu = sums / counts
    return shape, rate, mu


class _LabelTables:
    """Member counts per label and year, kept up to date across moves.

    Item i joins a label of n members with the day prior's weight
    (``model.log_day_cohesion``): n, or n·(m + 1) when the label's m years
    lack i's year; ``joins`` holds both logs, floored at log 1 for an empty
    label (locations all share year 0).  A move updates one label's count
    and, when a year's count leaves or reaches zero, its span.  ``rows``
    maps labels to pattern rows; a label born here maps to none.  ``align``
    and ``aggregate`` hold each item's alignment and aggregate term per
    pattern row, as Python floats.
    """

    def __init__(self, labels, rows, align, years, aggregate=None):
        self.labels = labels
        self.rows = rows
        self.align = align.T.tolist()
        self.aggregate = None if aggregate is None else aggregate.tolist()
        self.years = years.tolist()
        self.n_years = max(self.years) + 1
        per_year = np.bincount((labels - 1) * self.n_years + years,
                               minlength=len(rows) * self.n_years
                               ).reshape(len(rows), self.n_years)
        self.per_year = per_year.tolist()
        self.counts = per_year.sum(axis=1).tolist()
        self.spans = (per_year > 0).sum(axis=1).tolist()
        self.joins = list(map(self._joins, self.counts, self.spans))

    @staticmethod
    def _joins(n: int, m: int) -> tuple[float, float]:
        return math.log(max(n, 1)), math.log(max(n * (m + 1), 1))

    def _count(self, i: int, label: int, step: int) -> None:
        k = label - 1
        per_year = self.per_year[k]
        y = self.years[i]
        before = per_year[y]
        per_year[y] = before + step
        if before == 0 or before + step == 0:
            self.spans[k] += step
        self.counts[k] += step
        self.joins[k] = self._joins(self.counts[k], self.spans[k])

    def take_out(self, i: int) -> None:
        """Leave item i out of the counts; its label stays as it is."""
        self._count(i, int(self.labels[i]), -1)

    def put(self, i: int, label: int) -> None:
        """Give item i ``label``, extending the tables for a new label."""
        if label > len(self.rows):
            self.rows.append(-1)
            self.counts.append(0)
            self.spans.append(0)
            self.joins.append((0.0, 0.0))
            self.per_year.append([0] * self.n_years)
        self.labels[i] = label
        self._count(i, label, 1)

    def drop(self, label: int) -> None:
        """Remove an empty label; the labels above it move down by one."""
        self.labels[self.labels > label] -= 1
        k = label - 1
        del (self.rows[k], self.counts[k], self.spans[k], self.joins[k],
             self.per_year[k])


class _GibbsEngine:
    """Owns the mutable sampling state for one run.

    With ``frozen`` set, patterns and parameters are never refreshed, day
    labels are restricted to the frozen patterns plus one overflow label, and
    location labels to the frozen series plus one overflow label.  Frozen
    series are indexed by the training days, so on a record of another
    length no series is frozen and every location stays in label 1.
    """

    def __init__(self, data, weights, params: ModelParams,
                 config: SamplerConfig, frozen: PatternSet | None = None):
        config.validate()
        params.validate()
        self.data = data
        self.weights = weights
        self.config = config
        self.frozen = frozen is not None
        self.rng = np.random.default_rng(config.seed)
        self.params = params
        # alignment annealing factor; run() ramps it over early burn-in
        self.align_scale = 1.0

        self.S, self.T = data.rain.shape
        self.y = data.aggregate
        # the Gamma term's inputs, the joint density's, split by day parity
        # like the z-sweep; contiguous, as strided views slow the refresh
        self._rain_parts, self._logx_parts = (
            tuple(np.ascontiguousarray(x[:, d::2]) for d in range(2))
            for x in (data.rain_floored, data.log_rain))
        self.logdens = tuple(np.empty((2, self.S, x.shape[1]))
                             for x in self._rain_parts)
        # update_params_ml's scratch, in place of a fresh (S, T) array per
        # sweep: the first Gamma-term buffer, which refresh() rewrites next
        self._params_work = self.logdens[0].reshape(-1)[:self.S * self.T] \
            .reshape(self.S, self.T)
        self.log_tf = math.log(params.temporal_factor)
        self.year_idx = np.unique(data.year_of_day, return_inverse=True)[1]

        # eight-colour partition of the space-time lattice: a colour is a
        # location-parity class (both coordinate parities) and a day parity,
        # so two cells of one colour are never spatial or temporal neighbours;
        # color_blocks[b] = (locations, day parity) of the non-empty classes
        parity = data.grid_coords[:, 0] % 2 * 2 + data.grid_coords[:, 1] % 2
        classes = [np.flatnonzero(parity == c) for c in range(4)]
        self.color_blocks = [(s_idx, d) for s_idx in classes if len(s_idx)
                             for d in range(min(2, self.T))]

        # per block, slot by slot: the neighbours of its locations, their
        # weights as columns, and each location's total weight (a padded
        # slot points at location 0 with weight 0)
        max_deg = max(max((len(nb) for nb in data.neighborhoods), default=0),
                      1)
        nbr_pad = np.zeros((self.S, max_deg), dtype=np.intp)
        w_pad = np.zeros((self.S, max_deg))
        for s, nb in enumerate(data.neighborhoods):
            nbr_pad[s, :len(nb)] = nb
            w_pad[s, :len(nb)] = np.maximum(weights.values[s], 0.0)
        self._block_nbrs = [(nbr_pad[s_idx].T.copy(),
                             w_pad[s_idx].T[:, :, None].copy(),
                             w_pad[s_idx].sum(axis=1)[:, None])
                            for s_idx, _ in self.color_blocks]

        if self.frozen and frozen.state_series.shape[1] != self.T:
            frozen = replace(
                frozen, rain_series=np.zeros((0, self.T)),
                state_series=np.zeros((0, self.T), dtype=np.int8))
        self._init_state(frozen)
        if self.frozen:
            self.patterns = frozen
            self.mu = np.asarray(params.aggregate_mean, dtype=float)
            self.alpha = params.gamma_shape
            self.beta = params.gamma_rate
            self._refresh_logdens()
        else:
            self.refresh()

        self.trace: list[float] = []
        self.z1_count = np.zeros((self.S, self.T), dtype=np.int32)
        # the day and location labellings of the retained sweeps
        self.kept_u: list[np.ndarray] = []
        self.kept_v: list[np.ndarray] = []

    # ---------------------------------------------------------------- setup

    def _init_state(self, frozen: PatternSet | None) -> None:
        from .data import discretize_by_mean

        if self.config.init == "random":
            states = self.rng.integers(HIGH, LOW + 1,
                                       size=(self.S, self.T)).astype(np.int8)
        else:
            states = discretize_by_mean(self.data)

        loc_labels = np.ones(self.S, dtype=np.int64)
        if frozen is not None:
            # start every day and location at its best-matching frozen pattern
            day_labels = matches(frozen.state_patterns,
                                 states).argmax(axis=0) + 1
            if frozen.n_loc_series:
                loc_labels = matches(frozen.state_series,
                                     states.T).argmax(axis=0) + 1
        elif self.config.init == "random":
            k0 = math.isqrt(self.T - 1) + 1
            day_labels = self.rng.integers(1, k0 + 1, size=self.T)
            day_labels = np.unique(day_labels, return_inverse=True)[1] + 1
        elif self.config.init == "pattern":
            day_labels = _leader_init(states, math.isqrt(self.T - 1) + 1)
        else:
            # quantile-bin days on total rainfall into ~sqrt(T) starting bins
            k0 = math.isqrt(self.T - 1) + 1
            ranks = np.empty(self.T, dtype=np.int64)
            ranks[np.argsort(self.y, kind="stable")] = np.arange(self.T)
            day_labels = 1 + (ranks * k0) // self.T

        self.state = LatentState(states,
                                 np.asarray(day_labels, dtype=np.int64),
                                 np.asarray(loc_labels, dtype=np.int64))

    def refresh(self) -> None:
        """Re-extract patterns and re-estimate parameters from the state."""
        self.patterns = extract_patterns(self.data, self.state)
        self.alpha, self.beta, self.mu = update_params_ml(
            self.data, self.state, self._params_work)
        self._refresh_logdens()

    def _refresh_logdens(self) -> None:
        """The Gamma term of both states, per day parity, written in place.

        A term that is not finite is a ``NumericError`` naming its location.
        """
        a, b = self.alpha, self.beta
        lg = log_gamma(a)
        with np.errstate(over="ignore", invalid="ignore"):
            for ld, logx, x in zip(self.logdens, self._logx_parts,
                                   self._rain_parts):
                for k in range(2):
                    out = np.multiply(a[:, k, None] - 1.0, logx, out=ld[k])
                    out += a[:, k, None] * np.log(b[:, k, None])
                    out -= b[:, k, None] * x
                    out -= lg[:, k, None]
        finite = np.logical_and.reduce(
            [np.isfinite(ld).all(axis=(0, 2)) for ld in self.logdens])
        if not finite.all():
            raise self.data.numeric_error(int(finite.argmin()),
                                          "gives a non-finite Gamma term")

    def snapshot_params(self) -> ModelParams:
        return self.params.replace(gamma_shape=self.alpha,
                                   gamma_rate=self.beta,
                                   aggregate_mean=self.mu)

    # -------------------------------------------------------------- Z sweep

    def _day_parity_parts(self):
        z = self.state.states
        return z[:, 0::2].copy(), z[:, 1::2].copy()

    def cell_log_weights(self, b: int, parts=None):
        """Conditional log-weights of both states of every cell of block b.

        Block b is ``color_blocks[b]`` = (locations, day parity d), its cells
        those locations × the days d, d + 2, ....  ``parts`` are the states
        split by day parity, (z[:, 0::2], z[:, 1::2]); they default to those
        of the current state.  Returns (2, n_locations · n_days), the cells
        in row-major (location, day) order.  A missing temporal neighbour and
        a label without a pattern row each add an exact 0.0.
        """
        if parts is None:
            parts = self._day_parity_parts()
        p = self.params
        s_idx, d = self.color_blocks[b]
        own, other = parts[d], parts[1 - d]
        n_d = own.shape[1]
        shape = (len(s_idx), n_d)
        w = np.empty((2,) + shape)

        # temporal edges: log f per agreeing neighbour day; the neighbours of
        # column j are the other parity's columns j + d - 1 and j + d
        other_high = other[s_idx] == HIGH
        n_high = np.zeros(shape, dtype=np.int8)
        n_inside = np.zeros(n_d, dtype=np.int8)
        for off in (d - 1, d):
            lo, hi = max(0, -off), min(n_d, other.shape[1] - off)
            n_high[:, lo:hi] += other_high[:, lo + off:hi + off]
            n_inside[lo:hi] += 1
        np.multiply(self.log_tf, n_high, out=w[0])
        np.multiply(self.log_tf, n_inside - n_high, out=w[1])

        # spatial edges: every neighbour is high or low, so the low state
        # earns the location's total weight less what the high state earns
        nbrs, w_cols, w_total = self._block_nbrs[b]
        high = np.zeros(shape)
        for nb, w_col in zip(nbrs, w_cols):
            high += w_col * (own[nb] == HIGH)
        w[0] += high
        w[1] += w_total - high

        eta = p.day_align * self.align_scale
        zeta = p.loc_align * self.align_scale
        rows_u = self._rowmap_u[self.state.day_labels[d::2] - 1]
        pat = self._pattern_cols[s_idx][:, rows_u]
        rows_v = self._rowmap_v[self.state.loc_labels[s_idx] - 1]
        ser = self._series_parts[d][rows_v]
        for k, code in enumerate((HIGH, LOW)):
            w[k] += eta * (pat == code)
            w[k] += zeta * (ser == code)
            w[k] += self.logdens[d][k][s_idx]
        return w.reshape(2, -1)

    def _set_rowmaps(self) -> None:
        """Label -> pattern-row maps for the current labels and patterns.

        Row -1 (no pattern row) picks a sentinel row of zeros, which matches
        neither state.  The series rows are split by day parity.
        """
        self._rowmap_u = _row_map(self.state.n_day_clusters,
                                  self.patterns.n_day_patterns)
        self._rowmap_v = _row_map(self.state.n_loc_clusters,
                                  self.patterns.n_loc_series)
        self._pattern_cols = np.vstack([self.patterns.state_patterns,
                                        np.zeros((1, self.S))]).T
        series = np.vstack([self.patterns.state_series,
                            np.zeros((1, self.T))])
        self._series_parts = (series[:, 0::2].copy(), series[:, 1::2].copy())

    def z_sweep(self) -> None:
        self._set_rowmaps()
        parts = self._day_parity_parts()
        for b, (s_idx, d) in enumerate(self.color_blocks):
            w = self.cell_log_weights(b, parts)
            parts[d][s_idx] = _draw_cell_states(w, self.rng).reshape(
                len(s_idx), -1)
        z = self.state.states
        z[:, 0::2], z[:, 1::2] = parts

    # -------------------------------------------------------- label sweeps

    def _day_tables(self) -> _LabelTables:
        self._set_rowmaps()
        dev = (self.y[:, None] - self.mu[None, :]) / self.params.aggregate_sd
        return _LabelTables(self.state.day_labels, self._rowmap_u.tolist(),
                            matches(self.patterns.state_patterns,
                                    self.state.states), self.year_idx,
                            aggregate=-0.5 * dev * dev)

    def _loc_tables(self) -> _LabelTables:
        self._set_rowmaps()
        return _LabelTables(self.state.loc_labels, self._rowmap_v.tolist(),
                            matches(self.patterns.state_series,
                                    self.state.states.T),
                            np.zeros(self.S, dtype=np.intp))

    def day_log_weights(self, t: int, tables=None):
        """Candidate labels of day t and their conditional log-weights.

        Day t itself is left out of the cluster counts.  ``tables`` (the
        label tables with day t taken out) defaults to those of the current
        state.
        """
        if tables is None:
            tables = self._day_tables()
            tables.take_out(t)
        return self._label_log_weights(
            tables, t, self.patterns.n_day_patterns, self.params.day_align,
            self.params.day_concentration)

    def loc_log_weights(self, s: int, tables=None):
        """Candidate labels of location s and their conditional log-weights.

        Mirror of :meth:`day_log_weights` without the aggregate term.
        """
        if tables is None:
            tables = self._loc_tables()
            tables.take_out(s)
        return self._label_log_weights(
            tables, s, self.patterns.n_loc_series, self.params.loc_align,
            self.params.loc_concentration)

    def _label_log_weights(self, tables, i, n_frozen, strength,
                           concentration):
        """The candidate policy shared by day and location labels.

        An occupied label weighs its prior join weight (``_LabelTables``)
        plus the alignment term of its pattern row and, for days, the
        aggregate term.  One extra label past the occupied ones weighs
        ``concentration`` while it is empty.  In a frozen run labels
        1..``n_frozen`` stay enterable while empty (join weight floored at
        one) and the extra label is the single overflow label
        ``n_frozen + 1``, an ordinary label while it is occupied.
        """
        if not self.frozen:
            n_frozen = 0
        align = tables.align[i]
        aggregate = None if tables.aggregate is None else tables.aggregate[i]
        y = tables.years[i]
        scale = strength * self.align_scale
        cand: list[int] = []
        logw: list[float] = []
        for u, (c, per_year, (w, w_new_year), row) in enumerate(
                zip(tables.counts, tables.per_year, tables.joins,
                    tables.rows), 1):
            if c == 0 and u > n_frozen:
                continue
            if not per_year[y]:
                w = w_new_year
            if row >= 0:
                w += scale * align[row]
                if aggregate is not None:
                    w += aggregate[row]
            cand.append(u)
            logw.append(w)
        top = cand[-1] if cand else 0
        if not self.frozen or top == n_frozen:
            cand.append(top + 1)
            logw.append(math.log(concentration))
        return cand, logw

    def _label_sweep(self, tables, log_weights) -> None:
        """Redraw each label in turn from ``log_weights(i, tables)``.

        The sweep's uniforms are drawn at once, one per label.  Unless
        frozen, an emptied label is removed so that labels stay dense.
        """
        labels = tables.labels
        for i, u in enumerate(self.rng.random(len(labels)).tolist()):
            old = int(labels[i])
            tables.take_out(i)
            pick = _draw_label(*log_weights(i, tables), u)
            tables.put(i, pick)
            if not self.frozen and pick != old and tables.counts[old - 1] == 0:
                tables.drop(old)

    def u_sweep(self) -> None:
        self._label_sweep(self._day_tables(), self.day_log_weights)

    def v_sweep(self) -> None:
        self._label_sweep(self._loc_tables(), self.loc_log_weights)

    # --------------------------------------------------------------- merges

    def merge_sweep(self) -> None:
        """Propose merging each cluster into its nearest-pattern peer.

        Single-label resampling mixes between duplicate clusters like an urn
        process and practically never consolidates them, so each sweep also
        proposes whole-cluster merges, accepted by the change of the plug-in
        joint density (day prior, alignment, and aggregate terms; the cell
        states and data terms are untouched).
        """
        for _ in range(int(self.state.day_labels.max())):
            if self.state.n_day_clusters < 2 or not self._merge_pass():
                return

    def merge_proposals(self):
        """Each day cluster's merge partner and the change the merge makes.

        The partner has the nearest modal state map.  A cluster's share of
        the plug-in density, its ``log_day_cohesion`` and its alignment and
        aggregate terms at its own modal map and mean, comes from additive
        per-cluster sums.  Returns (0-based peer, d_prior, d_terms).
        """
        p = self.params
        labels = self.state.day_labels
        onehot = np.zeros((int(labels.max()), self.T))
        onehot[labels - 1, np.arange(self.T)] = 1.0
        wet = onehot @ (self.state.states == HIGH).T.astype(float)  # (K, S)
        parts = (days_per_year(labels, self.year_idx), wet, onehot @ self.y,
                 onehot @ (self.y * self.y))

        cdp = np.where(2 * wet > onehot.sum(axis=1)[:, None], HIGH, LOW)
        dist = self.S - matches(cdp)
        np.fill_diagonal(dist, self.S + 1)
        peer = dist.argmin(axis=1)

        def share(per_year, wet, sy, syy):
            n = per_year.sum(axis=1)
            mu = sy / n
            return (log_day_cohesion(per_year, p.day_concentration),
                    p.day_align * self.align_scale
                    * np.maximum(wet, n[:, None] - wet).sum(axis=1)
                    - 0.5 * (syy - n * mu * mu) / (p.aggregate_sd ** 2))

        own = share(*parts)
        merged = share(*(x + x[peer] for x in parts))
        d_prior, d_terms = (m - o - o[peer] for m, o in zip(merged, own))
        return peer, d_prior, d_terms

    def _merge_pass(self) -> bool:
        """Propose each cluster's merge in turn; stop at the first accepted."""
        peer, d_prior, d_terms = self.merge_proposals()
        for u, delta in enumerate((d_prior + d_terms).tolist()):
            if delta >= 0 or self.rng.random() < math.exp(delta):
                a, b = sorted((u + 1, int(peer[u]) + 1))
                labels = self.state.day_labels
                labels[labels == b] = a
                labels[labels > b] -= 1
                return True
        return False

    # ----------------------------------------------------------------- run

    def sweep(self) -> float:
        self.z_sweep()
        self.u_sweep()
        self.v_sweep()
        if not self.frozen:
            self.merge_sweep()
            self.refresh()
        return joint_log_density(self.data, self.weights, self.state,
                                 self.snapshot_params(), self.patterns)

    def retain(self) -> None:
        self.z1_count += (self.state.states == HIGH)
        self.kept_u.append(self.state.day_labels.astype(np.int32))
        self.kept_v.append(self.state.loc_labels.astype(np.int32))

    def run(self, on_sweep=None) -> PosteriorSummary:
        total = self.config.n_burnin + self.config.n_samples
        ramp = max(1, self.config.n_burnin // 2)
        for i in range(total):
            if not self.frozen and i < self.config.n_burnin:
                self.align_scale = max(0.15, min(1.0, (i + 1) / ramp))
            else:
                self.align_scale = 1.0
            try:
                logp = self.sweep()
            except NumericError as exc:
                raise NumericError(f"sweep {i}: {exc}") from exc
            self.trace.append(logp)
            if i >= self.config.n_burnin:
                self.retain()
            if on_sweep is not None:
                on_sweep(self, i)
        return self.summary()

    def summary(self) -> PosteriorSummary:
        n = len(self.kept_u)
        z_mode = np.where(2 * self.z1_count > n, HIGH, LOW).astype(np.int8)
        u_mode, v_mode = _vote(self.kept_u), _vote(self.kept_v)
        if not self.frozen:
            # compact the per-variable modes to dense labels
            u_mode = np.unique(u_mode, return_inverse=True)[1] + 1
            v_mode = np.unique(v_mode, return_inverse=True)[1] + 1
        return PosteriorSummary(z_mode, u_mode, v_mode, n,
                                np.array(self.trace))


def run_gibbs(data, weights, params: ModelParams, config: SamplerConfig,
              on_sweep=None):
    """Fit the model: sample the latent state and estimate parameters.

    Returns (summary, patterns, fitted_params) where the patterns and the
    Gamma/aggregate parameters are recomputed from the posterior-mode state
    so that they are mutually consistent.
    """
    engine = _GibbsEngine(data, weights, params, config)
    summary = engine.run(on_sweep=on_sweep)
    mode_state = summary.as_state()
    patterns = extract_patterns(data, mode_state)
    shape, rate, mu = update_params_ml(data, mode_state)
    fitted = params.replace(gamma_shape=shape, gamma_rate=rate,
                            aggregate_mean=mu)
    return summary, patterns, fitted


def refit_frozen(data_new, weights_new, patterns: PatternSet,
                 params: ModelParams, config: SamplerConfig,
                 on_sweep=None) -> PosteriorSummary:
    """Re-infer latent variables on new data with patterns held fixed.

    Day labels index the frozen patterns directly (label u = frozen pattern
    u); days that conform to no pattern can collect in one overflow label,
    ``patterns.n_day_patterns + 1``.  Location labels are treated the same
    way against the frozen series.  Labels are not compacted so that they
    keep indexing the frozen patterns.
    """
    if patterns.n_day_patterns < 1:
        raise ValidationError("refit needs at least one frozen pattern")
    if data_new.n_locations != patterns.rain_patterns.shape[1]:
        raise ValidationError("new data has a different number of locations "
                              "than the frozen patterns")
    if any(a is not None and np.shape(a)[:1] != (data_new.n_locations,)
           for a in (params.gamma_shape, params.gamma_rate)):
        raise ValidationError("gamma_shape/gamma_rate need one row per location")
    if params.gamma_shape is None or params.gamma_rate is None:
        raise ValidationError("frozen runs need Gamma parameters")
    if params.aggregate_mean is None \
            or len(params.aggregate_mean) != patterns.n_day_patterns:
        raise ValidationError("frozen runs need one aggregate mean per "
                              "frozen pattern")
    engine = _GibbsEngine(data_new, weights_new, params, config,
                          frozen=patterns)
    return engine.run(on_sweep=on_sweep)
