"""Gibbs sampling of the latent state interleaved with ML parameter updates.

Each sweep resamples every cell state, then every day label, then every
location label, then refreshes the canonical patterns and the estimated
parameters from the current assignment.  The posterior point estimate is the
per-variable mode over the retained sweeps.

Cell states are visited in one scan order: the space-time lattice is split
into eight colour classes of mutually non-adjacent cells (both grid
coordinate parities and the day parity), and each class is updated with one
vectorised draw.  Cells of one class are conditionally independent given the
rest, so updating a class at once is an ordinary Gibbs scan in a different
visit order and targets the same distribution (Gonzalez et al., AISTATS 2011,
"Parallel Gibbs Sampling: From Colored Fields to Thin Junction Trees").

Every conditional has one implementation on the engine:
``cell_log_weights``, ``day_log_weights`` and ``loc_log_weights``.  The
sweeps draw from them and the exactness tests check them.  A frozen refit
differs only in its candidate labels: the frozen patterns stay enterable while
empty and one overflow label collects what fits none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericError, ValidationError
from .model import (HIGH, LOW, RAIN_EPS, VAR_FLOOR, LatentState, ModelParams,
                    PatternSet, crp_log_prior_days, extract_patterns,
                    joint_log_density)

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


def _sample_from_log_weights(logw: np.ndarray, rng) -> int:
    """Draw an index proportionally to exp(logw), stably."""
    p = np.exp(logw - logw.max())
    c = np.cumsum(p)
    return int(np.searchsorted(c, rng.random() * c[-1], side="right"))


def _draw_cell_states(w: np.ndarray, rng) -> np.ndarray:
    """Draw one state per column of (2, n) log-weights, one uniform each."""
    p_low = 1.0 / (1.0 + np.exp(w[0] - w[1]))
    return np.where(rng.random(w.shape[1]) < p_low, LOW, HIGH).astype(np.int8)


def _row_map(n_labels: int, n_rows: int, n_aligned: int) -> np.ndarray:
    """Label -> pattern row, -1 where a label has no aligned pattern row.

    Covers every current label and one label past the pattern rows.
    """
    return np.array([i if i < n_aligned else -1
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


def update_params_ml(data, state: LatentState):
    """Moment-matched Gamma parameters and per-cluster aggregate means.

    For each location and state the Gamma shape and rate come from the sample
    mean and variance of the member rainfall values (variance with n-1
    denominator; zero when fewer than two members).  Floors on the variance
    and mean absorb degenerate cells.

    Returns (shape, rate, aggregate_mean).
    """
    rain = data.rain
    S, T = rain.shape
    shape = np.empty((S, 2))
    rate = np.empty((S, 2))
    for k, code in enumerate((HIGH, LOW)):
        mask = state.states == code
        n = mask.sum(axis=1)
        sx = (rain * mask).sum(axis=1)
        sxx = (rain * rain * mask).sum(axis=1)
        m = np.divide(sx, n, out=np.zeros(S), where=n > 0)
        v = np.zeros(S)
        two = n >= 2
        v[two] = (sxx[two] - n[two] * m[two] ** 2) / (n[two] - 1)
        v = np.maximum(v, VAR_FLOOR)
        m = np.maximum(m, RAIN_EPS)
        shape[:, k] = m * m / v
        rate[:, k] = m / v
    y = rain.sum(axis=0)
    K = state.n_day_clusters
    counts = np.bincount(state.day_labels - 1, minlength=K)
    sums = np.bincount(state.day_labels - 1, weights=y, minlength=K)
    mu = sums / counts
    return shape, rate, mu


class _GibbsEngine:
    """Owns the mutable sampling state for one run.

    With ``frozen`` set, patterns and parameters are never refreshed, day
    labels are restricted to the frozen patterns plus one overflow label, and
    location labels to the frozen series plus one overflow label.
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

        rain = data.rain
        self.S, self.T = rain.shape
        self.y = rain.sum(axis=0)
        self.logx = np.log(np.maximum(rain, RAIN_EPS))
        self.log_tf = math.log(params.temporal_factor)
        self.year_vals, self.year_idx = np.unique(data.year_of_day,
                                                  return_inverse=True)
        self.n_years = len(self.year_vals)

        # padded neighbour tables for the vectorised spatial term
        max_deg = max((len(nb) for nb in data.neighborhoods), default=0)
        max_deg = max(max_deg, 1)
        self.nbr_pad = np.zeros((self.S, max_deg), dtype=np.intp)
        self.w_pad = np.zeros((self.S, max_deg))
        for s, nb in enumerate(data.neighborhoods):
            self.nbr_pad[s, :len(nb)] = nb
            self.w_pad[s, :len(nb)] = np.maximum(weights.values[s], 0.0)

        # eight-colour partition of the space-time lattice: cells sharing a
        # colour agree in both coordinate parities and day parity, so they are
        # never spatial or temporal neighbours of one another
        gx = data.grid_coords[:, 0] % 2
        gy = data.grid_coords[:, 1] % 2
        cell_color = ((gx * 2 + gy)[:, None] * 2 + (np.arange(self.T) % 2)[None, :])
        self.color_cells = [np.nonzero(cell_color == c) for c in range(8)]

        self._init_state(frozen)
        if self.frozen:
            self.patterns = frozen
            if params.gamma_shape is None or params.gamma_rate is None:
                raise ValidationError("frozen runs need Gamma parameters")
            if params.aggregate_mean is None \
                    or len(params.aggregate_mean) != frozen.n_day_patterns:
                raise ValidationError("frozen runs need one aggregate mean "
                                      "per frozen pattern")
            self.mu = np.asarray(params.aggregate_mean, dtype=float)
            self.alpha = params.gamma_shape
            self.beta = params.gamma_rate
            self._refresh_logdens()
        else:
            self.refresh()

        self.trace: list[float] = []
        self.z1_count = np.zeros((self.S, self.T), dtype=np.int32)
        self.u_count = np.zeros((self.T, 8), dtype=np.int32)
        self.v_count = np.zeros((self.S, 8), dtype=np.int32)
        self.n_retained = 0

    # ---------------------------------------------------------------- setup

    def _init_state(self, frozen: PatternSet | None) -> None:
        from .data import discretize_by_mean

        if self.config.init == "random":
            states = self.rng.integers(HIGH, LOW + 1,
                                       size=(self.S, self.T)).astype(np.int8)
        else:
            states = discretize_by_mean(self.data)

        if frozen is not None:
            # start every day and location at its best-matching frozen pattern
            p1 = (frozen.state_patterns == HIGH).astype(float)
            z1 = (states == HIGH).astype(float)
            match_u = p1 @ z1 + (1.0 - p1) @ (1.0 - z1)
            day_labels = match_u.argmax(axis=0) + 1
            if frozen.state_series.shape[1] == self.T:
                c1 = (frozen.state_series == HIGH).astype(float)
                match_v = c1 @ z1.T + (1.0 - c1) @ (1.0 - z1.T)
                loc_labels = match_v.argmax(axis=0) + 1
            else:
                # frozen series are indexed by the training days and cannot
                # align with a different record length
                loc_labels = np.ones(self.S, dtype=np.int64)
        elif self.config.init == "random":
            k0 = math.isqrt(self.T - 1) + 1
            day_labels = self.rng.integers(1, k0 + 1, size=self.T)
            day_labels = np.unique(day_labels, return_inverse=True)[1] + 1
            loc_labels = np.ones(self.S, dtype=np.int64)
        elif self.config.init == "pattern":
            day_labels = _leader_init(states, math.isqrt(self.T - 1) + 1)
            loc_labels = np.ones(self.S, dtype=np.int64)
        else:
            # quantile-bin days on total rainfall into ~sqrt(T) starting bins
            k0 = math.isqrt(self.T - 1) + 1
            ranks = np.empty(self.T, dtype=np.int64)
            ranks[np.argsort(self.y, kind="stable")] = np.arange(self.T)
            day_labels = 1 + (ranks * k0) // self.T
            loc_labels = np.ones(self.S, dtype=np.int64)

        self.state = LatentState(states,
                                 np.asarray(day_labels, dtype=np.int64),
                                 np.asarray(loc_labels, dtype=np.int64))

    def refresh(self) -> None:
        """Re-extract patterns and re-estimate parameters from the state."""
        self.patterns = extract_patterns(self.data, self.state)
        self.alpha, self.beta, self.mu = update_params_ml(self.data, self.state)
        self._refresh_logdens()

    def _refresh_logdens(self) -> None:
        ld = np.empty((2, self.S, self.T))
        for k in range(2):
            a = self.alpha[:, k][:, None]
            b = self.beta[:, k][:, None]
            ld[k] = (a * np.log(b) + (a - 1.0) * self.logx
                     - b * self.data.rain - gammaln(a))
        self.logdens = ld

    def snapshot_params(self) -> ModelParams:
        return self.params.replace(gamma_shape=self.alpha,
                                   gamma_rate=self.beta,
                                   aggregate_mean=self.mu)

    # -------------------------------------------------------------- Z sweep

    def cell_log_weights(self, s_arr, t_arr):
        """Conditional log-weights of both states of the given cells, (2, n)."""
        z = self.state.states
        p = self.params
        n = len(s_arr)
        w = np.zeros((2, n))

        for dt in (-1, 1):
            t2 = t_arr + dt
            ok = (t2 >= 0) & (t2 < self.T)
            znb = z[s_arr[ok], t2[ok]]
            w[0][ok] += self.log_tf * (znb == HIGH)
            w[1][ok] += self.log_tf * (znb == LOW)

        znb = z[self.nbr_pad[s_arr], t_arr[:, None]]
        wgt = self.w_pad[s_arr]
        w[0] += (wgt * (znb == HIGH)).sum(axis=1)
        w[1] += (wgt * (znb == LOW)).sum(axis=1)

        eta = p.day_align * self.align_scale
        zeta = p.loc_align * self.align_scale
        rows_u = self._rowmap_u[self.state.day_labels[t_arr] - 1]
        ok = rows_u >= 0
        pat = self.patterns.state_patterns[rows_u[ok], s_arr[ok]]
        w[0][ok] += eta * (pat == HIGH)
        w[1][ok] += eta * (pat == LOW)

        rows_v = self._rowmap_v[self.state.loc_labels[s_arr] - 1]
        ok = rows_v >= 0
        ser = self.patterns.state_series[rows_v[ok], t_arr[ok]]
        w[0][ok] += zeta * (ser == HIGH)
        w[1][ok] += zeta * (ser == LOW)

        w[0] += self.logdens[0, s_arr, t_arr]
        w[1] += self.logdens[1, s_arr, t_arr]
        return w

    def _set_rowmaps(self) -> None:
        """Label -> pattern-row maps for the current labels and patterns.

        Series extracted from a record of another length align with nothing.
        """
        ku = self.patterns.n_day_patterns
        kv = self.patterns.n_loc_series
        kv_aligned = kv if self.patterns.state_series.shape[1] == self.T else 0
        self._rowmap_u = _row_map(self.state.n_day_clusters, ku, ku)
        self._rowmap_v = _row_map(self.state.n_loc_clusters, kv, kv_aligned)

    def z_sweep(self) -> None:
        self._set_rowmaps()
        for s_arr, t_arr in self.color_cells:
            if len(s_arr) == 0:
                continue
            w = self.cell_log_weights(s_arr, t_arr)
            self.state.states[s_arr, t_arr] = _draw_cell_states(w, self.rng)

    # -------------------------------------------------------- label sweeps

    def _day_align_matrix(self) -> np.ndarray:
        p1 = (self.patterns.state_patterns == HIGH).astype(np.float64)
        z1 = (self.state.states == HIGH).astype(np.float64)
        return p1 @ z1 + (1.0 - p1) @ (1.0 - z1)  # (K_pat, T)

    def _loc_align_matrix(self) -> np.ndarray:
        if self.patterns.state_series.shape[1] != self.T:
            return np.zeros((self.patterns.n_loc_series, self.S))
        c1 = (self.patterns.state_series == HIGH).astype(np.float64)
        z1 = (self.state.states == HIGH).astype(np.float64)
        return c1 @ z1.T + (1.0 - c1) @ (1.0 - z1.T)  # (L_pat, S)

    def day_log_weights(self, t: int, align=None, rows=None):
        """Candidate labels of day t and their conditional log-weights.

        Day t itself is left out of the cluster counts.  ``align`` (the
        day-pattern match matrix) and ``rows`` (label -> pattern row) default
        to their values for the current state.
        """
        if align is None:
            align = self._day_align_matrix()
        if rows is None:
            self._set_rowmaps()
            rows = self._rowmap_u.tolist()
        labels = self.state.day_labels
        ny = self.n_years
        own = labels[t]
        labels[t] = 0
        counts = np.bincount(labels, minlength=len(rows) + 1)[1:]
        year_tab = np.bincount(labels * ny + self.year_idx,
                               minlength=(len(rows) + 1) * ny)
        labels[t] = own
        years = (year_tab.reshape(-1, ny)[1:] > 0).sum(axis=1)
        dev = (self.y[t] - self.mu) / self.params.aggregate_sd
        return self._label_log_weights(
            counts * years, rows, self.patterns.n_day_patterns,
            self.params.day_align, align[:, t],
            self.params.day_concentration, aggregate=-0.5 * dev * dev)

    def loc_log_weights(self, s: int, align=None, rows=None):
        """Candidate labels of location s and their conditional log-weights.

        Mirror of :meth:`day_log_weights` without the aggregate term.
        """
        if align is None:
            align = self._loc_align_matrix()
        if rows is None:
            self._set_rowmaps()
            rows = self._rowmap_v.tolist()
        labels = self.state.loc_labels
        own = labels[s]
        labels[s] = 0
        counts = np.bincount(labels, minlength=len(rows) + 1)[1:]
        labels[s] = own
        return self._label_log_weights(
            counts, rows, self.patterns.n_loc_series, self.params.loc_align,
            align[:, s], self.params.loc_concentration)

    def _label_log_weights(self, mass, rows, n_frozen, strength, align,
                           concentration, aggregate=None):
        """The candidate policy shared by day and location labels.

        An occupied label weighs log(mass) plus the alignment term of its
        pattern row and, for days, the aggregate term.  One extra label past
        the occupied ones weighs ``concentration`` while it is empty.  In a
        frozen run labels 1..``n_frozen`` stay enterable while empty (mass
        floored at one) and the extra label is the single overflow label
        ``n_frozen + 1``, an ordinary label while it is occupied.
        """
        if not self.frozen:
            n_frozen = 0
        cand: list[int] = []
        logw: list[float] = []
        for u in range(1, len(mass) + 1):
            c = mass[u - 1]
            if c == 0 and u > n_frozen:
                continue
            w = math.log(max(c, 1))
            row = rows[u - 1]
            if row >= 0:
                w += strength * self.align_scale * align[row]
                if aggregate is not None:
                    w += aggregate[row]
            cand.append(u)
            logw.append(w)
        top = cand[-1] if cand else 0
        if not self.frozen or top == n_frozen:
            cand.append(top + 1)
            logw.append(math.log(concentration))
        return cand, np.array(logw)

    def _label_sweep(self, labels, log_weights, align, rows) -> None:
        """Redraw each label in turn from ``log_weights(i, align, rows)``.

        Unless frozen, a label born in the sweep maps to no pattern row and an
        emptied label is removed so that labels stay dense.
        """
        for i in range(len(labels)):
            old = int(labels[i])
            cand, logw = log_weights(i, align, rows)
            pick = cand[_sample_from_log_weights(logw, self.rng)]
            labels[i] = pick
            if self.frozen:
                continue
            while len(rows) < pick:
                rows.append(-1)
            if old != pick and not (labels == old).any():
                labels[labels > old] -= 1
                del rows[old - 1]

    def u_sweep(self) -> None:
        self._set_rowmaps()
        self._label_sweep(self.state.day_labels, self.day_log_weights,
                          self._day_align_matrix(), self._rowmap_u.tolist())

    def v_sweep(self) -> None:
        self._set_rowmaps()
        self._label_sweep(self.state.loc_labels, self.loc_log_weights,
                          self._loc_align_matrix(), self._rowmap_v.tolist())

    # --------------------------------------------------------------- merges

    def _merge_stats(self):
        """Per-cluster counts, wet counts, and aggregate sums for merges."""
        labels = self.state.day_labels
        K = int(labels.max())
        onehot = np.zeros((K, self.T))
        onehot[labels - 1, np.arange(self.T)] = 1.0
        n = onehot.sum(axis=1)
        wet = onehot @ (self.state.states == HIGH).T.astype(float)  # (K, S)
        sy = onehot @ self.y
        syy = onehot @ (self.y * self.y)
        return K, n, wet, sy, syy

    def _align_sum(self, wet: np.ndarray, n: float, cdp: np.ndarray) -> float:
        """Sum of member matches against one state map, from wet counts."""
        high = cdp == HIGH
        return float(wet[high].sum() + (n - wet[~high]).sum())

    def _agg_sum(self, n: float, sy: float, syy: float) -> float:
        """Aggregate log-kernel total for a cluster at its own mean."""
        if n <= 0:
            return 0.0
        mu = sy / n
        var_sum = syy - n * mu * mu
        return -0.5 * var_sum / (self.params.aggregate_sd ** 2)

    def merge_sweep(self) -> None:
        """Propose merging each cluster into its nearest-pattern peer.

        Single-label resampling mixes between duplicate clusters like an urn
        process and practically never consolidates them, so each sweep also
        proposes whole-cluster merges, accepted by the change of the plug-in
        joint density (clustering prior, alignment, and aggregate terms; the
        cell states and data terms are untouched).
        """
        p = self.params
        for _ in range(int(self.state.day_labels.max())):
            labels = self.state.day_labels
            K, n, wet, sy, syy = self._merge_stats()
            if K < 2:
                return
            cdp = np.where(2 * wet > n[:, None], HIGH, LOW).astype(np.int8)
            dist = (cdp[:, None, :] != cdp[None, :, :]).sum(axis=2)
            np.fill_diagonal(dist, self.S + 1)
            merged = False
            for u in range(1, K + 1):
                if int(self.state.day_labels.max()) < u:
                    break
                v = int(dist[u - 1].argmin()) + 1
                a, b = min(u, v), max(u, v)
                cand = labels.copy()
                cand[cand == b] = a
                cand[cand > b] -= 1

                d_crp = (crp_log_prior_days(cand, self.data.year_of_day,
                                            p.day_concentration)
                         - crp_log_prior_days(labels, self.data.year_of_day,
                                              p.day_concentration))
                wet_ab = wet[a - 1] + wet[b - 1]
                n_ab = n[a - 1] + n[b - 1]
                cdp_ab = np.where(2 * wet_ab > n_ab, HIGH, LOW).astype(np.int8)
                d_align = p.day_align * self.align_scale * (
                    self._align_sum(wet_ab, n_ab, cdp_ab)
                    - self._align_sum(wet[a - 1], n[a - 1], cdp[a - 1])
                    - self._align_sum(wet[b - 1], n[b - 1], cdp[b - 1]))
                d_agg = (self._agg_sum(n_ab, sy[a - 1] + sy[b - 1],
                                       syy[a - 1] + syy[b - 1])
                         - self._agg_sum(n[a - 1], sy[a - 1], syy[a - 1])
                         - self._agg_sum(n[b - 1], sy[b - 1], syy[b - 1]))
                delta = d_crp + d_align + d_agg
                if delta >= 0 or self.rng.random() < math.exp(delta):
                    self.state.day_labels = cand
                    merged = True
                    break
            if not merged:
                return

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
        ku = int(self.state.day_labels.max())
        if ku > self.u_count.shape[1]:
            grow = np.zeros((self.T, ku - self.u_count.shape[1]), dtype=np.int32)
            self.u_count = np.hstack([self.u_count, grow])
        self.u_count[np.arange(self.T), self.state.day_labels - 1] += 1
        kv = int(self.state.loc_labels.max())
        if kv > self.v_count.shape[1]:
            grow = np.zeros((self.S, kv - self.v_count.shape[1]), dtype=np.int32)
            self.v_count = np.hstack([self.v_count, grow])
        self.v_count[np.arange(self.S), self.state.loc_labels - 1] += 1
        self.n_retained += 1

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
        n = self.n_retained
        z_mode = np.where(2 * self.z1_count > n, HIGH, LOW).astype(np.int8)
        u_mode = (self.u_count.argmax(axis=1) + 1).astype(np.int64)
        v_mode = (self.v_count.argmax(axis=1) + 1).astype(np.int64)
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
    if data_new.rain.shape[0] != patterns.rain_patterns.shape[1]:
        raise ValidationError("new data has a different number of locations "
                              "than the frozen patterns")
    engine = _GibbsEngine(data_new, weights_new, params, config,
                          frozen=patterns)
    return engine.run(on_sweep=on_sweep)
