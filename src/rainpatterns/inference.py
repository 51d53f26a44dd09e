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
Colored Fields to Thin Junction Trees").  A cell is drawn from its
log-odds, high less low.  The z-sweep works on the cells' high indicators
split by day parity, z[:, 0::2] and z[:, 1::2], so a block's rows and its
spatial neighbours' rows are contiguous and its two temporal neighbours are
shifted slices of the other parity.  A block builds its log-odds when it
is drawn: the Gamma term from per-location coefficients and the block's
rain, the alignment terms from per-label rows, its temporal count and, per
location, one entry of a table that holds the spatial log-odds of every
mask of high neighbours.

A label sweep draws all of its uniforms at once (the same stream as one
draw per label) and picks each label in plain Python from a handful of
candidate weights.  An item whose label leads every rival by more than
``GAP`` nats keeps it without a draw: the draw would provably return it, so
the labels, the tables and the stream are those of drawing it.  In a fit the
new label is a fresh number, an emptied label stays empty, and the labels
are renumbered densely once the sweep ends.

Every conditional has one implementation: ``cell_log_odds`` on the
engine for cells, and for labels ``_LabelTables.log_weights``, whose class
also owns the counts, the skip and the sweep.  The sweeps draw from them
and the exactness tests check them.  A frozen refit holds a fit's patterns
and parameters: no merge, no refresh, ``align_scale`` 1 with no ramp.  Each
day starts at its best-matching frozen pattern; its candidates are those
patterns, enterable while empty, and one overflow label for what fits none,
and the labels are not compacted.  The series, indexed by the training days,
are dropped: every location stays in label 1, with no series term.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import NumericError, ValidationError
from .model import (HIGH, LOW, RAIN_EPS, VAR_FLOOR, LatentState, ModelParams,
                    PatternSet, check_fields, days_per_year, extract_patterns,
                    indicator_dot, joint_log_density, log_day_cohesion,
                    log_gamma, matches, modal_patterns, mode_states, onehot)

INIT_STRATEGIES = ("data", "random")

# The lead, in nats, that makes a label draw certain.  When every rival's
# log-weight is at least GAP below the top, _draw_label's running sum of
# exp(w - top) over n candidates stays below n·e^-GAP < 2^-53 before the top
# and, as 1 + x rounds to 1 for x < 2^-53, is exactly 1.0 from the top on.
# numpy's random() returns multiples of 2^-53 below 1, so any u > 0 lands on
# the top.  Any GAP with n·e^-GAP < 2^-53 gives identical draws, so this is
# a correctness bound, not a tuning knob: 60 nats cover about 1e10
# candidates and the 61st is slack for the rounding of the scores that
# _LabelTables.decided compares.
GAP = 61.0


@dataclass
class SamplerConfig:
    """Sweep counts, seed and initialisation strategy."""

    n_burnin: int = 200
    n_samples: int = 300
    seed: int = 0
    init: str = "data"

    _RULES = ((("n_burnin", "seed"), lambda v: v >= 0, ">= 0"),
              (("n_samples",), lambda v: v >= 1, ">= 1"),
              (("init",), lambda v: v in INIT_STRATEGIES,
               f"one of {INIT_STRATEGIES}"))

    def validate(self, where: str = "", keys: dict | None = None) -> None:
        """Reject a value the sampler cannot run (see ``check_fields``)."""
        check_fields(self, self._RULES, where, keys)


@dataclass
class PosteriorSummary:
    """Per-variable modes over retained sweeps plus the log-density trace."""

    z_mode: np.ndarray
    u_mode: np.ndarray
    v_mode: np.ndarray
    log_density_trace: np.ndarray

    def as_state(self) -> LatentState:
        return LatentState(self.z_mode, self.u_mode, self.v_mode).copy()


def _draw_label(cand: list, logw: list, u: float):
    """The candidate that uniform ``u`` picks with probability ∝ exp(logw)."""
    top = max(logw)
    cum = list(accumulate([math.exp(w - top) for w in logw]))
    return cand[bisect_right(cum, u * cum[-1])]


def _draw_cell_states(odds: np.ndarray, rng) -> np.ndarray:
    """Draw one state per cell of log-odds ``odds`` (high less low), one
    uniform each.

    A high state ahead by more than exp's range gives p_low = 0 exactly.
    """
    with np.errstate(over="ignore"):
        p_low = np.exp(odds)
    p_low += 1.0
    np.divide(1.0, p_low, out=p_low)
    # a uniform below p_low draws the low state, LOW = HIGH + 1
    return (rng.random(len(odds)) < p_low).view(np.int8) + HIGH


def _neighbour_table(w: np.ndarray) -> np.ndarray:
    """Each location's spatial log-odds for every mask of high neighbours.

    Bit k of a mask is the high indicator of the slot-k neighbour, whose
    pair weighs ``w[s, k]`` (0 in a padded slot).  Entry [s, m] is
    2·high − w_total: high folds w·bit over the slots in order (a negative
    weight counts as 0) and w_total is the fold with every bit set.
    """
    w = np.maximum(w, 0.0)
    S, n_slots = w.shape
    bits = np.arange(2 ** n_slots)[:, None] >> np.arange(n_slots) & 1
    high = np.zeros((S, 2 ** n_slots))
    for k in range(n_slots):
        high += w[:, k, None] * bits[:, k]
    return 2.0 * high - high[:, -1:]


def _vote(kept: list) -> np.ndarray:
    """Each item's most frequent label over the labellings ``kept``; a tie
    goes to the lowest label."""
    kept = np.array(kept)
    counts = np.zeros((kept.shape[1], int(kept.max()) + 1), dtype=np.int64)
    np.add.at(counts, (np.arange(kept.shape[1]), kept), 1)
    return counts.argmax(axis=1)  # label 0 has no votes


def update_params_ml(data, state: LatentState):
    """Moment-matched Gamma parameters and per-cluster aggregate means.

    For each location and state the Gamma shape and rate come from the sample
    mean and variance of the member rainfall values (variance with n-1
    denominator; zero when fewer than two members).  The high state's Σx and
    Σx² are row products of the rain with the high indicator, and the low
    state's are the location's all-day totals (cached on the dataset) less
    the high state's, so no masked (S, T) plane is built; this summation
    order moved ``params.json`` in its trailing digits only.  Floors on the
    variance and mean absorb degenerate cells.  Rainfall so large that a
    shape or rate leaves the positive doubles is a ``NumericError`` naming
    its location.  In a sweep this is stochastic EM (Celeux & Diebolt, 1985),
    not a draw; the whole-sweep checks hold the parameters fixed.  Fitted to
    random states, both components match one mixture, EM's symmetric fixed
    point, so a fit starts from the mean split's fit whatever the init.

    Returns (shape, rate, aggregate_mean).
    """
    rain = data.rain
    S, T = rain.shape
    high = state.states == HIGH
    n_high = np.count_nonzero(high, axis=1)
    n = np.stack([n_high, T - n_high], axis=1)
    sx = np.empty((S, 2))
    sxx = np.empty((S, 2))
    sx[:, 0] = np.einsum("st,st->s", rain, high)
    sxx[:, 0] = np.einsum("st,st,st->s", rain, rain, high)
    with np.errstate(over="ignore", invalid="ignore"):
        sx[:, 1] = data.rain_total - sx[:, 0]
        sxx[:, 1] = data.rain_sq_total - sxx[:, 0]
        m = np.divide(sx, n, out=np.zeros((S, 2)), where=n > 0)
        v = np.zeros((S, 2))
        two = n >= 2
        v[two] = (sxx[two] - n[two] * m[two] ** 2) / (n[two] - 1)
        v = np.maximum(v, VAR_FLOOR)
        m = np.maximum(m, RAIN_EPS)
        shape = m * m / v
        rate = m / v
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
    """One label sweep: its counts, candidate rule, skip and draws.

    Item i joins a label of n members with the day prior's weight
    (``model.log_day_cohesion``): n, or n·(m + 1) when the label's m years
    lack i's year; ``joins`` holds both logs, floored at log 1 for an empty
    label (locations all share year 0).  A move updates one label's count
    and, when a year's count leaves or reaches zero, its span.  ``rows``
    maps labels 1..``n_rows`` to pattern rows and a label past them to
    none; ``put`` extends it for a label past every label it holds, as
    every label born in a fit is.  ``scores`` holds each item's scaled
    alignment term per pattern row and ``aggregate`` its aggregate term
    per row, zero for locations, both (rows × items).  ``n_frozen`` is
    None in a fit and the frozen row count in a refit.
    """

    def __init__(self, labels, n_rows, scores, years, concentration,
                 n_frozen, aggregate):
        self.labels = labels
        self.rows = [r if r < n_rows else -1
                     for r in range(max(int(labels.max()), n_rows))]
        self.scores = scores
        self.aggregate = aggregate
        self.log_alpha = math.log(concentration)
        self.n_frozen = n_frozen
        self.years = years.tolist()
        self.n_years = max(self.years) + 1
        per_year = np.bincount((labels - 1) * self.n_years + years,
                               minlength=len(self.rows) * self.n_years
                               ).reshape(len(self.rows), self.n_years)
        self.per_year = per_year.tolist()
        self.counts = per_year.sum(axis=1).tolist()
        self.spans = (per_year > 0).sum(axis=1).tolist()
        self.joins = list(map(self._joins, self.counts, self.spans))

    @staticmethod
    def _joins(n: int, m: int) -> tuple[float, float]:
        return math.log(max(n, 1)), math.log(max(n * (m + 1), 1))

    def decided(self) -> np.ndarray:
        """Items whose draw keeps their label, while it has another member,
        for any uniform above 0 (see ``GAP``).

        Item i scores B[r, i] = scores[r, i] + aggregate[r, i] at pattern
        row r.  Join weights lie in [0, J], J = log(n_items · (n_years +
        1)), so i's own label weighs at least its score, a rival at most its
        score plus J, a label without a row at most J and the new label
        log α.  Item i is decided when its label's row leads the next best
        row, 0 and log α by more than GAP + J.  Scores past 2^40, whose
        rounding could exceed GAP's spare nat, decide nothing.
        """
        n = len(self.labels)
        own = np.asarray(self.rows)[self.labels - 1]
        scores = self.scores + self.aggregate
        if not (len(scores) and -2.0 ** 40 < scores.min()
                and scores.max() < 2.0 ** 40):
            return np.zeros(n, dtype=bool)
        # each item's own score, then its rivals' best: own rows set to -inf
        cols = np.arange(n)
        lead = scores[own, cols]
        scores[own, cols] = -np.inf
        lead -= np.maximum(scores.max(axis=0), max(0.0, self.log_alpha))
        return (own >= 0) & (lead > GAP + math.log(n * (self.n_years + 1)))

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

    def log_weights(self, i: int):
        """Candidate labels of item i, taken out of the counts, and their
        log-weights.

        An occupied label weighs its prior join weight plus the score and
        the aggregate term of its pattern row.  In a fit a new label, past
        every label the tables hold, weighs the concentration.  In a frozen
        run labels 1..``n_frozen`` stay enterable while empty (join weight
        floored at one) and the new label is the single overflow label
        ``n_frozen + 1``, an ordinary label while it is occupied.
        """
        enterable = self.n_frozen or 0
        scores = self.scores[:, i].tolist()
        aggregate = self.aggregate[:, i].tolist()
        y = self.years[i]
        cand: list[int] = []
        logw: list[float] = []
        for u, (c, per_year, (w, w_new_year), row) in enumerate(
                zip(self.counts, self.per_year, self.joins, self.rows), 1):
            if c == 0 and u > enterable:
                continue
            if not per_year[y]:
                w = w_new_year
            if row >= 0:
                w += scores[row]
                w += aggregate[row]
            cand.append(u)
            logw.append(w)
        # a fit offers a fresh label, a refit its overflow label while empty
        new = len(self.rows) + 1 if self.n_frozen is None else enterable + 1
        if new not in cand:
            cand.append(new)
            logw.append(self.log_alpha)
        return cand, logw

    def sweep(self, uniforms: np.ndarray) -> None:
        """Redraw each label in turn from ``log_weights``, item i with
        ``uniforms[i]``.

        An item that ``decided`` names keeps its label without a draw when
        its uniform is above 0 (u = 0 can pick an earlier candidate) and its
        label has another member at its turn; drawing it would put it back
        where it was.  A label that empties stays empty for the rest of the
        sweep.  A fit then renumbers its labels densely, in order, and the
        tables keep the numbers they were drawn under.
        """
        decided = self.decided() & (uniforms > 0)
        # an item's label changes only at its own turn
        items = zip(self.labels.tolist(), uniforms.tolist(), decided.tolist())
        for i, (label, u, sure) in enumerate(items):
            if sure and self.counts[label - 1] >= 2:
                continue
            self.take_out(i)
            self.put(i, _draw_label(*self.log_weights(i), u))
        if self.n_frozen is None:
            self.labels[:] = np.unique(self.labels, return_inverse=True)[1] + 1


class _GibbsEngine:
    """Owns the mutable sampling state for one run.

    With ``frozen`` set it runs a refit (see the module docstring): day
    labels are the frozen patterns plus one overflow label, and the frozen
    series, indexed by the training days, are dropped whatever the record's
    length, so every location stays in label 1.
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
        self._gamma_scale = (  # each location's max |log x| and max x
            np.maximum(data.log_rain.max(1), -data.log_rain.min(1))[:, None],
            data.rain_floored.max(axis=1)[:, None])
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

        # the neighbour table, flat, and per block its locations' neighbours
        # slot by slot in pair order (at most eight, a padded slot pointing
        # at location 0) and the offsets of their rows of the table
        src, dst = data.pairs
        slot = np.arange(len(src)) - np.searchsorted(src, src)
        n_slots = int(np.bincount(src, minlength=self.S).max())
        nbr_pad = np.zeros((self.S, n_slots), dtype=np.intp)
        nbr_pad[src, slot] = dst
        w = np.zeros((self.S, n_slots))
        w[src, slot] = weights
        self._table = _neighbour_table(w).ravel()
        self._block_nbrs = [(nbr_pad[s_idx].T.copy(),
                             s_idx[:, None] << n_slots)
                            for s_idx, _ in self.color_blocks]

        mean_split = self._init_state(frozen)
        if self.frozen:
            self.patterns = replace(
                frozen, rain_series=np.zeros((0, self.T)),
                state_series=np.zeros((0, self.T), dtype=np.int8))
            self.params = replace(params, aggregate_mean=np.asarray(
                params.aggregate_mean, dtype=float))
            self._refresh_gamma_odds()
        else:
            self.refresh(gamma_states=mean_split)

        self.trace: list[float] = []
        self.z1_count = np.zeros((self.S, self.T), dtype=np.int32)
        # the day and location labellings of the retained sweeps
        self.kept_u: list[np.ndarray] = []
        self.kept_v: list[np.ndarray] = []

    # ---------------------------------------------------------------- setup

    def _init_state(self, frozen: PatternSet | None) -> np.ndarray:
        """Place the starting state; return the mean split, which a fit's
        starting Gamma is fitted to whatever the init."""
        from .data import discretize_by_mean

        mean_split = discretize_by_mean(self.data)
        if self.config.init == "random":
            states = self.rng.integers(HIGH, LOW + 1,
                                       size=(self.S, self.T)).astype(np.int8)
        else:
            states = mean_split

        k0 = math.isqrt(self.T - 1) + 1  # the starting day clusters, ~sqrt(T)
        if frozen is not None:
            # start every day at its best-matching frozen pattern
            day_labels = matches(frozen.state_patterns,
                                 states).argmax(axis=0) + 1
        elif self.config.init == "random":
            day_labels = self.rng.integers(1, k0 + 1, size=self.T)
            day_labels = np.unique(day_labels, return_inverse=True)[1] + 1
        else:
            # quantile-bin days on total rainfall into k0 starting bins
            ranks = np.empty(self.T, dtype=np.int64)
            ranks[np.argsort(self.y, kind="stable")] = np.arange(self.T)
            day_labels = 1 + (ranks * k0) // self.T

        self.state = LatentState(states,
                                 np.asarray(day_labels, dtype=np.int64),
                                 np.ones(self.S, dtype=np.int64))
        return mean_split

    def refresh(self, gamma_states: np.ndarray | None = None) -> None:
        """Re-extract modal patterns (an ICM step, Besag JRSS-B 1986, not a
        draw; at η = 1, ζ = 0.5 CI's whole-sweep TVs read 0.44, 0.29, 0.083)
        and re-estimate parameters, the Gamma's from ``gamma_states`` if
        given; trace.csv's logp is the plug-in joint."""
        self.patterns = modal_patterns(self.data, self.state)
        fit_to = self.state if gamma_states is None else replace(
            self.state, states=gamma_states)
        shape, rate, mu = update_params_ml(self.data, fit_to)
        self.params = replace(self.params, gamma_shape=shape,
                              gamma_rate=rate, aggregate_mean=mu)
        self._refresh_gamma_odds()

    def _refresh_gamma_odds(self) -> None:
        """The Gamma term's log-odds coefficients, (S, 1) each and high less
        low: Δa, Δb and Δc = Δ(a·log b − log Γ(a)).

        A cell's term is Δa·log x − Δb·x + Δc at the floored rain x, as the
        joint density reads it.  A non-finite term is a ``NumericError``
        naming its location; only a location whose |Δa|·max |log x| +
        |Δb|·max x + |Δc| is not below 2^1021 can have one and is checked.
        """
        a, b = self.params.gamma_shape, self.params.gamma_rate
        max_log, max_x = self._gamma_scale
        with np.errstate(over="ignore", invalid="ignore"):
            self.gamma_deltas = da, db, dc = [v[:, :1] - v[:, 1:] for v in (
                a, b, a * np.log(b) - log_gamma(a))]
            bound = abs(da) * max_log + abs(db) * max_x + abs(dc)
            loose = np.flatnonzero(~(bound < 2.0 ** 1021))
            terms = da[loose] * self.data.log_rain[loose]
            terms -= db[loose] * self.data.rain_floored[loose]
            terms += dc[loose]
        finite = np.isfinite(terms).all(axis=1)
        if not finite.all():
            raise self.data.numeric_error(int(loose[finite.argmin()]),
                                          "gives a non-finite Gamma term")

    # -------------------------------------------------------------- Z sweep

    def _day_parity_parts(self):
        """The z-sweep's inputs: 0/1 uint8 high indicators split by day
        parity, z[:, 0::2] and z[:, 1::2]; ±η per (location, pattern row)
        and ±ζ per (series row, day); and each day's and location's row,
        where a label without one picks the zeros past them.
        """
        p, pats = self.params, self.patterns
        eta = p.day_align * self.align_scale
        zeta = p.loc_align * self.align_scale
        pat = np.zeros((self.S, pats.n_day_patterns + 1))
        pat[:, :-1] = np.where(pats.state_patterns.T == HIGH, eta, -eta)
        ser = np.zeros((pats.n_loc_series + 1, self.T))
        ser[:-1] = np.where(pats.state_series == HIGH, zeta, -zeta)
        rows_u = np.minimum(self.state.day_labels - 1, pats.n_day_patterns)
        rows_v = np.minimum(self.state.loc_labels - 1, pats.n_loc_series)
        high = [(self.state.states[:, d::2] == HIGH).view(np.uint8)
                for d in range(2)]
        return high, pat, ser, rows_u, rows_v

    def cell_log_odds(self, b: int, parts) -> np.ndarray:
        """Conditional log-odds, high less low, of every cell of block b.

        Block b is ``color_blocks[b]`` = (locations, day parity d), its cells
        those locations × the days d, d + 2, ....  ``parts`` is what
        ``_day_parity_parts`` returns.  Returns one log-odds per cell in
        row-major (location, day) order, the Gamma, pattern, series, temporal
        and spatial terms added in turn; a missing temporal neighbour adds 0.
        """
        high, pat, ser, rows_u, rows_v = parts
        s_idx, d = self.color_blocks[b]
        own, other = high[d], high[1 - d]
        n_d = own.shape[1]
        da, db, dc = (v[s_idx] for v in self.gamma_deltas)
        odds = da * self.data.log_rain[s_idx, d::2]
        odds -= db * self.data.rain_floored[s_idx, d::2]
        odds += dc
        odds += pat[s_idx][:, rows_u[d::2]]
        odds += ser[rows_v[s_idx], d::2]

        # temporal edges: log f per agreeing neighbour day, so log f times
        # 2·n_high − n_inside, the sum of +1 per high and −1 per low
        # neighbour; those of column j are the other parity's columns
        # j + d - 1 and j + d
        signs = 2 * other[s_idx].view(np.int8) - 1
        count = np.zeros(odds.shape, dtype=np.int8)
        for off in (d - 1, d):
            lo, hi = max(0, -off), min(n_d, other.shape[1] - off)
            count[:, lo:hi] += signs[:, lo + off:hi + off]
        odds += self.log_tf * count

        # spatial edges: one gather from the location's row of the
        # neighbour table at the mask of high neighbours, slot k at bit k
        nbrs, offsets = self._block_nbrs[b]
        slots = own[nbrs]
        slots *= (1 << np.arange(len(nbrs), dtype=np.uint8))[:, None, None]
        index = np.bitwise_or.reduce(slots, axis=0).astype(np.intp)
        index += offsets
        odds += self._table.take(index)
        return odds.ravel()

    def z_sweep(self) -> None:
        parts = self._day_parity_parts()
        high = parts[0]
        for b, (s_idx, d) in enumerate(self.color_blocks):
            states = _draw_cell_states(self.cell_log_odds(b, parts), self.rng)
            high[d][s_idx] = (states == HIGH).reshape(len(s_idx), -1)
        for d, h in enumerate(high):
            self.state.states[:, d::2] = LOW - h  # HIGH = LOW - 1

    # -------------------------------------------------------- label sweeps

    def _day_tables(self) -> _LabelTables:
        p, pats = self.params, self.patterns
        dev = (self.y[None, :] - p.aggregate_mean[:, None]) / p.aggregate_sd
        return _LabelTables(
            self.state.day_labels, pats.n_day_patterns,
            p.day_align * self.align_scale
            * matches(pats.state_patterns, self.state.states),
            self.year_idx, p.day_concentration,
            pats.n_day_patterns if self.frozen else None, -0.5 * dev * dev)

    def _loc_tables(self) -> _LabelTables:
        p, pats = self.params, self.patterns
        return _LabelTables(
            self.state.loc_labels, pats.n_loc_series,
            p.loc_align * self.align_scale
            * matches(pats.state_series, self.state.states.T),
            np.zeros(self.S, dtype=np.intp), p.loc_concentration,
            pats.n_loc_series if self.frozen else None,
            np.zeros((pats.n_loc_series, self.S)))

    def u_sweep(self) -> None:
        self._day_tables().sweep(self.rng.random(self.T))

    def v_sweep(self) -> None:
        self._loc_tables().sweep(self.rng.random(self.S))

    # --------------------------------------------------------------- merges

    def merge_sweep(self) -> None:
        """Propose merging each cluster into its nearest-pattern peer.

        Single-label resampling mixes between duplicate clusters like an urn
        process and practically never consolidates them, so each sweep also
        proposes whole-cluster merges, accepted by the change of the plug-in
        joint density (day prior, alignment, and aggregate terms; the cell
        states and data terms are untouched).  A heuristic, not a
        Metropolis–Hastings move: there is no reverse split, and CI's
        whole-sweep step reads a day-partition TV of 0.60 with it on."""
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
        member = onehot(labels)
        wet = indicator_dot(self.state.states == HIGH, member.T).T  # (K, S)
        parts = (days_per_year(labels, self.year_idx), wet, member @ self.y,
                 member @ (self.y * self.y))

        cdp = mode_states(wet, member.sum(axis=1)[:, None])
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
                                 self.params, self.patterns)

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
        z_mode = mode_states(self.z1_count, len(self.kept_u))
        u_mode, v_mode = _vote(self.kept_u), _vote(self.kept_v)
        if not self.frozen:
            # compact the per-variable modes to dense labels
            u_mode = np.unique(u_mode, return_inverse=True)[1] + 1
            v_mode = np.unique(v_mode, return_inverse=True)[1] + 1
        return PosteriorSummary(z_mode, u_mode, v_mode, np.array(self.trace))


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
    fitted = replace(params, gamma_shape=shape, gamma_rate=rate,
                     aggregate_mean=mu)
    return summary, patterns, fitted


def refit_frozen(data_new, weights_new, patterns: PatternSet,
                 params: ModelParams, config: SamplerConfig,
                 on_sweep=None) -> PosteriorSummary:
    """Re-infer latent variables on new data with patterns held fixed.

    Day labels index the frozen patterns directly (label u = frozen pattern
    u), start at each day's best match and are not compacted; days that
    conform to no pattern can collect in one overflow label,
    ``patterns.n_day_patterns + 1``.  No merge, refresh or burn-in ramp runs,
    and the frozen series are dropped: every location stays in label 1.
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
