import csv
import io
import itertools
import math
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from rainpatterns import (HIGH, LOW, LatentState, ModelParams, NumericError,
                          SamplerConfig, SyntheticSpec,
                          compute_spatial_weights, extract_patterns,
                          generate_synthetic, joint_log_density)
from rainpatterns import inference
from rainpatterns.data import make_dataset
from rainpatterns.inference import _GibbsEngine
from rainpatterns.model import (RAIN_EPS, crp_log_prior_days,
                                crp_log_prior_locations, log_gamma)


@pytest.fixture(scope="session")
def small_synth():
    """Small planted-pattern dataset shared by read-only tests."""
    spec = SyntheticSpec(n_locations=25, n_days=80, n_day_patterns=2,
                         n_loc_groups=3, n_years=4, flip_noise=0.05, seed=42)
    data, truth = generate_synthetic(spec)
    return data, truth


@pytest.fixture(scope="session")
def small_weights(small_synth):
    data, _ = small_synth
    return compute_spatial_weights(data)


@pytest.fixture()
def tiny_data():
    """Hand-built 2x2 grid, 3-day dataset."""
    rng = np.random.default_rng(7)
    coords = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    rain = rng.gamma(2.0, 4.0, (4, 3))
    return make_dataset(rain, coords, np.array([0, 0, 1]))


def neighbour_lists(data, per_pair=None):
    """Per-location lists read from ``data.pairs``: each location's
    neighbours in the list's order or, given one value per pair, the values
    of its pairs."""
    src, dst = data.pairs
    ends = np.cumsum(np.bincount(src, minlength=data.n_locations))[:-1]
    return np.split(dst if per_pair is None else np.asarray(per_pair), ends)


def fitted_params(data, state, **kw):
    """ModelParams with Gamma/aggregate estimates for the given state."""
    from rainpatterns import update_params_ml

    shape, rate, mu = update_params_ml(data, state)
    base = dict(day_align=3.0, loc_align=1.5, temporal_factor=2.0,
                aggregate_sd=max(float(data.aggregate.std()), 1.0))
    base.update(kw)
    return ModelParams(gamma_shape=shape, gamma_rate=rate, aggregate_mean=mu,
                       **base)


def fail_the_first_refresh(monkeypatch):
    """Make ``update_params_ml`` raise a NumericError on its second call,
    the first sweep's refresh (the first is the engine's setup)."""
    update = inference.update_params_ml
    calls = []

    def update_once(data, state):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("location 0 gives non-finite Gamma parameters")
        return update(data, state)

    monkeypatch.setattr(inference, "update_params_ml", update_once)


def engine_at(data, state, params, patterns=None, weights=None):
    """A sampling engine placed at a given state, patterns and parameters.

    The conditionals it computes are those the sweeps draw from.  Patterns
    default to those of ``state``; without ``weights`` every spatial pair
    weighs zero.
    """
    if weights is None:
        weights = np.zeros(len(data.pairs[0]))
    cfg = SamplerConfig(n_burnin=0, n_samples=1)
    engine = _GibbsEngine(data, weights, params, cfg)
    engine.state = state.copy()
    engine.patterns = (extract_patterns(data, state) if patterns is None
                       else patterns)
    engine.params = params
    engine._refresh_gamma_odds()
    return engine


def label_log_weights(tables, i):
    """Item i's candidate labels and log-weights from a label sweep's
    ``tables`` (``engine._day_tables()`` or ``_loc_tables()``), read as the
    sweep reads them: i taken out of the counts first."""
    tables.take_out(i)
    return tables.log_weights(i)


class DroppingLabelTables(inference._LabelTables):
    """A fit's label sweep under the rule that renumbers labels as they
    empty, the reference for ``_LabelTables.sweep``: an emptied label is
    dropped at once and the labels above it move down by one, the new label
    is numbered one past the top candidate, and a label born under its
    item's old number (the item alone in the top label) loses that label's
    pattern row.  For fits only (``n_frozen`` None)."""

    def drop(self, label):
        self.labels[self.labels > label] -= 1
        k = label - 1
        del (self.rows[k], self.counts[k], self.spans[k], self.joins[k],
             self.per_year[k])

    def log_weights(self, i):
        cand, logw = super().log_weights(i)
        cand[-1] = cand[-2] + 1 if len(cand) > 1 else 1
        return cand, logw

    def sweep(self, uniforms):
        decided = self.decided() & (uniforms > 0)
        for i, (u, sure) in enumerate(zip(uniforms.tolist(),
                                          decided.tolist())):
            old = int(self.labels[i])
            if sure and self.counts[old - 1] >= 2:
                continue
            self.take_out(i)
            pick = inference._draw_label(*self.log_weights(i), u)
            if pick == old and self.counts[old - 1] == 0:
                self.rows[old - 1] = -1
            self.put(i, pick)
            if pick != old and self.counts[old - 1] == 0:
                self.drop(old)


def brute_force_agreements(data, state, pats):
    """The joint's integer terms counted cell by cell, as
    ``model.agreement_counts`` returns them: agreeing adjacent-day pairs,
    the agreeing days of each neighbour pair s < s2 in the order of
    ``data.pairs``, and the cells agreeing with their day's pattern row and
    their location's series row, where the label has one."""
    S, T = data.rain.shape
    z = state.states
    temporal = sum(int(z[s, t] == z[s, t + 1])
                   for s in range(S) for t in range(T - 1))
    spatial = [sum(int(z[s, t] == z[s2, t]) for t in range(T))
               for s, nb in enumerate(neighbour_lists(data))
               for s2 in nb if s < s2]
    day = loc = 0
    for s in range(S):
        for t in range(T):
            u = state.day_labels[t]
            if u <= pats.n_day_patterns \
                    and pats.state_patterns[u - 1, s] == z[s, t]:
                day += 1
            v = state.loc_labels[s]
            if v <= pats.n_loc_series \
                    and pats.state_series[v - 1, t] == z[s, t]:
                loc += 1
    return temporal, spatial, day, loc


def brute_force_log_density(data, weights, state, params, pats):
    """The joint log-density re-derived term by term in explicit loops.

    The one reference for ``joint_log_density``: every temporal and spatial
    edge once (a negative weight scores 0), the alignment terms (a label
    without a pattern row scores 0), counted by ``brute_force_agreements``;
    the Gamma data term (rain clamped at RAIN_EPS) and the aggregate term (a
    label without a mean scores 0).
    """
    S, T = data.rain.shape
    z = state.states
    total = crp_log_prior_days(state.day_labels, data.year_of_day,
                               params.day_concentration)
    total += crp_log_prior_locations(state.loc_labels,
                                     params.loc_concentration)
    temporal, spatial, day, loc = brute_force_agreements(data, state, pats)
    total += math.log(params.temporal_factor) * temporal
    nbs, values = neighbour_lists(data), neighbour_lists(data, weights)
    weight = [max(float(w), 0.0) for s in range(S)
              for s2, w in zip(nbs[s], values[s]) if s < s2]
    total += sum(w * n for w, n in zip(weight, spatial))
    total += params.day_align * day + params.loc_align * loc
    for s in range(S):
        for t in range(T):
            a = float(params.gamma_shape[s, z[s, t] - 1])
            b = float(params.gamma_rate[s, z[s, t] - 1])
            x = max(float(data.rain[s, t]), RAIN_EPS)
            total += (a * math.log(b) + (a - 1.0) * math.log(x) - b * x
                      - math.lgamma(a))
    mu = params.aggregate_mean
    y = data.rain.sum(axis=0)
    for t in range(T):
        u = state.day_labels[t]
        if mu is not None and u <= len(mu):
            total += -0.5 * ((y[t] - mu[u - 1]) / params.aggregate_sd) ** 2
    return total


def brute_force_csv(header, *columns) -> bytes:
    """The bytes of a numeric CSV, formatted one row at a time.

    The one reference for ``data._write_csv``: the header in csv quoting,
    then per row each field's Python value as ``%r``, joined by commas and
    ended by csv's ``\\r\\n``.
    """
    out = io.StringIO(newline="")
    csv.writer(out).writerow(header)
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    out.writelines(line % row for row in
                   zip(*(np.asarray(c).tolist() for c in columns)))
    return out.getvalue().encode()


def brute_force_neighbour_table(values, n_slots):
    """The neighbour table re-derived one entry at a time.

    The one reference for ``inference._neighbour_table``: entry [s, m] is
    2·high − w_total, where high folds w·bit over the n_slots slots in
    order (bit k of m is slot k's high indicator, a negative weight counts
    as 0 and a slot past the location's neighbours weighs 0) and w_total is
    the same fold with every bit set.
    """
    def fold(w, m):
        high = 0.0
        for k, wk in enumerate(w):
            high += wk * ((m >> k) & 1)
        return high

    table = []
    for v in values:
        w = [max(float(x), 0.0) for x in v] + [0.0] * (n_slots - len(v))
        total = fold(w, 2 ** n_slots - 1)
        table.append([2.0 * fold(w, m) - total for m in range(2 ** n_slots)])
    return np.array(table)


def cell_odds(engine, s, t):
    """Cell (s, t)'s log-odds, high less low, read out of its colour block."""
    for b, (s_idx, d) in enumerate(engine.color_blocks):
        if d == t % 2 and s in s_idx:
            n_days = len(range(d, engine.T, 2))
            col = int(np.flatnonzero(s_idx == s)[0]) * n_days + t // 2
            return float(engine.cell_log_odds(
                b, engine._day_parity_parts())[col])
    raise AssertionError(f"cell {(s, t)} is in no colour block")


def day_order_block_odds(engine, b):
    """Block b's log-odds built in day order, the reference for
    ``cell_log_odds``, which must equal it bit for bit.

    The Gamma term is one (S, T) plane, Δa·log x, less Δb·x, plus Δc; the
    pattern term, then the series term, are added to each day parity of
    it; the block's rows of that take the temporal term, log f times the
    sum of +1 per high and −1 per low neighbour day, and then the entry of
    ``brute_force_neighbour_table`` at the mask of high neighbours.
    """
    data, params, pats = engine.data, engine.params, engine.patterns
    S, T = data.rain.shape
    a, rate = params.gamma_shape, params.gamma_rate
    da, db, dc = (v[:, :1] - v[:, 1:]
                  for v in (a, rate, a * np.log(rate) - log_gamma(a)))
    gamma = da * data.log_rain
    gamma -= db * data.rain_floored
    gamma += dc
    eta = params.day_align * engine.align_scale
    zeta = params.loc_align * engine.align_scale
    pat = np.zeros((S, pats.n_day_patterns + 1))
    pat[:, :-1] = np.where(pats.state_patterns.T == HIGH, eta, -eta)
    ser = np.zeros((pats.n_loc_series + 1, T))
    ser[:-1] = np.where(pats.state_series == HIGH, zeta, -zeta)
    rows_u = np.minimum(engine.state.day_labels - 1, pats.n_day_patterns)
    rows_v = np.minimum(engine.state.loc_labels - 1, pats.n_loc_series)
    s_idx, d = engine.color_blocks[b]
    fixed = gamma[:, d::2] + pat[:, rows_u[d::2]]
    fixed += ser[rows_v, d::2]

    high = (engine.state.states == HIGH).astype(np.int64)
    count = np.zeros((S, T), dtype=np.int64)
    count[:, 1:] += 2 * high[:, :-1] - 1
    count[:, :-1] += 2 * high[:, 1:] - 1
    nbs = neighbour_lists(data)
    n_slots = max(len(nb) for nb in nbs)
    table = brute_force_neighbour_table(
        neighbour_lists(data, engine.weights), n_slots)
    mask = np.zeros((S, T), dtype=np.int64)
    for s, nb in enumerate(nbs):
        for k, s2 in enumerate(nb):
            mask[s] |= high[s2] << k
    block = np.ix_(s_idx, np.arange(d, T, 2))
    odds = fixed[s_idx]
    odds += math.log(params.temporal_factor) * count[block]
    odds += table[np.arange(S)[:, None], mask][block]
    return odds.ravel()


def flip_delta(engine, s, t):
    """Cell (s, t)'s log-odds from the engine, and the change of the joint
    from the cell's low state to its high state, all else held.

    The joint is scored at the engine's state, patterns and parameters, so
    the two agree when the z-sweep draws from the joint's conditional.
    """
    odds = cell_odds(engine, s, t)
    work = engine.state.copy()
    logp = []
    for z in (HIGH, LOW):
        work.states[s, t] = z
        logp.append(joint_log_density(engine.data, engine.weights, work,
                                      engine.params, engine.patterns))
    return odds, logp[0] - logp[1]


# The whole-sweep check's record: two adjacent locations, three days over
# two years, rain from Gamma(2, scale 3); and its fixed Gamma parameters,
# the same at both locations
WHOLE_SWEEP_SHAPE = np.array([[3.0, 1.0], [3.0, 1.0]])
WHOLE_SWEEP_RATE = np.array([[0.5, 1.0], [0.5, 1.0]])


def whole_sweep_setup(day_align=0.0, loc_align=0.0):
    """(data, weights, params) of the whole-sweep check, the aggregate term
    off (``aggregate_sd`` = inf) and the Gamma parameters fixed."""
    rain = np.random.default_rng(0).gamma(2.0, 3.0, (2, 3))
    data = make_dataset(rain, np.array([[0, 0], [1, 0]]), np.array([0, 0, 1]))
    params = ModelParams(day_align=day_align, loc_align=loc_align,
                         aggregate_sd=math.inf,
                         gamma_shape=WHOLE_SWEEP_SHAPE,
                         gamma_rate=WHOLE_SWEEP_RATE)
    return data, compute_spatial_weights(data), params


def partitions(n):
    """Every partition of n items, each as its canonical labelling."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [p + (k,) for p in out for k in range(max(p) + 2)]
    return out


def canonical(labels):
    """The partition a labelling makes: labels renumbered 0, 1, ... in the
    order they first appear."""
    first = {}
    return tuple(first.setdefault(u, len(first)) for u in labels.tolist())


def exact_whole_sweep_laws(data, weights, params):
    """The laws of the day partition, the location partition and the cell
    states under ``joint_log_density``, each state scored with its own
    ``extract_patterns``: enumerated over every cell state, day partition
    and location partition.  A cell state is the tuple of z in row-major
    (location, day) order."""
    S, T = data.rain.shape
    scored = []
    for u, v in itertools.product(partitions(T), partitions(S)):
        for z in itertools.product((HIGH, LOW), repeat=S * T):
            state = LatentState(np.array(z, dtype=np.int8).reshape(S, T),
                                np.array(u) + 1, np.array(v) + 1)
            scored.append(((u, v, z), joint_log_density(
                data, weights, state, params, extract_patterns(data, state))))
    top = max(logp for _, logp in scored)
    laws = ({}, {}, {})
    for keys, logp in scored:
        for law, key in zip(laws, keys):
            law[key] = law.get(key, 0.0) + math.exp(logp - top)
    total = sum(laws[0].values())
    return tuple({key: m / total for key, m in law.items()} for law in laws)


def chain_whole_sweep_laws(data, weights, params, n_sweeps, merge=False):
    """The frequencies of the day partition, the location partition and the
    cell states over ``n_sweeps`` whole sweeps from ``random`` init at
    ``align_scale`` 1, the Gamma parameters held at ``params``' and the
    merge move on or off."""
    def fixed(data, state):
        return (params.gamma_shape, params.gamma_rate,
                np.zeros(state.n_day_clusters))

    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(
            inference, "update_params_ml", fixed))
        if not merge:
            patches.enter_context(mock.patch.object(
                inference._GibbsEngine, "merge_sweep", lambda engine: None))
        engine = _GibbsEngine(data, weights, params, SamplerConfig(
            n_burnin=0, n_samples=1, seed=0, init="random"))
        tallies = (Counter(), Counter(), Counter())
        for _ in range(n_sweeps):
            engine.sweep()
            state = engine.state
            for tally, key in zip(tallies, (
                    canonical(state.day_labels), canonical(state.loc_labels),
                    tuple(state.states.ravel().tolist()))):
                tally[key] += 1
    return tuple({key: n / n_sweeps for key, n in tally.items()}
                 for tally in tallies)


def total_variation(p, q):
    return 0.5 * sum(abs(p.get(u, 0.0) - q.get(u, 0.0))
                     for u in set(p) | set(q))
