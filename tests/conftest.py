import math

import numpy as np
import pytest

from rainpatterns import (HIGH, LOW, ModelParams, SamplerConfig,
                          SyntheticSpec, compute_spatial_weights,
                          extract_patterns, generate_synthetic,
                          joint_log_density)
from rainpatterns.data import SpatialWeights, make_dataset
from rainpatterns.inference import _GibbsEngine
from rainpatterns.model import (RAIN_EPS, crp_log_prior_days,
                                crp_log_prior_locations)


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


def fitted_params(data, state, **kw):
    """ModelParams with Gamma/aggregate estimates for the given state."""
    from rainpatterns import update_params_ml

    shape, rate, mu = update_params_ml(data, state)
    base = dict(day_align=3.0, loc_align=1.5, temporal_factor=2.0,
                aggregate_sd=max(float(data.aggregate.std()), 1.0))
    base.update(kw)
    return ModelParams(gamma_shape=shape, gamma_rate=rate, aggregate_mean=mu,
                       **base)


def engine_at(data, state, params, patterns=None, weights=None):
    """A sampling engine placed at a given state, patterns and parameters.

    The conditionals it computes are those the sweeps draw from.  Patterns
    default to those of ``state``; without ``weights`` every spatial pair
    weighs zero.
    """
    if weights is None:
        weights = SpatialWeights(
            tuple(np.zeros(len(nb)) for nb in data.neighborhoods),
            data.neighborhoods)
    cfg = SamplerConfig(n_burnin=0, n_samples=1)
    engine = _GibbsEngine(data, weights, params, cfg)
    engine.state = state.copy()
    engine.patterns = (extract_patterns(data, state) if patterns is None
                       else patterns)
    engine.alpha = params.gamma_shape
    engine.beta = params.gamma_rate
    engine.mu = params.aggregate_mean
    engine._refresh_logdens()
    engine._set_rowmaps()
    return engine


def brute_force_log_density(data, weights, state, params, pats):
    """The joint log-density re-derived term by term in explicit loops.

    The one reference for ``joint_log_density``: every temporal and spatial
    edge once (a negative weight scores 0), the alignment terms (a label
    without a pattern row scores 0), the Gamma data term (rain clamped at
    RAIN_EPS) and the aggregate term (a label without a mean scores 0).
    """
    S, T = data.rain.shape
    z = state.states
    total = crp_log_prior_days(state.day_labels, data.year_of_day,
                               params.day_concentration)
    total += crp_log_prior_locations(state.loc_labels,
                                     params.loc_concentration)
    for s in range(S):
        for t in range(T - 1):
            if z[s, t] == z[s, t + 1]:
                total += math.log(params.temporal_factor)
    for s in range(S):
        for k, s2 in enumerate(data.neighborhoods[s]):
            if s < s2:
                for t in range(T):
                    if z[s, t] == z[s2, t]:
                        total += max(float(weights.values[s][k]), 0.0)
    for s in range(S):
        for t in range(T):
            u = state.day_labels[t]
            if u <= pats.n_day_patterns \
                    and pats.state_patterns[u - 1, s] == z[s, t]:
                total += params.day_align
            v = state.loc_labels[s]
            if v <= pats.n_loc_series \
                    and pats.state_series[v - 1, t] == z[s, t]:
                total += params.loc_align
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


def flip_delta(engine, s, t):
    """Cell (s, t)'s w_high - w_low from the engine, and the change of the
    joint from the cell's low state to its high state, all else held.

    The joint is scored at the engine's state, patterns and parameters, so
    the two agree when the z-sweep draws from the joint's conditional.
    """
    w = engine.cell_log_weights(np.array([s]), np.array([t]))
    params = engine.snapshot_params()
    work = engine.state.copy()
    logp = []
    for z in (HIGH, LOW):
        work.states[s, t] = z
        logp.append(joint_log_density(engine.data, engine.weights, work,
                                      params, engine.patterns))
    return float(w[0, 0] - w[1, 0]), logp[0] - logp[1]


def crp_log_weights_days(t: int, day_labels: np.ndarray, years: np.ndarray,
                         concentration: float) -> dict[int, float]:
    """Log-weights of the day-clustering prior for reassigning day t.

    Each existing cluster weighs n * m where n counts its member days and m
    the distinct years those days span, both excluding day t; one fresh label
    (max existing + 1) weighs ``concentration``.
    """
    mask = np.ones(day_labels.size, dtype=bool)
    mask[t] = False
    others = day_labels[mask]
    out: dict[int, float] = {}
    if others.size:
        yrs = years[mask]
        for u in np.unique(others):
            sel = others == u
            n = int(sel.sum())
            m = len(np.unique(yrs[sel]))
            out[int(u)] = math.log(n * m)
        fresh = int(others.max()) + 1
    else:
        fresh = 1
    out[fresh] = math.log(concentration)
    return out
