import numpy as np
import pytest

from rainpatterns import (ModelParams, SamplerConfig, SyntheticSpec,
                          compute_spatial_weights, extract_patterns,
                          generate_synthetic)
from rainpatterns.data import SpatialWeights, make_dataset
from rainpatterns.inference import _GibbsEngine


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
