"""Potentials, cluster-prior weights, pattern extraction, joint density."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainpatterns import (HIGH, LOW, LatentState, ModelParams,
                          ValidationError, compute_spatial_weights,
                          extract_patterns, joint_log_density,
                          update_params_ml)
from rainpatterns.data import make_dataset
from rainpatterns.model import (PatternSet, crp_log_prior_days,
                                crp_log_prior_locations, crp_log_weights_days,
                                crp_log_weights_locations, log_gamma_density,
                                log_potential_aggregate,
                                log_potential_day_align,
                                log_potential_loc_align, log_potential_spatial,
                                log_potential_temporal)
from conftest import fitted_params


def sequential_crp_log_prior_days(day_labels, years, concentration):
    """Reference for crp_log_prior_days: the prior's sequential definition.

    Walks the days in order, with clusters canonicalised by first appearance
    and the normaliser re-added from every cluster's mass at each day.
    """
    canon: dict[int, int] = {}
    n: list[int] = []
    year_sets: list[set] = []
    logp = 0.0
    for t in range(day_labels.size):
        u = int(day_labels[t])
        norm = concentration + sum(n[k] * len(year_sets[k])
                                   for k in range(len(n)))
        if u in canon:
            k = canon[u]
            logp += math.log(n[k] * len(year_sets[k])) - math.log(norm)
            n[k] += 1
            year_sets[k].add(int(years[t]))
        else:
            if t > 0:  # first customer sits at the first table with mass 1
                logp += math.log(concentration) - math.log(norm)
            canon[u] = len(n)
            n.append(1)
            year_sets.append({int(years[t])})
    return logp


def one_series_patterns(state_row, rain_row=None):
    """PatternSet with one day pattern / one series for potential tests."""
    state_row = np.asarray(state_row, dtype=np.int8)
    if rain_row is None:
        rain_row = np.ones_like(state_row, dtype=float)
    return PatternSet(
        rain_patterns=np.asarray([rain_row], dtype=float),
        state_patterns=np.asarray([state_row]),
        rain_series=np.asarray([rain_row], dtype=float),
        state_series=np.asarray([state_row]),
        day_counts=np.array([1]), year_counts=np.array([1]),
        loc_counts=np.array([1]),
        pattern_volume=np.array([float(np.sum(rain_row))]))


class TestPotentials:
    def test_temporal(self):
        assert log_potential_temporal(1, 1, math.e) == pytest.approx(1.0)
        assert log_potential_temporal(1, 2, 123.0) == 0.0
        assert log_potential_temporal(2, 2, 2.0) == pytest.approx(math.log(2))

    def test_spatial(self):
        assert log_potential_spatial(1, 1, 1.0) == 1.0
        assert log_potential_spatial(1, 2, 1.0) == 0.0
        assert log_potential_spatial(1, 1, -0.5) == 0.0
        assert log_potential_spatial(2, 2, 0.3) == pytest.approx(0.3)

    def test_day_align(self):
        pats = one_series_patterns([HIGH, LOW, HIGH])
        assert log_potential_day_align(HIGH, 1, 0, pats, 9.0) == 9.0
        assert log_potential_day_align(LOW, 1, 0, pats, 9.0) == 0.0
        # label without a pattern row is neutral
        assert log_potential_day_align(HIGH, 2, 0, pats, 9.0) == 0.0

    def test_loc_align(self):
        pats = one_series_patterns([LOW, HIGH])
        assert log_potential_loc_align(HIGH, 1, 1, pats, 5.0) == 5.0
        assert log_potential_loc_align(LOW, 1, 1, pats, 5.0) == 0.0
        assert log_potential_loc_align(HIGH, 3, 1, pats, 5.0) == 0.0

    def test_gamma_density_exponential_case(self):
        # shape 1, rate 1 is Exp(1): log density at 1 is exactly -1
        assert log_gamma_density(1.0, 1.0, 1.0) == pytest.approx(-1.0)

    def test_gamma_density_hand_case(self):
        # oracle: log(rate^shape x^(shape-1) e^(-rate x) / Gamma(shape))
        expect = math.log(1.5 ** 3 * 2.0 ** 2 * math.exp(-3.0) / math.gamma(3))
        assert expect == pytest.approx(-1.09046, abs=1e-5)
        assert log_gamma_density(2.0, 3.0, 1.5) == pytest.approx(expect)

    def test_gamma_density_clamps_zero(self):
        assert log_gamma_density(0.0, 2.0, 1.0) == pytest.approx(
            log_gamma_density(0.01, 2.0, 1.0))

    def test_gamma_density_validates(self):
        with pytest.raises(ValidationError):
            log_gamma_density(1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            log_gamma_density(-1.0, 1.0, 1.0)

    @given(st.floats(0, 500), st.floats(0.01, 50), st.floats(0.01, 50))
    @settings(max_examples=100, deadline=None)
    def test_gamma_density_finite(self, x, shape, rate):
        assert math.isfinite(log_gamma_density(x, shape, rate))

    def test_aggregate(self):
        mu = np.array([10.0])
        assert log_potential_aggregate(1, 10.0, mu, 2.0) == 0.0
        assert log_potential_aggregate(1, 12.0, mu, 2.0) == pytest.approx(-0.5)
        assert log_potential_aggregate(1, 14.0, mu, 2.0) == pytest.approx(-2.0)
        # unknown cluster or missing estimates stay neutral
        assert log_potential_aggregate(2, 99.0, mu, 2.0) == 0.0
        assert log_potential_aggregate(1, 99.0, None, 2.0) == 0.0


class TestCrpWeights:
    def test_first_day(self):
        w = crp_log_weights_days(0, np.array([1]), np.array([0]), 0.7)
        assert w == {1: pytest.approx(math.log(0.7))}

    def test_single_year_counts(self):
        labels = np.array([1, 1, 1, 2])
        years = np.array([0, 0, 0, 0])
        w = crp_log_weights_days(3, labels, years, 1.0)
        assert w[1] == pytest.approx(math.log(3))
        assert w[2] == pytest.approx(0.0)
        assert set(w) == {1, 2}

    def test_year_multiplier(self):
        labels = np.array([1, 1, 9])
        years = np.array([0, 1, 1])
        w = crp_log_weights_days(2, labels, years, 0.5)
        assert w[1] == pytest.approx(math.log(4))  # 2 days x 2 years
        assert w[2] == pytest.approx(math.log(0.5))

    def test_location_weights(self):
        labels = np.array([1, 1, 1, 1, 1, 2, 2, 9])
        w = crp_log_weights_locations(7, labels, 1.0)
        assert w[1] == pytest.approx(math.log(5))
        assert w[2] == pytest.approx(math.log(2))
        assert w[3] == pytest.approx(0.0)

    def test_first_location(self):
        w = crp_log_weights_locations(0, np.array([4]), 2.5)
        assert w == {1: pytest.approx(math.log(2.5))}

    def test_large_concentration_dominates(self):
        labels = np.array([1, 1, 1, 1])
        w = crp_log_weights_locations(0, labels, 1e6)
        assert max(w, key=w.get) == 2

    @given(st.integers(2, 30), st.integers(0, 29),
           st.floats(0.1, 5.0), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_weights_normalizable(self, n, idx, conc, n_years):
        rng = np.random.default_rng(n * 31 + idx)
        labels = rng.integers(1, 4, size=n)
        labels = np.unique(labels, return_inverse=True)[1] + 1
        years = rng.integers(0, n_years, size=n)
        w = crp_log_weights_days(idx % n, labels, years, conc)
        total = sum(math.exp(v) for v in w.values())
        assert total > 0 and math.isfinite(total)


class TestSequentialPriorMass:
    def test_plain_crp_matches_eppf(self):
        # oracle: exchangeable partition probability for the plain process
        lam = 1.3
        labels = np.array([1, 2, 1, 3, 2, 1])
        sizes = [3, 2, 1]
        K, n = len(sizes), len(labels)
        eppf = (K * math.log(lam)
                + sum(math.lgamma(sz) for sz in sizes)
                - sum(math.log(lam + i) for i in range(n)))
        assert crp_log_prior_locations(labels, lam) == pytest.approx(eppf)

    def test_relabelling_invariance(self):
        labels = np.array([2, 1, 2, 3, 1])
        relab = np.array([1, 3, 1, 2, 3])  # same partition, new names
        years = np.array([0, 0, 1, 1, 1])
        assert crp_log_prior_days(labels, years, 0.8) == pytest.approx(
            crp_log_prior_days(relab, years, 0.8))
        assert crp_log_prior_locations(labels, 0.8) == pytest.approx(
            crp_log_prior_locations(relab, 0.8))

    def test_single_item_mass_one(self):
        assert crp_log_prior_days(np.array([1]), np.array([0]), 5.0) == 0.0
        assert crp_log_prior_locations(np.array([1]), 5.0) == 0.0

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1950, 1960)),
                    min_size=1, max_size=60),
           st.sampled_from([1, 7]), st.floats(0.05, 20.0))
    @example([(3, 1990)], 1, 1.0)  # a single day
    @example([(2, 1990)] * 9, 7, 0.5)  # one cluster
    @example([(1, 1961), (2, 1950), (1, 1955), (2, 1961), (1, 1950)], 7,
             2.0)  # years not contiguous
    @settings(max_examples=200, deadline=None)
    def test_days_prior_matches_sequential_definition(self, days, stretch,
                                                      conc):
        # stretch 7 spaces the labels out: 7, 14, ... are not dense
        labels = np.array([u * stretch for u, _ in days])
        years = np.array([y for _, y in days])
        assert crp_log_prior_days(labels, years, conc) == pytest.approx(
            sequential_crp_log_prior_days(labels, years, conc), rel=1e-12)


class TestExtractPatterns:
    def test_singleton_cluster_copies_day(self, tiny_data):
        state = LatentState(
            states=np.array([[1, 2, 2], [2, 2, 1], [1, 1, 1], [2, 1, 2]],
                            dtype=np.int8),
            day_labels=np.array([1, 2, 3]),
            loc_labels=np.array([1, 1, 1, 1]))
        pats = extract_patterns(tiny_data, state)
        for t in range(3):
            assert np.array_equal(pats.rain_patterns[t], tiny_data.rain[:, t])
            assert np.array_equal(pats.state_patterns[t], state.states[:, t])

    def test_mode_tie_resolves_low(self, tiny_data):
        states = np.full((4, 3), LOW, dtype=np.int8)
        states[0, 0] = HIGH  # location 0: one high, one low in cluster 1
        state = LatentState(states, np.array([1, 1, 2]),
                            np.array([1, 1, 1, 1]))
        pats = extract_patterns(tiny_data, state)
        assert pats.state_patterns[0, 0] == LOW

    def test_mean_pattern(self, tiny_data):
        state = LatentState(np.full((4, 3), LOW, dtype=np.int8),
                            np.array([1, 1, 2]), np.array([1, 1, 1, 1]))
        pats = extract_patterns(tiny_data, state)
        expect = tiny_data.rain[:, :2].mean(axis=1)
        assert np.allclose(pats.rain_patterns[0], expect)
        assert pats.pattern_volume[0] == pytest.approx(expect.sum())

    def test_year_and_day_counts(self, tiny_data):
        state = LatentState(np.full((4, 3), LOW, dtype=np.int8),
                            np.array([1, 2, 1]), np.array([1, 2, 1, 1]))
        pats = extract_patterns(tiny_data, state)
        assert list(pats.day_counts) == [2, 1]
        assert list(pats.year_counts) == [2, 1]  # years are (0, 0, 1)
        assert list(pats.loc_counts) == [3, 1]

    def test_relabel_permutes_rows(self, small_synth):
        data, truth = small_synth
        pats = extract_patterns(data, truth)
        perm = {1: 2, 2: 1}
        swapped = LatentState(truth.states,
                              np.array([perm[u] for u in truth.day_labels]),
                              truth.loc_labels)
        pats2 = extract_patterns(data, swapped)
        assert np.allclose(pats.rain_patterns[0], pats2.rain_patterns[1])
        assert np.array_equal(pats.state_patterns[1], pats2.state_patterns[0])

    def test_series_side(self, tiny_data):
        state = LatentState(np.full((4, 3), LOW, dtype=np.int8),
                            np.array([1, 1, 1]), np.array([1, 2, 2, 1]))
        pats = extract_patterns(tiny_data, state)
        expect = tiny_data.rain[[0, 3], :].mean(axis=0)
        assert np.allclose(pats.rain_series[0], expect)


class TestJointDensity:
    def brute_force(self, data, weights, state, params, pats):
        """Independent re-derivation: explicit loops over every term."""
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
                total += log_gamma_density(
                    float(data.rain[s, t]),
                    float(params.gamma_shape[s, z[s, t] - 1]),
                    float(params.gamma_rate[s, z[s, t] - 1]))
        y = data.rain.sum(axis=0)
        for t in range(T):
            total += log_potential_aggregate(int(state.day_labels[t]),
                                             float(y[t]),
                                             params.aggregate_mean,
                                             params.aggregate_sd)
        return total

    def test_single_cell_composition(self):
        from rainpatterns.data import SpatialWeights

        data = make_dataset(np.array([[3.0]]), np.array([[0, 0]]),
                            np.array([0]))
        weights = SpatialWeights((np.array([]),), data.neighborhoods)
        state = LatentState(np.array([[HIGH]], dtype=np.int8),
                            np.array([1]), np.array([1]))
        pats = extract_patterns(data, state)
        params = ModelParams(gamma_shape=np.array([[2.0, 1.0]]),
                             gamma_rate=np.array([[0.5, 1.0]]),
                             aggregate_mean=np.array([4.0]),
                             aggregate_sd=2.0, day_align=3.0, loc_align=1.0)
        got = joint_log_density(data, weights, state, params, pats)
        # no coherence edges: prior seeds are log(1)=0, so the total is the
        # alignment bonuses plus data and aggregate terms
        expect = (3.0 + 1.0 + log_gamma_density(3.0, 2.0, 0.5)
                  + log_potential_aggregate(1, 3.0, np.array([4.0]), 2.0))
        assert got == pytest.approx(expect)

    def test_matches_brute_force(self, small_synth, small_weights):
        data, truth = small_synth
        params = fitted_params(data, truth)
        pats = extract_patterns(data, truth)
        got = joint_log_density(data, small_weights, truth, params, pats)
        expect = self.brute_force(data, small_weights, truth, params, pats)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_two_location_single_day_edge_count(self):
        # exactly one spatial edge term must enter the density
        rain = np.array([[1.0, 2.0], [2.0, 1.0]])
        data = make_dataset(rain, np.array([[0, 0], [1, 0]]),
                            np.array([0, 0]))
        weights = compute_spatial_weights(data)
        assert weights.get(0, 1) == pytest.approx(-1.0)
        state = LatentState(np.array([[1, 1], [1, 1]], dtype=np.int8),
                            np.array([1, 1]), np.array([1, 1]))
        pats = extract_patterns(data, state)
        params = fitted_params(data, state, day_align=0.0, loc_align=0.0,
                               temporal_factor=1.0)
        base = joint_log_density(data, weights, state, params, pats)
        # hand-build the same weights but positive to expose the edge count
        from rainpatterns.data import SpatialWeights
        w2 = SpatialWeights((np.array([0.5]), np.array([0.5])),
                            data.neighborhoods)
        bumped = joint_log_density(data, w2, state, params, pats)
        assert bumped - base == pytest.approx(0.5 * 2)  # one edge, two days

    def test_nonfinite_rejected(self, tiny_data):
        state = LatentState(np.full((4, 3), HIGH, dtype=np.int8),
                            np.array([1, 1, 1]), np.array([1, 1, 1, 1]))
        pats = extract_patterns(tiny_data, state)
        params = fitted_params(tiny_data, state)
        params.gamma_shape = None
        weights = compute_spatial_weights(tiny_data)
        with pytest.raises(ValidationError):
            joint_log_density(tiny_data, weights, state, params, pats)


class TestUpdateParams:
    def test_moment_match_hand_case(self):
        # two high-state observations {2, 4}: mean 3, sample variance 2
        rain = np.array([[2.0, 4.0, 1.0]])
        data = make_dataset(rain, np.array([[0, 0]]), np.array([0, 0, 0]))
        state = LatentState(np.array([[HIGH, HIGH, LOW]], dtype=np.int8),
                            np.array([1, 1, 1]), np.array([1]))
        shape, rate, mu = update_params_ml(data, state)
        assert shape[0, 0] == pytest.approx(4.5)
        assert rate[0, 0] == pytest.approx(1.5)

    def test_single_observation_floors(self):
        rain = np.array([[5.0, 1.0]])
        data = make_dataset(rain, np.array([[0, 0]]), np.array([0, 0]))
        state = LatentState(np.array([[HIGH, LOW]], dtype=np.int8),
                            np.array([1, 1]), np.array([1]))
        shape, rate, mu = update_params_ml(data, state)
        # variance floored at 0.01
        assert shape[0, 0] == pytest.approx(5.0 ** 2 / 0.01)
        assert rate[0, 0] == pytest.approx(5.0 / 0.01)

    def test_missing_state_floors(self):
        rain = np.array([[5.0, 7.0]])
        data = make_dataset(rain, np.array([[0, 0]]), np.array([0, 0]))
        state = LatentState(np.array([[HIGH, HIGH]], dtype=np.int8),
                            np.array([1, 1]), np.array([1]))
        shape, rate, _ = update_params_ml(data, state)
        # no low-state cells: mean floors to 0.01, variance to 0.01
        assert shape[0, 1] == pytest.approx(0.01 ** 2 / 0.01)
        assert rate[0, 1] == pytest.approx(0.01 / 0.01)

    def test_aggregate_means(self):
        rain = np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 2.0]])
        data = make_dataset(rain, np.array([[0, 0], [1, 0]]),
                            np.array([0, 0, 0]))
        state = LatentState(np.full((2, 3), HIGH, dtype=np.int8),
                            np.array([1, 1, 2]), np.array([1, 1]))
        _, _, mu = update_params_ml(data, state)
        assert mu[0] == pytest.approx((5.0 + 7.0) / 2)
        assert mu[1] == pytest.approx(6.0)
