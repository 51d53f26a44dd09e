"""Cluster priors, pattern extraction, joint density, parameter updates."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rainpatterns import (HIGH, LOW, LatentState, ModelParams, NumericError,
                          ValidationError, compute_spatial_weights,
                          extract_patterns, joint_log_density,
                          update_params_ml)
from rainpatterns.data import make_dataset
from rainpatterns.model import (RAIN_EPS, VAR_FLOOR, agreement_counts,
                                crp_log_prior_days, indicator_dot, log_gamma, modal_patterns,
                                mode_states, patterns_to_rows)
from conftest import (brute_force_agreements, brute_force_log_density,
                      fitted_params)


class TestLogGamma:
    """``log_gamma`` equals ``math.lgamma`` on random positive values and
    the integers 1..2000, and reads +inf at 0, −1, 1e306 and inf."""

    def test_poles_and_overflow_are_plus_inf(self):
        # math.lgamma raises at the poles and on overflow; lgamma(inf) = inf
        x = np.array([0.0, -1.0, 1e306, np.inf])
        assert log_gamma(x).tolist() == [math.inf] * 4

    def test_nan_passes_through(self):
        assert np.isnan(log_gamma(np.array([np.nan]))).all()

    def test_equals_math_lgamma(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([10.0 ** rng.uniform(-300, 300, 500),
                            rng.uniform(0, 10, 500),
                            np.arange(1, 2001, dtype=float)])
        got = log_gamma(x.reshape(-1, 2))  # the (S, 2) layout of the shapes
        assert got.shape == (1500, 2)
        assert got.ravel().tolist() == [math.lgamma(v) for v in x.tolist()]


def one_year_eppf(labels, conc):
    """The day prior on one year, the location prior of the joint, less
    its normaliser log Γ(α + n) − log Γ(α) = Σ_{i<n} log(α + i): the
    log-EPPF of the plain Chinese-restaurant process."""
    labels = np.array(labels)
    return (crp_log_prior_days(labels, np.zeros_like(labels), conc)
            - sum(math.log(conc + i) for i in range(len(labels))))


class TestClusterPriors:
    """Hand values of the day prior; it is unchanged when the days are
    permuted with their years, and on one year it is the Ewens partition
    probability up to log Γ(α + n) − log Γ(α)."""

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=60),
           st.sampled_from([1, 7]), st.floats(0.05, 20.0))
    @example([1, 2, 1, 3, 2, 1], 1, 1.3)
    @example([3], 1, 1.0)  # a single location
    @example([2] * 9, 7, 0.5)  # one cluster
    @settings(max_examples=200, deadline=None)
    def test_plain_crp_matches_eppf(self, labels, stretch, lam):
        # oracle: exchangeable partition probability for the plain process;
        # stretch 7 spaces the labels out: 7, 14, ... are not dense
        labels = np.array(labels) * stretch
        sizes = np.unique(labels, return_counts=True)[1].tolist()
        K, n = len(sizes), len(labels)
        eppf = (K * math.log(lam)
                + sum(math.lgamma(sz) for sz in sizes)
                - sum(math.log(lam + i) for i in range(n)))
        assert one_year_eppf(labels, lam) == pytest.approx(
            eppf, rel=1e-12, abs=1e-12)

    def test_relabelling_invariance(self):
        labels = np.array([2, 1, 2, 3, 1])
        relab = np.array([1, 3, 1, 2, 3])  # same partition, new names
        years = np.array([0, 0, 1, 1, 1])
        assert crp_log_prior_days(labels, years, 0.8) == pytest.approx(
            crp_log_prior_days(relab, years, 0.8))

    def test_single_item_mass_one(self):
        assert one_year_eppf([1], 5.0) == 0.0

    @pytest.mark.parametrize("labels,years,conc,expect", [
        # one cluster of one day: α·Γ(1)·1!
        ([1], [1990], 5.0, math.log(5.0)),
        # (α·Γ(2)·2!)·(α·Γ(1)·1!) = 0.5
        ([1, 1, 2], [0, 1, 1], 0.5, math.log(0.5)),
        # Γ(4)·4! = 144: four days over four years
        ([2, 2, 2, 2], [0, 1, 2, 3], 1.0, math.log(144.0)),
        # the labels need not be dense: (α·Γ(2)·1!)·(α·Γ(2)·2!) = 8
        ([7, 3, 7, 3], [5, 5, 5, 6], 2.0, math.log(8.0)),
    ])
    def test_days_prior_by_hand(self, labels, years, conc, expect):
        assert crp_log_prior_days(np.array(labels), np.array(years),
                                  conc) == pytest.approx(expect, rel=1e-12)

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1950, 1960)),
                    min_size=1, max_size=60),
           st.sampled_from([1, 7]), st.floats(0.05, 20.0),
           st.integers(0, 2 ** 32 - 1))
    @example([(3, 1990)], 1, 1.0, 0)  # a single day
    @example([(2, 1990)] * 9, 7, 0.5, 1)  # one cluster
    @example([(1, 1961), (2, 1950), (1, 1955), (2, 1961), (1, 1950)], 7,
             2.0, 2)  # years not contiguous
    @settings(max_examples=200, deadline=None)
    def test_days_prior_is_exchangeable(self, days, stretch, conc, seed):
        # stretch 7 spaces the labels out: 7, 14, ... are not dense
        labels = np.array([u * stretch for u, _ in days])
        years = np.array([y for _, y in days])
        logp = crp_log_prior_days(labels, years, conc)
        order = np.random.default_rng(seed).permutation(len(days))
        assert crp_log_prior_days(labels[order], years[order], conc) \
            == pytest.approx(logp, rel=1e-12, abs=1e-12)


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


    def test_modal_patterns_are_the_state_half(self, small_synth):
        """``modal_patterns`` gives ``extract_patterns``' modal maps and
        counts, and no rain fields."""
        data, truth = small_synth
        full, modal = extract_patterns(data, truth), modal_patterns(data,
                                                                     truth)
        for name in ("state_patterns", "state_series", "day_counts",
                     "year_counts"):
            assert np.array_equal(getattr(modal, name), getattr(full, name))
        assert modal.rain_patterns is modal.rain_series is None
        assert (modal.n_day_patterns, modal.n_loc_series) == (
            full.n_day_patterns, full.n_loc_series)

    def test_rows_are_the_cell_by_cell_rows(self, small_synth):
        # perfbench builds its frozen run tables from these rows with the
        # repr of each float, so they keep the value and the Python type of
        # a loop over every cell
        data, truth = small_synth
        pats = extract_patterns(data, truth)
        K, S = pats.rain_patterns.shape
        L, T = pats.rain_series.shape
        assert K >= 2 and L >= 2
        want = ([(u + 1, s, float(pats.rain_patterns[u, s]),
                  int(pats.state_patterns[u, s]))
                 for u in range(K) for s in range(S)],
                [(v + 1, t, float(pats.rain_series[v, t]),
                  int(pats.state_series[v, t]))
                 for v in range(L) for t in range(T)],
                [(u + 1, int(pats.day_counts[u]), int(pats.year_counts[u]),
                  float(pats.pattern_volume[u])) for u in range(K)])

        def typed(tables):
            return [[[(type(x), x) for x in row] for row in rows]
                    for rows in tables]

        got = patterns_to_rows(pats)
        assert typed(got) == typed(want)
        assert [type(rows) for rows in got] == [list] * 3


def test_mode_states_votes_without_an_int64_plane():
    """The cell vote over 40 retained sweeps at paper size, int32 counts of
    shape (357, 976) as the sampler keeps them, peaks below 2.2 MB traced:
    its int8 result and the doubled counts, with no int64 (S, T) plane of
    the states (2.8 MB).  A tie goes to LOW."""
    counts = np.random.default_rng(0).integers(0, 41, (357, 976),
                                               dtype=np.int32)
    tracemalloc.start()
    try:
        got = mode_states(counts, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int8
    assert np.array_equal(got, np.where(counts > 20, HIGH, LOW))
    assert peak < 2.2e6


@given(st.sampled_from([np.uint8, np.uint16]), st.integers(1, 300),
       st.sampled_from([int, float]), st.data())
def test_mode_states_on_narrow_counts_is_the_int64_vote(dtype, n, kind,
                                                        data):
    """Counts of ones as the sampler keeps them, uint8 or uint16, vote as
    2·c > n in int64 does, whether the total is an int or a float."""
    top = min(n, np.iinfo(dtype).max)
    counts = data.draw(hnp.arrays(dtype, st.integers(1, 16),
                                  elements=st.integers(0, top)))
    want = np.where(2 * counts.astype(np.int64) > n, HIGH, LOW)
    got = mode_states(counts, kind(n))
    assert got.dtype == np.int8
    assert np.array_equal(got, want)


@given(hnp.arrays(np.int64, st.integers(1, 8), elements=st.integers(1, 6)))
def test_validate_rejects_labels_that_skip_one(labels):
    state = LatentState(np.ones((2, len(labels)), dtype=np.int8), labels,
                        np.array([1, 1]))
    if set(labels.tolist()) == set(range(1, labels.max() + 1)):
        state.validate()
    else:
        with pytest.raises(ValidationError, match="day labels must be dense"):
            state.validate()


@pytest.mark.parametrize("states,day,loc,message", [
    ([[1, 3]], [1, 1], [1], "cell states must be 1"),
    ([[1, 2]], [1, 0], [1], "day labels must be positive"),
    ([[1, 2]], [1, 1], [0], "loc labels must be positive")],
    ids=["state 3", "day label 0", "location label 0"])
def test_validate_rejects_bad_states_and_labels(states, day, loc, message):
    """``LatentState.validate`` rejects a cell state of 3 and a day or
    location label of 0."""
    state = LatentState(np.array(states, dtype=np.int8), np.array(day),
                        np.array(loc))
    with pytest.raises(ValidationError, match=message):
        state.validate()


class TestIndicatorDot:
    """``indicator_dot`` against the float64 product on Hypothesis 0/1
    arrays, and without a second operand against ``a @ a.T``, which
    ``matches(rows)`` takes as numpy's symmetric product."""

    @given(st.data())
    def test_equals_the_float64_product(self, data):
        m, n, k = (data.draw(st.integers(0, 9)) for _ in range(3))
        dtype = data.draw(st.sampled_from([np.bool_, np.float64]))
        a, b = (data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from(
            [0, 1]))) for shape in ((m, n), (n, k)))
        got = indicator_dot(a, b)
        assert got.dtype == np.float64
        assert np.array_equal(got, a.astype(float) @ b.astype(float))
        # without b, the symmetric product of a with itself
        got = indicator_dot(a)
        assert got.dtype == np.float64
        assert np.array_equal(got, a.astype(float) @ a.T.astype(float))

    def test_float64_once_the_sum_has_2_24_terms(self):
        # stand-ins record the dtype each operand is cast to, so no array
        # of 2^24 elements is made
        class Operand:
            def __init__(self, shape):
                self.shape, self.dtypes = shape, []

            def astype(self, dtype):
                self.dtypes.append(dtype)
                return np.ones((1, 1), dtype)

        for n, dtype in ((2 ** 24 - 1, np.float32), (2 ** 24, np.float64)):
            a, b = Operand((1, n)), Operand((n, 1))
            indicator_dot(a, b)
            assert a.dtypes == b.dtypes == [dtype]


class TestJointDensity:
    @pytest.mark.parametrize("rows", [1, 0])
    def test_single_cell_composition(self, rows):
        # one cell, no edges, priors log(1) = 0: the alignment bonuses, the
        # Gamma term and the aggregate term.  Without pattern rows and
        # aggregate means (rows = 0) the label adds only the Gamma term.
        data = make_dataset(np.array([[2.0]]), np.array([[0, 0]]),
                            np.array([0]))
        weights = np.zeros(0)
        state = LatentState(np.array([[HIGH]], dtype=np.int8),
                            np.array([1]), np.array([1]))
        pats = extract_patterns(data, state)
        pats = replace(pats, **{f: getattr(pats, f)[:rows] for f in (
            "rain_patterns", "state_patterns", "rain_series", "state_series")})
        params = ModelParams(gamma_shape=np.array([[3.0, 1.0]]),
                             gamma_rate=np.array([[1.5, 1.0]]),
                             aggregate_mean=np.array([4.0])[:rows],
                             aggregate_sd=2.0, day_align=3.0, loc_align=1.0)
        # oracle: log(rate^shape x^(shape-1) e^(-rate x) / Gamma(shape))
        gamma = math.log(1.5 ** 3 * 2.0 ** 2 * math.exp(-3.0) / math.gamma(3))
        assert gamma == pytest.approx(-1.09046, abs=1e-5)
        # alignment 3 + 1, aggregate -0.5 ((2 - 4) / 2)^2
        expect = gamma + rows * (3.0 + 1.0 - 0.5)
        got = joint_log_density(data, weights, state, params, pats)
        assert got == pytest.approx(expect, rel=1e-12)
        assert brute_force_log_density(data, weights, state, params, pats) \
            == pytest.approx(expect, rel=1e-12)

    def test_overflowing_gamma_term_is_numeric_error(self):
        # a shape of 1e306 is finite and positive, so the parameters are
        # valid, but its log-Gamma term overflows the joint to -inf
        data = make_dataset(np.array([[2.0]]), np.array([[0, 0]]),
                            np.array([0]))
        state = LatentState(np.array([[HIGH]], dtype=np.int8),
                            np.array([1]), np.array([1]))
        params = ModelParams(gamma_shape=np.array([[1e306, 1.0]]),
                             gamma_rate=np.array([[1.5, 1.0]]))
        params.validate()
        with pytest.raises(NumericError,
                           match="joint log-density is not finite"):
            joint_log_density(data, np.zeros(0), state, params,
                              extract_patterns(data, state))

    @pytest.mark.parametrize("unrowed", [False, True])
    def test_matches_brute_force(self, small_synth, small_weights, unrowed):
        """``joint_log_density`` against ``brute_force_log_density``
        (rel 1e-12), also with labels past the pattern rows and aggregate
        means."""
        data, truth = small_synth
        params = fitted_params(data, truth)
        pats = extract_patterns(data, truth)
        state = truth.copy()
        if unrowed:  # labels past the pattern rows and aggregate means
            state.day_labels[::7] = truth.n_day_clusters + 1
            state.loc_labels[::5] = truth.loc_labels.max() + 1
        got = joint_log_density(data, small_weights, state, params, pats)
        expect = brute_force_log_density(data, small_weights, state, params,
                                         pats)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_zero_rain_scored_at_floor(self, tiny_data):
        """A cell of 0 mm scores as one of ``RAIN_EPS``, the floor of the
        Gamma term's rain, in the joint and in the reference."""
        rain = tiny_data.rain.copy()
        rain[1, 2] = 0.0
        dry = make_dataset(rain.copy(), tiny_data.grid_coords,
                           tiny_data.year_of_day)
        rain[1, 2] = RAIN_EPS
        floor = make_dataset(rain, tiny_data.grid_coords,
                             tiny_data.year_of_day)
        state = LatentState(np.full((4, 3), HIGH, dtype=np.int8),
                            np.array([1, 1, 2]), np.array([1, 1, 2, 2]))
        pats = extract_patterns(dry, state)
        # no aggregate term: the daily totals differ by RAIN_EPS
        params = replace(fitted_params(dry, state), aggregate_mean=None)
        weights = compute_spatial_weights(dry)
        got = joint_log_density(dry, weights, state, params, pats)
        assert got == joint_log_density(floor, weights, state, params, pats)
        assert got == pytest.approx(
            brute_force_log_density(dry, weights, state, params, pats),
            rel=1e-12)

    def test_two_location_single_day_edge_count(self):
        # exactly one spatial edge term must enter the density
        rain = np.array([[1.0, 2.0], [2.0, 1.0]])
        data = make_dataset(rain, np.array([[0, 0], [1, 0]]),
                            np.array([0, 0]))
        weights = compute_spatial_weights(data)
        assert weights[0] == pytest.approx(-1.0)  # the pair (0, 1)
        state = LatentState(np.array([[1, 1], [1, 1]], dtype=np.int8),
                            np.array([1, 1]), np.array([1, 1]))
        pats = extract_patterns(data, state)
        params = fitted_params(data, state, day_align=0.0, loc_align=0.0,
                               temporal_factor=1.0)
        base = joint_log_density(data, weights, state, params, pats)
        # hand-build the same weights but positive to expose the edge count;
        # the negative weight scored 0
        w2 = np.array([0.5, 0.5])
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


def dense(labels):
    return np.unique(labels, return_inverse=True)[1].reshape(-1) + 1


@st.composite
def small_records(draw):
    """A record of S <= 13 locations and T <= 21 days, mostly not multiples
    of 8, its states, labels and spatial weights.  Some rows lie wholly in
    one state, and the rain holds zeros and values below RAIN_EPS.  It
    stays under 20 mm: the one-pass moment formula Σx² − n·m² errs in
    proportion to Σx², and at 20 mm that stays well under 1e-9 of the
    variance floor."""
    S, T = draw(st.integers(1, 13)), draw(st.integers(2, 21))
    rain = draw(hnp.arrays(np.float64, (S, T), elements=st.one_of(
        st.just(0.0), st.floats(0.0, RAIN_EPS), st.floats(0.0, 20.0))))
    states = draw(hnp.arrays(np.int8, (S, T),
                             elements=st.sampled_from([HIGH, LOW])))
    whole = draw(hnp.arrays(np.int8, S, elements=st.sampled_from(
        [0, HIGH, LOW])))
    states[whole > 0] = whole[whole > 0, None]
    n_years = draw(st.integers(1, T))
    data = make_dataset(rain, np.array([(s % 3, s // 3) for s in range(S)]),
                        np.arange(T) * n_years // T)
    state = LatentState(states, dense(draw(hnp.arrays(
        np.int64, T, elements=st.integers(1, 5)))), dense(draw(hnp.arrays(
            np.int64, S, elements=st.integers(1, 4)))))
    w = draw(hnp.arrays(np.float64, (S, S), elements=st.floats(-1.0, 1.0)))
    w = (w + w.T) / 2
    weights = w[data.pairs]
    return data, state, weights


class TestRowProductSums:
    """The Gamma sums as row products with the high indicator, the low
    state's as the all-day totals less the high state's, and the joint's
    integer terms as popcounts, against per-cell loops."""

    @settings(max_examples=80, deadline=None)
    @given(small_records())
    def test_update_params_matches_a_loop(self, record):
        data, state, _ = record
        shape, rate, _ = update_params_ml(data, state)
        want = np.empty((data.n_locations, 2, 2))
        for s in range(data.n_locations):
            for k, code in enumerate((HIGH, LOW)):
                x = data.rain[s, state.states[s] == code]
                m = max(x.mean() if len(x) else 0.0, RAIN_EPS)
                v = max(x.var(ddof=1) if len(x) >= 2 else 0.0, VAR_FLOOR)
                want[s, k] = m * m / v, m / v
        np.testing.assert_allclose(shape, want[..., 0], rtol=1e-9)
        np.testing.assert_allclose(rate, want[..., 1], rtol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(small_records(), st.data())
    def test_joint_matches_brute_force(self, record, draw):
        data, state, weights = record
        S = data.n_locations
        pats = extract_patterns(data, state)
        # some labels may lack a pattern row, a series row or a mean
        k = draw.draw(st.integers(0, pats.n_day_patterns))
        v = draw.draw(st.integers(0, pats.n_loc_series))
        pats = replace(pats, rain_patterns=pats.rain_patterns[:k],
                       state_patterns=pats.state_patterns[:k],
                       rain_series=pats.rain_series[:v],
                       state_series=pats.state_series[:v])
        positive = st.floats(0.1, 10.0)
        params = ModelParams(
            temporal_factor=draw.draw(positive),
            day_align=draw.draw(positive), loc_align=draw.draw(positive),
            aggregate_sd=draw.draw(positive),
            gamma_shape=draw.draw(hnp.arrays(np.float64, (S, 2),
                                             elements=positive)),
            gamma_rate=draw.draw(hnp.arrays(np.float64, (S, 2),
                                            elements=positive)),
            aggregate_mean=draw.draw(hnp.arrays(
                np.float64, draw.draw(st.integers(0, k)),
                elements=st.floats(0.0, 100.0))))
        got = joint_log_density(data, weights, state, params, pats)
        # the Gamma terms may cancel to a small logp: the tolerance is 1e-12
        # of their magnitudes' sum
        a, b = (np.take_along_axis(v, state.states - 1, axis=1)
                for v in (params.gamma_shape, params.gamma_rate))
        scale = (np.abs(a * np.log(b)) + np.abs(log_gamma(a))
                 + np.abs((a - 1.0) * data.log_rain) + b * data.rain_floored)
        assert got == pytest.approx(
            brute_force_log_density(data, weights, state, params, pats),
            rel=1e-12, abs=1e-12 * scale.sum())
        src, dst = data.pairs
        temporal, spatial, day, loc = agreement_counts(
            state, pats, src[src < dst], dst[src < dst])
        assert (temporal, spatial.tolist(), day, loc) \
            == brute_force_agreements(data, state, pats)
        # a state with no cell at a location adds exactly 0, whatever its
        # parameters there
        absent = np.zeros((S, 2), dtype=bool)
        absent[:, 0] = (state.states == LOW).all(axis=1)
        absent[:, 1] = (state.states == HIGH).all(axis=1)
        other = replace(params,
                        gamma_shape=np.where(absent, 7.5, params.gamma_shape),
                        gamma_rate=np.where(absent, 0.25, params.gamma_rate))
        assert joint_log_density(data, weights, state, other, pats) == got
