"""Gibbs conditionals, sweeps, parameter updates, refit behaviour."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rainpatterns import (HIGH, LOW, LatentState, ModelParams, NumericError,
                          SamplerConfig, SyntheticSpec, ValidationError,
                          compute_spatial_weights, extract_patterns,
                          generate_synthetic, joint_log_density, refit_frozen,
                          run_gibbs)
from rainpatterns import inference, model
from rainpatterns.data import make_dataset
from rainpatterns.inference import (_GibbsEngine, _LabelTables,
                                    _draw_cell_states, _draw_label,
                                    _neighbour_table, _vote)
from rainpatterns.metrics import adjusted_rand_index
from rainpatterns.model import (RAIN_EPS, crp_log_prior_days,
                                crp_log_prior_locations)
from conftest import (DroppingLabelTables, brute_force_neighbour_table,
                      cell_odds, chain_whole_sweep_laws, day_order_block_odds,
                      engine_at, exact_whole_sweep_laws,
                      fail_the_first_refresh, fitted_params,
                      flip_delta, label_log_weights, neighbour_lists,
                      total_variation, whole_sweep_setup)


def random_instance(seed, S=4, T=3, n_years=2):
    """Random small dataset plus a random latent state."""
    rng = np.random.default_rng(seed)
    side = math.isqrt(S - 1) + 1
    coords = np.array([[i % side, i // side] for i in range(S)])
    rain = rng.gamma(2.0, 4.0, (S, T))
    years = np.sort(rng.integers(0, n_years, T))
    data = make_dataset(rain, coords, years)
    weights = compute_spatial_weights(data)
    labels_u = rng.integers(1, 3, T)
    labels_u = np.unique(labels_u, return_inverse=True)[1] + 1
    labels_v = rng.integers(1, 3, S)
    labels_v = np.unique(labels_v, return_inverse=True)[1] + 1
    state = LatentState(rng.integers(1, 3, (S, T)).astype(np.int8),
                        labels_u, labels_v)
    return data, weights, state


def z_conditional_by_enumeration(data, weights, state, params, pats, s, t):
    """Exact conditional of one cell from the full joint at its two values."""
    work = state.copy()
    logp = np.empty(2)
    for i, z in enumerate((HIGH, LOW)):
        work.states[s, t] = z
        logp[i] = joint_log_density(data, weights, work, params, pats)
    p = np.exp(logp - logp.max())
    return p / p.sum()


def draw_cells(engine, s, t, n, rng):
    """n draws of cell (s, t) from the engine's conditional."""
    return _draw_cell_states(np.full(n, cell_odds(engine, s, t)), rng)


def draw_labels(labels, logw, n, rng):
    """n draws from a label conditional, as the label sweeps draw."""
    return np.array([_draw_label(labels, logw, u) for u in rng.random(n)])


class TestZConditional:
    def test_symmetric_case_is_half(self):
        # single cell, no neighbours, identical Gamma for both states,
        # no alignment: both states equally likely
        data = make_dataset(np.array([[2.0]]), np.array([[0, 0]]),
                            np.array([0]))
        weights = np.zeros(0)
        state = LatentState(np.array([[HIGH]], dtype=np.int8),
                            np.array([1]), np.array([1]))
        pats = extract_patterns(data, state)
        params = ModelParams(day_align=0.0, loc_align=0.0,
                             gamma_shape=np.array([[2.0, 2.0]]),
                             gamma_rate=np.array([[1.0, 1.0]]),
                             aggregate_mean=np.array([2.0]))
        engine = engine_at(data, state, params, pats, weights)
        draws = draw_cells(engine, 0, 0, 4000, np.random.default_rng(0))
        frac = np.mean(draws == HIGH)
        assert abs(frac - 0.5) < 0.03

    def test_matches_enumeration(self):
        data, weights, state = random_instance(3, S=4, T=2)
        pats = extract_patterns(data, state)
        params = fitted_params(data, state)
        engine = engine_at(data, state, params, pats, weights)
        rng = np.random.default_rng(1)
        for (s, t) in [(0, 0), (3, 1), (2, 0)]:
            expect = z_conditional_by_enumeration(data, weights, state,
                                                  params, pats, s, t)
            draws = draw_cells(engine, s, t, 20000, rng)
            emp = np.array([(draws == HIGH).mean(), (draws == LOW).mean()])
            assert np.abs(emp - expect).sum() / 2 < 0.02

    def test_strong_temporal_coupling_wins(self):
        # both temporal neighbours high and a huge agreement factor
        rain = np.array([[1.0, 1.0, 1.0]])
        data = make_dataset(rain, np.array([[0, 0]]), np.array([0, 0, 0]))
        weights = np.zeros(0)
        state = LatentState(np.array([[HIGH, LOW, HIGH]], dtype=np.int8),
                            np.array([1, 1, 1]), np.array([1]))
        pats = extract_patterns(data, state)
        params = ModelParams(temporal_factor=1e9, day_align=0.0,
                             loc_align=0.0,
                             gamma_shape=np.array([[2.0, 2.0]]),
                             gamma_rate=np.array([[1.0, 1.0]]),
                             aggregate_mean=np.array([1.0]))
        engine = engine_at(data, state, params, pats, weights)
        draws = draw_cells(engine, 0, 1, 2000, np.random.default_rng(2))
        assert np.mean(draws == HIGH) > 1 - 1e-6

    # T = 5 and T = 2 give the two day-parity halves different lengths
    # and leave days with one temporal neighbour
    @pytest.mark.parametrize("T", [4, 5, 2])
    def test_engine_weights_match_joint(self, T):
        # every cell's log-odds is the joint's flip delta, with a day
        # and a location whose labels have no pattern row
        data, weights, state = random_instance(11, S=9, T=T)
        engine = engine_at(data, state, fitted_params(data, state),
                           weights=weights)
        engine.state.day_labels[1] = state.n_day_clusters + 1
        engine.state.loc_labels[2] = state.n_loc_clusters + 1
        for s in range(9):
            for t in range(T):
                got, want = flip_delta(engine, s, t)
                assert got == pytest.approx(want, rel=1e-9)

    def test_dry_cells_match_joint(self):
        # rain below RAIN_EPS is scored at the floor, by the joint and by the
        # z-sweep alike
        data, weights, state = random_instance(11, S=9, T=4)
        rain = data.rain.copy()
        dry = np.random.default_rng(4).random(rain.shape) < 0.4
        rain[dry] = np.where(np.arange(dry.sum()) % 2, 0.0, RAIN_EPS / 3)
        data = make_dataset(rain, data.grid_coords, data.year_of_day)
        engine = engine_at(data, state, fitted_params(data, state),
                           weights=weights)
        for s in range(9):
            for t in range(4):
                got, want = flip_delta(engine, s, t)
                assert got == pytest.approx(want, rel=1e-9)

    @staticmethod
    def engine_with_rowless_labels(small_synth, small_weights, T):
        """An engine on the first T days of ``small_synth`` at its planted
        state, some labels without a pattern or a series row."""
        full, truth = small_synth
        data = make_dataset(full.rain[:, :T], full.grid_coords,
                            full.year_of_day[:T])
        state = LatentState(truth.states[:, :T].copy(),
                            np.unique(truth.day_labels[:T],
                                      return_inverse=True)[1] + 1,
                            truth.loc_labels.copy())
        engine = engine_at(data, state, fitted_params(data, state),
                           weights=small_weights)
        # labels without a pattern row, as after a birth in a label sweep
        engine.state.day_labels[::7] = state.n_day_clusters + 1
        engine.state.loc_labels[::5] = state.n_loc_clusters + 1
        return engine

    @pytest.mark.parametrize("T", [80, 79, 2])
    def test_block_weights_ignore_the_block(self, small_synth, small_weights,
                                            T):
        # a block is drawn at once, so no cell's weights may depend on the
        # states of its block: redrawing the block leaves them unchanged
        engine = self.engine_with_rowless_labels(small_synth, small_weights,
                                                 T)
        rng = np.random.default_rng(T)
        for b, (s_idx, d) in enumerate(engine.color_blocks):
            before = engine.cell_log_odds(b, engine._day_parity_parts())
            block = np.ix_(s_idx, np.arange(d, T, 2))
            engine.state.states[block] = rng.integers(
                HIGH, LOW + 1, len(before)).reshape(len(s_idx), -1)
            assert np.array_equal(
                engine.cell_log_odds(b, engine._day_parity_parts()), before)

    @pytest.mark.parametrize("T", [80, 79, 2])
    def test_block_odds_equal_the_day_order_planes(self, small_synth,
                                                   small_weights, T):
        # a block builds its Gamma and alignment terms from its own rows;
        # each cell keeps the bits of the day-order construction
        engine = self.engine_with_rowless_labels(small_synth, small_weights,
                                                 T)
        engine.align_scale = 0.3
        parts = engine._day_parity_parts()
        for b in range(len(engine.color_blocks)):
            assert np.array_equal(engine.cell_log_odds(b, parts),
                                  day_order_block_odds(engine, b))

    def test_overflowing_logistic_is_silent(self):
        # a state ahead by more than exp's range (about 709.8 nats) is drawn
        # surely, without an overflow warning
        odds = np.array([800.0, -800.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = _draw_cell_states(np.repeat(odds, 100),
                                      np.random.default_rng(0))
        assert (draws[:100] == HIGH).all() and (draws[100:200] == LOW).all()

    def test_z_sweep_draws_one_uniform_per_cell(self, small_synth):
        # T = 79 gives the two day parities different lengths; the sweep
        # draws random(n) for each block of n cells, in block order
        full, _ = small_synth
        data = make_dataset(full.rain[:, :79], full.grid_coords,
                            full.year_of_day[:79])
        engine = _GibbsEngine(data, compute_spatial_weights(data),
                              ModelParams(aggregate_sd=1.0),
                              SamplerConfig(n_burnin=0, n_samples=1, seed=5))
        expect = copy.deepcopy(engine.rng)
        for s_idx, d in engine.color_blocks:
            expect.random(len(s_idx) * len(range(d, 79, 2)))
        engine.z_sweep()
        assert engine.rng.bit_generator.state == expect.bit_generator.state

    @given(st.integers(1, 8).flatmap(lambda n_slots: st.tuples(
        st.just(n_slots),
        st.lists(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                          min_size=1, max_size=n_slots),
                 min_size=1, max_size=5))))
    # the first location's fold of all eight slots differs from numpy's
    # pairwise sum of them
    @example((8, [[0.62, 0.38, 1.0, 0.98, 0.69, 0.65, 0.69, 0.39],
                  [0.5, -0.25, 0.0, 0.125], [-0.4]]))
    def test_neighbour_table_folds_the_slots_in_order(self, case):
        # every entry of every mask, 1-8 neighbours and padded slots, and
        # negative weights counting as 0, compared exactly
        n_slots, values = case
        w = np.array([v + [0.0] * (n_slots - len(v)) for v in values])
        assert np.array_equal(_neighbour_table(w),
                              brute_force_neighbour_table(values, n_slots))

    def test_coherence_only_marginal(self):
        # neutral alignment and identical Gammas leave only the coherence
        # terms in each cell's log-odds: still the joint's flip delta
        data, weights, state = random_instance(17, S=4, T=3)
        params = ModelParams(
            day_align=0.0, loc_align=0.0, temporal_factor=2.5,
            gamma_shape=np.full((4, 2), 2.0),
            gamma_rate=np.full((4, 2), 1.0),
            aggregate_mean=None)
        engine = engine_at(data, state, params, weights=weights)
        for s in range(4):
            for t in range(3):
                got, want = flip_delta(engine, s, t)
                assert got == pytest.approx(want, rel=1e-9)


class TestGammaGuard:
    """A location's Gamma terms are built and checked only when its bound
    |Δa|·max |log x| + |Δb|·max x + |Δc| is not below 2^1021."""

    @staticmethod
    def engine(small_synth, small_weights, rate_high, shape=1.0):
        # location 3 has rates (rate_high, 1), ``shape`` in both states and
        # 100 mm on its wettest day, so its Δb·x peaks at rate_high·100
        full, truth = small_synth
        rain = full.rain.copy()
        rain[3] *= 100.0 / rain[3].max()
        data = make_dataset(rain, full.grid_coords, full.year_of_day)
        params = fitted_params(data, truth)
        params.gamma_shape[3] = shape
        params.gamma_rate[3] = (rate_high, 1.0)
        return engine_at(data, truth, params, weights=small_weights)

    def test_a_failed_bound_over_finite_terms_is_no_failure(
            self, small_synth, small_weights):
        # Δb·max x = 1e308 fails the bound, yet every term is finite
        assert (1e306 - 1.0) * 100.0 >= 2.0 ** 1021
        engine = self.engine(small_synth, small_weights, 1e306)
        parts = engine._day_parity_parts()
        for b in range(len(engine.color_blocks)):
            odds = engine.cell_log_odds(b, parts)
            assert np.isfinite(odds).all()
            assert np.array_equal(odds, day_order_block_odds(engine, b))
        engine.z_sweep()
        assert (engine.state.states[3] == LOW).all()

    # Δb·x overflows; or log Γ(a) overflows in both states, so that Δc and
    # with it the bound are nan
    @pytest.mark.parametrize("rate_high,shape", [(1e307, 1.0), (2.0, 1e306)])
    def test_a_non_finite_term_names_its_location(self, small_synth,
                                                  small_weights, rate_high,
                                                  shape):
        with pytest.raises(NumericError, match="^location 3, day [0-9]+: "
                           ".* gives a non-finite Gamma term$"):
            self.engine(small_synth, small_weights, rate_high, shape)

    def test_checking_every_location_changes_no_draw(
            self, small_synth, small_weights, monkeypatch):
        data, _ = small_synth
        params = ModelParams(day_align=4.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=8, n_samples=4, seed=11)
        expect = run_gibbs(data, small_weights, params, cfg)
        check = _GibbsEngine._refresh_gamma_odds

        def check_all(engine):
            # an infinite scale fails every location's bound
            engine._gamma_scale = (np.full((engine.S, 1), np.inf),) * 2
            check(engine)

        monkeypatch.setattr(_GibbsEngine, "_refresh_gamma_odds", check_all)
        got = run_gibbs(data, small_weights, params, cfg)
        for name in ("z_mode", "u_mode", "v_mode", "log_density_trace"):
            assert np.array_equal(getattr(got[0], name),
                                  getattr(expect[0], name))
        assert np.array_equal(got[2].gamma_rate, expect[2].gamma_rate)

    def test_a_failure_in_a_sweep_names_the_sweep(
            self, small_synth, small_weights, monkeypatch):
        """With ``update_params_ml`` made to raise a ``NumericError`` in
        the first sweep's refresh, ``run_gibbs`` raises ``sweep 0: ...``."""
        data, _ = small_synth
        fail_the_first_refresh(monkeypatch)
        with pytest.raises(NumericError, match="^sweep 0: location 0 "):
            run_gibbs(data, small_weights, ModelParams(),
                      SamplerConfig(n_burnin=2, n_samples=1))


class TestUDayConditional:
    def test_single_day_first_customer(self, tiny_data):
        data = make_dataset(np.array([[1.0], [2.0], [0.5], [1.5]]),
                            np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
                            np.array([0]))
        state = LatentState(np.full((4, 1), HIGH, dtype=np.int8),
                            np.array([1]), np.array([1, 1, 1, 1]))
        params = fitted_params(data, state)
        tables = engine_at(data, state, params)._day_tables()
        labels, logw = label_log_weights(tables, 0)
        # the day, alone, is offered only the new label, the last candidate
        assert labels[:-1] == []
        assert logw == [math.log(params.day_concentration)]

    def test_neutral_terms_reduce_to_crp(self, small_synth):
        # with alignment and aggregate off, every day's weights are the day
        # prior's conditional, found by enumerating crp_log_prior_days; the
        # record spans 4 years
        data, truth = small_synth
        state = truth.copy()
        pats = extract_patterns(data, state)
        params = fitted_params(data, state, day_align=0.0,
                               aggregate_sd=math.inf)
        engine = engine_at(data, state, params, pats)
        for t in range(data.n_days):
            cand, logw = label_log_weights(engine._day_tables(), t)
            enum = []
            for u in cand:
                moved = state.day_labels.copy()
                moved[t] = u
                enum.append(crp_log_prior_days(moved, data.year_of_day,
                                               params.day_concentration))
            np.testing.assert_allclose(np.array(logw) - logw[-1],
                                       np.array(enum) - enum[-1],
                                       rtol=1e-12, atol=1e-12)

    # "new" is the new label, the last candidate
    @pytest.mark.parametrize("labels,years,t,conc,expect", [
        ([1], [0], 0, 0.7, {"new": math.log(0.7)}),
        ([1, 1, 1, 2], [0, 0, 0, 0], 3, 1.0, {1: math.log(3), "new": 0.0}),
        # 2 days over 2 years, day 2's year among them: n = 2
        ([1, 1, 2], [0, 1, 1], 2, 0.5,
         {1: math.log(2), "new": math.log(0.5)}),
        # 2 days of year 0, day 2's year new to them: n·(m + 1) = 2 x 2
        ([1, 1, 2], [0, 0, 1], 2, 0.5,
         {1: math.log(4), "new": math.log(0.5)}),
    ])
    def test_prior_weights_by_hand(self, labels, years, t, conc, expect):
        T = len(labels)
        data = make_dataset(np.ones((2, T)), np.array([[0, 0], [1, 0]]),
                            np.array(years))
        state = LatentState(np.full((2, T), HIGH, dtype=np.int8),
                            np.array(labels), np.array([1, 1]))
        params = fitted_params(data, state, day_align=0.0,
                               aggregate_sd=math.inf, day_concentration=conc)
        tables = engine_at(data, state, params)._day_tables()
        cand, logw = label_log_weights(tables, t)
        assert dict(zip(cand[:-1] + ["new"], logw)) == pytest.approx(expect)

    def test_matching_pattern_dominates(self, small_synth):
        data, truth = small_synth
        state = truth.copy()
        pats = extract_patterns(data, state)
        params = fitted_params(data, state, day_align=50.0)
        # craft a day whose states equal cluster 2's pattern exactly
        t = 0
        state.states[:, t] = pats.state_patterns[1]
        tables = engine_at(data, state, params, pats)._day_tables()
        labels, logw = label_log_weights(tables, t)
        draws = draw_labels(labels, logw, 300, np.random.default_rng(8))
        assert (draws == 2).mean() >= 0.99


class TestVLocationConditional:
    def test_single_location(self):
        data = make_dataset(np.array([[1.0, 2.0]]), np.array([[0, 0]]),
                            np.array([0, 0]))
        state = LatentState(np.array([[HIGH, LOW]], dtype=np.int8),
                            np.array([1, 1]), np.array([1]))
        params = fitted_params(data, state)
        tables = engine_at(data, state, params)._loc_tables()
        labels, logw = label_log_weights(tables, 0)
        # the location, alone, is offered only the new label, the last
        # candidate
        assert labels[:-1] == []
        assert logw == [math.log(params.loc_concentration)]

    @pytest.mark.parametrize("labels,s,conc", [
        ([1, 1, 1, 1, 1, 2, 2, 3], 7, 1.0), ([1], 0, 2.5),
        ([1, 1, 1, 1], 0, 1e6), ([1, 2, 2, 3], 0, 0.3)])
    def test_prior_weights_enumerate_the_prior(self, labels, s, conc):
        # with neutral alignment the weights are the location prior's
        # conditional, found by enumerating crp_log_prior_locations
        S = len(labels)
        data = make_dataset(np.ones((S, 2)),
                            np.array([[i, 0] for i in range(S)]),
                            np.array([0, 0]))
        state = LatentState(np.full((S, 2), HIGH, dtype=np.int8),
                            np.array([1, 1]), np.array(labels))
        params = fitted_params(data, state, loc_align=0.0,
                               loc_concentration=conc)
        tables = engine_at(data, state, params)._loc_tables()
        cand, logw = label_log_weights(tables, s)
        enum = []
        for v in cand:
            moved = np.array(labels)
            moved[s] = v
            enum.append(crp_log_prior_locations(moved, conc))
        np.testing.assert_allclose(np.array(logw) - logw[-1],
                                   np.array(enum) - enum[-1],
                                   rtol=1e-12, atol=1e-12)

    def test_matching_series_dominates(self, small_synth):
        data, truth = small_synth
        state = truth.copy()
        pats = extract_patterns(data, state)
        params = fitted_params(data, state, loc_align=50.0)
        s = 0
        state.states[s, :] = pats.state_series[1]
        tables = engine_at(data, state, params, pats)._loc_tables()
        labels, logw = label_log_weights(tables, s)
        draws = draw_labels(labels, logw, 300, np.random.default_rng(3))
        assert (draws == 2).mean() >= 0.99


def assert_counts_from_scratch(tables, keep):
    """The tables hold the counts of the items ``keep``, counted afresh."""
    per_year = [[0] * tables.n_years for _ in tables.rows]
    for i in keep:
        per_year[tables.labels[i] - 1][tables.years[i]] += 1
    spans = [tables.n_years - row.count(0) for row in per_year]
    assert tables.per_year == per_year
    assert tables.counts == [sum(row) for row in per_year]
    assert tables.spans == spans
    assert tables.joins == [(math.log(max(sum(row), 1)),
                             math.log(max(sum(row) * (m + 1), 1)))
                            for row, m in zip(per_year, spans)]


def fit_tables(data, n):
    """Random fit tables of n items over 1-3 years: dense labels from up to
    four clusters, up to one pattern row per label, small scores and
    aggregate terms, and α from 0.1 to 100: the labels and the rest of
    ``_LabelTables``' arguments."""
    years = sorted(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                      max_size=n), label="years"))
    labels = np.array(data.draw(st.lists(st.integers(1, 4), min_size=n,
                                         max_size=n), label="labels"))
    labels = np.unique(labels, return_inverse=True)[1] + 1
    n_rows = data.draw(st.integers(0, int(labels.max())), label="rows")
    terms = [np.array(data.draw(st.lists(
        st.floats(lo, hi), min_size=n_rows * n, max_size=n_rows * n),
        label=name)).reshape(n_rows, n)
        for name, lo, hi in (("scores", -3.0, 3.0), ("aggregate", -3.0, 0.0))]
    alpha = data.draw(st.floats(0.1, 100.0), label="alpha")
    return labels, (n_rows, terms[0], np.array(years), alpha, None, terms[1])


def uniforms(data, n):
    return np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n),
        label="uniforms"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_tables_track_moves(data):
    # take_out and put, as the label sweeps call them, keep counts, year
    # spans and join weights equal to tables counted afresh, and a sweep
    # leaves the labels dense
    n = data.draw(st.integers(1, 12), label="items")
    years = sorted(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n), label="years"))
    labels = np.array(data.draw(st.lists(st.integers(1, 4), min_size=n,
                                         max_size=n), label="labels"))
    labels = np.unique(labels, return_inverse=True)[1] + 1
    tables = _LabelTables(labels, 0, np.zeros((0, n)), np.array(years), 1.0,
                          None, np.zeros((0, n)))
    assert_counts_from_scratch(tables, range(n))
    for _ in range(data.draw(st.integers(1, 25), label="moves")):
        i = data.draw(st.integers(0, n - 1), label="item")
        tables.take_out(i)
        assert_counts_from_scratch(tables, [j for j in range(n) if j != i])
        pick = data.draw(st.integers(1, len(tables.rows) + 1), label="label")
        tables.put(i, pick)
        assert_counts_from_scratch(tables, range(n))
    tables.sweep(uniforms(data, n))
    assert np.array_equal(np.unique(tables.labels),
                          np.arange(1, tables.labels.max() + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_sweep_matches_the_dropping_rule(data):
    # the same uniforms give the same labels as the rule that drops an
    # emptied label at once and numbers a birth one past the top candidate
    n = data.draw(st.integers(1, 12), label="items")
    labels, args = fit_tables(data, n)
    u = uniforms(data, n)
    swept, reference = labels.copy(), labels.copy()
    _LabelTables(swept, *args).sweep(u)
    DroppingLabelTables(reference, *args).sweep(u)
    assert np.array_equal(swept, reference)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_draw_label_picks_a_top_ahead_by_gap(data):
    # the premise of the skip in _LabelTables.sweep: a candidate that leads
    # every other by GAP nats, in any position, is drawn by every uniform
    # numpy's random() can return above 0, the multiples of 2^-53 below 1
    n = data.draw(st.integers(1, 40), label="candidates")
    at = data.draw(st.integers(0, n - 1), label="position")
    top = data.draw(st.floats(-1e3, 1e3), label="top")
    logw = [top - inference.GAP - d
            for d in data.draw(st.lists(st.floats(0, 1e3), min_size=n - 1,
                                        max_size=n - 1), label="behind")]
    logw.insert(at, top)
    assume(all(top - w >= inference.GAP for w in logw[:at] + logw[at + 1:]))
    cand = list(range(1, n + 1))
    k = data.draw(st.integers(1, 2 ** 53 - 1), label="u / 2^-53")
    for u in (2.0 ** -53, 1.0 - 2.0 ** -53, k * 2.0 ** -53):
        assert _draw_label(cand, logw, u) == cand[at]


def test_zero_uniform_can_pick_a_weight_far_below_the_top():
    # why a decided item also needs u > 0: exp(-500) exceeds 0 = u · sum
    assert _draw_label([1, 2], [-500.0, 0.0], 0.0) == 1
    assert _draw_label([1, 2], [-500.0, 0.0], 2.0 ** -53) == 2


class TestDecidedItemsSkipTheDraw:
    """u_sweep and v_sweep as written against the same sweeps with GAP at
    infinity, where every item takes the exact draw: the same labels, label
    tables and generator state, and fewer draws."""

    @pytest.fixture(scope="class")
    def planted(self):
        spec = SyntheticSpec(n_locations=144, n_days=120, n_day_patterns=3,
                             n_loc_groups=4, n_years=4, flip_noise=0.05,
                             seed=3)
        data, truth = generate_synthetic(spec)
        return data, compute_spatial_weights(data), truth

    def fit_engine(self, planted, sweeps=3):
        data, weights, _ = planted
        params = ModelParams(day_align=9.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        engine = _GibbsEngine(data, weights, params,
                              SamplerConfig(n_burnin=0, n_samples=1, seed=4))
        for _ in range(sweeps):
            engine.sweep()
        return engine

    @staticmethod
    def label_sweeps(engine, monkeypatch, gap):
        """A copy of ``engine`` after u_sweep and v_sweep with ``GAP`` =
        gap, the label tables they built and their number of draws."""
        engine = copy.deepcopy(engine)
        made, draws = [], []

        class Recorded(_LabelTables):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(self)

        def counted(*args):
            draws.append(args)
            return _draw_label(*args)

        with monkeypatch.context() as m:
            m.setattr(inference, "GAP", gap)
            m.setattr(inference, "_LabelTables", Recorded)
            m.setattr(inference, "_draw_label", counted)
            engine.u_sweep()
            engine.v_sweep()
        return engine, made, len(draws)

    def assert_same_sweeps(self, engine, monkeypatch):
        fast, fast_tables, fast_draws = self.label_sweeps(
            engine, monkeypatch, inference.GAP)
        exact, exact_tables, exact_draws = self.label_sweeps(
            engine, monkeypatch, math.inf)
        assert np.array_equal(fast.state.day_labels, exact.state.day_labels)
        assert np.array_equal(fast.state.loc_labels, exact.state.loc_labels)
        for a, b in zip(fast_tables, exact_tables, strict=True):
            for name in ("counts", "per_year", "spans", "joins", "rows"):
                assert getattr(a, name) == getattr(b, name), name
        assert fast.rng.bit_generator.state == exact.rng.bit_generator.state
        assert exact_draws == engine.T + engine.S
        assert fast_draws < exact_draws
        return fast

    @pytest.mark.parametrize("scale", [0.15, 1.0])
    def test_fit(self, planted, scale, monkeypatch):
        engine = self.fit_engine(planted)
        engine.align_scale = scale
        self.assert_same_sweeps(engine, monkeypatch)

    def test_a_new_label_as_heavy_as_the_top(self, planted, monkeypatch):
        # log α at the locations' median best score: a new label rivals
        # their own labels, so no location may keep its label undrawn
        engine = self.fit_engine(planted)
        best = engine._loc_tables().scores.max(axis=0)
        engine.params = replace(
            engine.params, loc_concentration=math.exp(float(np.median(best))))
        fast = self.assert_same_sweeps(engine, monkeypatch)
        assert fast.state.n_loc_clusters > engine.state.n_loc_clusters

    def test_frozen_refit_with_an_occupied_overflow_label(self, planted,
                                                          monkeypatch):
        data, weights, truth = planted
        pats = extract_patterns(data, truth)
        params = fitted_params(data, truth, day_align=9.0, loc_align=2.0)
        engine = _GibbsEngine(data, weights, params,
                              SamplerConfig(n_burnin=0, n_samples=1, seed=6),
                              frozen=pats)
        engine.state.day_labels[:5] = pats.n_day_patterns + 1
        engine.state.loc_labels[:3] = pats.n_loc_series + 1
        self.assert_same_sweeps(engine, monkeypatch)

    def test_a_decided_lone_member_is_drawn(self, planted, monkeypatch):
        # day 0 and location 0, their states inverted and each alone in its
        # label, score best at their own pattern rows by far, yet their draws
        # cannot keep those labels
        engine = self.fit_engine(planted)
        state = engine.state
        state.states[:, 0] = HIGH + LOW - state.states[:, 0]
        state.states[0, 1:] = HIGH + LOW - state.states[0, 1:]
        state.day_labels[0] = state.n_day_clusters + 1
        state.loc_labels[0] = state.n_loc_clusters + 1
        engine.refresh()
        for tables in (engine._day_tables(), engine._loc_tables()):
            assert tables.decided()[0]
            assert tables.counts[tables.labels[0] - 1] == 1
        self.assert_same_sweeps(engine, monkeypatch)


@pytest.mark.parametrize("sweep,labels", [("u_sweep", "day_labels"),
                                          ("v_sweep", "loc_labels")])
@pytest.mark.parametrize("alone_in", ["first", "last"])
def test_a_born_label_has_no_pattern_row(small_synth, small_weights,
                                         monkeypatch, sweep, labels,
                                         alone_in):
    # item 0, alone in the first or the last label and its pattern row,
    # draws the new label: the label it is born into has no row
    data, truth = small_synth
    engine = _GibbsEngine(data, small_weights,
                          ModelParams(aggregate_sd=float(data.aggregate.std())),
                          SamplerConfig(n_burnin=0, n_samples=1))
    engine.state = truth.copy()
    own = getattr(engine.state, labels)
    if alone_in == "first":
        own += 1
        own[0] = 1
    else:
        own[0] = own.max() + 1
    engine.refresh()
    born = []

    class Recorded(_LabelTables):
        def put(self, i, label):
            super().put(i, label)
            if i == 0:
                born.append(self.rows[label - 1])

    first = iter([True])
    monkeypatch.setattr(inference, "_LabelTables", Recorded)
    # item 0 is drawn first, as it has no label-mate; it takes the new
    # label, the last candidate
    monkeypatch.setattr(inference, "_draw_label",
                        lambda cand, logw, u: cand[-1] if next(first, False)
                        else _draw_label(cand, logw, u))
    getattr(engine, sweep)()
    assert born == [-1]


@pytest.fixture(scope="module")
def whole_sweep_laws():
    """The day-partition, location-partition and cell-state laws of the
    joint enumerated over all 640 states, and their frequencies over 5000
    sweeps, each its cell, label and refresh steps, at η = ζ = 0 with the
    merge off."""
    data, weights, params = whole_sweep_setup()
    return (exact_whole_sweep_laws(data, weights, params),
            chain_whole_sweep_laws(data, weights, params, 5000))


def assert_within_iid_bound(chain, exact, n=5000):
    """The chain's TV from the exact law is at most √2 times the 99th
    percentile of the TV of n iid draws from that law: the √2 admits an
    integrated autocorrelation time up to 2 for each value's indicator
    (this chain's day partitions read 0.75-1.22)."""
    p = np.array(list(exact.values()))
    iid = 0.5 * np.abs(np.random.default_rng(1).multinomial(n, p, size=4000)
                       / n - p).sum(axis=1)
    assert total_variation(chain, exact) <= math.sqrt(2) * np.quantile(
        iid, 0.99)


def test_whole_sweep_samples_the_enumerated_partition_law(whole_sweep_laws):
    """The day partition's frequencies against its enumerated law: the
    gate is 0.031 and the chain reads 0.0138."""
    exact, chain = whole_sweep_laws
    assert_within_iid_bound(chain[0], exact[0])


def test_whole_sweep_samples_the_enumerated_location_partition_law(
        whole_sweep_laws):
    """The location partition's frequencies against its enumerated law:
    the gate is 0.026 and the chain reads 0.0088."""
    exact, chain = whole_sweep_laws
    assert_within_iid_bound(chain[1], exact[1])


def test_whole_sweep_samples_the_enumerated_cell_state_law(whole_sweep_laws):
    """The joint law of all six cells, 64 values, against its enumerated
    law: the gate is 0.034 and the chain reads 0.0134."""
    exact, chain = whole_sweep_laws
    assert_within_iid_bound(chain[2], exact[2])


def test_align_scale_ramps_over_half_the_burnin(small_synth, small_weights):
    # a floor of 0.15, a linear rise to 1 over half the burn-in, then 1.0
    # for the retained sweeps; a frozen run keeps 1.0 in every sweep
    data, truth = small_synth
    params = fitted_params(data, truth)
    config = SamplerConfig(n_burnin=20, n_samples=3, seed=0)
    fit, refit = [], []
    run_gibbs(data, small_weights, params, config,
              on_sweep=lambda engine, i: fit.append(engine.align_scale))
    refit_frozen(data, small_weights, extract_patterns(data, truth), params,
                 config,
                 on_sweep=lambda engine, i: refit.append(engine.align_scale))
    assert fit == [0.15] + [(i + 1) / 10 for i in range(1, 10)] + [1.0] * 13
    assert refit == [1.0] * 23


def test_random_init_starts_from_the_mean_splits_gamma(small_synth,
                                                       small_weights):
    """``random`` init draws its states and labels but fits its starting
    Gamma to the mean split, as ``data`` init does: the same shape and rate,
    bit for bit, so it does not start at the Gamma step's symmetric fixed
    point."""
    data, _ = small_synth
    params = ModelParams(aggregate_sd=float(data.aggregate.std()))
    data_init, random_init = (
        _GibbsEngine(data, small_weights, params, SamplerConfig(init=init))
        for init in ("data", "random"))
    assert not np.array_equal(random_init.state.states,
                              data_init.state.states)
    for name in ("gamma_shape", "gamma_rate"):
        got = getattr(random_init.params, name)
        assert got.tobytes() == getattr(data_init.params, name).tobytes()


class TestRunGibbs:
    def test_noise_free_recovery(self):
        spec = SyntheticSpec(n_locations=36, n_days=160, n_day_patterns=2,
                             n_loc_groups=4, n_years=8, flip_noise=0.0,
                             seed=5)
        data, truth = generate_synthetic(spec)
        weights = compute_spatial_weights(data)
        params = ModelParams(day_align=5.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=60, n_samples=30, seed=0)
        summary, pats, fitted = run_gibbs(data, weights, params, cfg)
        assert adjusted_rand_index(summary.u_mode, truth.day_labels) == 1.0
        assert np.isfinite(summary.log_density_trace).all()

    def test_determinism(self, small_synth, small_weights):
        data, _ = small_synth
        params = ModelParams(day_align=4.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=8, n_samples=4, seed=11)
        a = run_gibbs(data, small_weights, params, cfg)
        b = run_gibbs(data, small_weights, params, cfg)
        assert np.array_equal(a[0].z_mode, b[0].z_mode)
        assert np.array_equal(a[0].u_mode, b[0].u_mode)
        assert np.array_equal(a[0].v_mode, b[0].v_mode)
        assert np.array_equal(a[0].log_density_trace, b[0].log_density_trace)

    def test_negative_seed_is_a_validation_error(self, small_synth,
                                                 small_weights):
        # numpy's generators reject it with a bare ValueError; the API
        # names the field before any generator is made
        data, _ = small_synth
        with pytest.raises(ValidationError, match="seed: must be >= 0"):
            generate_synthetic(SyntheticSpec(seed=-1))
        with pytest.raises(ValidationError, match="seed: must be >= 0"):
            run_gibbs(data, small_weights, ModelParams(),
                      SamplerConfig(n_burnin=0, n_samples=1, seed=-1))

    def test_labels_stay_dense_every_sweep(self, small_synth, small_weights):
        data, _ = small_synth
        params = ModelParams(day_align=3.0, loc_align=1.5,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=6, n_samples=4, seed=1)
        seen = []

        def check(engine, i):
            engine.state.validate()
            seen.append(i)

        run_gibbs(data, small_weights, params, cfg, on_sweep=check)
        assert len(seen) == 10

    def test_checkerboard_classes_nonadjacent(self, small_synth,
                                              small_weights):
        data, _ = small_synth
        params = ModelParams(aggregate_sd=1.0)
        cfg = SamplerConfig(n_burnin=0, n_samples=1, seed=0)
        engine = _GibbsEngine(data, small_weights, params, cfg)
        nbs = neighbour_lists(data)
        covered = np.zeros(data.rain.shape, dtype=int)
        for s_idx, d in engine.color_blocks:
            t_idx = np.arange(d, data.n_days, 2)
            covered[np.ix_(s_idx, t_idx)] += 1
            cells = {(s, t) for s in s_idx.tolist() for t in t_idx.tolist()}
            for s, t in list(cells)[:200]:
                assert (s, t - 1) not in cells and (s, t + 1) not in cells
                for s2 in nbs[s]:
                    assert (int(s2), t) not in cells
        # the eight blocks partition the lattice
        assert (covered == 1).all()

    def test_merge_prior_delta_is_the_priors_difference(
            self, small_synth, small_weights, monkeypatch):
        # every proposal's prior change equals the change of
        # crp_log_prior_days, and the pass scores no whole labelling
        data, _ = small_synth
        params = ModelParams(day_align=4.0, loc_align=2.0,
                             day_concentration=0.7,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=0, n_samples=1, seed=0)
        engine = _GibbsEngine(data, small_weights, params, cfg)
        labels = engine.state.day_labels.copy()
        K = int(labels.max())
        assert K >= 3
        peer, d_prior, _ = engine.merge_proposals()
        now = crp_log_prior_days(labels, data.year_of_day, 0.7)
        for u in range(K):
            merged = np.where(labels == peer[u] + 1, u + 1, labels)
            assert d_prior[u] == pytest.approx(
                crp_log_prior_days(merged, data.year_of_day, 0.7) - now,
                rel=1e-12)
        calls = []

        def counted(*args):
            calls.append(args)
            return crp_log_prior_days(*args)

        monkeypatch.setattr(model, "crp_log_prior_days", counted)
        monkeypatch.setattr(inference, "crp_log_prior_days", counted,
                            raising=False)
        assert engine._merge_pass()
        assert calls == []

    # four kept labellings of four days, with labels up to 12; days 0, 1 and
    # 3 tie between two labels, and the lower one wins
    KEPT = [[9, 1, 12, 5], [12, 1, 9, 5], [12, 2, 9, 10], [9, 2, 4, 10]]

    def test_vote_gives_a_tie_to_the_lowest_label(self):
        kept = [np.array(row, dtype=np.int32) for row in self.KEPT]
        assert _vote(kept).tolist() == [9, 1, 9, 5]
        assert _vote(kept[::-1]).tolist() == [9, 1, 9, 5]

    def test_summary_votes_over_the_kept_labellings(self, small_synth,
                                                   small_weights):
        # labels past the first eight and ties, then compacted to 1..K
        data, _ = small_synth
        engine = _GibbsEngine(data, small_weights, ModelParams(),
                              SamplerConfig(n_burnin=0, n_samples=1))
        T, S = data.n_days, data.n_locations
        for row in self.KEPT:
            engine.state.day_labels[:] = np.resize(row, T)
            engine.state.loc_labels[:] = np.resize(row[::-1], S)
            engine.retain()
        summary = engine.summary()
        assert summary.u_mode.tolist() == np.resize([3, 1, 3, 2], T).tolist()
        assert summary.v_mode.tolist() == np.resize([2, 3, 1, 3], S).tolist()

    def test_mode_patterns_consistent(self, small_synth, small_weights):
        data, _ = small_synth
        params = ModelParams(day_align=4.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=10, n_samples=6, seed=2)
        summary, pats, fitted = run_gibbs(data, small_weights, params, cfg)
        assert pats.n_day_patterns == summary.u_mode.max()
        assert fitted.aggregate_mean.shape == (pats.n_day_patterns,)
        expect = extract_patterns(data, summary.as_state())
        assert np.array_equal(expect.state_patterns, pats.state_patterns)


class TestRefitFrozen:
    """A refit of the training record agrees with the fit on at least 95%
    of cells and 90% of days; a frozen run whose locations, Gamma rows or
    aggregate means do not fit the record is rejected."""

    def fit_small(self, seed=7):
        spec = SyntheticSpec(n_locations=25, n_days=120, n_day_patterns=3,
                             n_loc_groups=4, n_years=6, flip_noise=0.05,
                             seed=seed)
        data, truth = generate_synthetic(spec)
        weights = compute_spatial_weights(data)
        params = ModelParams(day_align=5.0, loc_align=2.0,
                             aggregate_sd=float(data.aggregate.std()))
        cfg = SamplerConfig(n_burnin=50, n_samples=25, seed=0)
        summary, pats, fitted = run_gibbs(data, weights, params, cfg)
        return data, weights, summary, pats, fitted

    def test_self_consistency(self):
        data, weights, summary, pats, fitted = self.fit_small()
        cfg = SamplerConfig(n_burnin=20, n_samples=10, seed=3)
        refit = refit_frozen(data, weights, pats, fitted, cfg)
        frac = (refit.z_mode != summary.z_mode).mean()
        assert frac <= 0.05
        agree = (refit.u_mode == summary.u_mode).mean()
        assert agree >= 0.9

    def test_single_pattern_forces_label_one(self):
        spec = SyntheticSpec(n_locations=16, n_days=40, n_day_patterns=1,
                             n_loc_groups=3, n_years=4, flip_noise=0.05,
                             seed=2)
        data, truth = generate_synthetic(spec)
        weights = compute_spatial_weights(data)
        pats = extract_patterns(data, truth)
        params = fitted_params(data, truth, day_align=5.0)
        cfg = SamplerConfig(n_burnin=10, n_samples=5, seed=0)
        refit = refit_frozen(data, weights, pats, params, cfg)
        assert (refit.u_mode == 1).all()

    def test_exact_pattern_day_lands_on_it(self):
        data, weights, summary, pats, fitted = self.fit_small(seed=9)
        fitted = replace(fitted, day_align=50.0)
        cfg = SamplerConfig(n_burnin=15, n_samples=10, seed=1)
        refit = refit_frozen(data, weights, pats, fitted, cfg)
        # days whose refit state map equals a frozen pattern get that label
        for t in range(data.n_days):
            for u in range(pats.n_day_patterns):
                if np.array_equal(refit.z_mode[:, t], pats.state_patterns[u]):
                    assert refit.u_mode[t] == u + 1

    def test_location_mismatch_rejected(self):
        data, weights, summary, pats, fitted = self.fit_small()
        spec = SyntheticSpec(n_locations=16, n_days=40, n_day_patterns=2,
                             n_loc_groups=3, n_years=4, seed=1)
        other, _ = generate_synthetic(spec)
        cfg = SamplerConfig(n_burnin=2, n_samples=2, seed=0)
        with pytest.raises(ValidationError):
            refit_frozen(other, compute_spatial_weights(other), pats, fitted,
                         cfg)

    def test_gamma_row_count_mismatch_rejected(self):
        data, weights, summary, pats, fitted = self.fit_small()
        cfg = SamplerConfig(n_burnin=2, n_samples=2, seed=0)
        for name in ("gamma_shape", "gamma_rate"):
            short = replace(fitted, **{name: getattr(fitted, name)[:-1]})
            with pytest.raises(ValidationError, match="one row per location"):
                refit_frozen(data, weights, pats, short, cfg)

    def test_missing_frozen_parameters_rejected(self):
        data, weights, summary, pats, fitted = self.fit_small()
        cfg = SamplerConfig(n_burnin=2, n_samples=2, seed=0)
        for change, message in [
                ({"gamma_shape": None}, "need Gamma parameters"),
                ({"gamma_rate": None}, "need Gamma parameters"),
                ({"aggregate_mean": None}, "one aggregate mean per"),
                ({"aggregate_mean": fitted.aggregate_mean[:-1]},
                 "one aggregate mean per")]:
            with pytest.raises(ValidationError, match=message):
                refit_frozen(data, weights, pats, replace(fitted, **change),
                             cfg)

    @staticmethod
    def first_days(data, n_days):
        sub = make_dataset(data.rain[:, :n_days], data.grid_coords,
                           data.year_of_day[:n_days])
        return sub, compute_spatial_weights(sub)

    # the training record's day count, then half of it
    LENGTHS = pytest.mark.parametrize("n_days", [120, 60],
                                      ids=["training length", "half length"])

    @LENGTHS
    def test_frozen_series_do_not_steer_the_refit(self, n_days):
        # frozen series are indexed by the training days, so a refit keeps
        # none, whatever its record's length: flipping them changes nothing
        data, weights, summary, pats, fitted = self.fit_small(seed=11)
        sub, sub_weights = self.first_days(data, n_days)
        flipped = replace(pats, state_series=(
            HIGH + LOW - pats.state_series).astype(np.int8))
        cfg = SamplerConfig(n_burnin=15, n_samples=10, seed=5)
        refits = [refit_frozen(sub, sub_weights, p, fitted, cfg)
                  for p in (pats, flipped)]
        for name in ("z_mode", "u_mode", "v_mode"):
            assert np.array_equal(*(getattr(r, name) for r in refits)), name

    @LENGTHS
    def test_every_location_stays_in_label_one(self, n_days):
        # with no frozen series there is no location label to enter
        data, weights, summary, pats, fitted = self.fit_small(seed=11)
        sub, sub_weights = self.first_days(data, n_days)
        cfg = SamplerConfig(n_burnin=15, n_samples=10, seed=5)
        labels = []
        refit = refit_frozen(
            sub, sub_weights, pats,
            replace(fitted, loc_concentration=20.0), cfg,
            on_sweep=lambda engine, i: labels.append(
                engine.state.loc_labels.copy()))
        assert len(labels) == 25
        assert all((v == 1).all() for v in labels)
        assert (refit.v_mode == 1).all()

    def test_labels_not_compacted(self):
        # refit labels index the frozen patterns even when some go unused
        data, weights, summary, pats, fitted = self.fit_small(seed=11)
        sub, sub_weights = self.first_days(data, data.n_days // 2)
        cfg = SamplerConfig(n_burnin=15, n_samples=10, seed=5)
        refit = refit_frozen(sub, sub_weights, pats, fitted, cfg)
        assert refit.u_mode.max() <= pats.n_day_patterns + 1
