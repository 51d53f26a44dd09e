"""Evaluation metrics against brute-force re-derivations."""

import math
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rainpatterns import (LatentState, ParseError, ValidationError,
                         extract_patterns)
from rainpatterns.data import discretize_by_mean, make_dataset
from rainpatterns.metrics import (adjusted_rand_index, aic,
                                  build_report, cluster_homogeneity,
                                  distance_report, format_table,
                                  read_metrics_csv, spatial_coherence,
                                  spell_stats, wet_fraction, write_report)
from rainpatterns.model import HIGH, LOW, PatternSet

from conftest import neighbour_lists


def make_patterns(state_rows, rain_rows=None, T=4):
    state_rows = np.asarray(state_rows, dtype=np.int8)
    K, S = state_rows.shape
    if rain_rows is None:
        rain_rows = np.ones((K, S))
    rain_rows = np.asarray(rain_rows, dtype=float)
    return PatternSet(
        rain_patterns=rain_rows, state_patterns=state_rows,
        rain_series=np.ones((1, T)),
        state_series=np.full((1, T), LOW, dtype=np.int8),
        day_counts=np.ones(K, dtype=np.int64),
        year_counts=np.ones(K, dtype=np.int64))


def coherence(pats, pairs):
    return spatial_coherence(pats.state_patterns, pats.rain_patterns, pairs)


class TestProminence:
    """``build_report``'s ``prominent`` column on a 2 x 2 grid record."""

    @staticmethod
    def prominent(labels, years, min_years):
        rain = np.random.default_rng(0).gamma(2.0, 5.0, (4, len(labels)))
        data = make_dataset(rain, np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
                            np.array(years))
        states = discretize_by_mean(data)
        state = LatentState(states, np.array(labels),
                            np.ones(4, dtype=np.int64))
        _, per = build_report(data, states, state.day_labels,
                              extract_patterns(data, state), min_years)
        return per["prominent"].tolist()

    def test_five_year_span(self):
        # cluster 1 has a day in each of five years, cluster 2 five in one
        labels = [1, 2, 2, 2, 2, 2, 1, 1, 1, 1]
        years = [0, 0, 0, 0, 0, 0, 1, 2, 3, 4]
        assert self.prominent(labels, years, 5) == [1.0, 0.0]

    def test_one_year_cluster_not_prominent(self):
        assert self.prominent([1] * 100, [3] * 100, 5) == [0.0]

    def test_min_years_one_keeps_everything(self):
        assert self.prominent([1, 2, 3], [0, 0, 0], 1) == [1.0, 1.0, 1.0]


class TestDistanceReport:
    def test_perfect_fit_is_zero(self):
        rain = np.array([[1.0, 1.0], [2.0, 2.0]])
        states = np.array([[HIGH, HIGH], [LOW, LOW]], dtype=np.int8)
        pats = make_patterns([[HIGH, LOW]], [[1.0, 2.0]], T=2)
        l2, ham, agg, _ = distance_report(rain, states, np.array([1, 1]), pats)
        assert l2 == pytest.approx(0.0)
        assert ham == pytest.approx(0.0)
        assert agg == pytest.approx(0.0)

    def test_single_bit_flip(self):
        S = 357
        rain = np.ones((S, 1))
        states = np.full((S, 1), LOW, dtype=np.int8)
        states[5, 0] = HIGH
        pats = make_patterns([np.full(S, LOW)], [np.ones(S)], T=1)
        _, ham, _, _ = distance_report(rain, states, np.array([1]), pats)
        assert ham == pytest.approx(1.0)

    def test_two_day_hand_case(self):
        # oracle: direct arithmetic on a 2-location, 2-day instance
        rain = np.array([[3.0, 1.0], [0.0, 2.0]])
        states = np.array([[HIGH, LOW], [LOW, HIGH]], dtype=np.int8)
        labels = np.array([1, 2])
        pats = make_patterns([[HIGH, LOW], [HIGH, HIGH]],
                             [[2.0, 1.0], [1.0, 1.0]], T=2)
        l2, ham, agg, _ = distance_report(rain, states, labels, pats)
        l2_day0 = math.sqrt((3 - 2) ** 2 + (0 - 1) ** 2)
        l2_day1 = math.sqrt((1 - 1) ** 2 + (2 - 1) ** 2)
        assert l2 == pytest.approx((l2_day0 + l2_day1) / 2)
        assert ham == pytest.approx((0 + 1) / 2)
        agg_day0 = abs(3.0 - 3.0)
        agg_day1 = abs(3.0 - 2.0)
        assert agg == pytest.approx((agg_day0 + agg_day1) / 2)

    def test_overflow_days_skipped(self):
        rain = np.ones((2, 3))
        states = np.full((2, 3), LOW, dtype=np.int8)
        pats = make_patterns([[LOW, LOW]], T=3)
        *_, n = distance_report(rain, states, np.array([1, 2, 1]), pats)
        assert n == 2

    def test_every_day_overflowing_scores_none(self):
        # every label is past the pattern rows: the means are nan, not 0/0
        rain = np.ones((2, 3))
        states = np.full((2, 3), LOW, dtype=np.int8)
        pats = make_patterns([[LOW, LOW]], T=3)
        *means, n = distance_report(rain, states, np.array([2, 2, 3]), pats)
        assert all(math.isnan(v) for v in means)
        assert n == 0


class TestHomogeneity:
    def test_singleton_zero(self):
        stds, pooled = cluster_homogeneity(np.array([5.0]), np.array([1]),
                                           np.array([5.0]))
        assert stds[0] == 0.0 and pooled == 0.0

    def test_population_convention(self):
        stds, pooled = cluster_homogeneity(np.array([4.0, 6.0]),
                                           np.array([1, 1]), np.array([5.0]))
        assert stds[0] == pytest.approx(1.0)

    def test_pooled_weighting(self):
        y = np.array([0.0, 2.0, 10.0, 10.0, 10.0])
        labels = np.array([1, 1, 2, 2, 2])
        stds, pooled = cluster_homogeneity(y, labels, np.array([1.0, 10.0]))
        assert stds[0] == pytest.approx(1.0)
        assert stds[1] == pytest.approx(0.0)
        assert pooled == pytest.approx((1.0 * 2 + 0.0 * 3) / 5)


class TestSpatialCoherence:
    def line_pairs(self, n):
        """(src, dst) of a strip of n locations, as ``data.pairs``."""
        src, dst = zip(*[(i, s) for i in range(n) for s in (i - 1, i + 1)
                         if 0 <= s < n])
        return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)

    def test_constant_pattern_zero(self):
        pats = make_patterns([np.full(6, LOW)])
        spch, _ = coherence(pats, self.line_pairs(6))
        assert spch == 0.0

    def test_alternating_line_is_one(self):
        # every neighbour pair disagrees on an alternating strip
        row = np.array([HIGH, LOW] * 4, dtype=np.int8)
        pats = make_patterns([row])
        spch, _ = coherence(pats, self.line_pairs(8))
        assert spch == pytest.approx(1.0)

    def test_random_patterns_near_half(self):
        rng = np.random.default_rng(0)
        n = 40
        pairs = self.line_pairs(n)
        vals = []
        for _ in range(1000):
            row = rng.integers(1, 3, n).astype(np.int8)
            vals.append(coherence(make_patterns([row]), pairs)[0])
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_rain_guard_skips_tiny_reference(self):
        rain = np.array([[0.0, 5.0]])
        pats = make_patterns([[LOW, HIGH]], rain, T=2)
        _, spch_rain = coherence(pats, self.line_pairs(2))
        # only the 5 -> 0 direction evaluates; 0 -> 5 is guarded out
        assert spch_rain == pytest.approx((5.0 / 5.0) / 2)

    def test_matches_loop_over_neighbours(self, small_synth):
        # directed pairs in the order of a loop over each location's
        # neighbours, so both sums are bit-equal to that loop's; the last
        # location has no neighbours
        data, truth = small_synth
        nbs = neighbour_lists(data)[:-1] + [np.array([], dtype=np.intp)]
        pats = extract_patterns(data, truth)
        ei = np.array([s for s, nb in enumerate(nbs) for _ in nb])
        ej = np.array([s2 for nb in nbs for s2 in nb])
        cdp, crp = pats.state_patterns, pats.rain_patterns
        total = cdp.shape[0] * len(ei)
        ref = np.abs(crp[:, ei])
        rel = np.where(ref >= 0.01, np.abs(crp[:, ej] - crp[:, ei])
                       / np.maximum(ref, 0.01), 0.0)
        assert coherence(pats, (ei, ej)) == (
            float((cdp[:, ej] != cdp[:, ei]).sum() / total),
            float(rel.sum() / total))
        assert coherence(pats, (ei[:0], ej[:0])) == (0.0, 0.0)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        pairs = self.line_pairs(12)
        for _ in range(50):
            rows = rng.integers(1, 3, (3, 12)).astype(np.int8)
            spch, _ = coherence(make_patterns(rows), pairs)
            assert 0.0 <= spch <= 1.0


class TestSpellStats:
    def test_hand_case(self):
        labels = np.array([1, 1, 2, 1])
        years = np.zeros(4, dtype=int)
        per_year, mean_len = spell_stats(labels, years)
        assert per_year[0] == pytest.approx(2.0)  # two spells, one year
        assert mean_len[0] == pytest.approx(1.5)
        assert per_year[1] == pytest.approx(1.0)
        assert mean_len[1] == pytest.approx(1.0)

    def test_full_year_single_spell(self):
        labels = np.ones(122, dtype=int)
        years = np.zeros(122, dtype=int)
        per_year, mean_len = spell_stats(labels, years)
        assert per_year[0] == pytest.approx(1.0)
        assert mean_len[0] == pytest.approx(122.0)

    def test_year_boundary_breaks_run(self):
        labels = np.array([1, 1, 1, 1])
        years = np.array([0, 0, 1, 1])
        per_year, mean_len = spell_stats(labels, years)
        assert per_year[0] == pytest.approx(2.0 / 2.0)
        assert mean_len[0] == pytest.approx(2.0)

    def test_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            T = 60
            labels = rng.integers(1, 4, T)
            labels = np.unique(labels, return_inverse=True)[1] + 1
            years = np.sort(rng.integers(0, 3, T))
            per_year, mean_len = spell_stats(labels, years)
            n_years = len(np.unique(years))
            for u in range(1, labels.max() + 1):
                spells = per_year[u - 1] * n_years
                assert spells * mean_len[u - 1] == pytest.approx(
                    (labels == u).sum())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_run_by_run_loop(self, draw):
        # dense labels 1..K; each year's days contiguous
        T = draw.draw(st.integers(1, 40))
        raw = draw.draw(hnp.arrays(np.int64, T, elements=st.integers(1, 6)))
        labels = np.unique(raw, return_inverse=True)[1].reshape(T) + 1
        years = np.sort(draw.draw(hnp.arrays(
            np.int64, T, elements=st.integers(1901, 1905))))
        per_year, mean_len = spell_stats(labels, years)
        K = int(labels.max())
        spells = {u: [] for u in range(1, K + 1)}
        for (u, _), run in groupby(zip(labels.tolist(), years.tolist())):
            spells[u].append(len(list(run)))
        n_years = len(set(years.tolist()))
        assert per_year.tolist() == [len(spells[u]) / n_years
                                     for u in range(1, K + 1)]
        assert mean_len.tolist() == [sum(spells[u]) / len(spells[u])
                                     for u in range(1, K + 1)]


class TestWetFraction:
    def test_extremes_and_quarter(self):
        pats = make_patterns([np.full(12, HIGH), np.full(12, LOW),
                              [HIGH] * 3 + [LOW] * 9])
        wf = wet_fraction(pats)
        assert wf[0] == pytest.approx(1.0)
        assert wf[1] == pytest.approx(0.0)
        assert wf[2] == pytest.approx(0.25)


class TestAic:
    def test_zero_clusters_limit(self):
        assert aic(0, 7.5) == pytest.approx(15.0)

    def test_cluster_penalty(self):
        assert aic(20, 3.0) - aic(10, 3.0) == pytest.approx(20.0)


class TestAri:
    def test_identical_partitions(self):
        a = np.array([1, 1, 2, 2, 3])
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)
        relabeled = np.array([7, 7, 5, 5, 9])
        assert adjusted_rand_index(a, relabeled) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(0)
        vals = [adjusted_rand_index(rng.integers(0, 3, 200),
                                    rng.integers(0, 3, 200))
                for _ in range(30)]
        assert abs(np.mean(vals)) < 0.05

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            adjusted_rand_index(np.array([1, 1, 2]), np.array([1, 2]))

    def test_one_cluster_each_is_one(self):
        # both labellings put every item in one cluster: the index's
        # numerator and denominator are both 0, and agreement is perfect
        assert adjusted_rand_index(np.array([1, 1, 1]),
                                   np.array([2, 2, 2])) == 1.0


class TestRelabelInvariance:
    def test_distances_invariant(self, small_synth):
        data, truth = small_synth
        pats = extract_patterns(data, truth)
        l2, ham, agg, _ = distance_report(data.rain, truth.states,
                                          truth.day_labels, pats)
        perm = {1: 2, 2: 1}
        swapped_labels = np.array([perm[u] for u in truth.day_labels])
        swapped = LatentState(truth.states, swapped_labels, truth.loc_labels)
        pats2 = extract_patterns(data, swapped)
        l2_2, ham_2, agg_2, _ = distance_report(data.rain, truth.states,
                                                swapped_labels, pats2)
        assert l2 == pytest.approx(l2_2)
        assert ham == pytest.approx(ham_2)
        assert agg == pytest.approx(agg_2)


class TestOneComputationEach:
    """A cluster's mean daily total and a day's total have one value each,
    whichever metric reads them."""

    def test_mean_y_is_the_pattern_volume_written_once(self, seed1_record):
        data, truth = seed1_record
        pats = extract_patterns(data, truth)
        _, per = build_report(data, truth.states, truth.day_labels, pats)
        assert per["mean_y"].tobytes() == pats.pattern_volume.tobytes()
        assert "aggregate_mm" not in per

    def test_mean_agg_reads_the_dataset_day_totals(self, seed1_record):
        data, truth = seed1_record
        pats = extract_patterns(data, truth)
        # the last cluster's days overflow, as a refit's can, and go unscored
        K = pats.n_day_patterns - 1
        pats = replace(pats, rain_patterns=pats.rain_patterns[:K],
                       state_patterns=pats.state_patterns[:K])
        rows = truth.day_labels - 1
        days = rows < K
        _, _, agg, n = distance_report(data.rain, truth.states,
                                       truth.day_labels, pats)
        assert n == days.sum() < data.n_days
        assert agg == float(np.mean(np.abs(
            data.aggregate[days] - pats.pattern_volume[rows[days]])))

    def test_volume_follows_the_maps(self, seed1_record):
        # a volume is its rain map's row sum, so one cut of the maps keeps
        # them together
        data, truth = seed1_record
        pats = extract_patterns(data, truth)
        K = pats.n_day_patterns - 1
        pats = replace(pats, rain_patterns=pats.rain_patterns[:K],
                       state_patterns=pats.state_patterns[:K])
        assert pats.pattern_volume.tobytes() \
            == pats.rain_patterns.sum(axis=1).tobytes()


class TestReportRoundtrip:
    def test_build_and_csv(self, small_synth, tmp_path):
        data, truth = small_synth
        pats = extract_patterns(data, truth)
        global_values, per_cluster = build_report(
            data, truth.states, truth.day_labels, pats, min_years=2)
        assert global_values["n_clusters"] == 2
        assert global_values["pc_coverage"] <= data.n_days
        assert global_values["n_prominent"] <= 2
        write_report(tmp_path, "mrf", global_values, per_cluster)
        g, per = read_metrics_csv(tmp_path / "metrics.csv")
        for k, v in global_values.items():
            assert g[k] == pytest.approx(v)
        assert per["n_days"][0] == pytest.approx(
            float(pats.day_counts[0]))
        text = format_table("mrf", global_values, per_cluster)
        assert "mean_hamming" in text

    def test_read_back_is_the_built_report(self, seed1_record, tmp_path):
        # what write_report writes, read_metrics_csv gives back: the same
        # two dicts, each per-cluster array its bytes
        data, truth = seed1_record
        built = build_report(data, truth.states, truth.day_labels,
                             extract_patterns(data, truth))
        write_report(tmp_path, "mrf", *built)
        g, per = read_metrics_csv(tmp_path / "metrics.csv")
        assert {k: v.hex() for k, v in g.items()} \
            == {k: v.hex() for k, v in built[0].items()}
        assert {k: v.tobytes() for k, v in per.items()} \
            == {k: v.tobytes() for k, v in built[1].items()}

    @pytest.mark.parametrize("text,line", [
        ('metric,cluster_id,value\n"a\nb",,1.0\nn_days,1,x\n', 4),
        ("metric,cluster_id,value\nn_days,1,1.0\n\n\nn_days,2,x\n", 5)],
        ids=["quoted-newline", "blank-lines"])
    def test_later_line_numbers_hold(self, tmp_path, text, line):
        # the quoted name "a\nb" spans lines 2 and 3, so the bad value, in
        # the table's third record, is on line 4; blank lines 3 and 4 are
        # skipped, and the bad value after them is on line 5
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_metrics_csv(path)
        assert str(err.value) == f"{path}:{line}: malformed field"
