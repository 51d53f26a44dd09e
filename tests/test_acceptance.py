"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from rainpatterns import (HIGH, LOW, LatentState, ModelParams, SamplerConfig,
                          SyntheticSpec, compute_spatial_weights,
                          extract_patterns, generate_synthetic,
                          joint_log_density, refit_frozen, run_gibbs)
from rainpatterns import baselines
from rainpatterns.cli import baseline_patterns, main
from rainpatterns.data import discretize_by_mean, make_dataset
from rainpatterns.inference import _GibbsEngine, _draw_cell_states, _draw_label
from rainpatterns.metrics import (adjusted_rand_index, distance_report,
                                  spatial_coherence, spell_stats,
                                  wet_fraction)
from conftest import (cell_odds, engine_at, fitted_params, flip_delta,
                      label_log_weights, neighbour_lists)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def fit_synth(spec, eta=5.0, burnin=80, samples=40, fit_seed=0,
              init="data", zeta=2.0):
    data, truth = generate_synthetic(spec)
    weights = compute_spatial_weights(data)
    params = ModelParams(day_align=eta, loc_align=zeta,
                         aggregate_sd=float(data.aggregate.std()))
    cfg = SamplerConfig(n_burnin=burnin, n_samples=samples, seed=fit_seed,
                        init=init)
    mode, _, patterns, fitted = run_gibbs(data, weights, params, cfg)
    return data, truth, weights, mode, patterns, fitted


def test_c1_gibbs_exactness():
    """Empirical single-site conditionals match enumeration, TV <= 0.02.

    The draws come from the engine's conditionals, the ones its sweeps use:
    three cells, a day and a location on a one-year record, and every day
    of a record over three years.
    """
    start = time.time()
    rng_data = np.random.default_rng(0)
    coords = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    rain = rng_data.gamma(2.0, 4.0, (4, 3))
    data = make_dataset(rain, coords, np.array([0, 0, 0]))
    weights = compute_spatial_weights(data)
    state = LatentState(
        states=np.array([[1, 2, 1], [2, 2, 1], [1, 1, 2], [2, 1, 2]],
                        dtype=np.int8),
        day_labels=np.array([1, 1, 2]),
        loc_labels=np.array([1, 1, 2, 2]))
    patterns = extract_patterns(data, state)
    params = fitted_params(data, state, day_align=1.5, loc_align=1.0,
                           temporal_factor=2.0, aggregate_sd=10.0)
    engine = engine_at(data, state, params, patterns, weights)
    n = 50_000
    worst = 0.0

    def tv(emp, exact):
        return 0.5 * float(np.abs(emp - exact).sum())

    # cell-state conditionals at three sites
    for s, t in [(0, 0), (3, 1), (1, 2)]:
        logp = np.empty(2)
        work = state.copy()
        for i, z in enumerate((HIGH, LOW)):
            work.states[s, t] = z
            logp[i] = joint_log_density(data, weights, work, params, patterns)
        exact = np.exp(logp - logp.max())
        exact /= exact.sum()
        rng = np.random.default_rng(100 + s * 3 + t)
        draws = LOW - _draw_cell_states(np.full(n, cell_odds(engine, s, t)),
                                        rng)
        emp = np.array([(draws == HIGH).mean(), (draws == LOW).mean()])
        worst = max(worst, tv(emp, exact))

    # day-label conditional for a day whose cluster keeps other members
    t = 0
    cands = [1, 2, 3]
    logp = np.empty(3)
    for i, u in enumerate(cands):
        work = state.copy()
        work.day_labels = state.day_labels.copy()
        work.day_labels[t] = u
        logp[i] = joint_log_density(data, weights, work, params, patterns)
    exact = np.exp(logp - logp.max())
    exact /= exact.sum()
    rng = np.random.default_rng(7)
    labels, logw = label_log_weights(engine._day_tables(), t)
    draws = np.array([_draw_label(labels, logw, u)
                      for u in rng.random(n)])
    emp = np.array([(draws == u).mean() for u in cands])
    worst = max(worst, tv(emp, exact))

    # location-label conditional, same construction
    s = 0
    logp = np.empty(3)
    for i, v in enumerate(cands):
        work = state.copy()
        work.loc_labels = state.loc_labels.copy()
        work.loc_labels[s] = v
        logp[i] = joint_log_density(data, weights, work, params, patterns)
    exact = np.exp(logp - logp.max())
    exact /= exact.sum()
    rng = np.random.default_rng(8)
    labels, logw = label_log_weights(engine._loc_tables(), s)
    draws = np.array([_draw_label(labels, logw, u)
                      for u in rng.random(n)])
    emp = np.array([(draws == v).mean() for v in cands])
    worst = max(worst, tv(emp, exact))

    # every day's label over 3 years, alignment and aggregate off so that
    # the day prior alone sets the conditional; day 5 is a singleton
    rain = rng_data.gamma(2.0, 4.0, (4, 8))
    data = make_dataset(rain, coords, np.array([0, 0, 0, 1, 1, 1, 2, 2]))
    weights = compute_spatial_weights(data)
    state = LatentState(
        states=rng_data.integers(1, 3, (4, 8)).astype(np.int8),
        day_labels=np.array([1, 1, 2, 1, 2, 3, 1, 2]),
        loc_labels=np.array([1, 1, 2, 2]))
    patterns = extract_patterns(data, state)
    params = fitted_params(data, state, day_align=0.0, aggregate_sd=math.inf)
    engine = engine_at(data, state, params, patterns, weights)
    for t in range(8):
        labels, logw = label_log_weights(engine._day_tables(), t)
        logp = np.empty(len(labels))
        for i, u in enumerate(labels):
            work = state.copy()
            work.day_labels[t] = u
            logp[i] = joint_log_density(data, weights, work, params, patterns)
        exact = np.exp(logp - logp.max())
        exact /= exact.sum()
        rng = np.random.default_rng(20 + t)
        draws = np.array([_draw_label(labels, logw, u)
                          for u in rng.random(n)])
        emp = np.array([(draws == u).mean() for u in labels])
        worst = max(worst, tv(emp, exact))

    elapsed = time.time() - start
    assert worst <= 0.02
    assert elapsed < 30.0
    report("C1", f"max TV {worst:.4f} over Z/U/V sites and 8 days over 3 "
                 f"years, {elapsed:.1f}s")


def test_c2_joint_density_locality():
    """Each flipped cell's log-odds from the engine equals the change
    of the full joint density between the cell's two states, to 1e-9
    relative: the z-sweep draws from the joint's conditional."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for instance in range(20):
        coords = np.array([[i % 4, i // 4] for i in range(16)])
        rain = rng.gamma(2.0, 4.0, (16, 3))
        data = make_dataset(rain, coords, np.array([0, 0, 1]))
        weights = compute_spatial_weights(data)
        u = rng.integers(1, 3, 3)
        u = np.unique(u, return_inverse=True)[1] + 1
        v = rng.integers(1, 3, 16)
        v = np.unique(v, return_inverse=True)[1] + 1
        state = LatentState(rng.integers(1, 3, (16, 3)).astype(np.int8), u, v)
        patterns = extract_patterns(data, state)
        params = fitted_params(data, state, day_align=float(rng.random() * 4),
                               loc_align=float(rng.random() * 3),
                               temporal_factor=1.0 + float(rng.random() * 3),
                               aggregate_sd=5.0)
        engine = engine_at(data, state, params, patterns, weights)
        for flip in range(3):
            s = int(rng.integers(16))
            t = int(rng.integers(3))
            got, want = flip_delta(engine, s, t)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
            z = engine.state.states
            z[s, t] = (HIGH + LOW) - z[s, t]
    assert worst <= 1e-9
    report("C2", f"worst relative deviation {worst:.2e} over 60 flips")


@pytest.fixture(scope="module")
def c3_fit():
    """C3's fit from a given init, each run once."""
    spec = SyntheticSpec(n_locations=64, n_days=400, n_day_patterns=4,
                         n_loc_groups=6, n_years=8, flip_noise=0.1, seed=0)
    fits = {}

    def fit(init):
        if init not in fits:
            fits[init] = fit_synth(spec, init=init)
        return fits[init]
    return fit


def cell_agreement(fit):
    """The share of cells whose mode state is the planted state."""
    data, truth, weights, mode, patterns, fitted = fit
    return float((mode.states == truth.states).mean())


@pytest.mark.parametrize("init", ["data", "random"])
def test_c3_planted_pattern_recovery(c3_fit, init):
    """ARI >= 0.9 and every planted pattern recovered within 5% of S, from
    either init; ``random`` init's cell agreement with the planted states
    is within 0.01 of ``data`` init's."""
    start = time.time()
    fit = c3_fit(init)
    data, truth, weights, mode, patterns, fitted = fit
    ari = adjusted_rand_index(mode.day_labels, truth.day_labels)
    agree = cell_agreement(fit)
    gap = agree - cell_agreement(c3_fit("data"))
    planted = extract_patterns(data, truth)
    worst = 0
    for k in range(4):
        best = min(int((planted.state_patterns[k]
                        != patterns.state_patterns[j]).sum())
                   for j in range(patterns.n_day_patterns))
        worst = max(worst, best)
    elapsed = time.time() - start
    assert ari >= 0.9
    assert worst <= 0.05 * 64
    assert abs(gap) <= 0.01
    assert elapsed < 300.0
    report("C3", f"{init} init: ARI {ari:.3f}, worst pattern error "
                 f"{worst}/64, cell agreement {agree:.3f} ({gap:+.3f} on "
                 f"data init's), {elapsed:.0f}s")


def _method_metrics(seed):
    """One seed of the coherent-data comparison behind C4 and C5."""
    spec = SyntheticSpec(n_locations=64, n_days=400, n_day_patterns=4,
                         n_loc_groups=6, n_years=8, flip_noise=0.15,
                         seed=100 + seed)
    data, truth, weights, mode, patterns, fitted = fit_synth(spec)
    K = patterns.n_day_patterns
    mrf_dist = distance_report(data.rain, mode.states, mode.day_labels,
                               patterns)
    mrf_spch = spatial_coherence(patterns.state_patterns,
                                 patterns.rain_patterns, data.pairs)[0]

    ddv = discretize_by_mean(data)
    km = baselines.kmeans(data.rain.T, K, seed=0)
    km_pats = baseline_patterns(data, ddv, km)
    km_dist = distance_report(data.rain, ddv, km, km_pats)
    km_spch = spatial_coherence(km_pats.state_patterns, km_pats.rain_patterns,
                                data.pairs)[0]

    sp = baselines.spectral_cluster(baselines.factor_embedding(
        baselines.similarity_hamming(ddv.T), K), K, seed=0)
    sp_pats = baseline_patterns(data, ddv, sp)
    sp_dist = distance_report(data.rain, ddv, sp, sp_pats)
    return mrf_dist, km_dist, sp_dist, mrf_spch, km_spch


@pytest.fixture(scope="module")
def method_comparison():
    return [_method_metrics(seed) for seed in range(5)]


def test_c4_distance_orderings(method_comparison):
    """MRF wins Hamming, k-means keeps the Euclidean edge, >= 4 of 5."""
    ham_km = ham_sp = l2 = 0
    for mrf_dist, km_dist, sp_dist, _, _ in method_comparison:
        mrf_l2, mrf_ham, _, _ = mrf_dist
        km_l2, km_ham, _, _ = km_dist
        _, sp_ham, _, _ = sp_dist
        ham_km += mrf_ham < km_ham
        ham_sp += mrf_ham < sp_ham
        l2 += km_l2 <= mrf_l2
    assert ham_km >= 4
    assert ham_sp >= 4
    assert l2 >= 4
    report("C4", f"Hamming wins {ham_km}/5 vs kmeans, {ham_sp}/5 vs spect2; "
                 f"kmeans l2 wins {l2}/5")


def test_c5_spatial_coherence_ordering(method_comparison):
    """MRF state patterns are spatially smoother than k-means', majority."""
    wins = sum(mrf_spch < km_spch
               for _, _, _, mrf_spch, km_spch in method_comparison)
    assert wins >= 3
    report("C5", f"coherence wins {wins}/5 vs kmeans")


def test_c6_frozen_pattern_generalization():
    """Refit onto the held-out half lands within 25% of the training fit."""
    spec = SyntheticSpec(n_locations=64, n_days=400, n_day_patterns=4,
                         n_loc_groups=6, n_years=8, flip_noise=0.1, seed=7)
    data, truth = generate_synthetic(spec)
    half = data.n_days // 2
    train = make_dataset(data.rain[:, :half], data.grid_coords,
                         data.year_of_day[:half])
    test = make_dataset(data.rain[:, half:], data.grid_coords,
                        data.year_of_day[half:])
    weights = compute_spatial_weights(train)
    params = ModelParams(day_align=5.0, loc_align=2.0,
                         aggregate_sd=float(train.aggregate.std()))
    cfg = SamplerConfig(n_burnin=80, n_samples=40, seed=0)
    mode, _, patterns, fitted = run_gibbs(train, weights, params, cfg)
    _, train_ham, _, _ = distance_report(train.rain, mode.states,
                                         mode.day_labels, patterns)

    rcfg = SamplerConfig(n_burnin=40, n_samples=20, seed=1)
    refit = refit_frozen(test, compute_spatial_weights(test), patterns,
                         fitted, rcfg)
    _, test_ham, _, _ = distance_report(test.rain, refit.states,
                                        refit.day_labels, patterns)
    rel = abs(test_ham - train_ham) / train_ham
    assert rel <= 0.25
    report("C6", f"train Hamming {train_ham:.2f}, refit {test_ham:.2f}, "
                 f"gap {rel:.1%}")


def test_c7_prominence_robustness():
    """Six planted patterns stay 6 +- 1 prominent across the align sweep."""
    spec = SyntheticSpec(n_locations=64, n_days=400, n_day_patterns=6,
                         n_loc_groups=8, n_years=8, flip_noise=0.1, seed=11)
    counts = {}
    for eta in (5.0, 7.0, 9.0):
        data, truth, weights, mode, patterns, fitted = fit_synth(
            spec, eta=eta)
        # the patterns are extracted from the mode state's day clusters
        counts[eta] = int((patterns.year_counts >= 5).sum())
        assert 5 <= counts[eta] <= 7
    report("C7", f"prominent counts {counts} for 6 planted patterns")


def test_c8_baseline_correctness():
    """k-means monotone, EOF conserves variance, LASSO satisfies KKT."""
    rng = np.random.default_rng(3)

    for trial in range(5):
        pts = rng.normal(0, 1, (50, 4))
        k = int(rng.integers(2, 8))
        sq = (pts * pts).sum(axis=1)
        history = baselines._lloyd(pts, sq, baselines._plusplus_seeds(
            pts, sq, k, np.random.default_rng(trial)))[2]
        assert (np.diff(history) <= 1e-9).all()

    drvs = rng.gamma(2.0, 5.0, (12, 40))
    vectors, eigenvalues, mean = baselines.eof_decompose(drvs)
    cov = np.cov(drvs, ddof=1)
    assert eigenvalues.sum() == pytest.approx(np.trace(cov), rel=1e-8)

    worst_kkt = 0.0
    for trial in range(10):
        x = rng.normal(0, 2, 12)
        reg = float(rng.random() * 5)
        coef = baselines.lasso_fit(x, vectors, mean, reg)
        resid = (x - mean) - vectors @ coef
        grad = -2.0 * (vectors.T @ resid)
        for j in range(12):
            if coef[j] != 0:
                worst_kkt = max(worst_kkt,
                                abs(grad[j] + reg * np.sign(coef[j])))
            else:
                worst_kkt = max(worst_kkt, max(0.0, abs(grad[j]) - reg))
    assert worst_kkt < 1e-6

    x = rng.normal(0, 2, 12)
    last = 13
    for reg in (0.0, 0.3, 1.0, 3.0, 9.0, 27.0):
        nz = int((baselines.lasso_fit(x, vectors, mean, reg) != 0).sum())
        assert nz <= last
        last = nz

    w = np.zeros((9, 9))
    w[:4, :4] = 1.0
    w[4:, 4:] = 1.0
    labels = baselines.spectral_cluster(baselines.laplacian_embedding(w, 2),
                                        2, seed=0)
    assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
    assert labels[0] != labels[4]
    report("C8", f"kmeans monotone, EOF conserves variance, "
                 f"KKT residual {worst_kkt:.1e}, blocks recovered")


def test_c9_metric_oracles():
    """Library metrics match loop-based re-derivations on 50 instances."""
    rng = np.random.default_rng(4)
    for instance in range(50):
        S = int(rng.integers(4, 10))
        T = int(rng.integers(4, 12))
        K = int(rng.integers(1, 4))
        side = math.isqrt(S - 1) + 1
        coords = np.array([[i % side, i // side] for i in range(S)])
        rain = rng.gamma(2.0, 5.0, (S, T))
        years = np.sort(rng.integers(0, 3, T))
        data = make_dataset(rain, coords, years)
        labels = rng.integers(1, K + 1, T)
        labels = np.unique(labels, return_inverse=True)[1] + 1
        states = rng.integers(1, 3, (S, T)).astype(np.int8)
        state = LatentState(states, labels, np.ones(S, dtype=np.int64))
        pats = extract_patterns(data, state)
        Kp = pats.n_day_patterns

        l2, ham, agg, _ = distance_report(rain, states, labels, pats)
        l2s, hams, aggs = [], [], []
        for t in range(T):
            u = labels[t] - 1
            l2s.append(math.sqrt(sum(
                (rain[s, t] - pats.rain_patterns[u, s]) ** 2
                for s in range(S))))
            hams.append(sum(states[s, t] != pats.state_patterns[u, s]
                            for s in range(S)))
            y = sum(rain[s, t] for s in range(S))
            aggs.append(abs(y - sum(pats.rain_patterns[u, s]
                                    for s in range(S))))
        assert ham == pytest.approx(sum(hams) / T, rel=1e-10)
        assert l2 == pytest.approx(sum(l2s) / T, rel=1e-10)
        assert agg == pytest.approx(sum(aggs) / T, rel=1e-10)

        per_year, mean_len = spell_stats(labels, years)
        spells = {u: [] for u in range(1, Kp + 1)}
        t = 0
        while t < T:
            u, yy = labels[t], years[t]
            run = 0
            while t < T and labels[t] == u and years[t] == yy:
                run += 1
                t += 1
            spells[u].append(run)
        n_years = len(set(years.tolist()))
        for u in range(1, Kp + 1):
            assert per_year[u - 1] * n_years == len(spells[u])
            if spells[u]:
                assert mean_len[u - 1] == pytest.approx(
                    sum(spells[u]) / len(spells[u]), rel=1e-10)

        spch_state, spch_rain = spatial_coherence(
            pats.state_patterns, pats.rain_patterns, data.pairs)
        nbs = neighbour_lists(data)
        num_s = num_r = total = 0
        for k in range(Kp):
            for s in range(S):
                for s2 in nbs[s]:
                    total += 1
                    num_s += pats.state_patterns[k, s2] \
                        != pats.state_patterns[k, s]
                    ref = abs(pats.rain_patterns[k, s])
                    if ref >= 0.01:
                        num_r += abs(pats.rain_patterns[k, s2]
                                     - pats.rain_patterns[k, s]) / ref
        assert spch_state == pytest.approx(num_s / total, rel=1e-10)
        assert spch_rain == pytest.approx(num_r / total, rel=1e-10)

        wf = wet_fraction(pats)
        for k in range(Kp):
            expect = sum(pats.state_patterns[k, s] == HIGH
                         for s in range(S)) / S
            assert wf[k] == pytest.approx(expect, rel=1e-10)
    report("C9", "distance/spells/coherence/wet-fraction match loops "
                 "on 50 instances")


def test_c10_fit_determinism(tmp_path):
    """Fits are byte-identical given the same seed."""
    cfg = {
        "paths": {"locations": str(tmp_path / "d" / "locations.csv"),
                  "rainfall": str(tmp_path / "d" / "rainfall.csv")},
        "model": {"eta": 5.0, "zeta": 2.0},
        "sampler": {"burnin": 10, "samples": 5, "seed": 3, "init": "data"},
        "synth": {"S": 16, "T": 60, "K": 2, "L": 3, "noise": 0.05,
                  "seed": 1, "years": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path),
                 "--out", str(tmp_path / "d")]) == 0
    assert main(["fit", "--config", str(cfg_path),
                 "--out", str(tmp_path / "f1")]) == 0
    assert main(["fit", "--config", str(cfg_path),
                 "--out", str(tmp_path / "f2")]) == 0
    names = ["assign_u.csv", "assign_v.csv", "assign_z.csv", "trace.csv",
             "patterns_spatial.csv", "patterns_temporal.csv",
             "cluster_summary.csv", "params.json", "metrics.csv",
             "metrics.txt"]
    for name in names:
        a = (tmp_path / "f1" / name).read_bytes()
        b = (tmp_path / "f2" / name).read_bytes()
        assert a == b, name
    report("C10", f"{len(names)} output files byte-identical across reruns")


def test_c11_performance_at_paper_scale():
    """One sweep under a second; a 500-sweep fit projects under 10 minutes."""
    spec = SyntheticSpec(n_locations=357, n_days=976, n_day_patterns=8,
                         n_loc_groups=10, n_years=8, flip_noise=0.1, seed=0)
    data, _ = generate_synthetic(spec)
    weights = compute_spatial_weights(data)
    params = ModelParams(day_align=7.0, loc_align=2.0,
                         aggregate_sd=float(data.aggregate.std()))
    cfg = SamplerConfig(n_burnin=10, n_samples=5, seed=0)
    engine = _GibbsEngine(data, weights, params, cfg)
    engine.sweep()  # warm-up: first sweep pays numpy setup costs
    times = []
    for _ in range(15):
        t0 = time.time()
        engine.sweep()
        times.append(time.time() - t0)
    per_sweep = float(np.median(times))
    # per-sweep cost is flat after warm-up, so a 500-sweep fit is projected
    # from the measured steady-state sweep time
    projected = per_sweep * 500
    assert per_sweep < 1.0
    assert projected < 600.0
    report("C11", f"sweep {per_sweep * 1000:.0f} ms at S=357 T=976, "
                  f"500-sweep fit ~ {projected / 60:.1f} min")


def test_c12_recovery_where_the_gamma_components_overlap():
    """Day ARI >= 0.6 and cell agreement >= 0.85 on C3's record with wet
    Gamma(2, 0.5) and dry Gamma(1, 1) rain at flip noise 0.1, from ``data``
    init at fit seed 0: the fit reads 0.729 and 0.874.  Refitted to the
    states every sweep, the Gamma's components blurred into one mixture and
    the same fit read -0.002 and 0.635."""
    start = time.time()
    fit = fit_synth(SyntheticSpec(wet_shape=2, wet_rate=0.5, dry_shape=1,
                                  dry_rate=1, flip_noise=0.1))
    data, truth, weights, mode, patterns, fitted = fit
    ari = adjusted_rand_index(mode.day_labels, truth.day_labels)
    agree = cell_agreement(fit)
    assert ari >= 0.6
    assert agree >= 0.85
    report("C12", f"ARI {ari:.3f}, cell agreement {agree:.3f}, "
                  f"{time.time() - start:.1f}s")
