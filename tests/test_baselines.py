"""k-means, spectral clustering, EOF decomposition, LASSO fits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainpatterns import ValidationError
from rainpatterns.baselines import (EofBasis, _median, cluster_means,
                                    derive_state_patterns, eof_decompose,
                                    kmeans, lasso_fit, similarity_euclidean,
                                    similarity_hamming, spectral_cluster)
from rainpatterns.model import HIGH, LOW


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.3, (20, 2))
        b = rng.normal(8, 0.3, (20, 2))
        res = kmeans(np.vstack([a, b]), 2, seed=1)
        assert len(set(res.labels[:20])) == 1
        assert len(set(res.labels[20:])) == 1
        assert res.labels[0] != res.labels[20]

    def test_k_equals_n_zero_objective(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 1, (8, 3))
        res = kmeans(pts, 8, seed=0)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_best_partition(self):
        # oracle: enumerate all 2-cluster partitions of six points
        pts = np.array([[0.0, 0], [0.1, 0.2], [0.3, 0.1],
                        [4.0, 4.1], [4.2, 3.9], [3.9, 4.0]])
        best = math.inf
        for mask in range(1, 2 ** 6 - 1):
            sel = np.array([(mask >> i) & 1 for i in range(6)], dtype=bool)
            if sel.sum() == 0 or (~sel).sum() == 0:
                continue
            cost = 0.0
            for part in (pts[sel], pts[~sel]):
                cost += ((part - part.mean(axis=0)) ** 2).sum()
            best = min(best, cost)
        res = kmeans(pts, 2, seed=3)
        assert res.objective == pytest.approx(best, rel=1e-9)

    def test_objective_history_nonincreasing(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 1, (60, 5))
        for k in (2, 5, 9):
            res = kmeans(pts, k, seed=0)
            hist = res.objective_history
            assert (np.diff(hist) <= 1e-9).all()

    def test_labels_dense(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 1, (30, 4))
        res = kmeans(pts, 6, seed=0)
        assert sorted(np.unique(res.labels)) == list(range(1, res.n_clusters + 1))
        assert res.centers.shape[0] == res.n_clusters

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_objective_and_labels_by_exact_distance(self, data):
        # the kernel ranks centers by |x|² − 2x·c + |c|²; the objective and
        # each label must hold for the distances taken directly
        n = data.draw(st.integers(1, 25), label="n")
        dim = data.draw(st.integers(1, 5), label="dim")
        k = data.draw(st.integers(1, n), label="k")
        coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        pts = np.array(data.draw(st.lists(
            st.lists(coords, min_size=dim, max_size=dim),
            min_size=n, max_size=n), label="points"))
        res = kmeans(pts, k, seed=data.draw(st.integers(0, 3), label="seed"))
        d2 = np.array([[((x - c) ** 2).sum() for c in res.centers]
                       for x in pts])
        own = d2[np.arange(n), res.labels - 1]
        assert res.objective == pytest.approx(own.sum(), rel=1e-12)
        # ties: the identity loses digits against |x|² + |c|², not against d²
        scale = (pts ** 2).sum(axis=1) + (res.centers ** 2).sum(axis=1).max()
        assert (own - d2.min(axis=1) <= 1e-9 * scale).all()

    def test_labels_survive_a_far_shift(self):
        # |x|² − 2x·c + |c|² cancels most of its digits far from the origin
        rng = np.random.default_rng(6)
        pts = np.vstack([rng.normal(m, 0.3, (15, 3)) for m in (0.0, 4.0, 8.0)])
        near = kmeans(pts, 3, seed=2)
        far = kmeans(pts + 1e4, 3, seed=2)
        assert np.array_equal(far.labels, near.labels)
        assert far.objective == pytest.approx(near.objective, rel=1e-6)
        assert len(set(near.labels[:15])) == 1

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_distances_never_negative_far_out(self, seed):
        # round-off in |x|² − 2x·c + |c|² dips below 0 next to a center
        rng = np.random.default_rng(seed)
        pts = np.tile(rng.normal(1e4, 1, (1, 4)), (12, 1))
        pts[6:] += 1e-3
        res = kmeans(pts, 3, seed=0)
        assert (res.objective_history >= 0).all()
        assert np.isfinite(similarity_euclidean(pts)).all()

    def test_duplicate_points_compact(self):
        pts = np.zeros((5, 2))
        res = kmeans(pts, 3, seed=0)
        assert res.objective == pytest.approx(0.0)
        assert res.n_clusters >= 1

    def test_state_pattern_derivation(self):
        centers = np.array([[1.0, 5.0], [3.0, 1.0]])
        col_means = np.array([2.0, 2.0])
        cdp = derive_state_patterns(centers, col_means)
        assert cdp.tolist() == [[LOW, HIGH], [HIGH, LOW]]
        # ties go low
        cdp2 = derive_state_patterns(np.array([[2.0, 2.0]]), col_means)
        assert cdp2.tolist() == [[LOW, LOW]]


TOP = float(np.finfo(float).max)


class TestMedian:
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([TOP, -TOP])),
                    min_size=1, max_size=12))
    # the middle two's sum overflows, as np.median's does; one middle value
    # must not be doubled
    @example([TOP, TOP]).via("the middle two overflow")
    @example([TOP, TOP, TOP]).via("one middle value at the top")
    @example([1.0, math.nan, 2.0]).via("a nan anywhere")
    def test_equals_np_median(self, values):
        # equal doubles differ in their bits only as 0.0 and -0.0, which
        # compare equal and which both medians may pick either of
        values = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.median(values))
            got = _median(values)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestSimilarities:
    def test_euclidean_identical(self):
        v = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]])
        w = similarity_euclidean(v)
        assert w[0, 1] == pytest.approx(1.0)
        assert np.allclose(w, w.T)

    def test_euclidean_tau_scaling(self):
        v = np.array([[0.0], [1.0], [9.0]])
        # distances 1, 8, 9; median 8
        w = similarity_euclidean(v)
        assert w[0, 2] == pytest.approx(math.exp(-9.0 / 8.0))
        w2 = similarity_euclidean(v, tau=1.0)
        assert w2[0, 1] == pytest.approx(math.exp(-1.0))

    def test_euclidean_hand_case(self):
        v = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 8.0]])
        d01, d02, d12 = 5.0, 8.0, 5.0
        tau = 5.0  # median of (5, 8, 5)
        w = similarity_euclidean(v)
        assert w[0, 1] == pytest.approx(math.exp(-d01 / tau))
        assert w[0, 2] == pytest.approx(math.exp(-d02 / tau))
        assert w[1, 2] == pytest.approx(math.exp(-d12 / tau))

    def test_hamming_cases(self):
        z = np.array([[1, 1, 2], [1, 1, 2], [2, 2, 1], [1, 2, 2]],
                     dtype=np.int8)
        w = similarity_hamming(z)
        assert w[0, 1] == pytest.approx(1.0)
        assert w[0, 2] == pytest.approx(0.0)   # complements
        assert w[0, 3] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("n,d", [(1, 1), (6, 1), (7, 3), (20, 17),
                                     (33, 64)])
    def test_hamming_matches_definition(self, n, d):
        rng = np.random.default_rng(n * d)
        z = rng.choice(np.array([HIGH, LOW], dtype=np.int8), (n, d))
        want = np.array([[np.count_nonzero(a == b) / d for b in z] for a in z])
        assert np.array_equal(similarity_hamming(z), want)


class TestSpectral:
    def test_block_diagonal_recovery(self):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        res = spectral_cluster(w, 2, seed=0)
        assert len(set(res.labels[:3])) == 1
        assert len(set(res.labels[3:])) == 1
        assert res.labels[0] != res.labels[3]

    def test_k_one(self):
        rng = np.random.default_rng(0)
        w = rng.random((5, 5))
        w = (w + w.T) / 2
        res = spectral_cluster(w, 1, seed=0)
        assert (res.labels == 1).all()

    def test_laplacian_eigenvalue_range_and_components(self):
        # two disconnected cliques: eigenvalue 0 with multiplicity 2
        w = np.zeros((7, 7))
        w[:4, :4] = 1.0
        w[4:, 4:] = 1.0
        deg = w.sum(axis=1)
        lap = np.eye(7) - w / np.sqrt(np.outer(deg, deg))
        vals = np.linalg.eigvalsh((lap + lap.T) / 2)
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10
        assert (np.abs(vals) < 1e-8).sum() == 2

    def test_ring_graph_contiguous_halves(self):
        # oracle: normalised cut enumerated over all bipartitions
        n = 8
        w = np.zeros((n, n))
        for i in range(n):
            w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0

        def ncut(mask):
            a = np.flatnonzero(mask)
            b = np.flatnonzero(~mask)
            if len(a) == 0 or len(b) == 0:
                return math.inf
            cut = w[np.ix_(a, b)].sum()
            va, vb = w[a].sum(), w[b].sum()
            return cut / va + cut / vb

        def runs(mask):
            return sum(mask[i] != mask[(i + 1) % n] for i in range(n)) // 2

        cuts = {}
        for m in range(1, 2 ** n - 1):
            mask = np.array([(m >> i) & 1 for i in range(n)], dtype=bool)
            cuts[m] = (runs(mask), ncut(mask))
        best = min(v for _, v in cuts.values())
        best_fragmented = min(v for r, v in cuts.values() if r > 1)
        res = spectral_cluster(w, 2, seed=0)
        lab = res.labels == 1
        got = ncut(lab)
        # contiguous halves: one boundary run, and the cut beats every
        # fragmented bipartition while sitting near the enumerated optimum
        # (the ring's degenerate eigenpair leaves the exact split phase free)
        assert runs(lab) == 1
        assert got < best_fragmented
        assert got <= best * 1.1

    def test_validation(self):
        with pytest.raises(ValidationError):
            spectral_cluster(np.array([[1.0, 0.5], [0.2, 1.0]]), 1, 0)
        with pytest.raises(ValidationError):
            spectral_cluster(-np.ones((3, 3)), 2, 0)


class TestEof:
    def test_two_days_rank_one(self):
        rng = np.random.default_rng(0)
        drvs = rng.normal(5, 2, (6, 2))
        basis = eof_decompose(drvs)
        assert (basis.eigenvalues > 1e-10).sum() == 1

    def test_full_reconstruction(self):
        rng = np.random.default_rng(1)
        drvs = rng.gamma(2, 3, (5, 12))
        basis = eof_decompose(drvs)
        for t in range(12):
            anom = drvs[:, t] - basis.mean
            recon = basis.vectors @ (basis.vectors.T @ anom)
            assert np.allclose(recon, anom, atol=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        basis = eof_decompose(rng.normal(0, 1, (7, 30)))
        assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(7),
                           atol=1e-8)

    def test_hand_covariance_eigenpairs(self):
        # oracle: characteristic polynomial roots of the 3x3 covariance,
        # built from trace / principal minors / determinant
        rng = np.random.default_rng(3)
        drvs = rng.gamma(2.0, 2.0, (3, 40))
        c = np.cov(drvs, ddof=1)
        c2 = (c[0, 0] * c[1, 1] - c[0, 1] ** 2
              + c[0, 0] * c[2, 2] - c[0, 2] ** 2
              + c[1, 1] * c[2, 2] - c[1, 2] ** 2)
        det = (c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] ** 2)
               - c[0, 1] * (c[0, 1] * c[2, 2] - c[1, 2] * c[0, 2])
               + c[0, 2] * (c[0, 1] * c[1, 2] - c[1, 1] * c[0, 2]))
        roots = sorted(np.roots([1.0, -np.trace(c), c2, -det]).real,
                       reverse=True)
        basis = eof_decompose(drvs)
        assert np.allclose(basis.eigenvalues, roots, rtol=1e-8)
        for j in range(3):
            v = basis.vectors[:, j]
            assert np.allclose(c @ v, basis.eigenvalues[j] * v, atol=1e-8)

    def test_variance_conservation(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            drvs = rng.gamma(2, 3, (8, 25))
            basis = eof_decompose(drvs)
            c = np.cov(drvs, ddof=1)
            assert basis.eigenvalues.sum() == pytest.approx(np.trace(c),
                                                            rel=1e-8)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(5)
        basis = eof_decompose(rng.normal(0, 1, (6, 40)))
        assert (np.diff(basis.eigenvalues) <= 1e-12).all()
        assert (basis.eigenvalues >= 0).all()


class TestLasso:
    def make_basis(self, d, seed=0):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(0, 1, (d, d)))
        mean = rng.normal(3, 1, d)
        vals = np.sort(rng.random(d))[::-1]
        return EofBasis(vectors=q, eigenvalues=vals, mean=mean)

    def test_zero_reg_exact_projection(self):
        basis = self.make_basis(6)
        rng = np.random.default_rng(1)
        x = rng.normal(0, 2, 6)
        coef = lasso_fit(x, basis, 0.0)
        recon = basis.mean + basis.vectors @ coef
        assert np.allclose(recon, x, atol=1e-10)
        assert np.allclose(coef, basis.vectors.T @ (x - basis.mean))

    def test_large_reg_all_zero(self):
        basis = self.make_basis(5)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 2, 5)
        proj = basis.vectors.T @ (x - basis.mean)
        reg = 2.0 * np.abs(proj).max() + 1e-9
        assert (lasso_fit(x, basis, reg) == 0.0).all()
        # just under the bound, something survives
        reg = 2.0 * np.abs(proj).max() * 0.99
        assert (lasso_fit(x, basis, reg) != 0.0).any()

    def test_sparsity_monotone_in_reg(self):
        basis = self.make_basis(8, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 3, 8)
        last = 9
        for reg in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            nz = int((lasso_fit(x, basis, reg) != 0).sum())
            assert nz <= last
            last = nz

    def test_kkt_conditions(self):
        basis = self.make_basis(7, seed=4)
        rng = np.random.default_rng(4)
        for trial in range(10):
            x = rng.normal(0, 2, 7)
            reg = float(rng.random() * 4)
            coef = lasso_fit(x, basis, reg)
            resid = (x - basis.mean) - basis.vectors @ coef
            grad = -2.0 * (basis.vectors.T @ resid)
            for j in range(7):
                if coef[j] > 0:
                    assert abs(grad[j] + reg) < 1e-6
                elif coef[j] < 0:
                    assert abs(grad[j] - reg) < 1e-6
                else:
                    assert abs(grad[j]) <= reg + 1e-6

    def test_negative_reg_rejected(self):
        basis = self.make_basis(3)
        with pytest.raises(ValidationError):
            lasso_fit(np.zeros(3), basis, -1.0)


class TestClusterMeans:
    def test_means_by_label(self):
        v = np.array([[0.0, 0], [2.0, 2], [4.0, 0]])
        labels = np.array([1, 2, 1])
        centers = cluster_means(v, labels)
        assert np.allclose(centers[0], [2.0, 0.0])
        assert np.allclose(centers[1], [2.0, 2.0])
