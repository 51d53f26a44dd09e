"""k-means, spectral clustering, EOF decomposition, LASSO fits."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rainpatterns import ValidationError
from rainpatterns.baselines import (EofBasis, _median, _sq_dists,
                                    cluster_means,
                                    derive_state_patterns, eof_decompose,
                                    factor_embedding, kmeans, lasso_fit,
                                    laplacian_embedding, similarity_euclidean,
                                    similarity_hamming, spectral_cluster)
from rainpatterns.model import HIGH, LOW, matches


def dense_spectral(w, k, seed=0):
    """NJW on a dense similarity W, as spect1 runs it: the Laplacian's
    eigenvectors, with L built in W's array (W is overwritten)."""
    return spectral_cluster(laplacian_embedding(w, k), k, seed=seed)


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
        k = res.labels.max()
        assert sorted(np.unique(res.labels)) == list(range(1, k + 1))
        assert res.centers.shape[0] == k

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
        assert res.labels.max() >= 1

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

    def test_euclidean_zero_median_distance_takes_tau_one(self):
        # 6 of the 10 distances are 0, so the median is 0 and tau falls
        # back to 1: the far pair weighs exp(-1), not exp(-inf) or nan
        v = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
        w = similarity_euclidean(v)
        assert w[0, 4] == math.exp(-1.0)
        assert w[0, 1] == 1.0

    @staticmethod
    def old_euclidean(vectors, tau):
        """The similarity as it was built before it ran in place: the
        distance, its scaled negative, its exponential and the symmetrised
        sum each a new array."""
        vectors = np.asarray(vectors, dtype=float)
        sq = (vectors * vectors).sum(axis=1)
        dist = np.sqrt(_sq_dists(vectors, sq, vectors))
        if tau is None:
            off = dist[np.triu_indices(len(dist), k=1)]
            tau = _median(off) if off.size else 1.0
            if tau <= 0:
                tau = 1.0
        w = np.exp(-dist / tau)
        return (w + w.T) / 2.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5])
                     | st.floats(-1e6, 1e6), min_size=n * d,
                     max_size=n * d).map(
                lambda v: np.array(v).reshape(n, d)),
            st.none() | st.sampled_from([1.0, 3.7])
            | st.floats(1e-3, 1e3)))))
    @example((np.zeros((4, 2)), None)).via("median distance 0")
    def test_euclidean_is_the_old_formula_bit_for_bit(self, case):
        vectors, tau = case
        got = similarity_euclidean(vectors, tau)
        assert got.view(np.uint64).tobytes() \
            == self.old_euclidean(vectors, tau).view(np.uint64).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 5), st.booleans(),
           st.none() | st.floats(1e-3, 1e3), st.floats(-3, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_euclidean_is_symmetric_and_in_the_unit_interval(
            self, n, d, transposed, tau, log_scale, seed):
        # what the Laplacian's checks guarded, now the similarity's own
        # property: exactly symmetric with no symmetrising pass, and in
        # [0, 1], for C-order rows and for a transposed view (the CLI
        # passes rain.T)
        v = np.random.default_rng(seed).normal(0, 10.0 ** log_scale, (d, n))
        w = similarity_euclidean(v.T if transposed else v.T.copy(), tau)
        assert w.shape == (n, n)
        assert np.array_equal(w, w.T)
        assert ((w >= 0) & (w <= 1)).all()

    def test_hamming_cases(self):
        # the similarity is the product of its (T, S+1) factor with itself
        z = np.array([[1, 1, 2], [1, 1, 2], [2, 2, 1], [1, 2, 2]],
                     dtype=np.int8)
        b = similarity_hamming(z)
        assert b.shape == (4, 4)
        w = b @ b.T
        assert w[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert w[0, 2] == pytest.approx(0.0, abs=1e-14)   # complements
        assert w[0, 3] == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n,d", [(1, 1), (6, 1), (7, 3), (20, 17),
                                     (33, 64)])
    def test_hamming_matches_definition(self, n, d):
        rng = np.random.default_rng(n * d)
        z = rng.choice(np.array([HIGH, LOW], dtype=np.int8), (n, d))
        want = np.array([[np.count_nonzero(a == b) / d for b in z] for a in z])
        b = similarity_hamming(z)
        assert b.shape == (n, d + 1)
        assert np.abs(b @ b.T - want).max() <= 1e-14


class TestSpectral:
    def test_block_diagonal_recovery(self):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        res = dense_spectral(w, 2)
        assert len(set(res.labels[:3])) == 1
        assert len(set(res.labels[3:])) == 1
        assert res.labels[0] != res.labels[3]

    def test_k_one(self):
        rng = np.random.default_rng(0)
        w = rng.random((5, 5))
        w = (w + w.T) / 2
        res = dense_spectral(w, 1)
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
        res = dense_spectral(w.copy(), 2)
        lab = res.labels == 1
        got = ncut(lab)
        # contiguous halves: one boundary run, and the cut beats every
        # fragmented bipartition while sitting near the enumerated optimum
        # (the ring's degenerate eigenpair leaves the exact split phase free)
        assert runs(lab) == 1
        assert got < best_fragmented
        assert got <= best * 1.1

    def test_validation(self):
        # k's checks belong to the clustering, for either embedding
        for k in (0, 4):
            with pytest.raises(ValidationError, match="k must be in 1..3"):
                dense_spectral(np.ones((3, 3)), k)
            with pytest.raises(ValidationError, match="k must be in 1..3"):
                spectral_cluster(factor_embedding(np.ones((3, 2)), k), k, 0)

    @staticmethod
    def old_laplacian(w):
        """(L + L.T) / 2 of L = I − D^-½ W D^-½, as the Laplacian was built
        before it had a function of its own."""
        n = w.shape[0]
        deg = w.sum(axis=1)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)),
                            0.0)
        lap = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
        return (lap + lap.T) / 2.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 3.0])
                 | st.floats(0.0, 1e6), min_size=n * n, max_size=n * n),
        st.sets(st.integers(0, n - 1)))))
    def test_laplacian_is_the_old_formula_bit_for_bit(self, case):
        # the eigenvectors of L built in W's array are those of the old
        # formula's L, byte for byte, so L is too: signed zeros included
        # (0 − x where np.negative(x) would give -0.0), and rows of zero
        # degree (isolated vertices) keep their unit diagonal
        values, isolated = case
        n = math.isqrt(len(values))
        w = np.array(values).reshape(n, n)
        w = np.where(np.tri(n, dtype=bool), w, w.T)  # keeps -0.0
        w[list(isolated)] = w[:, list(isolated)] = 0.0
        got = laplacian_embedding(w.copy(), n)
        want = np.linalg.eigh(self.old_laplacian(w))[1]
        assert got.view(np.uint64).tobytes() \
            == want.view(np.uint64).tobytes()


class TestFactorEmbedding:
    """spect2's embedding from the (T, S+1) factor B of W = B Bᵀ, against
    the dense chain that built W itself (the oracle)."""

    @staticmethod
    def old_hamming(z):
        """The T×T similarity as it was built before the factor: the
        agreements of every pair of rows, exact in integers, over S."""
        same = matches(z)
        same /= z.shape[1]
        return same

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 40), st.integers(0, 2 ** 32 - 1),
           st.data())
    def test_projector_is_the_dense_laplacians(self, s, t, seed, data):
        rng = np.random.default_rng(seed)
        z = rng.choice(np.array([HIGH, LOW], dtype=np.int8), (t, s))
        k = data.draw(st.integers(1, min(s + 1, t)))
        # the oracle's W is exact: b @ b.T can put a complement pair's 0
        # at -1e-17
        w = self.old_hamming(z)
        vals = np.linalg.eigvalsh(TestSpectral.old_laplacian(w))
        # the k lowest eigenvectors span a well-defined subspace only when
        # an eigengap follows them
        assume(k == t or vals[k] - vals[k - 1] > 1e-4)
        want = laplacian_embedding(w, k)
        got = factor_embedding(similarity_hamming(z), k)
        # the projectors U Uᵀ, which no sign or basis choice changes
        assert np.abs(got @ got.T - want @ want.T).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [3, 6])
    def test_labels_are_the_dense_chains(self, seed, k):
        # planted day patterns with 10% of the cells flipped
        rng = np.random.default_rng(seed)
        pats = rng.choice(np.array([HIGH, LOW], dtype=np.int8), (k, 30))
        z = pats[rng.integers(k, size=120)]
        flip = rng.random(z.shape) < 0.1
        z = np.where(flip, HIGH + LOW - z, z).astype(np.int8)
        got = spectral_cluster(factor_embedding(similarity_hamming(z), k), k)
        want = dense_spectral(self.old_hamming(z), k)
        assert np.array_equal(got.labels, want.labels)

    def test_k_above_the_factor_rank(self):
        # S = 2 gives a rank-3 factor, so k = 5 needs two null-space
        # columns: the QR of A V's two zero-padded columns supplies them,
        # as eigh's eigenvectors did
        rng = np.random.default_rng(0)
        z = rng.choice(np.array([HIGH, LOW], dtype=np.int8), (20, 2))
        emb = factor_embedding(similarity_hamming(z), 5)
        assert emb.shape == (20, 5)
        assert np.allclose(emb.T @ emb, np.eye(5), atol=1e-10)
        res = spectral_cluster(emb, 5, seed=0)
        assert res.labels.shape == (20,)
        assert res.labels.min() == 1
        assert set(res.labels.tolist()) == set(range(1, res.labels.max() + 1))

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_rank_deficient_record(self, k):
        # every day identical: the factor has rank 1 and A V's columns past
        # the first are round-off, which the QR still makes orthonormal
        row = np.random.default_rng(1).choice(
            np.array([HIGH, LOW], dtype=np.int8), 8)
        emb = factor_embedding(similarity_hamming(np.tile(row, (15, 1))), k)
        assert emb.shape == (15, k)
        assert np.isfinite(emb).all()
        assert np.allclose(emb.T @ emb, np.eye(k), atol=1e-10)
        res = spectral_cluster(emb, k, seed=0)
        assert res.labels.shape == (15,)
        assert set(res.labels.tolist()) == set(range(1, res.labels.max() + 1))


class TestEof:
    def test_two_days_rank_one(self):
        rng = np.random.default_rng(0)
        drvs = rng.normal(5, 2, (6, 2))
        basis = eof_decompose(drvs)
        assert (basis.eigenvalues > 1e-10).sum() == 1

    def test_single_day_has_zero_covariance(self):
        # one day has no n-1 covariance: it is zero, not 0/0, and the day
        # itself is the mean
        drvs = np.array([[3.0], [1.0], [2.0]])
        basis = eof_decompose(drvs)
        assert (basis.eigenvalues == 0.0).all()
        assert np.array_equal(basis.mean, drvs[:, 0])
        assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(3))

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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.5, 2.0]))
    def test_is_the_soft_threshold_bit_for_bit(self, d, n, seed, reg):
        # the in-place threshold has the IEEE operations of the formula
        basis = self.make_basis(d, seed=seed)
        x = np.random.default_rng(seed).normal(3, 2, (d, n))
        proj = basis.vectors.T @ (x.T - basis.mean).T
        want = np.sign(proj) * np.maximum(np.abs(proj) - reg / 2, 0)
        assert lasso_fit(x, basis, reg).tobytes() == want.tobytes()

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
