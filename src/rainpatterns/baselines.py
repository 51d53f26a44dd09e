"""Reference methods: k-means, spectral clustering, EOF basis, LASSO fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import HIGH, LOW

# k-means runs this many seeded restarts and keeps the best; each runs at
# most this many Lloyd iterations
KMEANS_RESTARTS = 10
LLOYD_MAX_ITER = 500


@dataclass
class ClusteringResult:
    """Dense 1-based labels with optional cluster centers."""

    labels: np.ndarray
    centers: np.ndarray | None = None
    objective: float | None = None
    objective_history: np.ndarray | None = None


@dataclass
class EofBasis:
    """Orthonormal eigenvectors of the sample covariance, variance-ordered."""

    vectors: np.ndarray      # (D, D), columns are modes
    eigenvalues: np.ndarray  # (D,), descending, non-negative
    mean: np.ndarray         # (D,)


def _sq_dists(vectors: np.ndarray, sq: np.ndarray,
              centers: np.ndarray) -> np.ndarray:
    """Squared distance of every vector to every center, (n, k).

    d² = (|x|² + |c|²) − 2·x·cᵀ from one product ``vectors @ centers.T``,
    with ``sq`` the rows' squared norms, summed in this order (the Euclidean
    similarity's bits depend on it).  The terms cancel far from the origin,
    and round-off can leave a distance near 0 slightly negative, so it is
    clamped at 0.
    """
    d2 = sq[:, None] + (centers * centers).sum(axis=1)
    d2 -= 2.0 * (vectors @ centers.T)
    return np.maximum(d2, 0.0, out=d2)


def _plusplus_seeds(vectors: np.ndarray, sq: np.ndarray, k: int,
                    rng) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = vectors.shape[0]
    centers = np.empty((k, vectors.shape[1]))
    centers[0] = vectors[rng.integers(n)]
    d2 = _sq_dists(vectors, sq, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = vectors[rng.integers(n)]
        else:
            cum = np.cumsum(d2)
            centers[j] = vectors[np.searchsorted(cum, rng.random() * total)]
        d2 = np.minimum(d2, _sq_dists(vectors, sq, centers[j:j + 1])[:, 0])
    return centers


def _lloyd(vectors: np.ndarray, sq: np.ndarray, centers: np.ndarray):
    """Lloyd iterations from ``centers``: ``(labels, centers, history)``.

    ``vectors`` is C-contiguous and ``sq`` holds its rows' squared norms.
    Each iteration takes its distances from one matrix product
    (``_sq_dists``) and appends their sum over the assigned centers to
    ``history``.  The final entry, which ranks the restarts, is computed
    exactly as Σ‖x − c_label‖², so restarts that end in the same partition
    tie and the first of them wins.
    """
    n, k = vectors.shape[0], centers.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history = []
    for _ in range(LLOYD_MAX_ITER):
        d2 = _sq_dists(vectors, sq, centers)
        new_labels = d2.argmin(axis=1)
        cost = d2[np.arange(n), new_labels]
        history.append(float(cost.sum()))
        for j in range(k):
            sel = new_labels == j
            if sel.any():
                centers[j] = vectors[sel].mean(axis=0)
            else:
                # empty cluster: re-seed at the point farthest from its center
                far = int(cost.argmax())
                centers[j] = vectors[far]
                new_labels[far] = j
                cost[far] = -1.0  # keep later reseeds off this point
        if (new_labels == labels).all() and len(history) > 1:
            labels = new_labels
            break
        labels = new_labels
    labels = _sq_dists(vectors, sq, centers).argmin(axis=1)
    diff = vectors - centers[labels]
    history.append(float(np.einsum("ij,ij->", diff, diff)))
    return labels, centers, history


def kmeans(vectors: np.ndarray, k: int, seed: int = 0) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding, best of ``KMEANS_RESTARTS``.

    One matrix product per iteration gives every distance; see ``_lloyd``.
    """
    # one C-contiguous copy: the per-cluster means gather rows from it
    vectors = np.ascontiguousarray(vectors, dtype=float)
    n = vectors.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in 1..{n}, got {k}")
    sq = (vectors * vectors).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centers = _plusplus_seeds(vectors, sq, k, rng)
        labels, centers, history = _lloyd(vectors, sq, centers)
        if best is None or history[-1] < best[2][-1]:
            best = (labels, centers, history)
    labels, centers, history = best
    # drop empty clusters (possible only with duplicate points), keep dense ids
    used, labels = np.unique(labels, return_inverse=True)
    return ClusteringResult(labels=labels + 1, centers=centers[used],
                            objective=history[-1],
                            objective_history=np.array(history))


def cluster_means(vectors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean vector of each cluster, rows ordered by label."""
    k = int(labels.max())
    out = np.empty((k, vectors.shape[1]))
    for j in range(1, k + 1):
        out[j - 1] = vectors[labels == j].mean(axis=0)
    return out


def derive_state_patterns(centers: np.ndarray,
                          column_means: np.ndarray) -> np.ndarray:
    """Binarise cluster centers against per-column means (ties go low)."""
    return np.where(centers > column_means[None, :], HIGH, LOW).astype(np.int8)


def _median(v: np.ndarray) -> float:
    """``np.median`` of a non-empty float array, sorted in place, without its
    import of ``numpy.ma``: nan if a value is nan, else the middle value or
    the middle two's sum halved, which overflows as np.median's does."""
    v.sort()
    m = len(v) // 2
    if np.isnan(v[-1]):
        return float(v[-1])
    return float(v[m]) if len(v) % 2 else float((v[m - 1] + v[m]) / 2)


def similarity_euclidean(vectors: np.ndarray, tau: float | None = None) -> np.ndarray:
    """exp(-distance / tau), in [0, 1] and exactly symmetric, as ``_sq_dists``
    of the vectors with themselves is; tau defaults to the median distance,
    or 1 where that is 0.  Each step runs in place in the one T×T array of
    distances, with the IEEE operations of the formula."""
    vectors = np.asarray(vectors, dtype=float)
    sq = (vectors * vectors).sum(axis=1)
    w = _sq_dists(vectors, sq, vectors)
    np.sqrt(w, out=w)
    if tau is None:
        tau = 1.0 if len(w) < 2 else _median(
            w[np.tri(len(w), k=-1, dtype=bool).T])
        if tau <= 0:
            tau = 1.0
    np.negative(w, out=w)
    w /= tau
    return np.exp(w, out=w)


def similarity_hamming(binary_vectors: np.ndarray) -> np.ndarray:
    """The (T, S+1) factor B of W = B Bᵀ, 1 − the normalised Hamming distance
    of T HIGH/LOW state rows: ±1 rows g agree on (S + g·g′)/2 of S
    locations, so B = [g, √S·1]/√(2S), and W is never built."""
    high = np.asarray(binary_vectors) == HIGH
    factor = np.full((high.shape[0], high.shape[1] + 1), np.sqrt(0.5))
    factor[:, :-1] = np.where(high, 1.0, -1.0) / np.sqrt(2.0 * high.shape[1])
    return factor


def laplacian_embedding(similarity: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvectors of L = I − D^-½ W D^-½ for a float,
    symmetric, non-negative W (``similarity_euclidean``'s).  L is built as
    (L + Lᵀ)/2 in W's own array, which it overwrites (0 − x keeps a zero
    positive); a row of zero degree keeps its unit diagonal."""
    lap = similarity
    deg = lap.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap *= inv_sqrt[:, None]
    lap *= inv_sqrt
    diag = 1.0 - lap.diagonal()
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, diag)
    lap += lap.T
    lap /= 2.0
    return np.linalg.eigh(lap)[1][:, :k]


def factor_embedding(factor: np.ndarray, k: int) -> np.ndarray:
    """``laplacian_embedding`` of W = B Bᵀ from its (T, r) factor B: with
    D = B(Bᵀ1) (> 0 for W ≥ 0, as W_ii = |b_i|² > 0), L = I − A Aᵀ, A = D^-½ B,
    so L's k lowest eigenvectors are A's k leading left singular vectors.
    They are the QR of A V, V the k leading eigenvectors of the r × r Gram
    AᵀA (the method of snapshots), zero-padded for k > r: where A V is 0 the
    QR's orthonormal columns span the rest, L's null space."""
    a = factor / np.sqrt(factor @ factor.sum(axis=0))[:, None]
    lead = np.linalg.eigh(a.T @ a)[1][:, ::-1][:, :k]
    return np.linalg.qr(a @ np.pad(lead, ((0, 0), (0, k - lead.shape[1]))))[0]


def spectral_cluster(embedding: np.ndarray, k: int, seed: int = 0) -> ClusteringResult:
    """Ng, Jordan & Weiss (NIPS 2001): k-means of an embedding's unit rows."""
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    emb = np.divide(embedding, norms, out=embedding.copy(), where=norms > 0)
    return ClusteringResult(labels=kmeans(emb, k, seed=seed).labels)


def eof_decompose(drvs: np.ndarray) -> EofBasis:
    """Eigendecompose the spatial sample covariance of the daily vectors.

    ``drvs`` is the (locations x days) matrix; covariance is taken over days
    with the n-1 convention.  Eigenvalues come out descending with tiny
    negative round-off clipped to zero.
    """
    x = np.asarray(drvs, dtype=float)
    mean = x.mean(axis=1)
    if x.shape[1] > 1:
        anom = x - mean[:, None]
        cov = anom @ anom.T / (x.shape[1] - 1)
    else:
        cov = np.zeros((x.shape[0], x.shape[0]))
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return EofBasis(vectors=vecs[:, order],
                    eigenvalues=np.maximum(vals[order], 0.0),
                    mean=mean)


def lasso_fit(target: np.ndarray, basis: EofBasis, reg: float) -> np.ndarray:
    """L1-regularised regression of daily vectors on the EOF modes.

    Minimises ||r - Φc||² + reg·||c||₁ for the mean-removed target r.  The
    basis Φ is orthonormal, so the solution is the soft-thresholded
    projection Φᵀr at reg/2 (Tibshirani, JRSS-B 1996).  ``target`` is one
    (S,) vector or an (S, n) matrix of n days, one column each; the
    coefficients come back in the same layout.
    """
    if reg < 0:
        raise ValidationError("regularisation weight must be non-negative")
    target = np.asarray(target, dtype=float)
    proj = basis.vectors.T @ (target.T - basis.mean).T
    coefs = np.maximum(np.abs(proj) - reg / 2.0, 0.0)
    return np.multiply(np.sign(proj, out=proj), coefs, out=coefs)
