"""K-nearest-neighbor affinity graph, the row-normalized weight matrix S,
the residual matrix Y, and the Gram target Z = Y Y^T.

Samples enter as columns of the d x N data matrix D (each column a
vectorized tensor). Weight matrices are kept dense: the downstream Gram
target is a dense d x d matrix anyway at the problem scales this library
targets.

Neighbors are found without a per-sample loop: ``pairwise_sq_dists``
screens all pairs with the Gram identity ||a||^2 + ||b||^2 - 2 a^T b, whose
rounding error is at most 5 g (||a||^2 + max_j ||b_j||^2) against the
per-column reference distance, g = (d+2) u / (1 - (d+2) u) for unit
roundoff u (see ``ttnpe.nearest.screen_slack``). ``knn_sets`` recomputes
only the columns within twice that bound of each row's K-th screened
distance, with the reference formula, and ranks them by (distance, index).
The KNN sets and the distances the affinity reads are therefore exactly
those of the per-column loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ttnpe.errors import ConfigError, DataError
from ttnpe.nearest import (
    k_nearest,
    reference_sq_dists,
    row_blocks,
    screen_slack,
    screen_sq_dists,
    sq_norms,
)


@dataclass
class AffinityConfig:
    """Graph parameters: K neighbors and heat-kernel scale epsilon.

    ``epsilon`` is either a fixed positive scale or the policy
    "median-knn-sq-dist": the median squared Frobenius distance over all
    retained (i, j in knn(i)) pairs.
    """

    k_neighbors: int
    epsilon: float | str = "median-knn-sq-dist"

    def __post_init__(self):
        k = self.k_neighbors
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"k_neighbors must be an int >= 1, got {k!r}")
        if isinstance(self.epsilon, str):
            if self.epsilon not in ("median-knn-sq-dist", "median"):
                raise ValueError(f"unknown epsilon policy {self.epsilon!r}")
        elif not 0.0 < self.epsilon < float("inf"):
            raise ValueError("epsilon must be positive and finite")


def pairwise_sq_dists(d_mat: np.ndarray) -> np.ndarray:
    """Screen of the squared Euclidean distances between columns of ``d_mat``.

    Computed from the Gram identity ||a||^2 + ||b||^2 - 2 a^T b with one
    matrix product, clamped at zero, with an exactly zero diagonal. Each
    entry is within ``nearest.screen_slack`` of the per-column reference
    ``einsum("dj,dj->j", diff, diff)`` with ``diff = d_mat - d_mat[:, i]``;
    ``knn_sets`` given ``d_mat`` re-ranks on the reference values.
    """
    points = np.asarray(d_mat, dtype=np.float64).T
    norms = sq_norms(points)
    out = screen_sq_dists(points, norms, points, norms)
    np.fill_diagonal(out, 0.0)
    return out


def knn_sets(sq_dists: np.ndarray, k: int, d_mat: np.ndarray | None = None) -> np.ndarray:
    """Indices of the K nearest neighbors of each sample, self excluded.

    Ties are broken by smaller index. Returns an (N, K) integer array.

    Without ``d_mat`` the given distances are ranked as they are. With
    ``d_mat``, ``sq_dists`` is read as the ``pairwise_sq_dists`` screen:
    each row's candidate window (every column within twice the screen's
    rounding bound of its K-th smallest entry) is recomputed with the
    reference per-column distance and ranked on those values, and the
    entries of ``sq_dists`` at the returned neighbors are overwritten with
    their reference values.
    """
    n = sq_dists.shape[0]
    if k >= n:
        raise ConfigError(f"K must be < number of samples, got K={k}, N={n}")
    if d_mat is not None:
        points = np.asarray(d_mat, dtype=np.float64).T
        norms = sq_norms(points)
        slack = screen_slack(norms, norms, points.shape[1])
    neighbors = np.empty((n, k), dtype=np.intp)
    for block in row_blocks(n, n):
        rows = np.arange(n)[block]
        screen = sq_dists[block].copy()
        screen[np.arange(len(rows)), rows] = np.inf
        if d_mat is None:
            neighbors[block], _ = k_nearest(screen, k, np.zeros(len(rows)),
                                            lambda r, c: sq_dists[rows[r], c])
        else:
            neighbors[block], dists = k_nearest(
                screen, k, slack[block],
                lambda r, c: reference_sq_dists(points, points[block], c, r))
            sq_dists[rows[:, None], neighbors[block]] = dists
    return neighbors


def resolve_epsilon(sq_dists: np.ndarray, neighbors: np.ndarray, config: AffinityConfig) -> float:
    """Fixed epsilon, or the median squared distance over retained KNN pairs."""
    if not isinstance(config.epsilon, str):
        return float(config.epsilon)
    knn_d = sq_dists[np.arange(sq_dists.shape[0])[:, None], neighbors]
    eps = float(np.median(knn_d))
    if eps <= 0:
        raise DataError("median KNN distance is zero; supply an explicit epsilon")
    return eps


def affinity(sq_dists: np.ndarray, neighbors: np.ndarray, epsilon: float) -> np.ndarray:
    """Unnormalized heat-kernel affinity F with F_ij = exp(-d_ij^2/eps) on KNN pairs."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = sq_dists.shape[0]
    f = np.zeros((n, n))
    rows = np.repeat(np.arange(n), neighbors.shape[1])
    cols = neighbors.reshape(-1)
    f[rows, cols] = np.exp(-sq_dists[rows, cols] / epsilon)
    np.fill_diagonal(f, 0.0)
    return f


def symmetrize_normalize(f: np.ndarray) -> np.ndarray:
    """S = F + F^T with each row divided by its sum."""
    s = f + f.T
    row_sums = s.sum(axis=1)
    if np.any(row_sums <= 0):
        raise DataError("weight matrix has a zero row sum; graph is disconnected at a sample")
    return s / row_sums[:, None]


def build_weight_matrix(d_mat: np.ndarray, config: AffinityConfig) -> np.ndarray:
    """Full pipeline: KNN sets -> affinity F -> row-normalized S."""
    sq = pairwise_sq_dists(d_mat)
    neighbors = knn_sets(sq, config.k_neighbors, d_mat)
    eps = resolve_epsilon(sq, neighbors, config)
    return symmetrize_normalize(affinity(sq, neighbors, eps))


def build_residual(d_mat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Y = D - D S^T: each column is a sample minus its weighted neighbors."""
    return d_mat - d_mat @ s.T


def build_gram(y: np.ndarray) -> np.ndarray:
    """Z = Y Y^T, explicitly symmetrized to kill roundoff asymmetry."""
    z = y @ y.T
    return (z + z.T) / 2.0
