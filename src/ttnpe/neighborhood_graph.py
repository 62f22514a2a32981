"""K-nearest-neighbor affinity graph, the row-normalized weight matrix S,
the residual matrix Y, and the Gram target Z = Y Y^T.

Samples enter as columns of the d x N data matrix D (each column a
vectorized tensor). Weight matrices are kept dense: the downstream Gram
target is a dense d x d matrix anyway at the problem scales this library
targets.

Neighbors come from ``ttnpe.nearest.knn_search``, the one KNN search the
classifier uses too: ``knn_graph`` searches each sample's K + 1 nearest
among all samples and drops the sample itself. The KNN sets and the
distances the heat kernel reads are exact on the search's reference
distance, whatever the memory layout of D, and no N x N distance matrix is
formed. S is the one N x N array of the graph stage: ``build_weight_matrix``
writes the heat-kernel weights of the (N, K) lists and their transposes
straight into it and normalizes its rows in place. It takes the lists from
the search it is given, ``knn_graph`` by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ttnpe.errors import ConfigError, DataError, is_number, require_int
from ttnpe.nearest import knn_search


@dataclass
class AffinityConfig:
    """Graph parameters: K neighbors and heat-kernel scale epsilon.

    ``epsilon`` is either a fixed positive scale or the policy "median":
    the median squared Frobenius distance over all retained (i, j in knn(i))
    pairs. Other values, and a K that is not an int >= 1, raise ConfigError.
    """

    k_neighbors: int
    epsilon: float | str = "median"

    def __post_init__(self):
        require_int(self.k_neighbors, "k_neighbors", 1)
        eps = self.epsilon
        if isinstance(eps, str):
            if eps != "median":
                raise ConfigError(f"unknown epsilon policy {eps!r}")
        elif not (is_number(eps) and 0.0 < eps < np.inf):
            raise ConfigError(f"epsilon must be positive and finite, got {eps!r}")


def check_graph_k(k: int, n: int) -> None:
    """Raise ConfigError unless k < n: each of n samples needs k other samples."""
    if k >= n:
        raise ConfigError(f"K must be < number of samples, got K={k}, N={n}")


def knn_graph(d_mat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The K nearest neighbors of each column of ``d_mat``, self excluded.

    Returns (N, K) neighbor indices, nearest first with ties to the smaller
    index, and their squared distances. A sample whose K + 1 nearest hold
    K + 1 exact copies at smaller indices is not among them; its row keeps
    the first K.
    """
    points = np.ascontiguousarray(np.asarray(d_mat).T, dtype=np.float64)  # knn_search copies neither set
    n = points.shape[0]
    check_graph_k(k, n)
    neighbors, sq_dists = knn_search(points, points, k + 1)
    drop = neighbors == np.arange(n)[:, None]
    drop[:, -1] |= ~drop.any(axis=1)
    return neighbors[~drop].reshape(n, k), sq_dists[~drop].reshape(n, k)


def resolve_epsilon(sq_dists: np.ndarray, config: AffinityConfig) -> float:
    """Fixed epsilon, or the median of the (N, K) retained KNN squared distances."""
    if not isinstance(config.epsilon, str):
        return float(config.epsilon)
    eps = float(np.median(sq_dists))
    if eps <= 0:
        raise DataError("median KNN distance is zero; supply an explicit epsilon")
    return eps


def build_weight_matrix(d_mat: np.ndarray, config: AffinityConfig, search=knn_graph) -> np.ndarray:
    """Row-normalized S from the KNN lists, built in one N x N array.

    ``search(d_mat, K)`` returns the (N, K) lists as :func:`knn_graph` does;
    ``solver.fit`` passes its ``SplitCache``'s, which searches each split
    once. The heat-kernel weights F_ij = exp(-d_ij^2 / eps) of the lists
    are written to (i, j) and then added at (j, i), so each entry holds
    F_ij + F_ji; each row is then divided by its sum in place. An eps so
    small that d_ij^2 / eps overflows gives F_ij = 0, silently, and so the
    zero-row-sum DataError.
    """
    neighbors, sq_dists = search(d_mat, config.k_neighbors)
    with np.errstate(over="ignore"):
        w = np.exp(-sq_dists / resolve_epsilon(sq_dists, config))
    n = neighbors.shape[0]
    rows = np.arange(n)[:, None]
    s = np.zeros((n, n))
    s[rows, neighbors] = w
    s[neighbors, rows] += w  # a row's neighbors are distinct, so no (j, i) repeats: no np.add.at
    row_sums = s.sum(axis=1)
    if np.any(row_sums <= 0):
        raise DataError("weight matrix has a zero row sum; graph is disconnected at a sample")
    s /= row_sums[:, None]
    return s


def build_residual(d_mat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Y = D - D S^T: each column is a sample minus its weighted neighbors."""
    y = d_mat @ s.T
    return np.subtract(d_mat, y, out=y)


def build_gram(y: np.ndarray) -> np.ndarray:
    """Z = Y Y^T, exactly symmetric: numpy computes a product with its own
    transpose as one triangle and mirrors it."""
    return y @ y.T
