import itertools
import struct

import numpy as np
import pytest

from ttnpe import solver
from ttnpe.tensor_core import left_unfold
from ttnpe.tt_subspace import TTChain, left_orthogonalize


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">iiii", 0x803, n, rows, cols) + images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">ii", 0x801, len(labels)) + labels.tobytes())


def spy_square_eigh(monkeypatch, d, fail_first=False):
    """The inputs of every ``np.linalg.eigh`` call on a d x d array; with
    ``fail_first`` the first such call raises LinAlgError."""
    calls, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        if np.shape(a) == (d, d):
            calls.append(a)
            if fail_first and len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def spy_graph_searches(monkeypatch, first=None):
    """The shape of D in every KNN graph search of a fit, ``solver.knn_graph``
    (the name ``fit`` and ``SplitCache`` look up); with ``first``, the first
    search returns ``first(knn_graph, d_mat, k)`` instead."""
    calls, search = [], solver.knn_graph

    def spy(d_mat, k):
        calls.append(d_mat.shape)
        if first is not None and len(calls) == 1:
            return first(search, d_mat, k)
        return search(d_mat, k)

    monkeypatch.setattr(solver, "knn_graph", spy)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def brute_merge(a, b, g1, g2):
    """Naive loop implementation of the tensor merging product (test oracle)."""
    a = np.asarray(a)
    b = np.asarray(b)
    free_a = [m for m in range(a.ndim) if m + 1 not in g1]
    free_b = [m for m in range(b.ndim) if m + 1 not in g2]
    out_shape = [a.shape[m] for m in free_a] + [b.shape[m] for m in free_b]
    out = np.zeros(out_shape if out_shape else (1,))
    shared_dims = [a.shape[p - 1] for p in g1]
    for free_idx in itertools.product(*(range(s) for s in out_shape)):
        ia_free = free_idx[:len(free_a)]
        ib_free = free_idx[len(free_a):]
        total = 0.0
        for shared in itertools.product(*(range(s) for s in shared_dims)):
            ia = [0] * a.ndim
            ib = [0] * b.ndim
            for m, v in zip(free_a, ia_free):
                ia[m] = v
            for m, v in zip(free_b, ib_free):
                ib[m] = v
            for p, q, v in zip(g1, g2, shared):
                ia[p - 1] = v
                ib[q - 1] = v
            total += a[tuple(ia)] * b[tuple(ib)]
        if out_shape:
            out[free_idx] = total
        else:
            out[0] = total
    return out if out_shape else out.reshape(())


def random_orthonormal_chain(rng, dims, ranks):
    """Random TT chain with left-orthonormal cores and the given bond ranks."""
    cores = []
    r_prev = 1
    for i_k, r_k in zip(dims, ranks):
        cores.append(rng.standard_normal((r_prev, i_k, r_k)))
        r_prev = r_k
    return left_orthogonalize(TTChain(cores))


def brute_core_form(chain, z, k):
    """Kronecker oracle for core k's quadratic form, J^T (I_{R_n} (x) Z) J.

    J = Q^T (x) P maps vec(L(U_k)) to vec(E) for E = P L(U_k) Q, with
    P = I_{I_k} (x) prefix and Q the suffix's right unfolding, each built
    from explicit Kronecker products. For k = n, Q = I and the form is
    I_{R_n} (x) B.
    """
    cores = chain.cores
    prefix = np.ones((1, 1))
    for core in cores[:k - 1]:
        prefix = np.kron(np.eye(core.shape[1]), prefix) @ left_unfold(core)
    q = np.eye(chain.embedding_dim)
    for core in reversed(cores[k:]):
        q = core.reshape(core.shape[0], -1, order="F") @ np.kron(q, np.eye(core.shape[1]))
    p = np.kron(np.eye(cores[k - 1].shape[1]), prefix)
    j = np.kron(q.T, p)
    return j.T @ np.kron(np.eye(chain.embedding_dim), z) @ j


def brute_tt_svd(dataset, tau, rank_cap=None):
    """Sequential TT-SVD by full SVDs of each unfolding (test oracle).

    Keeps sigma_j >= tau * sigma_max at each split (at least one, then
    capped), makes the largest-magnitude entry of each kept left singular
    vector positive, and carries s_r V_r^T into the next split.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    n = dataset.ndim - 1
    dims = dataset.shape[:n]
    if rank_cap is None or np.isscalar(rank_cap):
        caps = [rank_cap] * n
    else:
        caps = list(rank_cap)
    cores = []
    r_prev = 1
    mat = dataset.reshape(dims[0], -1, order="F")
    for k in range(n):
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = max(1, int(np.count_nonzero(s >= tau * s[0]))) if s[0] > 0 else 1
        if caps[k] is not None:
            r = min(r, max(1, int(caps[k])))
        u, vt = u[:, :r].copy(), vt[:r].copy()
        for c in range(r):
            j = int(np.argmax(np.abs(u[:, c])))
            if u[j, c] < 0:
                u[:, c], vt[c] = -u[:, c], -vt[c]
        cores.append(u.reshape(r_prev, dims[k], r, order="F"))
        if k + 1 < n:
            mat = (s[:r, None] * vt).reshape(r * dims[k + 1], -1, order="F")
        r_prev = r
    return TTChain(cores, tau=float(tau))


def random_psd(rng, d, rank=None):
    y = rng.standard_normal((d, rank or d))
    z = y @ y.T
    return (z + z.T) / 2.0


def feasible_ranks(dims, target):
    """Clip a uniform target rank to TT feasibility for the given dims."""
    n = len(dims)
    ranks = []
    for k in range(1, n + 1):
        left = int(np.prod(dims[:k]))
        ranks.append(min(target, left))
    for k in range(n - 2, -1, -1):
        ranks[k] = min(ranks[k], ranks[k + 1] * dims[k + 1])
    return ranks


def brute_pairwise_sq_dists(d_mat):
    """Per-sample loop of squared distances between columns, over C-contiguous rows (test oracle)."""
    points = np.ascontiguousarray(np.asarray(d_mat).T, dtype=np.float64)
    n = points.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        diff = points - points[i]
        out[i] = np.einsum("ij,ij->i", diff, diff)
        out[i, i] = 0.0
    return out


def brute_knn_sets(sq_dists, k):
    """Per-row full sort for the K nearest, self excluded, ties to the smaller index (test oracle)."""
    n = sq_dists.shape[0]
    neighbors = np.empty((n, k), dtype=np.intp)
    idx = np.arange(n)
    for i in range(n):
        row = sq_dists[i].copy()
        row[i] = np.inf
        neighbors[i] = np.lexsort((idx, row))[:k]
    return neighbors


def brute_knn_classify(train_coords, train_labels, test_coords, k):
    """Per-query loop K-NN vote over C-contiguous rows (test oracle).

    Returns (predictions, neighbors, neighbor squared distances), neighbors
    nearest first with ties to the smaller index; vote ties go to the tied
    class of the nearest neighbor.
    """
    train_coords = np.ascontiguousarray(train_coords, dtype=np.float64)
    test_coords = np.ascontiguousarray(test_coords, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    idx = np.arange(train_coords.shape[0])
    n_test = test_coords.shape[0]
    preds = np.empty(n_test, dtype=train_labels.dtype)
    neighbors = np.empty((n_test, k), dtype=np.intp)
    nbr_dists = np.empty((n_test, k))
    for t in range(n_test):
        diff = train_coords - test_coords[t]
        dists = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((idx, dists))[:k]
        neighbors[t] = order
        nbr_dists[t] = dists[order]
        votes = train_labels[order]
        labels, counts = np.unique(votes, return_counts=True)
        best = counts.max()
        tied = set(labels[counts == best])
        if len(tied) == 1:
            preds[t] = tied.pop()
        else:
            for neighbor_label in votes:
                if neighbor_label in tied:
                    preds[t] = neighbor_label
                    break
    return preds, neighbors, nbr_dists
