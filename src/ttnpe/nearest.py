"""Exact K-nearest-neighbor search by Gram-identity screening and exact
re-ranking. ``knn_search`` is the one KNN driver of the library: the
affinity graph (``neighborhood_graph.knn_graph``) and the classifier
(``classifier.knn_classify``) both call it.

Points are the C-contiguous rows of 2-D arrays. The reference squared
distance from point p to anchor q reduces the row p - q by
``einsum("ij,ij->i")`` and depends on the values of p and q only. The
screen computes all squared distances of a block of anchors at once from
the Gram identity ||q||^2 + ||p||^2 - 2 q.p (one matrix product), clamped
at zero; it differs from the reference by at most ``screen_slack``. Every
point that can be among an anchor's K nearest therefore lies in the window
{j : screen_j <= screen_(K) + 2 * slack}, and only the window is re-ranked
on reference distances under the total order (distance, index).

A row whose slack is 0 keeps only its first K window columns. Since
``knn_search`` rejects training values too small for a positive slack, a
zero slack means every training point is the origin, so all of the row's
distances tie and (distance, index) order picks columns 0 ... K - 1.
"""

from __future__ import annotations

import numpy as np

from ttnpe.errors import ConfigError, DataError

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0
_SMALLEST_NORMAL = np.finfo(np.float64).tiny
# Entries per temporary block (1 MiB of float64): small next to the data,
# and large enough that the Python cost per block stays negligible.
BLOCK_ELEMENTS = 1 << 17


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices covering range(n_rows), each at most BLOCK_ELEMENTS / n_cols rows (>= 1)."""
    step = max(1, BLOCK_ELEMENTS // max(n_cols, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def sq_norms(points: np.ndarray, what: str) -> np.ndarray:
    """Squared row norms; DataError naming ``what`` unless 4 max ||x||^2 is finite (no NaN or inf)."""
    norms = np.einsum("ij,ij->i", points, points)
    if norms.size and not np.isfinite(4.0 * norms.max()):
        raise DataError(f"{what} contain NaN or infinite values, or values too large for squared distances")
    return norms


def screen_sq_dists(anchors: np.ndarray, anchor_norms: np.ndarray, points: np.ndarray,
                    point_norms: np.ndarray) -> np.ndarray:
    """Gram-identity squared distances, anchors x points, clamped at zero."""
    out = anchors @ points.T
    out *= -2.0
    out += anchor_norms[:, None]
    out += point_norms[None, :]
    return np.maximum(out, 0.0, out=out)


def screen_slack(anchor_norms: np.ndarray, point_norms: np.ndarray, n_features: int) -> np.ndarray:
    """Per-anchor bound on |screen - reference| over all of its points.

    With u the unit roundoff and g = m u / (1 - m u), m = n_features + 2,
    an inner product of f terms in any summation order errs by at most
    g_f sum|a_k b_k| (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1). Hence both the screen and the reference lie within
    2 g (||q||^2 + ||p||^2) of the true squared distance. The bound
    5 g (||q||^2 + max ||p||^2) on the computed norms covers their sum, the
    rounding of the norms themselves and of the window threshold.
    """
    m = n_features + 2
    g = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    return 5.0 * g * (anchor_norms + point_norms.max())


def reference_sq_dists(points: np.ndarray, anchors: np.ndarray, point_idx: np.ndarray,
                       anchor_idx: np.ndarray) -> np.ndarray:
    """Reference squared distances of the pairs (points[j], anchors[i]).

    ``points`` and ``anchors`` are C-contiguous rows. Each gathered
    difference row is reduced by ``einsum("ij,ij->i")`` as one contiguous
    vector, so a distance depends on the two rows' values only. Pairs are
    gathered in chunks of about BLOCK_ELEMENTS entries.
    """
    out = np.empty(len(point_idx))
    for chunk in row_blocks(len(point_idx), points.shape[1]):
        diff = points[point_idx[chunk]] - anchors[anchor_idx[chunk]]
        out[chunk] = np.einsum("ij,ij->i", diff, diff)
    return out


def mask_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a 2-D mask's true entries in row-major order, as
    ``np.nonzero`` gives them; its 2-D form is several times slower."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def k_nearest(screen: np.ndarray, k: int, slack: np.ndarray, reference):
    """Each screen row's k nearest columns under (reference distance, index).

    ``screen`` holds finite squared distances (``sq_norms`` bounds the norms)
    within ``slack[row]`` of the reference, so every window holds k or more.
    ``reference(rows, cols)`` returns the reference distances of the window
    pairs. A row whose slack is 0 keeps only its first k window columns: its
    screens all tie (see the module docstring). Returns the (rows, k)
    neighbor indices, nearest first, and their reference distances.
    """
    kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
    window = screen <= (kth + 2.0 * slack)[:, None]
    window[slack == 0.0, k:] = False
    counts = np.count_nonzero(window, axis=1)
    rows, cols = mask_pairs(window)
    dists = reference(rows, cols)
    order = np.lexsort((cols, dists, rows))
    picks = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return cols[picks], dists[picks]


def check_k(k: int, n_train: int) -> None:
    """Raise ConfigError unless 1 <= k <= n_train: a search needs k training points."""
    if not 1 <= k <= n_train:
        raise ConfigError(f"K must be <= number of training points, got K={k}, N={n_train}")


def knn_search(train_coords: np.ndarray, test_coords: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest training points of each test point, nearest first.

    Returns (n_test, k) training indices and their squared distances.
    Equal distances rank the smaller index first. Test points are screened
    in row blocks (``row_blocks``), so no temporary exceeds
    ``BLOCK_ELEMENTS`` entries. Both inputs are taken as C-contiguous rows
    and each query's candidate window is re-ranked on the reference distance
    over those rows, so the result is that of ranking every training point by
    that distance, whatever the memory layout of the inputs.

    Raises DataError unless both sets are 2-D with equal column counts, and
    when a training point is nonzero but the slack of a zero-norm query is
    below the smallest normal float: distances that small round in absolute
    terms the slack does not cover, and a zero slack must mean that every
    training point is the origin.
    """
    train_coords = np.ascontiguousarray(train_coords, dtype=np.float64)
    test_coords = np.ascontiguousarray(test_coords, dtype=np.float64)
    if train_coords.ndim != 2 or test_coords.ndim != 2 or train_coords.shape[1] != test_coords.shape[1]:
        raise DataError(f"point sets must be 2-D with equal column counts, got training shape "
                        f"{train_coords.shape} and test shape {test_coords.shape}")
    train_norms = sq_norms(train_coords, "training coordinates")
    test_norms = sq_norms(test_coords, "test coordinates")
    n_train = train_coords.shape[0]
    check_k(k, n_train)
    if screen_slack(0.0, train_norms, train_coords.shape[1]) < _SMALLEST_NORMAL and train_coords.any():
        raise DataError("sample values are too small for exact squared distances")
    n_test = test_coords.shape[0]
    neighbors = np.empty((n_test, k), dtype=np.intp)
    dists = np.empty((n_test, k))
    for block in row_blocks(n_test, n_train):
        queries = test_coords[block]
        screen = screen_sq_dists(queries, test_norms[block], train_coords, train_norms)
        slack = screen_slack(test_norms[block], train_norms, train_coords.shape[1])

        def reference(rows, cols):
            return reference_sq_dists(train_coords, queries, cols, rows)

        neighbors[block], dists[block] = k_nearest(screen, k, slack, reference)
    return neighbors, dists
