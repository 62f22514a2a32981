"""KNN classification in the embedded space plus evaluation metrics.

Tie rules are total so predictions are deterministic: equal distances break
toward the smaller training index, and vote ties break toward the class of
the nearest neighbor among the tied classes. Neighbors are found by a
Gram-identity screen and exact re-ranking of each query's candidate window
(``ttnpe.nearest``); the window is wide enough, by a rigorous bound on the
screen's rounding error, to hold every training point that ranks among the
K nearest on the reference distance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ttnpe.errors import ConfigError, require_finite
from ttnpe.nearest import (
    k_nearest,
    reference_sq_dists,
    row_blocks,
    screen_slack,
    screen_sq_dists,
    sq_norms,
)
from ttnpe.tt_subspace import TTChain, compression_ratio, project_many


@dataclass
class EvalResult:
    error_rate: float
    n_test: int
    n_wrong: int
    confusion: dict
    compression_ratio: float
    embed_seconds: float
    classify_seconds: float
    predictions: np.ndarray


def knn_search(train_coords: np.ndarray, test_coords: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest training points of each test point, nearest first.

    Returns (n_test, k) training indices and their squared distances.
    Equal distances rank the smaller index first. Test points are screened
    in row blocks (``nearest.row_blocks``), so no temporary exceeds
    ``nearest.BLOCK_ELEMENTS`` entries. Each query's candidate window is
    re-ranked on the reference distance ``einsum("ij,ij->i", diff, diff)``
    with ``diff = train_coords - query`` (see ``ttnpe.nearest``), so the
    result is that of ranking every training point by that distance.
    """
    train_coords = np.asarray(train_coords, dtype=np.float64)
    test_coords = np.asarray(test_coords, dtype=np.float64)
    require_finite(train_coords, "training coordinates")
    require_finite(test_coords, "test coordinates")
    n_train = train_coords.shape[0]
    if not 1 <= k <= n_train:
        raise ConfigError(f"K must be <= number of training points, got K={k}, N={n_train}")
    train_norms = sq_norms(train_coords)
    test_norms = sq_norms(test_coords)
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


def knn_classify(train_coords: np.ndarray, train_labels: np.ndarray,
                 test_coords: np.ndarray, k: int) -> np.ndarray:
    """Euclidean K-NN majority vote over ``knn_search``; returns predicted labels."""
    train_labels = np.asarray(train_labels)
    neighbors, _ = knn_search(train_coords, test_coords, k)
    classes, codes = np.unique(train_labels, return_inverse=True)
    return classes[_vote(codes[neighbors], len(classes))]


def _vote(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """Majority class code per row of neighbor class codes (nearest first).

    A vote tie goes to the tied class of the nearest neighbor.
    """
    rows = np.arange(votes.shape[0])
    counts = np.zeros((votes.shape[0], n_classes), dtype=np.intp)
    for j in range(votes.shape[1]):
        counts[rows, votes[:, j]] += 1
    tied = counts == counts.max(axis=1, keepdims=True)
    first = np.argmax(np.take_along_axis(tied, votes, axis=1), axis=1)
    return votes[rows, first]


def _embed(chain: TTChain | None, data: np.ndarray) -> np.ndarray:
    if chain is None:
        n = data.shape[-1]
        return data.reshape(-1, n, order="F").T
    return project_many(chain, data)


def evaluate(chain: TTChain | None, train_data: np.ndarray, train_labels: np.ndarray,
             test_data: np.ndarray, test_labels: np.ndarray, k: int) -> EvalResult:
    """Embed, classify, and score.

    ``chain=None`` is the raw-KNN baseline: no compression (ratio 1),
    classification on the vectorized samples directly. Data arrays stack
    samples along the last mode.
    """
    n_train = train_data.shape[-1]
    t0 = time.perf_counter()
    train_coords = _embed(chain, train_data)
    test_coords = _embed(chain, test_data)
    embed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    preds = knn_classify(train_coords, np.asarray(train_labels), test_coords, k)
    classify_seconds = time.perf_counter() - t0

    test_labels = np.asarray(test_labels)
    wrong = int(np.count_nonzero(preds != test_labels))
    confusion: dict = {}
    for truth, pred in zip(test_labels.tolist(), preds.tolist()):
        key = (truth, pred)
        confusion[key] = confusion.get(key, 0) + 1
    rho = 1.0 if chain is None else compression_ratio(chain, n_train)
    return EvalResult(
        error_rate=wrong / len(test_labels),
        n_test=len(test_labels),
        n_wrong=wrong,
        confusion=confusion,
        compression_ratio=rho,
        embed_seconds=embed_seconds,
        classify_seconds=classify_seconds,
        predictions=preds,
    )
