"""KNN classification in the embedded space plus evaluation metrics.

Tie rules are total so predictions are deterministic: equal distances break
toward the smaller training index, and vote ties break toward the class of
the nearest neighbor among the tied classes. Neighbors come from
``ttnpe.nearest.knn_search``, the one KNN search the affinity graph uses
too: it returns exactly the K nearest training points on the reference
distance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ttnpe.errors import DataError
from ttnpe.nearest import knn_search
from ttnpe.tensor_core import left_unfold
from ttnpe.tt_subspace import TTChain, compression_ratio, project_many


@dataclass
class EvalResult:
    error_rate: float
    n_test: int
    n_wrong: int
    compression_ratio: float
    embed_seconds: float
    classify_seconds: float
    predictions: np.ndarray


def knn_classify(train_coords: np.ndarray, train_labels: np.ndarray,
                 test_coords: np.ndarray, k: int) -> np.ndarray:
    """Euclidean K-NN majority vote over ``knn_search``; returns predicted labels.

    Raises DataError unless there is one label per training row.
    """
    train_labels = np.asarray(train_labels)
    if train_labels.shape != np.shape(train_coords)[:1]:
        raise DataError(f"need one label per training point, got labels of shape {train_labels.shape} "
                        f"for training coordinates of shape {np.shape(train_coords)}")
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
        return left_unfold(data).T
    return project_many(chain, data)


def evaluate(chain: TTChain | None, train_data: np.ndarray, train_labels: np.ndarray,
             test_data: np.ndarray, test_labels: np.ndarray, k: int) -> EvalResult:
    """Embed, classify, and score.

    ``chain=None`` is the raw-KNN baseline: no compression (ratio 1),
    classification on the vectorized samples directly. Data arrays stack
    samples along the last mode. Raises DataError unless the train and test
    mode dims are equal and there is one label for each of at least one
    test sample.
    """
    n_train = train_data.shape[-1]
    n_test = test_data.shape[-1]
    test_labels = np.asarray(test_labels)
    if train_data.shape[:-1] != test_data.shape[:-1]:
        raise DataError(f"test sample dims {list(test_data.shape[:-1])} do not match "
                        f"training sample dims {list(train_data.shape[:-1])}")
    if n_test == 0:
        raise DataError("evaluation needs at least one test sample")
    if test_labels.shape != (n_test,):
        raise DataError(f"need one label per test sample, got labels of shape "
                        f"{test_labels.shape} for {n_test} samples")
    t0 = time.perf_counter()
    train_coords = _embed(chain, train_data)
    test_coords = _embed(chain, test_data)
    embed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    preds = knn_classify(train_coords, np.asarray(train_labels), test_coords, k)
    classify_seconds = time.perf_counter() - t0

    wrong = int(np.count_nonzero(preds != test_labels))
    rho = 1.0 if chain is None else compression_ratio(chain, n_train)
    return EvalResult(
        error_rate=wrong / n_test,
        n_test=n_test,
        n_wrong=wrong,
        compression_ratio=rho,
        embed_seconds=embed_seconds,
        classify_seconds=classify_seconds,
        predictions=preds,
    )
