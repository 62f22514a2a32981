"""Dense tensor primitives.

All tensors are plain float64 numpy arrays. The linearization convention is
mode-1-fastest (column-major / Fortran order) throughout: element
(i_1, ..., i_m) sits at flat offset i_1 + I_1*(i_2 + I_2*(i_3 + ...)).
Mode indices passed to ``merge_product`` are 1-based, matching the usual
mathematical notation for tensor contractions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

_TINY = float(np.finfo(np.float64).tiny)


def vectorize(t: np.ndarray) -> np.ndarray:
    """Flatten a tensor in mode-1-fastest order."""
    return np.asarray(t).reshape(-1, order="F")


def left_unfold(t: np.ndarray) -> np.ndarray:
    """Matricize grouping all modes but the last into rows, (I_1...I_{m-1}) x I_m."""
    t = np.asarray(t)
    if t.ndim < 2:
        raise ValueError("unfolding requires >=2 modes")
    return t.reshape(-1, t.shape[-1], order="F")


def frobenius_norm(t: np.ndarray) -> float:
    """Frobenius norm of ``t``, finite whenever every entry is.

    Takes sqrt(x . x) over the flat entries, as ``np.linalg.norm`` does and
    with the same bits. Only when that sum of squares overflows, or falls
    below the smallest normal float, are the entries first divided by their
    largest magnitude.
    """
    x = np.asarray(t, dtype=np.float64).ravel(order="K")
    with np.errstate(over="ignore", under="ignore"):
        sq = float(x.dot(x))
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    top = float(np.max(np.abs(x))) if x.size else 0.0
    if top == 0.0 or not math.isfinite(top):
        return top
    x = x / top
    return top * math.sqrt(float(x.dot(x)))


def _check_mode_list(g: Sequence[int], ndim: int, name: str) -> list[int]:
    g = [int(p) for p in g]
    if len(set(g)) != len(g):
        raise ValueError(f"repeated mode index in {name}: {g}")
    for p in g:
        if not 1 <= p <= ndim:
            raise ValueError(f"mode index {p} in {name} out of range for a {ndim}-mode tensor")
    return g


def merge_product(a: np.ndarray, b: np.ndarray, g1: Sequence[int], g2: Sequence[int]) -> np.ndarray:
    """Contract tensors ``a`` and ``b`` over the paired 1-based mode lists.

    The result carries a's unmerged modes in their original order followed by
    b's unmerged modes in their original order. Empty mode lists give the
    outer product.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    g1 = _check_mode_list(g1, a.ndim, "g1")
    g2 = _check_mode_list(g2, b.ndim, "g2")
    if len(g1) != len(g2):
        raise ValueError(f"mode lists differ in length: {len(g1)} vs {len(g2)}")
    for p, q in zip(g1, g2):
        if a.shape[p - 1] != b.shape[q - 1]:
            raise ValueError(
                f"merged pair (mode {p} of a, mode {q} of b) has mismatched dims "
                f"{a.shape[p - 1]} != {b.shape[q - 1]}"
            )
    axes_a = [p - 1 for p in g1]
    axes_b = [q - 1 for q in g2]
    return np.tensordot(a, b, axes=(axes_a, axes_b))


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a(i, j) * b."""
    return np.kron(np.asarray(a), np.asarray(b))
