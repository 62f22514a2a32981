"""Seeded synthetic 28x28 "digits" of MNIST shape, and an IDX writer.

Real MNIST cannot be fetched offline, so the benchmark draws its own images.
Each class is a stroke drawing inside the central 20x20 window; every sample
jitters the strokes (shift, rotation, scale, vertex wobble, stroke width) and
adds faint noise inside the window. The 4-pixel border is always exactly
zero, so 384 of the 784 pixels are dead, as on MNIST: the data leaves the
null space of the Gram target Z as large as it is on real digits.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIZE = 28
BORDER = 4
INNER = SIZE - 2 * BORDER
DEAD_PIXELS = SIZE * SIZE - INNER * INNER

# Stroke polylines per class in inner-window coordinates (x right, y down).
_STROKES = {
    0: [[(6, 3), (13, 3), (16, 8), (16, 12), (13, 16), (6, 16), (3, 12), (3, 8), (6, 3)]],
    1: [[(8, 5), (11, 2), (11, 17)], [(7, 17), (14, 17)]],
    2: [[(4, 5), (8, 2), (13, 2), (16, 6), (4, 17), (16, 17)]],
    3: [[(4, 3), (15, 3), (9, 9), (15, 12), (12, 17), (4, 16)]],
}
N_CLASSES = len(_STROKES)
_CHUNK = 256


def _segments() -> tuple[np.ndarray, np.ndarray]:
    """All stroke segments as (start, end) points plus their class ids."""
    segs, owner = [], []
    for cls, lines in _STROKES.items():
        for line in lines:
            for a, b in zip(line, line[1:]):
                segs.append((a, b))
                owner.append(cls)
    return np.asarray(segs, dtype=np.float64), np.asarray(owner)


def _render(ends: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Ink of (n, S, 2, 2) segment endpoints on the inner grid, shape (n, INNER, INNER)."""
    ys, xs = np.mgrid[0:INNER, 0:INNER]
    ax, ay = ends[:, :, 0, 0, None], ends[:, :, 0, 1, None]              # (n, S, 1)
    bx, by = ends[:, :, 1, 0, None] - ax, ends[:, :, 1, 1, None] - ay
    px, py = xs.ravel() - ax, ys.ravel() - ay                            # (n, S, P)
    t = np.clip((px * bx + py * by) / np.maximum(bx * bx + by * by, 1e-12), 0.0, 1.0)
    px -= t * bx
    py -= t * by
    d2 = np.min(px * px + py * py, axis=1)                               # (n, P)
    ink = np.exp(-d2 / (2.0 * width[:, None] ** 2))
    return ink.reshape(-1, INNER, INNER)


def make_digits(labels: np.ndarray, seed: int) -> np.ndarray:
    """uint8 images of shape (N, 28, 28), one per label, drawn from ``seed``."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    segs, owner = _segments()
    images = np.zeros((len(labels), SIZE, SIZE), dtype=np.uint8)
    centre = (INNER - 1) / 2.0
    for start in range(0, len(labels), _CHUNK):
        lab = labels[start:start + _CHUNK]
        n = len(lab)
        per = [segs[owner == c] for c in lab]
        s_max = max(len(p) for p in per)
        # Pad each sample's segment list by repeating its last segment.
        ends = np.stack([np.concatenate([p, np.repeat(p[-1:], s_max - len(p), 0)]) for p in per])
        ends = ends + rng.normal(0.0, 0.6, ends.shape)
        angle = rng.normal(0.0, 0.12, n)
        scale = rng.normal(1.0, 0.07, n)
        shift = rng.normal(0.0, 0.9, (n, 2))
        cos, sin = np.cos(angle) * scale, np.sin(angle) * scale
        rot = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)  # (n, 2, 2)
        ends = np.einsum("nij,nsej->nsei", rot, ends - centre) + centre + shift[:, None, None, :]
        width = rng.uniform(0.8, 1.5, n)
        ink = _render(ends, width)
        ink = ink + rng.uniform(0.0, 0.08, ink.shape) + rng.normal(0.0, 0.03, ink.shape)
        pixels = np.rint(255.0 * np.clip(ink, 0.0, 1.0)).astype(np.uint8)
        images[start:start + n, BORDER:SIZE - BORDER, BORDER:SIZE - BORDER] = pixels
    return images


def make_labels(counts, seed: int) -> np.ndarray:
    """``counts[c]`` labels of class c for each class, shuffled by ``seed``."""
    labels = np.repeat(np.arange(N_CLASSES), counts)
    return np.random.default_rng(seed).permutation(labels)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write an IDX3 image file and an IDX1 label file (MNIST layout)."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    Path(images_path).write_bytes(struct.pack(">iiii", 0x00000803, *images.shape) + images.tobytes())
    Path(labels_path).write_bytes(struct.pack(">ii", 0x00000801, len(labels)) + labels.tobytes())


def as_samples(images: np.ndarray, dims) -> np.ndarray:
    """Fold (N, 28, 28) uint8 images into a (dims..., N) float array in [0, 1].

    Uses the same row-major pixel order and mode-1-fastest folding as the
    library's IDX loader.
    """
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return flat.T.reshape(tuple(dims) + (flat.shape[0],), order="F")
