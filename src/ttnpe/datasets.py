"""Dataset ingestion (IDX binary and CSV) and Gaussian noise injection."""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

from ttnpe.errors import ConfigError, DataError
from ttnpe.tensor_core import left_unfold

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, expected_magic: int) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expected_magic:
        raise DataError(f"{path}: wrong magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = expected_magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated header")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    if min(dims) < 0:
        raise DataError(f"{path}: negative dimension in header {dims}")
    count = math.prod(dims)  # exact: numpy's int64 product can wrap on three int32 dims
    stored = len(raw) - header
    if stored < count:
        raise DataError(f"{path}: truncated payload, expected {count} bytes, got {stored}")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header)  # a view, no copy
    return data.reshape(dims)  # row-major, as stored


def read_idx_pixels(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an IDX image/label pair as stored.

    Returns (images, labels) with images the file's uint8 pixels of shape
    (N, rows, cols), a read-only view of its bytes, and labels as an int64
    array of length N.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"image/label count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    if images.shape[0] == 0:
        raise DataError(f"{images_path}: no images")
    return images, labels.astype(np.int64)


def float_samples(samples: np.ndarray) -> np.ndarray:
    """``samples`` as float64: uint8 pixels scaled to [0, 1] by the one rule
    ``pixels.astype(np.float64) / 255.0`` (divided in place, same bits, one
    copy), any other array as it is."""
    if samples.dtype != np.uint8:
        return samples
    scaled = samples.astype(np.float64)
    scaled /= 255.0
    return scaled


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an IDX image/label pair.

    Returns (images, labels) with images of shape (N, rows, cols) scaled to
    [0, 1] as float64 and labels as an int array of length N.
    """
    images, labels = read_idx_pixels(images_path, labels_path)
    return float_samples(images), labels


def load_csv(path, label_column: int) -> tuple[np.ndarray, np.ndarray]:
    """Load a rectangular numeric CSV, one sample per row.

    The label column is extracted; remaining values become float64 features
    (no scaling). The file is read as UTF-8, a leading byte-order mark
    dropped. A non-numeric first row is treated as a header.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, ValueError, csv.Error) as exc:  # ValueError covers bad UTF-8
        raise DataError(f"{path}: cannot read CSV: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty CSV")

    def _numeric(row):
        try:
            [float(x) for x in row]
            return True
        except ValueError:
            return False

    if not _numeric(rows[0]):
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: CSV contains only a header")
    width = len(rows[0])
    if not 0 <= label_column < width:
        raise DataError(f"label column {label_column} out of range for {width} columns")
    features = []
    labels = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{path}: ragged row {lineno} has {len(row)} cells, expected {width}")
        try:
            values = [float(x) for x in row]
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric cell in row {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}: NaN or infinite cell in row {lineno}")
        labels.append(values[label_column])
        features.append(values[:label_column] + values[label_column + 1:])
    return np.asarray(features, dtype=np.float64), np.asarray(labels)


def noise_sigma(samples: np.ndarray, snr_db: float) -> float:
    """Standard deviation of the Gaussian noise at ``snr_db`` dB: the root of the
    mean per-entry signal power mean_i(||X_i||_F^2 / d) over 10^(snr_db/10).
    Raises ConfigError naming ``noise_snr_db`` when the level is not finite or
    4 d variance (the bound ``nearest.sq_norms`` checks) times 2**10 (room for
    the tails of the noise) is not a finite float, a signal power that
    overflows included."""
    flat = left_unfold(np.asarray(samples, dtype=np.float64))
    d = flat.shape[0]
    with np.errstate(over="ignore"):  # an overflow to inf is the ConfigError below
        signal_power = float(np.mean(np.sum(flat * flat, axis=0)) / d)
    try:
        variance = signal_power / 10.0 ** (snr_db / 10.0) if math.isfinite(snr_db) else math.inf
    except (OverflowError, ZeroDivisionError):  # the ratio overflows, or underflows to 0
        variance = math.inf
    if not math.isfinite(4.0 * d * variance * 2.0 ** 10):
        raise ConfigError(f"noise_snr_db level {snr_db!r} is not finite or its noise overflows")
    return math.sqrt(variance)


def add_noise(samples: np.ndarray, snr_db: float | None, seed: int) -> np.ndarray:
    """``samples`` plus i.i.d. Gaussian noise of standard deviation ``noise_sigma``
    at ``snr_db`` dB; ``samples`` itself when ``snr_db`` is None."""
    if snr_db is None:
        return samples
    rng = np.random.default_rng(seed)
    return samples + noise_sigma(samples, snr_db) * rng.standard_normal(np.shape(samples))
