import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from ttnpe.datasets import add_noise, float_samples, load_csv, load_idx, noise_sigma, read_idx_pixels
from ttnpe.errors import ConfigError, DataError


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        imgs = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
        write_idx_images(tmp_path / "imgs", imgs)
        write_idx_labels(tmp_path / "lbls", [1, 2, 1])
        images, labels = load_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert images.shape == (3, 2, 2)
        assert images.dtype == np.float64
        assert np.array_equal(images * 255.0, imgs.astype(np.float64))
        assert labels.tolist() == [1, 2, 1]
        assert labels.dtype == np.int64

    def test_value_255_scales_to_one(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.full((1, 1, 1), 255, dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", [0])
        images, _ = load_idx(tmp_path / "imgs", tmp_path / "lbls")
        assert images[0, 0, 0] == 1.0

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(struct.pack(">iiii", 0x802, 1, 1, 1) + b"\x00")
        write_idx_labels(tmp_path / "lbls", [0])
        with pytest.raises(DataError, match="magic"):
            load_idx(tmp_path / "bad", tmp_path / "lbls")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "bad").write_bytes(struct.pack(">i", 0x803) + b"\x00\x00")
        write_idx_labels(tmp_path / "lbls", [0])
        with pytest.raises(DataError, match="truncated header"):
            load_idx(tmp_path / "bad", tmp_path / "lbls")

    def test_truncated_payload(self, tmp_path):
        (tmp_path / "bad").write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + b"\x00" * 5)
        write_idx_labels(tmp_path / "lbls", [0, 1])
        with pytest.raises(DataError, match="truncated payload, expected 8 bytes, got 5$"):
            load_idx(tmp_path / "bad", tmp_path / "lbls")

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 1, 1), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", [0, 1, 2])
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")


    @pytest.mark.parametrize("dims", [(-2, 2, 2), (3, -2, -2), (23, 2, -1)])
    def test_negative_header_dimension(self, tmp_path, dims):
        # (-2, 2, 2) used to load 23 images from the payload less its last 8
        # bytes; (3, -2, -2) raised a raw ValueError from reshape
        (tmp_path / "bad").write_bytes(struct.pack(">iiii", 0x803, *dims) + bytes(23 * 4 + 8))
        write_idx_labels(tmp_path / "lbls", list(range(23)))
        with pytest.raises(DataError, match="negative dimension"):
            load_idx(tmp_path / "bad", tmp_path / "lbls")

    def test_negative_label_count(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((2, 1, 1), dtype=np.uint8))
        (tmp_path / "lbls").write_bytes(struct.pack(">ii", 0x801, -1) + b"\x00\x01")
        with pytest.raises(DataError, match="negative dimension"):
            load_idx(tmp_path / "imgs", tmp_path / "lbls")

    def test_header_product_beyond_int64(self, tmp_path):
        # numpy's int64 product of these dims wraps to a negative count
        big = 2 ** 31 - 1
        (tmp_path / "bad").write_bytes(struct.pack(">iiii", 0x803, big, big, 4) + bytes(64))
        write_idx_labels(tmp_path / "lbls", [0])
        with pytest.raises(DataError, match="truncated payload"):
            load_idx(tmp_path / "bad", tmp_path / "lbls")

    def test_pixels_as_stored(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, (5, 3, 4), dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", imgs)
        write_idx_labels(tmp_path / "lbls", [3, 1, 4, 1, 5])
        images, labels = read_idx_pixels(tmp_path / "imgs", tmp_path / "lbls")
        assert images.dtype == np.uint8 and np.array_equal(images, imgs)
        assert labels.dtype == np.int64 and labels.tolist() == [3, 1, 4, 1, 5]
        floats = load_idx(tmp_path / "imgs", tmp_path / "lbls")[0]
        assert np.array_equal(floats.view(np.uint64), (imgs.astype(np.float64) / 255.0).view(np.uint64))

    def test_pair_read_holds_each_file_once(self, tmp_path):
        # the payload is a view of the file's bytes, not a second copy of them
        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "imgs", rng.integers(0, 256, (2000, 28, 28)))
        write_idx_labels(tmp_path / "lbls", rng.integers(0, 10, 2000))
        size = (tmp_path / "imgs").stat().st_size + (tmp_path / "lbls").stat().st_size
        tracemalloc.start()
        try:
            read_idx_pixels(tmp_path / "imgs", tmp_path / "lbls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * size, (peak, size)


class TestFloatSamples:
    def test_pixels_scaled_by_one_rule(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16).T  # F-ordered, like a split
        scaled = float_samples(pixels)
        assert scaled.dtype == np.float64 and (scaled.min(), scaled.max()) == (0.0, 1.0)
        assert np.array_equal(scaled.view(np.uint64),
                              (pixels.astype(np.float64) / 255.0).view(np.uint64))
        assert scaled.strides == pixels.astype(np.float64).strides

    def test_float_values_as_they_are(self, rng):
        values = rng.standard_normal((2, 3, 4))
        assert float_samples(values) is values


class TestCsv:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        features, labels = load_csv(p, 0)
        assert np.array_equal(features, [[2.0, 3.0], [5.0, 6.0]])
        assert labels.tolist() == [1.0, 4.0]

    def test_header_detected_and_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,a,b\n7,1,2\n")
        features, labels = load_csv(p, 0)
        assert np.array_equal(features, [[1.0, 2.0]])
        assert labels.tolist() == [7.0]

    def test_last_column_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,9\n3,4,8\n")
        features, labels = load_csv(p, 2)
        assert np.array_equal(features, [[1.0, 2.0], [3.0, 4.0]])
        assert labels.tolist() == [9.0, 8.0]

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(p, 0)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p, 0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, 0)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(DataError, match="only a header"):
            load_csv(p, 0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p, 0)

    def test_label_column_out_of_range(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n")
        with pytest.raises(DataError, match="out of range"):
            load_csv(p, 5)


class TestNoise:
    def test_none_is_identity(self, rng):
        data = rng.standard_normal((2, 2, 5))
        assert add_noise(data, None, 0) is data

    def test_seeded_determinism(self, rng):
        data = rng.standard_normal((3, 3, 4))
        a = add_noise(data, 10.0, seed=7)
        b = add_noise(data, 10.0, seed=7)
        c = add_noise(data, 10.0, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_db_noise_power(self, rng):
        # at 0 dB noise variance equals mean per-entry signal power
        data = 2.0 * np.ones((10, 10, 50))
        noisy = add_noise(data, 0.0, seed=3)
        noise = noisy - data
        assert abs(np.var(noise) - 4.0) < 0.2

    def test_sigma_is_signal_power_over_ratio(self):
        data = 2.0 * np.ones((3, 2, 5))  # per-entry signal power 4
        assert noise_sigma(data, 0) == 2.0
        assert noise_sigma(data, 20.0) == np.sqrt(4.0 / 100.0)

    @pytest.mark.parametrize("snr_db", [float("inf"), float("-inf"), float("nan"), 4000, -4000,
                                        -3230, -3080, 10 ** 400, -(10 ** 400)])
    def test_unrepresentable_level_rejected(self, snr_db):
        data = np.full((2, 4, 3), 6.0)
        with pytest.raises(ConfigError, match="noise_snr_db"):
            noise_sigma(data, snr_db)
        with pytest.raises(ConfigError, match="noise_snr_db"):
            add_noise(data, snr_db, seed=0)

    def test_high_snr_small_perturbation(self, rng):
        data = rng.standard_normal((4, 4, 20))
        noisy = add_noise(data, 60.0, seed=1)
        rel = np.linalg.norm(noisy - data) / np.linalg.norm(data)
        assert rel < 0.01
