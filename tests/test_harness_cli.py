import ctypes
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (no_convergence, random_orthonormal_chain, spy_calls, write_idx_images,
                      write_idx_labels)
import ttnpe
from ttnpe import cli, harness, solver
from ttnpe.cli import main
from ttnpe.errors import ConfigError, DataError, NumericError
from ttnpe.harness import (
    ExperimentConfig,
    load_dataset,
    run_convergence,
    run_experiment,
    split_per_class,
)
from ttnpe.neighborhood_graph import AffinityConfig
from ttnpe.tt_subspace import load_chain, save_chain


def write_cluster_csv(path, rng, per_class=8, d=8, sep=6.0):
    rows = []
    for cls in (0, 1):
        center = np.full(d, cls * sep)
        for _ in range(per_class):
            vals = center + 0.3 * rng.standard_normal(d)
            rows.append([cls] + vals.tolist())
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")


def write_idx_pair(directory, images, labels):
    """Write ``images`` and ``labels`` as an IDX pair; returns its dataset entry."""
    write_idx_images(directory / "images", images)
    write_idx_labels(directory / "labels", labels)
    return {"format": "idx", "image_path": str(directory / "images"),
            "label_path": str(directory / "labels")}


def class_pixels(per_class, side, seed=0):
    """uint8 images of classes 0, 1 and 2 in shuffled order, each a class
    pattern plus noise, the full range 0..255 included; returns (images, labels)."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(3), per_class))
    patterns = rng.integers(0, 256, (3, side, side))
    jitter = rng.integers(-60, 61, (len(labels), side, side))
    return np.clip(patterns[labels] + jitter, 0, 255).astype(np.uint8), labels


def base_config(tmp_path, rng, **overrides):
    csv_path = tmp_path / "data.csv"
    write_cluster_csv(csv_path, rng)
    raw = {
        "dataset": {"format": "csv", "path": str(csv_path), "label_column": 0},
        "reshape": [2, 2, 2],
        "n_train_per_class": 5,
        "n_test_per_class": 3,
        "tau_list": [0.3],
        "k_graph": 3,
        "k_classify": 1,
        "seed": 11,
        "output_path": str(tmp_path / "report.json"),
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, rng):
        raw = base_config(tmp_path, rng, bogus_knob=3)
        with pytest.raises(ConfigError, match="bogus_knob"):
            ExperimentConfig.from_dict(raw)

    def test_missing_key_rejected(self, tmp_path, rng):
        raw = base_config(tmp_path, rng)
        del raw["tau_list"]
        with pytest.raises(ConfigError, match="tau_list"):
            ExperimentConfig.from_dict(raw)

    def test_bad_variant(self, tmp_path, rng):
        with pytest.raises(ConfigError, match="variant"):
            ExperimentConfig.from_dict(base_config(tmp_path, rng, variant="xxx"))

    def test_bad_format(self, tmp_path, rng):
        raw = base_config(tmp_path, rng)
        raw["dataset"]["format"] = "hdf5"
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("rank_cap", [None, 2, [2, None, 1], (3, 3, 3)])
    def test_valid_rank_cap_accepted(self, tmp_path, rng, rank_cap):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, rank_cap=rank_cap))
        assert config.rank_cap == rank_cap

    @pytest.mark.parametrize("key, values", [
        ("tau_list", [0.3, 0.3]), ("tau_list", [0.3, 0.1, 0.3]),
        ("noise_snr_db", [0, 0.0]), ("noise_snr_db", [None, 5, None]),
    ])
    def test_repeated_entry_rejected(self, tmp_path, rng, key, values):
        # a repeated tau or noise level would count its cells twice in the aggregates
        with pytest.raises(ConfigError, match=f"{key} must not repeat an entry"):
            ExperimentConfig.from_dict(base_config(tmp_path, rng, **{key: values}))

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("reader, error, what", [
        (ExperimentConfig.from_file, ConfigError, "config"), (load_chain, DataError, "model"),
    ], ids=["config", "model"])
    @pytest.mark.parametrize("content, wording", [
        (None, "cannot read {what}: "), (b"{not json", "cannot read {what}: "),
        (b'{"a": "\xff"}', "cannot read {what}: "), (b"[1, 2]", "{what} must be a JSON object"),
        (b"[" * 200_000, "cannot read {what}: "),
    ], ids=["missing", "bad-json", "bad-utf8", "list", "deep"])
    def test_json_documents_share_one_reader(self, tmp_path, reader, error, what, content, wording):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(error) as info:
            reader(path)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{path}: " + wording.format(what=what))


class TestLoadDataset:
    def test_shape_and_labels(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng))
        samples, labels = load_dataset(config)
        assert samples.shape == (2, 2, 2, 16)
        assert sorted(np.unique(labels).tolist()) == [0.0, 1.0]

    def test_reshape_mismatch(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, reshape=[3, 3]))
        with pytest.raises(ConfigError, match="reshape"):
            load_dataset(config)

    def test_class_filter(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, class_filter=[1]))
        samples, labels = load_dataset(config)
        assert samples.shape[-1] == 8
        assert np.all(labels == 1)

    def test_class_filter_empty(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, class_filter=[1, 99]))
        with pytest.raises(ConfigError, match=r"class_filter labels \[99\]"):
            load_dataset(config)

    def idx_config(self, tmp_path, rng, per_class=12, side=4, **overrides):
        images, labels = class_pixels(per_class, side)
        dataset = write_idx_pair(tmp_path, images, labels)
        reshape = [2, side // 2, 2, side // 2]
        raw = base_config(tmp_path, rng, dataset=dataset, reshape=reshape,
                          class_filter=[1, 2], **overrides)
        return ExperimentConfig.from_dict(raw), images, labels

    def test_idx_samples_stay_pixels(self, tmp_path, rng):
        config, images, labels = self.idx_config(tmp_path, rng)
        samples, got_labels = load_dataset(config)
        keep = labels > 0
        assert samples.dtype == np.uint8 and samples.shape == (2, 2, 2, 2, 24)
        assert np.array_equal(samples.reshape(16, 24, order="F").T,
                              images[keep].reshape(24, 16))
        assert got_labels.dtype == np.int64 and np.array_equal(got_labels, labels[keep])
        csv_samples = load_dataset(ExperimentConfig.from_dict(base_config(tmp_path, rng)))[0]
        assert csv_samples.dtype == np.float64

    @pytest.mark.parametrize("snr_db", [None, 0])
    def test_split_is_the_scaled_pixels(self, tmp_path, rng, snr_db):
        # the float64 pixels every command saw when the whole file was scaled at load
        config, images, labels = self.idx_config(tmp_path, rng, noise_snr_db=[snr_db])
        keep = labels > 0
        flat = (images.astype(np.float64) / 255.0).reshape(len(labels), -1)[keep]
        floats = flat.T.reshape((2, 2, 2, 2, len(flat)), order="F")
        want = harness.trial_data(config, floats, labels[keep])
        got = harness.trial_data(config, *load_dataset(config))
        train_idx, test_idx = harness.trial_split(config, labels[keep])
        if snr_db is None:
            assert np.array_equal(want[0], floats[..., train_idx])
            assert np.array_equal(want[2], floats[..., test_idx])
        else:
            assert not np.array_equal(want[0], floats[..., train_idx])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        for a, b in (got[0], want[0]), (got[2], want[2]):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3])

    def test_idx_load_holds_the_pixels_not_floats(self, tmp_path, rng):
        # float64 copies of every image would take 8 times the pixel bytes
        config, images, _ = self.idx_config(tmp_path, rng, per_class=400, side=28)
        tracemalloc.start()
        try:
            load_dataset(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * images.nbytes, (peak, images.nbytes)

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_idx_and_csv_of_the_same_pixels_agree(self, tmp_path, rng, variant):
        images, labels = class_pixels(12, 4)
        rows = [[label] + [repr(p / 255) for p in image.ravel().tolist()]
                for label, image in zip(labels.tolist(), images)]
        (tmp_path / "pixels.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        datasets = {"idx": write_idx_pair(tmp_path, images, labels),
                    "csv": {"format": "csv", "path": str(tmp_path / "pixels.csv"), "label_column": 0}}
        reports, coords = {}, {}
        for fmt, dataset in datasets.items():
            config = ExperimentConfig.from_dict(base_config(
                tmp_path, rng, dataset=dataset, reshape=[2, 2, 2, 2], class_filter=[1, 2],
                tau_list=[0.5, 0.2], noise_snr_db=[None, 0], trials=2, max_sweeps=5,
                variant=variant, output_path=str(tmp_path / f"{fmt}.json")))
            reports[fmt] = run_experiment(config)
            if fmt == "idx":
                harness.run_fit(config, tmp_path / "model.json")
            coords[fmt] = harness.run_embed(config, tmp_path / "model.json", tmp_path / f"{fmt}.csv")
        for key in ("cells", "baselines", "aggregates"):
            assert reports["idx"][key] == reports["csv"][key]
        assert all("error" not in cell for cell in reports["idx"]["cells"])
        assert np.array_equal(coords["idx"].view(np.uint64), coords["csv"].view(np.uint64))
        written = [[row.split(",")[2:] for row in (tmp_path / f"{fmt}.csv").read_text().splitlines()]
                   for fmt in datasets]
        assert written[0] == written[1]


class TestSplit:
    def test_sizes_and_disjoint(self, rng):
        labels = np.repeat([0, 1, 2], 10)
        train, test = split_per_class(labels, 4, 3, np.random.default_rng(0))
        assert len(train) == 12 and len(test) == 9
        assert not set(train) & set(test)
        for cls in (0, 1, 2):
            assert np.count_nonzero(labels[train] == cls) == 4
            assert np.count_nonzero(labels[test] == cls) == 3

    def test_seeded_reproducible(self):
        labels = np.repeat([0, 1], 8)
        a = split_per_class(labels, 3, 2, np.random.default_rng(5))
        b = split_per_class(labels, 3, 2, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_insufficient_samples(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(DataError, match="needs"):
            split_per_class(labels, 2, 1, np.random.default_rng(0))


# The solver's keys of a ``.timings.json`` entry, in order, after the run's own keys.
SOLVER_TIMING_KEYS = ["tt_svd", "graph", "eigensolve", "sweeps", "work", "core_solves",
                      "kyfan_bound", "kyfan_gap"]


class TestRunExperiment:
    def test_report_written_and_sane(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng))
        doc = run_experiment(config)
        assert len(doc["cells"]) == 1
        cell = doc["cells"][0]
        assert "error" not in cell
        assert 0.0 <= cell["error_rate"] <= 1.0
        assert 0.0 < cell["rho"]
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(doc))

    def test_deterministic_report_bytes(self, tmp_path, rng):
        raw = base_config(tmp_path, rng, trials=2)
        c1 = ExperimentConfig.from_dict(dict(raw, output_path=str(tmp_path / "r1.json")))
        c2 = ExperimentConfig.from_dict(dict(raw, output_path=str(tmp_path / "r2.json")))
        run_experiment(c1)
        run_experiment(c2)
        b1 = (tmp_path / "r1.json").read_bytes()
        b2 = (tmp_path / "r2.json").read_bytes()
        assert b1.replace(b"r1.json", b"") == b2.replace(b"r2.json", b"")

    def test_numpy_integer_keys_write_the_same_report(self, tmp_path, rng):
        raw = base_config(tmp_path, rng, max_sweeps=3, rank_cap=2)
        plain = ExperimentConfig.from_dict(dict(raw, output_path=str(tmp_path / "r1.json")))
        numpy = replace(plain, output_path=str(tmp_path / "r2.json"),
                        dataset={**plain.dataset, "label_column": np.int64(0)},
                        **{key: np.int64(getattr(plain, key))
                           for key in ("seed", "k_graph", "max_sweeps", "rank_cap", "trials")})
        run_experiment(plain)
        run_experiment(numpy)
        for suffix in ("", ".csv"):
            b1 = (tmp_path / f"r1.json{suffix}").read_bytes()
            b2 = (tmp_path / f"r2.json{suffix}").read_bytes()
            assert b1.replace(b"r1.json", b"") == b2.replace(b"r2.json", b"")

    def test_config_key_order_pinned(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng))
        run_experiment(config)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc["config"]) == [
            "dataset", "class_filter", "reshape", "n_train_per_class", "n_test_per_class",
            "tau_list", "variant", "k_graph", "k_classify", "epsilon", "noise_snr_db",
            "trials", "seed", "max_sweeps", "rank_cap", "output_path",
        ]

    def test_timings_sidecar_and_csv(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng))
        run_experiment(config)
        timings = json.loads((tmp_path / "report.json.timings.json").read_text())
        assert timings and {"subspace_learning", "embedding", "classification"} <= set(timings[0])
        lines = (tmp_path / "report.json.csv").read_text().splitlines()
        assert lines[0] == "tau,trial,snr_db,rho,error"
        assert len(lines) == 2

    def test_timings_carry_solver_stages(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, tau_list=[0.3, 0.1], trials=2))
        run_experiment(config)
        first = (tmp_path / "report.json").read_bytes()
        timings = json.loads((tmp_path / "report.json.timings.json").read_text())
        assert len(timings) == 4
        for entry in timings:
            assert list(entry) == ["tau", "trial", "snr_db", "subspace_learning", "embedding",
                                   "classification"] + SOLVER_TIMING_KEYS
            stages = [entry[key] for key in ("graph", "tt_svd", "eigensolve", "sweeps")]
            assert all(isinstance(t, float) and t >= 0.0 for t in stages)
            assert entry["core_solves"] == []  # ATN solves every core in closed form
            assert set(entry["work"]) == {"tt_svd_splits", "knn_searches", "eigh"}
        for cell in json.loads(first)["cells"]:
            assert list(cell) == ["tau", "trial", "snr_db", "ranks", "rho", "error_rate", "n_wrong",
                                  "n_test", "objective_trace", "sweeps", "termination"]
            assert isinstance(cell["sweeps"], int)
        run_experiment(config)
        assert (tmp_path / "report.json").read_bytes() == first

    def test_timings_carry_tn_core_solves(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, variant="tn", max_sweeps=2))
        doc = run_experiment(config)
        entry = json.loads((tmp_path / "report.json.timings.json").read_text())[0]
        assert len(entry["core_solves"]) == doc["cells"][0]["sweeps"]
        for solves in entry["core_solves"]:
            assert len(solves) == 3 and solves[-1]["stop"] == "exact"
            assert all(isinstance(s["steps"], int) for s in solves)
        assert "core_solves" not in (tmp_path / "report.json").read_text()

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_timings_carry_kyfan_gap(self, tmp_path, rng, variant):
        config = ExperimentConfig.from_dict(
            base_config(tmp_path, rng, variant=variant, tau_list=[0.3, 0.1], max_sweeps=3))
        doc = run_experiment(config)
        timings = json.loads((tmp_path / "report.json.timings.json").read_text())
        assert len(timings) == len(doc["cells"]) == 2
        for cell, entry in zip(doc["cells"], timings):
            assert [entry[key] for key in ("tau", "trial", "snr_db")] == \
                [cell[key] for key in ("tau", "trial", "snr_db")]
            assert isinstance(entry["kyfan_bound"], float)
            assert entry["kyfan_gap"] == cell["objective_trace"][-1] - entry["kyfan_bound"]
            assert entry["kyfan_gap"] >= -1e-8
        cells = json.loads((tmp_path / "report.json").read_text())["cells"]
        assert not any(key.startswith("kyfan") for cell in cells for key in cell)

    def test_failing_cell_recorded_run_continues(self, tmp_path, rng):
        # a heat-kernel scale this small underflows every affinity to 0, so
        # the graph construction fails with a DataError in every cell
        config = ExperimentConfig.from_dict(
            base_config(tmp_path, rng, epsilon=1e-300, tau_list=[0.3, 0.5])
        )
        doc = run_experiment(config)
        assert len(doc["cells"]) == 2
        assert all(c["error"].startswith("DataError: weight matrix has a zero row sum")
                   for c in doc["cells"])
        assert all(a["n_ok"] == 0 for a in doc["aggregates"])

    def test_programming_error_propagates(self, tmp_path, rng, monkeypatch):
        # only library errors become cell errors; a TypeError is a bug
        def broken_fit(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "fit", broken_fit)
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng))
        with pytest.raises(TypeError, match="bug"):
            run_experiment(config)
        with pytest.raises(TypeError, match="bug"):
            run_convergence(config)

    def test_noise_sweep_cells(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(
            base_config(tmp_path, rng, noise_snr_db=[30.0, 10.0])
        )
        doc = run_experiment(config)
        assert len(doc["cells"]) == 2
        assert [c["snr_db"] for c in doc["cells"]] == [30.0, 10.0]
        assert len(doc["baselines"]) == 2

    def test_aggregates_over_trials(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(base_config(tmp_path, rng, trials=3))
        doc = run_experiment(config)
        agg = doc["aggregates"][0]
        assert agg["n_ok"] == 3
        errors = [c["error_rate"] for c in doc["cells"]]
        assert abs(agg["mean_error"] - np.mean(errors)) < 1e-12


def float_bits(value):
    """``value`` with every float written as its exact hex, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    return value


def count_calls(monkeypatch, *names):
    """Calls of each ``(module, name)``, counted by name."""
    counts = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:
        def counted(*args, _name=name, _f=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def sidecar(out):
    """The entries of the timings sidecar of the report at ``out``."""
    return json.loads(Path(str(out) + ".timings.json").read_text())


def split_work(out):
    """The sidecar's ``work`` counts of the report at ``out``, summed per (trial, snr_db)."""
    sums = {}
    for entry in sidecar(out):
        sums.setdefault((entry["trial"], entry["snr_db"]), Counter()).update(entry["work"])
    return sums


class TestSharedSpectrum:
    """Every tau of one (trial, noise level) searches that split's KNN graph
    once and decomposes its Z once."""

    def config(self, tmp_path, rng, name="report.json", **overrides):
        images, labels = class_pixels(12, 4)
        raw = base_config(tmp_path, rng, dataset=write_idx_pair(tmp_path, images, labels),
                          reshape=[2, 2, 2, 2], class_filter=[1, 2], tau_list=[0.5, 0.3, 0.1],
                          noise_snr_db=[None, 0], trials=2, max_sweeps=5,
                          output_path=str(tmp_path / name))
        raw.update(overrides)
        return ExperimentConfig.from_dict(raw)

    def run_counted(self, monkeypatch, config):
        """The work of each split of a run of ``config``, checking that every
        cell still fits, builds its weights and builds its Z."""
        counts = count_calls(monkeypatch, (harness, "fit"), (solver, "build_weight_matrix"),
                             (solver, "build_gram"))
        doc = run_experiment(config)
        assert len(doc["cells"]) == 12 and all("error" not in c for c in doc["cells"])
        assert counts == {"fit": 12, "build_weight_matrix": 12, "build_gram": 12}
        work = split_work(config.output_path)
        assert len(work) == 4  # 2 trials x 2 levels
        return doc, work

    def test_one_eigensolve_per_split(self, tmp_path, rng, monkeypatch):
        config = self.config(tmp_path, rng)
        _, work = self.run_counted(monkeypatch, config)
        assert all(w["eigh"] == 1 for w in work.values())  # one per cell would make 12
        for _ in range(2):  # each run pays its own work, even of the same split
            run_experiment(replace(config, trials=1, noise_snr_db=None))
            assert split_work(config.output_path) == {(0, None): work[(0, None)]}

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_one_graph_search_per_split(self, tmp_path, rng, monkeypatch, variant):
        doc, work = self.run_counted(monkeypatch, self.config(tmp_path, rng, variant=variant))
        prefixes = {(c["trial"], c["snr_db"], tuple(c["ranks"][:k]))
                    for c in doc["cells"] for k in range(4)}
        # one search where one per cell would make 3, one split per distinct rank
        # prefix, and at most one eigensolve, which a TN fit may not need
        assert {split: (w["tt_svd_splits"], w["knn_searches"]) for split, w in work.items()} == {
            split: (sum(p[:2] == split for p in prefixes), 1) for split in work}
        assert all(w["eigh"] == 1 or (variant, w["eigh"]) == ("tn", 0) for w in work.values())
        assert all(w["tt_svd_splits"] < 4 * 3 for w in work.values())

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_same_report_as_unshared_fits(self, tmp_path, rng, variant):
        config = self.config(tmp_path, rng, variant=variant)
        shared = run_experiment(config)
        assert all("error" not in c for c in shared["cells"])
        taus, out = config.tau_list, tmp_path / "alone.json"
        for j, tau in enumerate(taus):  # a run of one tau gives each split's fit a holder of its own
            alone = run_experiment(replace(config, tau_list=[tau], output_path=str(out)))
            # so each fit pays all its work
            assert all((w["tt_svd_splits"], w["knn_searches"]) == (4, 1) and w["eigh"] <= 1
                       for w in (e["work"] for e in sidecar(out)))
            assert float_bits(shared["cells"][j::len(taus)]) == float_bits(alone["cells"])
            assert float_bits(shared["aggregates"][j::len(taus)]) == float_bits(alone["aggregates"])
            assert float_bits(shared["baselines"]) == float_bits(alone["baselines"])

    def test_tau_order_changes_no_cell_and_no_split_total(self, tmp_path, rng):
        config = self.config(tmp_path, rng)
        backward = replace(config, tau_list=config.tau_list[::-1],
                           output_path=str(tmp_path / "backward.json"))
        keys = ("ranks", "n_wrong", "error_rate", "objective_trace")
        cells = [{(c["trial"], c["snr_db"], c["tau"]): float_bits([c[k] for k in keys])
                  for c in run_experiment(order)["cells"]} for order in (config, backward)]
        assert cells[0] == cells[1] and len(cells[0]) == 12
        assert split_work(config.output_path) == split_work(backward.output_path)
        for order in (config, backward):  # its first tau pays each split's search and eigensolve
            assert all((e["work"]["knn_searches"], e["work"]["eigh"]) == (
                (1, 1) if e["tau"] == order.tau_list[0] else (0, 0)) for e in sidecar(order.output_path))

    @pytest.mark.parametrize("failure, error", [
        (lambda search, d_mat, k: search(d_mat, d_mat.shape[1]),
         "ConfigError: K must be < number of samples"),
        (lambda search, d_mat, k: search(d_mat * 1e-300, k),
         "DataError: sample values are too small"),
    ], ids=["check_graph_k", "too-small"])
    def test_failed_graph_search_is_recorded_and_not_held(self, tmp_path, rng, monkeypatch,
                                                          failure, error):
        config = self.config(tmp_path, rng, trials=1, noise_snr_db=None)
        want = run_experiment(replace(config, output_path=str(tmp_path / "want.json")))
        spy_calls(monkeypatch, solver, "knn_graph", first=failure)
        doc = run_experiment(config)
        assert doc["cells"][0]["error"].startswith(error)
        # the next tau searches again, and the one after reuses what it held
        assert [e["work"]["knn_searches"] for e in sidecar(config.output_path)] == [1, 0]
        assert float_bits(doc["cells"][1:]) == float_bits(want["cells"][1:])

    def test_failed_eigensolve_is_recorded_and_not_held(self, tmp_path, rng, monkeypatch):
        config = self.config(tmp_path, rng, trials=1, noise_snr_db=None)
        want = run_experiment(replace(config, output_path=str(tmp_path / "want.json")))
        spy_calls(monkeypatch, np.linalg, "eigh", first=no_convergence)
        doc = run_experiment(config)
        assert doc["cells"][0]["error"] == "LinAlgError: Eigenvalues did not converge"
        assert [e["work"]["eigh"] for e in sidecar(config.output_path)] == [1, 0]
        assert float_bits(doc["cells"][1:]) == float_bits(want["cells"][1:])


class TestRunConvergence:
    def config(self, tmp_path, rng):
        return ExperimentConfig.from_dict(
            base_config(tmp_path, rng, output_path=str(tmp_path / "conv.json")))

    def test_one_graph_search_for_both_variants(self, tmp_path, rng):
        config = self.config(tmp_path, rng)
        shared = run_convergence(config)
        assert not any("error" in entry for entry in shared["traces"].values())
        # the ATN fit reuses the TN fit's search and TT-SVD, unless it has a holder of its own
        assert [(e["work"]["knn_searches"], e["work"]["tt_svd_splits"])
                for e in sidecar(config.output_path)] == [(1, 3), (0, 0)]
        train = harness.trial_data(config, *load_dataset(config))[0]
        for variant in ("tn", "atn"):  # each on a holder of its own
            split_cache = solver.SplitCache(train, AffinityConfig(config.k_graph, config.epsilon))
            chain, report = harness.fit_config(replace(config, variant=variant), split_cache,
                                               config.tau_list[0])
            assert (report.work["knn_searches"], report.work["tt_svd_splits"]) == (1, 3)
            alone = {"objective_trace": report.objective_trace,
                     "surrogate_trace": report.surrogate_trace,
                     "core_change_trace": report.core_change_trace,
                     "kyfan_bound": report.kyfan_bound, "sweeps": report.sweeps_run,
                     "termination": report.termination_reason, "ranks": list(chain.ranks)}
            assert float_bits(shared["traces"][variant]) == float_bits(alone)

    def test_one_eigensolve_for_both_variants(self, tmp_path, rng):
        config = self.config(tmp_path, rng)  # N = 10 > d = 8, so R_n > d - N
        traces = run_convergence(config)["traces"]
        # TN's bound and ATN's target share it
        assert [e["work"]["eigh"] for e in sidecar(config.output_path)] == [1, 0]
        bounds = [traces[variant]["kyfan_bound"] for variant in ("tn", "atn")]
        assert bounds[0] > 0.0 and bounds[0].hex() == bounds[1].hex()

    def test_one_timings_entry_per_fitted_variant(self, tmp_path, rng):
        config = self.config(tmp_path, rng)
        doc = run_convergence(config)
        entries = sidecar(config.output_path)
        assert [list(e) for e in entries] == [["variant", "tau", "subspace_learning"]
                                              + SOLVER_TIMING_KEYS] * 2
        assert [(e["variant"], e["tau"]) for e in entries] == [("tn", 0.3), ("atn", 0.3)]
        for entry in entries:
            trace = doc["traces"][entry["variant"]]
            assert entry["subspace_learning"] >= entry["sweeps"] >= 0.0
            assert entry["kyfan_bound"] == trace["kyfan_bound"]
            assert entry["kyfan_gap"] == trace["objective_trace"][-1] - trace["kyfan_bound"]
        assert len(entries[0]["core_solves"]) == doc["traces"]["tn"]["sweeps"]
        assert entries[1]["core_solves"] == []
        # one search, one TT-SVD split per distinct rank prefix, at most one eigensolve
        prefixes = {tuple(trace["ranks"][:k]) for trace in doc["traces"].values() for k in range(3)}
        work = sum((Counter(e["work"]) for e in entries), Counter())
        assert (work["knn_searches"], work["tt_svd_splits"]) == (1, len(prefixes))
        assert work["eigh"] <= 1

    def test_failed_variant_has_no_timings_entry(self, tmp_path, rng, monkeypatch):
        config = self.config(tmp_path, rng)
        spy_calls(monkeypatch, solver, "knn_graph",
                  first=lambda search, d_mat, k: search(d_mat, d_mat.shape[1]))
        traces = run_convergence(config)["traces"]
        assert traces["tn"]["error"].startswith("ConfigError: K must be < number of samples")
        assert "error" not in traces["atn"]
        # the failed search held nothing, so the ATN fit pays it
        assert [(e["variant"], e["work"]["knn_searches"])
                for e in sidecar(config.output_path)] == [("atn", 1)]

    def test_both_variants_traced(self, tmp_path, rng):
        config = ExperimentConfig.from_dict(
            base_config(tmp_path, rng, output_path=str(tmp_path / "conv.json"))
        )
        doc = run_convergence(config)
        for variant in ("tn", "atn"):
            entry = doc["traces"][variant]
            assert "error" not in entry
            trace = entry["objective_trace"]
            assert min(trace) >= entry["kyfan_bound"] - 1e-8
        # only the exact variant guarantees a monotone objective; the relaxed
        # variant descends on its surrogate instead
        tn_trace = doc["traces"]["tn"]["objective_trace"]
        assert all(b <= a + 1e-8 for a, b in zip(tn_trace, tn_trace[1:]))
        assert doc["traces"]["atn"]["surrogate_trace"]
        assert (tmp_path / "conv.json").exists()


# A core value no float64 holds: json reads the digits as an int.
OVERSIZED_MODEL = ('{"format_version": 1, "cores": [{"order": "mode1-fastest", "shape": [1, 1, 1], '
                   '"data": [1' + "0" * 400 + ']}], "mode_dims": [1], "ranks": [1]}')


def edit_data(convert):
    """An edit of a saved model that replaces each core value v with ``convert(v)``."""
    def edit(doc):
        for core in doc["cores"]:
            core["data"] = [convert(v) for v in core["data"]]
    return edit


# Edits of a saved (2, 2, 2) model of ranks (1, 1, 1), each to a value of the
# wrong type that equals, or converts to, the saved one.
WRONGLY_TYPED = {
    "bool-ranks": lambda doc: doc.update(ranks=[True, True, True]),
    "float-mode-dims": lambda doc: doc.update(mode_dims=[2.0, 2.0, 2.0]),
    "str-data": edit_data(repr),
    "bool-data": edit_data(lambda v: v > 0),
    "nested-data": edit_data(lambda v: [v]),
    "bool-format-version": lambda doc: doc.update(format_version=True),
    "str-tau": lambda doc: doc.update(tau="abc"),
}


class TestCli:
    def write_config(self, tmp_path, rng, **overrides):
        raw = base_config(tmp_path, rng, **overrides)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        return p, raw

    def test_import_leaves_hashlib_unloaded(self):
        # nothing in ttnpe hashes data; hashlib costs milliseconds of every command's start
        src = str(Path(ttnpe.__file__).resolve().parents[1])
        path_dirs = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_dirs)))
        script = "import sys, ttnpe.cli; assert 'hashlib' not in sys.modules, 'hashlib imported'"
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    def test_experiment_exit_zero(self, tmp_path, rng):
        cfg, raw = self.write_config(tmp_path, rng)
        assert main(["experiment", "--config", str(cfg)]) == 0
        assert (tmp_path / "report.json").exists()

    def test_out_override(self, tmp_path, rng):
        cfg, _ = self.write_config(tmp_path, rng)
        out = tmp_path / "other.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_fit_embed_classify_pipeline(self, tmp_path, rng):
        cfg, raw = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        assert model.exists()

        coords = tmp_path / "coords.csv"
        assert main(["embed", "--config", str(cfg), "--model", str(model),
                     "--out", str(coords)]) == 0
        lines = coords.read_text().splitlines()
        assert lines[0].startswith("index,label,t0")
        assert len(lines) == 17

        result = tmp_path / "cls.json"
        assert main(["classify", "--config", str(cfg), "--model", str(model),
                     "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        assert doc["n_test"] == 6
        assert len(doc["predictions"]) == 6
        wrong = sum(p != t for p, t in zip(doc["predictions"], doc["labels"]))
        assert doc["n_wrong"] == wrong
        assert doc["error_rate"] == wrong / 6

    def test_convergence_command(self, tmp_path, rng):
        cfg, _ = self.write_config(tmp_path, rng)
        out = tmp_path / "conv.json"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["traces"]) == {"tn", "atn"}

    def test_config_error_exit_code(self, tmp_path, rng):
        raw = base_config(tmp_path, rng, bogus=1)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(p)]) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("tau_list", [1.5], "tau"),
        ("tau_list", [0.0], "tau"),
        ("k_graph", 0, "k_neighbors"),
        ("k_classify", 0, "k_classify"),
        ("epsilon", "mean", "epsilon"),
        ("n_train_per_class", 0, "n_train_per_class"),
        ("n_test_per_class", 0, "n_test_per_class"),
        ("reshape", "abc", "reshape"),
        ("reshape", [2, 0, 4], "reshape"),
        ("trials", "2", "trials"),
        ("seed", "x", "seed"),
        ("seed", -1, "seed"),
        ("max_sweeps", -1, "max_sweeps"),
        ("max_sweeps", 1.5, "max_sweeps"),
        ("rank_cap", "x", "rank_cap"),
        ("rank_cap", 0, "rank_cap"),
        ("rank_cap", [2, 2], "rank_cap"),
        ("rank_cap", [2, None, "x"], "rank_cap"),
        ("noise_snr_db", ["a"], "noise_snr_db"),
        ("noise_snr_db", 30.0, "noise_snr_db"),
        ("dataset", {"format": "csv", "path": "data.csv"}, "label_column"),
        ("dataset", {"format": "csv", "path": "data.csv", "label_column": "0"}, "label_column"),
        ("dataset", {"format": "csv", "label_column": 0}, "path"),
        ("dataset", {"format": "csv", "path": 5, "label_column": 0}, "path"),
        ("dataset", {"format": "idx", "image_path": "images"}, "label_path"),
        ("dataset", {"format": "idx", "label_path": "labels"}, "image_path"),
        ("dataset", {"format": "idx", "image_path": "images", "label_path": ["labels"]}, "label_path"),
        ("dataset", 5, "dataset must be an object"),
        ("class_filter", "x", "class_filter"),
        ("class_filter", [1, "a"], "class_filter"),
        ("class_filter", [[1]], "class_filter"),
        ("class_filter", [], "class_filter"),
        ("class_filter", [9], "class_filter labels [9] are not in the dataset"),
        ("tau_list", 5, "tau_list"),
        ("reshape", 8, "reshape"),
        ("k_graph", True, "k_neighbors"),
        ("epsilon", float("nan"), "epsilon"),
        ("noise_snr_db", [float("inf")], "noise_snr_db"),
        ("output_path", 5, "output_path"),
        ("k_classify", 11, "K must be"),
        ("epsilon", True, "epsilon"),
        ("noise_snr_db", [4000], "noise_snr_db"),
        ("noise_snr_db", [-4000], "noise_snr_db"),
        ("noise_snr_db", [-3230], "noise_snr_db"),
        ("noise_snr_db", [-3080], "noise_snr_db"),
        ("noise_snr_db", [float("-inf")], "noise_snr_db"),
        ("noise_snr_db", [float("nan")], "noise_snr_db"),
        ("dataset", {"format": "csv", "path": "data.csv", "label_column": 0,
                     "label_path": "labels"}, "label_path"),
        ("dataset", {"format": "csv", "image_path": "data.csv", "label_column": 0}, "image_path"),
        ("dataset", {"format": "idx", "image_path": "images", "label_path": "labels",
                     "path": "data.csv"}, "['path']"),
        ("dataset", {"format": "idx", "image_path": "images", "label_path": "labels",
                     "label_column": 0}, "label_column"),
        ("k_graph", 10, "K must be < number of samples, got K=10, N=10"),
        ("dataset", {"format": "csv", "path": "data.csv", "label_column": -1},
         "dataset.label_column must be an int >= 0, got -1"),
        pytest.param("epsilon", 10**400, "epsilon must be positive and finite", id="epsilon-oversized"),
        pytest.param("class_filter", [0, 10**400], "class_filter must be null or a nonempty list",
                     id="class_filter-oversized"),
        pytest.param("reshape", [2**40, 2**40], "reshape [1099511627776, 1099511627776] has "
                     "1208925819614629174706176 elements but samples have 8", id="reshape-product"),
    ])
    def test_bad_config_value_exit_code(self, tmp_path, rng, capsys, key, value, message):
        cfg, _ = self.write_config(tmp_path, rng, **{key: value})
        assert main(["experiment", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["experiment", "convergence", "fit"])
    def test_seed_override_checked_as_config(self, tmp_path, rng, capsys, command):
        cfg, _ = self.write_config(tmp_path, rng)
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("config error: seed must be an int >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("embed", "--seed"), ("embed", "--variant"), ("classify", "--variant"),
        ("convergence", "--variant"),
    ])
    def test_flag_the_command_ignores_rejected(self, tmp_path, rng, capsys, command, flag):
        cfg, _ = self.write_config(tmp_path, rng)
        model = ["--model", "m.json"] if command in ("embed", "classify") else []
        value = "tn" if flag == "--variant" else "1"
        assert main([command, "--config", str(cfg), *model, flag, value]) == 1
        assert capsys.readouterr().err == f"config error: unrecognized arguments: {flag} {value}\n"

    @pytest.mark.parametrize("fmt, label", [("csv", "0.0"), ("idx", "0")])
    def test_short_class_error_names_the_plain_label(self, tmp_path, rng, capsys, fmt, label):
        overrides = {}
        if fmt == "idx":  # int64 labels from the file's uint8 bytes, 8 per class
            overrides = {"dataset": write_idx_pair(tmp_path, *class_pixels(8, 2)), "reshape": [2, 2]}
        cfg, _ = self.write_config(tmp_path, rng, n_train_per_class=6, **overrides)
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"data error: class {label} has 8 samples, needs 9\n"

    def test_data_error_exit_code(self, tmp_path, rng):
        # too few samples per class for the requested split
        cfg, _ = self.write_config(tmp_path, rng, n_train_per_class=50)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2

    def test_split_error_keeps_previous_report(self, tmp_path, rng):
        cfg, raw = self.write_config(tmp_path, rng)
        assert main(["experiment", "--config", str(cfg)]) == 0
        paths = [tmp_path / ("report.json" + suffix) for suffix in ("", ".timings.json", ".csv")]
        before = [p.read_bytes() for p in paths]
        too_many, _ = self.write_config(tmp_path, rng, n_train_per_class=50)
        assert main(["experiment", "--config", str(too_many)]) == 2
        assert [p.read_bytes() for p in paths] == before

    def test_bad_noise_level_keeps_previous_report(self, tmp_path, rng, capsys):
        cfg, _ = self.write_config(tmp_path, rng)
        assert main(["experiment", "--config", str(cfg)]) == 0
        paths = [tmp_path / ("report.json" + suffix) for suffix in ("", ".timings.json", ".csv")]
        before = [p.read_bytes() for p in paths]
        loud, _ = self.write_config(tmp_path, rng, noise_snr_db=[-3230])
        assert main(["experiment", "--config", str(loud)]) == 1
        assert capsys.readouterr().err.startswith("config error: noise_snr_db level -3230")
        assert [p.read_bytes() for p in paths] == before

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_fit_classify_match_experiment_cell(self, tmp_path, rng, variant):
        # fit, classify and convergence all work on the report's first cell:
        # trial 0 at the first noise level, noise-free or not.
        for snr in (None, [0, None]):
            cfg, _ = self.write_config(tmp_path, rng, tau_list=[0.3, 0.6], trials=2,
                                       max_sweeps=3, noise_snr_db=snr)
            flags = ["--config", str(cfg), "--variant", variant]
            assert main(["experiment", *flags]) == 0
            cell = json.loads((tmp_path / "report.json").read_text())["cells"][0]
            assert (cell["tau"], cell["trial"], cell["snr_db"]) == (0.3, 0, snr and snr[0])
            model = tmp_path / "model.json"
            assert main(["fit", *flags, "--out", str(model)]) == 0
            result = tmp_path / "cls.json"
            assert main(["classify", "--config", str(cfg), "--model", str(model),
                         "--out", str(result)]) == 0
            doc = json.loads(result.read_text())
            assert (doc["n_wrong"], doc["error_rate"]) == (cell["n_wrong"], cell["error_rate"])
            conv = tmp_path / "conv.json"
            assert main(["convergence", "--config", str(cfg), "--out", str(conv)]) == 0
            trace = json.loads(conv.read_text())["traces"][variant]
            assert trace["objective_trace"] == cell["objective_trace"]

    def test_nan_csv_exit_code(self, tmp_path, rng):
        cfg, raw = self.write_config(tmp_path, rng)
        path = raw["dataset"]["path"]
        lines = Path(path).read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        Path(path).write_text("\n".join(lines) + "\n")
        assert main(["experiment", "--config", str(cfg)]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_epsilon_is_a_data_error_without_a_warning(self, tmp_path, rng, capsys):
        # d_ij^2 / 5e-324 overflows, so every weight and every row sum is 0
        cfg, raw = self.write_config(tmp_path, rng, epsilon=5e-324)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "model.json")]) == 2
        assert "zero row sum" in capsys.readouterr().err
        doc = run_experiment(ExperimentConfig.from_dict(raw))
        assert doc["cells"][0]["error"].startswith("DataError: weight matrix has a zero row sum")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_signal_power_is_a_config_error_without_a_warning(self, tmp_path, rng,
                                                                          capsys):
        cfg, raw = self.write_config(tmp_path, rng, noise_snr_db=[0])
        path = Path(raw["dataset"]["path"])
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(f"{row[0]}," + ",".join(repr(1e200 * (1.0 + 0.01 * float(v)))
                                                        for v in row[1:]) + "\n" for row in rows))
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "noise_snr_db" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "classify"])
    def test_model_reshape_mismatch_exit_code(self, tmp_path, rng, capsys, command):
        cfg, _ = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        other, _ = self.write_config(tmp_path, rng, reshape=[2, 4])
        assert main([command, "--config", str(other), "--model", str(model),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "mode dims [2, 2, 2]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["{not json", '{"format_version": 1}', "[1, 2]",
                                      '{"format_version": 1, "cores": [5]}',
                                      pytest.param("[" * 200_000, id="deep"),
                                      pytest.param(OVERSIZED_MODEL, id="oversized-value")]
                             + [pytest.param(edit, id=name) for name, edit in WRONGLY_TYPED.items()])
    def test_malformed_model_exit_code(self, tmp_path, rng, capsys, text):
        cfg, _ = self.write_config(tmp_path, rng)
        model, out = tmp_path / "model.json", tmp_path / "coords.csv"
        if callable(text):  # an edit of a saved model, not the file's text
            save_chain(random_orthonormal_chain(rng, (2, 2, 2), (1, 1, 1)), model)
            doc = json.loads(model.read_text())
            text(doc)
            text = json.dumps(doc)
        model.write_text(text)
        assert main(["classify", "--config", str(cfg), "--model", str(model)]) == 2
        assert main(["embed", "--config", str(cfg), "--model", str(model), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("data error: ") for line in err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_model_exit_code(self, tmp_path, rng, capsys, value):
        cfg, _ = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["cores"][1]["data"][0] = value
        model.write_text(json.dumps(doc))
        out = tmp_path / "coords.csv"
        assert main(["embed", "--config", str(cfg), "--model", str(model), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "NaN or infinite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "embed"])
    def test_zero_rank_model_exit_code(self, tmp_path, rng, capsys, command):
        cfg, _ = self.write_config(tmp_path, rng)
        model, out = tmp_path / "model.json", tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["cores"][-1].update(shape=doc["cores"][-1]["shape"][:2] + [0], data=[])
        doc["ranks"][-1] = 0
        model.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ") and not out.exists()

    @pytest.mark.parametrize("missing, code", [("config", 1), ("model", 2), ("dataset", 2)])
    def test_missing_file_exit_code(self, tmp_path, rng, capsys, missing, code):
        cfg, raw = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        gone = {"config": cfg, "model": model, "dataset": raw["dataset"]["path"]}[missing]
        (tmp_path / gone).unlink()
        assert main(["classify", "--config", str(cfg), "--model", str(model)]) == code
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [(-2, 2, 2), (3, -2, -2)])
    def test_negative_idx_dimension_exit_code(self, tmp_path, rng, capsys, dims):
        # 23 labels over two classes: (-2, 2, 2) used to load 23 garbage
        # images, and (3, -2, -2) ended in a reshape traceback
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">iiii", 0x803, *dims) + bytes(range(100)))
        labels.write_bytes(struct.pack(">ii", 0x801, 23) + bytes([0] * 12 + [1] * 11))
        dataset = {"format": "idx", "image_path": str(images), "label_path": str(labels)}
        cfg, _ = self.write_config(tmp_path, rng, dataset=dataset, reshape=[2, 2])
        assert main(["experiment", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "negative dimension" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["experiment", "convergence", "fit", "embed", "classify"])
    def test_unwritable_output_exit_code(self, tmp_path, rng, capsys, command):
        cfg, _ = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "no-such-dir" / "out")]
        if command in ("embed", "classify"):
            args += ["--model", str(model)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output") and "no-such-dir" in err

    @pytest.mark.parametrize("command", ["experiment", "convergence", "fit", "embed", "classify"])
    def test_empty_output_path_exit_code(self, tmp_path, rng, capsys, command):
        # an empty --out names no file; only a missing --out means stdout (classify)
        cfg, _ = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        capsys.readouterr()
        args = [command, "--config", str(cfg), "--out", ""]
        if command in ("embed", "classify"):
            args += ["--model", str(model)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write output ''") and not captured.out

    @pytest.mark.parametrize("command, blocked", [
        ("experiment", ""), ("experiment", ".timings.json"), ("experiment", ".csv"),
        ("convergence", ""), ("convergence", ".timings.json"), ("fit", ""),
    ])
    def test_unwritable_output_fails_before_any_fit(self, tmp_path, rng, capsys, monkeypatch,
                                                    command, blocked):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the output paths were checked")

        cfg, _ = self.write_config(tmp_path, rng)
        out = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        (tmp_path / ("out.json" + blocked)).unlink()
        (tmp_path / ("out.json" + blocked)).mkdir()  # a directory cannot be opened for writing
        kept = {p: p.read_bytes() for p in tmp_path.glob("out.json*") if p.is_file()}
        monkeypatch.setattr(harness, "fit", no_fit)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot write output")
        assert {p: p.read_bytes() for p in kept} == kept  # the other outputs stay as they were

    def test_graph_k_beyond_split_exit_code(self, tmp_path, rng, capsys):
        cfg, _ = self.write_config(tmp_path, rng, k_graph=10)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: K must be")

    @pytest.mark.parametrize("command, suffixes", [
        ("experiment", ("", ".timings.json", ".csv")), ("convergence", ("", ".timings.json")),
        ("fit", ("",)),
    ])
    def test_graph_k_beyond_split_keeps_previous_output(self, tmp_path, rng, capsys, monkeypatch,
                                                        command, suffixes):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran for a graph K the split cannot hold")

        cfg, _ = self.write_config(tmp_path, rng)
        out = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        paths = [tmp_path / ("out.json" + suffix) for suffix in suffixes]
        before = [p.read_bytes() for p in paths]
        assert all(before)
        monkeypatch.setattr(harness, "fit", no_fit)
        too_big, _ = self.write_config(tmp_path, rng, k_graph=10)
        assert main([command, "--config", str(too_big), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: K must be < number of samples, got K=10, N=10")
        assert [p.read_bytes() for p in paths] == before

    def test_failed_fit_keeps_previous_model(self, tmp_path, rng, capsys):
        cfg, _ = self.write_config(tmp_path, rng)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        before = model.read_bytes()
        tiny_eps, _ = self.write_config(tmp_path, rng, epsilon=1e-300)
        assert main(["fit", "--config", str(tiny_eps), "--out", str(model)]) == 2
        assert "zero row sum" in capsys.readouterr().err
        assert model.read_bytes() == before

    @pytest.mark.parametrize("command, suffixes", [
        ("experiment", ("", ".timings.json", ".csv")), ("convergence", ("", ".timings.json")),
    ])
    def test_interrupted_run_keeps_previous_output(self, tmp_path, rng, monkeypatch,
                                                   command, suffixes):
        cfg, _ = self.write_config(tmp_path, rng)
        out = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        paths = [tmp_path / ("out.json" + suffix) for suffix in suffixes]
        before = [p.read_bytes() for p in paths]
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "fit", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main([command, "--config", str(cfg), "--out", str(out)])
        assert [p.read_bytes() for p in paths] == before

    def test_failed_fit_leaves_no_new_model(self, tmp_path, rng, capsys):
        tiny_eps, _ = self.write_config(tmp_path, rng, epsilon=1e-300)
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(tiny_eps), "--out", str(model)]) == 2
        assert "zero row sum" in capsys.readouterr().err
        assert not os.path.lexists(model)

    @pytest.mark.parametrize("command, suffixes", [
        ("experiment", ("", ".timings.json", ".csv")), ("convergence", ("", ".timings.json")),
    ])
    def test_interrupted_run_leaves_no_new_output(self, tmp_path, rng, monkeypatch,
                                                  command, suffixes):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        cfg, _ = self.write_config(tmp_path, rng)
        monkeypatch.setattr(harness, "fit", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")])
        assert not any(os.path.lexists(tmp_path / ("out.json" + s)) for s in suffixes)

    def test_probe_leaves_no_new_output(self, tmp_path):
        harness.probe_output(tmp_path / "new.json")
        assert not os.path.lexists(tmp_path / "new.json")
        old = tmp_path / "old.json"
        old.write_bytes(b"{}\n")
        harness.probe_output(old)
        assert old.read_bytes() == b"{}\n"

    def test_probe_leaves_no_target_behind_a_dangling_symlink(self, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "target.json")
        harness.probe_output(link)
        assert link.is_symlink() and not os.path.lexists(tmp_path / "target.json")
        with pytest.raises(ConfigError, match=r"cannot write output 'a\\x00b'"):
            harness.probe_output("a\0b")

    def test_output_symlink_is_written_through(self, tmp_path, rng, capsys):
        link, target = tmp_path / "link.json", tmp_path / "target.json"
        link.symlink_to(target)
        tiny_eps, _ = self.write_config(tmp_path, rng, epsilon=1e-300)
        assert main(["fit", "--config", str(tiny_eps), "--out", str(link)]) == 2
        assert "zero row sum" in capsys.readouterr().err
        assert link.is_symlink() and not os.path.lexists(target)
        cfg, _ = self.write_config(tmp_path, rng)
        assert main(["fit", "--config", str(cfg), "--out", str(link)]) == 0
        assert link.is_symlink() and load_chain(target).ranks

    @pytest.mark.parametrize("command", ["experiment", "embed"])
    def test_idx_without_images_exit_code(self, tmp_path, rng, capsys, command):
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">iiii", 0x803, 0, 2, 2))
        labels.write_bytes(struct.pack(">ii", 0x801, 0))
        dataset = {"format": "idx", "image_path": str(images), "label_path": str(labels)}
        cfg, _ = self.write_config(tmp_path, rng, dataset=dataset, reshape=[2, 2])
        model = tmp_path / "model.json"
        save_chain(random_orthonormal_chain(rng, (2, 2), (1, 1)), model)
        out = tmp_path / "out"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--model", str(model)] if command == "embed" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no images" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["idx", "csv"])
    def test_no_feature_values_exit_code(self, tmp_path, rng, capsys, fmt):
        if fmt == "idx":
            images, labels = tmp_path / "images", tmp_path / "labels"
            images.write_bytes(struct.pack(">iiii", 0x803, 4, 0, 0))
            labels.write_bytes(struct.pack(">ii", 0x801, 4) + bytes(4))
            dataset = {"format": "idx", "image_path": str(images), "label_path": str(labels)}
            reshape = [2, 2]
        else:
            csv_path = tmp_path / "labels.csv"
            csv_path.write_text("0\n1\n0\n1\n")
            dataset = {"format": "csv", "path": str(csv_path), "label_column": 0}
            reshape = [1]
        cfg, _ = self.write_config(tmp_path, rng, dataset=dataset, reshape=reshape)
        out = tmp_path / "out.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no feature values" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_out_for_fit(self, tmp_path, rng):
        cfg, _ = self.write_config(tmp_path, rng)
        assert main(["fit", "--config", str(cfg)]) == 1

    def test_seed_override_changes_split(self, tmp_path, rng):
        cfg, _ = self.write_config(tmp_path, rng)
        r1 = tmp_path / "s1.json"
        r2 = tmp_path / "s2.json"
        model = tmp_path / "model.json"
        assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
        assert main(["classify", "--config", str(cfg), "--model", str(model),
                     "--out", str(r1), "--seed", "1"]) == 0
        assert main(["classify", "--config", str(cfg), "--model", str(model),
                     "--out", str(r2), "--seed", "2"]) == 0
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        assert d1["n_test"] == d2["n_test"] == 6


class TestRunCommands:
    """``run_fit``, ``run_classify`` and ``run_embed`` write what their subcommands write."""

    @staticmethod
    def tiny_csv_config(tmp_path):
        # the tiny CSV config of the CI's installed-command step
        rng = np.random.default_rng(0)
        rows = [[c] + list(6.0 * c + 0.3 * rng.standard_normal(8)) for c in (0, 1) for _ in range(8)]
        np.savetxt(tmp_path / "data.csv", rows, delimiter=",")
        raw = {"dataset": {"format": "csv", "path": str(tmp_path / "data.csv"), "label_column": 0},
               "reshape": [2, 2, 2], "n_train_per_class": 5, "n_test_per_class": 3,
               "tau_list": [0.3], "k_graph": 3, "k_classify": 1, "max_sweeps": 5,
               "output_path": str(tmp_path / "report.json")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_same_bytes_as_the_cli(self, tmp_path, capsys, variant):
        cfg = self.tiny_csv_config(tmp_path)
        config = replace(ExperimentConfig.from_file(cfg), variant=variant)
        model, result, coords = (str(tmp_path / name)
                                 for name in ("model.json", "classify.json", "coords.csv"))
        harness.run_fit(config, model)
        doc = harness.run_classify(config, model, result)
        harness.run_embed(config, model, coords)
        outputs = (model, result, coords)
        library = [Path(p).read_bytes() for p in outputs]
        assert main(["fit", "--config", cfg, "--variant", variant, "--out", model]) == 0
        assert main(["classify", "--config", cfg, "--model", model, "--out", result]) == 0
        assert main(["embed", "--config", cfg, "--model", model, "--out", coords]) == 0
        assert [Path(p).read_bytes() for p in outputs] == library
        assert json.loads(library[1]) == doc
        cell = run_experiment(config)["cells"][0]
        assert (doc["n_wrong"], doc["error_rate"]) == (cell["n_wrong"], cell["error_rate"])

        assert main(["classify", "--config", cfg, "--model", model]) == 0
        assert capsys.readouterr().out.encode() == library[1]
        harness.run_classify(config, model)
        assert capsys.readouterr().out.encode() == library[1]


def raising(exc):
    def call(*args):
        raise exc
    return call


class TestAllocatorPolicy:
    """``main`` sets glibc's mmap and trim thresholds; results never depend on it."""

    @staticmethod
    def config_file(directory, rng, **overrides):
        directory.mkdir()
        path = directory / "config.json"
        path.write_text(json.dumps(base_config(directory, rng, **overrides)))
        return str(path)

    def test_set_on_every_call_before_the_config_is_read(self, tmp_path, rng, monkeypatch):
        events = []

        def mallopt(param, value):
            events.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        read = ExperimentConfig.from_file
        monkeypatch.setattr(ExperimentConfig, "from_file",
                            staticmethod(lambda path: events.append("config") or read(path)))
        good = self.config_file(tmp_path / "good", rng)
        bad = self.config_file(tmp_path / "bad", rng, bogus=1)
        assert main(["experiment", "--config", good]) == 0
        assert main(["experiment", "--config", bad]) == 1
        policy = [(cli.M_MMAP_THRESHOLD, 32 * 2 ** 20), (cli.M_TRIM_THRESHOLD, 2 ** 30), "config"]
        assert events == policy + policy
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    @pytest.mark.parametrize("cdll", [
        pytest.param(lambda name: types.SimpleNamespace(), id="no-mallopt-symbol"),
        pytest.param(raising(OSError("no C library handle")), id="no-libc-handle"),
        pytest.param(raising(TypeError("expected str, not NoneType")), id="no-dlopen-of-none"),
    ])
    def test_libc_without_mallopt_is_a_silent_noop(self, tmp_path, rng, monkeypatch, capsys,
                                                   cdll):
        # exit 0, 1 (unknown key) and 2 (too few samples for the split)
        cases = [self.config_file(tmp_path / str(i), rng, **overrides)
                 for i, overrides in enumerate([{}, {"bogus": 1}, {"n_train_per_class": 50}])]

        def run_all():
            runs = []
            for config in cases:
                code = main(["experiment", "--config", config])
                runs.append((code, capsys.readouterr()))
            return runs

        with_policy = run_all()
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        without = run_all()
        assert [code for code, _ in with_policy] == [0, 1, 2]
        assert without == with_policy

    @pytest.mark.parametrize("variant", ["atn", "tn"])
    def test_report_bytes_same_as_library_without_policy(self, tmp_path, variant):
        # d = 256 and N = 80: Y, Z and eigh's workspace exceed glibc's default
        # 128 KiB mmap threshold, so the policy changes where they are placed.
        rng = np.random.default_rng(3)
        config = base_config(tmp_path, rng, reshape=[4, 4, 4, 4], n_train_per_class=40,
                             n_test_per_class=20, tau_list=[0.5, 0.2], k_classify=3,
                             max_sweeps=5, variant=variant)
        write_cluster_csv(tmp_path / "data.csv", rng, per_class=60, d=256)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        scripts = [
            f"from ttnpe.cli import main; raise SystemExit(main(['experiment', '--config', "
            f"{str(path)!r}, '--out', {str(out)!r}]))",
            "from dataclasses import replace; from ttnpe.harness import ExperimentConfig, "
            f"run_experiment; run_experiment(replace(ExperimentConfig.from_file({str(path)!r}), "
            f"output_path={str(out)!r}))",
        ]
        src = str(Path(ttnpe.__file__).resolve().parents[1])
        path_dirs = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_dirs)))
        written = []
        for script in scripts:
            subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)
            written.append((out.read_bytes(), Path(f"{out}.csv").read_bytes()))
        assert written[0] == written[1]
        assert all("error" not in cell for cell in json.loads(written[0][0])["cells"])


class TestExtremeNoise:
    """The CI tiny CSV drowned in noise: every sample entry stays finite, but
    Z = Y Y^T nears the float range, so the sum of its squared entries
    overflows."""

    LEVELS = [-3020, -2900, -2500]

    def config(self, tmp_path, snr_db):
        return base_config(tmp_path, np.random.default_rng(0), seed=0, max_sweeps=5,
                           noise_snr_db=[snr_db])

    @pytest.mark.parametrize("snr_db", LEVELS)
    def test_runs_without_overflow_warning(self, tmp_path, snr_db):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.config(tmp_path, snr_db)))
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for variant in ("atn", "tn"):
                assert main(["experiment", "--config", str(path), "--variant", variant,
                             "--out", str(out)]) == 0
                assert all("error" not in c for c in json.loads(out.read_text())["cells"])
            assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        for entry in json.loads(out.read_text())["traces"].values():
            assert "error" not in entry
            bound = entry["kyfan_bound"]
            assert min(entry["objective_trace"]) >= bound - 1e-8 * max(1.0, abs(bound))

    @pytest.mark.parametrize("snr_db", LEVELS)
    def test_kyfan_check_still_fires(self, tmp_path, monkeypatch, snr_db):
        config = ExperimentConfig.from_dict(self.config(tmp_path, snr_db))
        samples, labels = load_dataset(config)
        train = harness.trial_data(config, samples, labels)[0]
        monkeypatch.setattr(solver, "objective", lambda problem: -1e300)
        for variant in ("atn", "tn"):
            cache = solver.SplitCache(train, AffinityConfig(config.k_graph))
            with pytest.raises(NumericError, match="spectral lower bound"):
                harness.fit_config(replace(config, variant=variant), cache, config.tau_list[0])
