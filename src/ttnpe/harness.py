"""Experiment driver: declarative configs, seeded train/test splits, tau
sweeps producing error-vs-compression curves, convergence traces, and
machine-readable reports; one ``run_<command>`` function per CLI subcommand.

The main report document is fully determined by (config, seed): wall-clock
timings are written to a separate ``<out>.timings.json`` sidecar so the
report bytes stay reproducible.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from ttnpe.classifier import evaluate
from ttnpe.datasets import add_noise, float_samples, load_csv, noise_sigma, read_idx_pixels
from ttnpe.errors import ConfigError, DataError, NumericError, is_int, is_number, load_json, require_int
from ttnpe.nearest import check_k
from ttnpe.neighborhood_graph import AffinityConfig, check_graph_k
from ttnpe.solver import SplitCache, check_sweep_args, fit
from ttnpe.tt_subspace import TTChain, check_tt_args, load_chain, project_many, save_chain

_DATASET_KEYS = {"idx": ("format", "image_path", "label_path"),
                 "csv": ("format", "path", "label_column")}


@dataclass(kw_only=True)
class ExperimentConfig:
    """An experiment; a bad key raises ConfigError naming it, the solver's keys by
    ``fit``'s own rules. Field order is the key order of the report's "config"."""

    dataset: dict
    class_filter: list | None = None
    reshape: list[int]
    n_train_per_class: int
    n_test_per_class: int
    tau_list: list[float]
    variant: str = "atn"
    k_graph: int = 5
    k_classify: int = 5
    epsilon: float | str = "median"
    noise_snr_db: list | None = None
    trials: int = 1
    seed: int = 0
    max_sweeps: int = 50
    rank_cap: int | list | None = None
    output_path: str

    def __post_init__(self):
        for name, low in (("trials", 1), ("seed", 0), ("k_classify", 1),
                          ("n_train_per_class", 1), ("n_test_per_class", 1)):
            require_int(getattr(self, name), name, low)
        check_sweep_args(self.variant, self.max_sweeps)
        if (not isinstance(self.reshape, list) or not self.reshape
                or not all(is_int(i, 1) for i in self.reshape)):
            raise ConfigError(f"reshape must be a list of positive ints, got {self.reshape!r}")
        if not isinstance(self.tau_list, list) or not self.tau_list:
            raise ConfigError(f"tau_list must be a nonempty list, got {self.tau_list!r}")
        for tau in self.tau_list:
            check_tt_args(tau, self.rank_cap, len(self.reshape), "every tau_list entry")
        labels = self.class_filter
        if labels is not None and not (isinstance(labels, list) and labels
                                       and all(is_number(c) for c in labels)):
            raise ConfigError(f"class_filter must be null or a nonempty list of labels, got {labels!r}")
        snr = [] if self.noise_snr_db is None else self.noise_snr_db
        if not isinstance(snr, (list, tuple)) or not all(s is None or is_number(s) for s in snr):
            raise ConfigError(f"noise_snr_db must be null or a list of nulls and numbers, got {snr!r}")
        for name, values in (("tau_list", self.tau_list), ("noise_snr_db", snr)):
            if len(set(values)) < len(values):  # each repeat would count twice in the aggregates
                raise ConfigError(f"{name} must not repeat an entry, got {values!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        _graph_config(self)
        if not isinstance(self.dataset, dict):
            raise ConfigError(f"dataset must be an object, got {self.dataset!r}")
        fmt = self.dataset.get("format")
        if not isinstance(fmt, str) or fmt not in _DATASET_KEYS:
            raise ConfigError("dataset.format must be 'idx' or 'csv'")
        unknown = set(self.dataset) - set(_DATASET_KEYS[fmt])
        if unknown:
            raise ConfigError(f"a {fmt} dataset does not read the keys {sorted(unknown)}")
        for key in _DATASET_KEYS[fmt]:
            value = self.dataset.get(key)
            if key == "label_column":
                require_int(value, "dataset.label_column", 0)
            elif not isinstance(value, str):
                raise ConfigError(f"a {fmt} dataset needs a str {key}, got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_json(path, ConfigError, "config"))


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def load_dataset(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Load, filter, and reshape the configured dataset, and check every
    ``noise_snr_db`` level against it with ``noise_sigma``.

    Returns (samples, labels) with samples of shape (I_1, ..., I_n, N):
    each sample's stored row-major flat vector is folded into the configured
    mode dims in mode-1-fastest order. An IDX dataset's samples are the
    file's uint8 pixels, a CSV's its float64 values; ``datasets.float_samples``
    gives the float64 values of either, as each command uses them.
    """
    ds = config.dataset
    if ds["format"] == "idx":
        images, labels = read_idx_pixels(ds["image_path"], ds["label_path"])
        flat = images.reshape(images.shape[0], -1)  # row-major pixels
    else:
        flat, labels = load_csv(ds["path"], ds["label_column"])
    if flat.shape[1] == 0:
        raise DataError("samples have no feature values")
    dims = tuple(int(i) for i in config.reshape)
    d = int(np.prod(dims))
    if flat.shape[1] != d:
        raise ConfigError(
            f"reshape {list(dims)} has {d} elements but samples have {flat.shape[1]}"
        )
    if config.class_filter is not None:
        absent = [c for c in config.class_filter if not np.any(labels == c)]
        if absent:
            raise ConfigError(f"class_filter labels {absent} are not in the dataset")
        keep = np.isin(labels, config.class_filter)
        flat, labels = flat[keep], labels[keep]
    samples = flat.T.reshape(dims + (flat.shape[0],), order="F")
    levels = [snr_db for snr_db in config.noise_snr_db or [] if snr_db is not None]
    if levels:
        values = float_samples(samples)
        for snr_db in levels:
            noise_sigma(values, snr_db)
    return samples, labels


def split_per_class(labels: np.ndarray, n_train: int, n_test: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split without replacement; returns (train_idx, test_idx)."""
    train_idx = []
    test_idx = []
    for cls in np.unique(labels):
        pool = np.flatnonzero(labels == cls)
        if len(pool) < n_train + n_test:
            raise DataError(
                f"class {cls!r} has {len(pool)} samples, needs {n_train + n_test}"
            )
        perm = rng.permutation(len(pool))
        train_idx.append(pool[perm[:n_train]])
        test_idx.append(pool[perm[n_train:n_train + n_test]])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def trial_split(config: ExperimentConfig, labels: np.ndarray,
                trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The seeded per-class (train_idx, test_idx) split of one trial."""
    rng = np.random.default_rng(config.seed + trial)
    return split_per_class(labels, config.n_train_per_class, config.n_test_per_class, rng)


def check_split(config: ExperimentConfig, labels: np.ndarray) -> int:
    """The number of training points in every trial's split.

    Raises DataError when a class cannot fill the split, and ConfigError,
    by the graph's own rule (``neighborhood_graph.check_graph_k``), when
    ``k_graph`` is not below that number, before any output is opened.
    """
    n_train = len(trial_split(config, labels)[0])  # every trial's split has these sizes
    check_graph_k(config.k_graph, n_train)
    return n_train


def trial_data(config: ExperimentConfig, samples: np.ndarray, labels: np.ndarray,
               trial: int = 0, level: int = 0):
    """Report cell (trial, level)'s (train, train_labels, test, test_labels) as
    float64: noise at ``noise_snr_db[level]`` (none when null or unset), seeded
    by (seed, trial, snr_db), is drawn for every sample of ``samples``. On a
    noise-free level only the split's samples are made float64
    (``datasets.float_samples``). The defaults give the report's first cell."""
    snr_db = (config.noise_snr_db or [None])[level]
    train_idx, test_idx = trial_split(config, labels, trial)
    if snr_db is not None:
        bump = int(round(float(snr_db) * 1000)) % 100003
        samples = add_noise(float_samples(samples), snr_db, config.seed + 7919 * (trial + 1) + bump)
    return (float_samples(samples[..., train_idx]), labels[train_idx],
            float_samples(samples[..., test_idx]), labels[test_idx])


def _graph_config(config: ExperimentConfig) -> AffinityConfig:
    return AffinityConfig(k_neighbors=config.k_graph, epsilon=config.epsilon)


def fit_config(config: ExperimentConfig, train: np.ndarray, tau: float,
               split_cache: SplitCache | None = None):
    """``fit`` on ``train`` at ``tau`` with the config's graph, variant,
    sweep limit and rank cap, and ``fit``'s ``split_cache``, the holder of
    ``train``'s KNN graph and Gram eigendecomposition shared by the fits of
    one split; returns (chain, report)."""
    return fit(train, _graph_config(config), tau, variant=config.variant,
               max_sweeps=config.max_sweeps, rank_cap=config.rank_cap, split_cache=split_cache)


def probe_output(path) -> None:
    """Raise ConfigError if ``path`` cannot be written. It is never truncated,
    and a file the probe creates (at a symlink's target too) is removed again,
    so a run that fails later keeps the previous output and leaves no new file."""
    try:
        target = os.path.realpath(path)
        existed = os.path.lexists(target)
        open(target, "a").close()
        if not existed:
            os.remove(target)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def write_output(path, text: str) -> None:
    """Replace ``path``'s contents with ``text`` once :func:`probe_output` passes."""
    probe_output(path)
    with open(path, "w") as fh:
        fh.write(text)


def json_text(doc, **fmt) -> str:
    """``json.dumps(doc, **fmt)`` plus a newline, numpy scalars written as numbers."""
    return json.dumps(doc, default=lambda v: v.item(), **fmt) + "\n"


def run_experiment(config: ExperimentConfig) -> dict:
    """Fit/evaluate over every (snr, tau, trial) cell and write the report.

    A cell that fails with a library error (``ValueError``, which covers
    ``ConfigError``, ``DataError`` and ``LinAlgError``, or ``NumericError``)
    records its message and the run continues; any other exception is a
    bug and propagates. The fits of one (trial, noise level) share one
    ``solver.SplitCache``, so both variants search that split's KNN graph
    once and ATN decomposes its Gram target Z once, and every later tau
    reuses them; S, Y and Z are still built per tau. Writes the
    deterministic report to ``output_path``,
    timings to ``output_path + '.timings.json'`` (per fitted cell: subspace
    learning, embedding and classification, the solver's per-stage
    ``wall_time``, its TN ``core_solves``, its ``kyfan_bound`` and
    ``kyfan_gap``, the final objective minus that bound), and a flat CSV of
    (tau, trial, snr_db, rho, error) to ``output_path + '.csv'``. The split,
    ``k_graph`` and ``k_classify`` against the split's training points (by
    :func:`check_split` and ``nearest.check_k``, the graph's and the
    classifier's own rules), and every noise level are checked before any
    output path is opened, and all three are probed (:func:`probe_output`)
    before the first fit: a failed run leaves a previous report as it was,
    and a bad path fails fast.
    """
    samples, labels = load_dataset(config)
    check_k(config.k_classify, check_split(config, labels))
    out = str(config.output_path)
    outputs = (out, out + ".timings.json", out + ".csv")
    for path in outputs:
        probe_output(path)
    snr_list = config.noise_snr_db or [None]
    cells = []
    baselines = []
    timings = []
    for trial in range(config.trials):
        for level, snr_db in enumerate(snr_list):
            train, train_labels, test, test_labels = trial_data(
                config, samples, labels, trial, level)
            split_cache = SplitCache()  # every tau of this split searches the same D
            base = evaluate(None, train, train_labels, test, test_labels, config.k_classify)
            baselines.append({
                "trial": trial,
                "snr_db": snr_db,
                "error_rate": base.error_rate,
            })
            for tau in config.tau_list:
                cell = {"tau": tau, "trial": trial, "snr_db": snr_db}
                t0 = time.perf_counter()
                try:
                    chain, report = fit_config(config, train, tau, split_cache)
                    learn_seconds = time.perf_counter() - t0
                    result = evaluate(chain, train, train_labels, test, test_labels,
                                      config.k_classify)
                    cell.update({
                        "ranks": list(chain.ranks),
                        "rho": result.compression_ratio,
                        "error_rate": result.error_rate,
                        "n_wrong": result.n_wrong,
                        "n_test": result.n_test,
                        "objective_trace": report.objective_trace,
                        "sweeps": report.sweeps_run,
                        "termination": report.termination_reason,
                    })
                    timings.append({
                        "tau": tau, "trial": trial, "snr_db": snr_db,
                        "subspace_learning": learn_seconds,
                        "embedding": result.embed_seconds,
                        "classification": result.classify_seconds,
                        **report.wall_time,
                        "core_solves": report.core_solves,
                        "kyfan_bound": report.kyfan_bound,
                        "kyfan_gap": report.objective_trace[-1] - report.kyfan_bound,
                    })
                except (ValueError, NumericError) as exc:  # recorded, run continues
                    cell["error"] = f"{type(exc).__name__}: {exc}"
                cells.append(cell)

    aggregates = []
    for snr_db in snr_list:
        for tau in config.tau_list:
            ok = [c for c in cells if c["tau"] == tau and c["snr_db"] == snr_db and "rho" in c]
            entry = {"tau": tau, "snr_db": snr_db, "n_ok": len(ok)}
            if ok:
                errors = [c["error_rate"] for c in ok]
                entry["mean_error"] = float(np.mean(errors))
                entry["sd_error"] = float(np.std(errors, ddof=1)) if len(ok) > 1 else 0.0
                entry["mean_rho"] = float(np.mean([c["rho"] for c in ok]))
            aggregates.append(entry)

    report_doc = {
        "config": asdict(config),
        "cells": cells,
        "baselines": baselines,
        "aggregates": aggregates,
    }
    report_path, timings_path, csv_path = outputs
    write_output(report_path, json_text(report_doc, separators=(",", ":")))
    write_output(timings_path, json_text(timings, indent=1))
    rows = ["tau,trial,snr_db,rho,error\n"]
    for c in cells:
        if "error_rate" in c:
            snr = "" if c["snr_db"] is None else c["snr_db"]
            rows.append(f"{c['tau']},{c['trial']},{snr},{c['rho']},{c['error_rate']}\n")
    write_output(csv_path, "".join(rows))
    return report_doc


def first_cell_train(config: ExperimentConfig, out) -> np.ndarray:
    """The report's first cell's training split, once :func:`check_split` has
    passed and ``out`` is probed (:func:`probe_output`)."""
    samples, labels = load_dataset(config)
    check_split(config, labels)
    train = trial_data(config, samples, labels)[0]
    probe_output(out)
    return train


def run_fit(config: ExperimentConfig, out) -> TTChain:
    """Fit the first cell's training split at the first tau and save the chain
    to ``out``, probed before the fit, so a failed fit keeps a previous model."""
    chain = fit_config(config, first_cell_train(config, out), config.tau_list[0])[0]
    save_chain(chain, out)
    return chain


def run_embed(config: ExperimentConfig, model, out) -> np.ndarray:
    """Write every sample's coordinates under the chain saved at ``model`` as an
    (index, label, t0, ...) CSV to ``out``; returns them. Mode dims that differ
    from ``reshape`` raise DataError (``project_many``) before ``out`` is opened."""
    samples, labels = load_dataset(config)
    coords = project_many(load_chain(model), float_samples(samples))
    lines = ["index,label," + ",".join(f"t{i}" for i in range(coords.shape[1])) + "\n"]
    lines += [f"{i},{lab}," + ",".join(repr(v) for v in row.tolist()) + "\n"
              for i, (lab, row) in enumerate(zip(labels.tolist(), coords))]
    write_output(out, "".join(lines))
    return coords


def run_classify(config: ExperimentConfig, model, out=None) -> dict:
    """Classify the first cell's test split with the chain saved at ``model`` and
    write the result JSON to ``out`` (stdout when None); returns the document.
    A chain from :func:`run_fit` gives the ``n_wrong`` of the report's first
    cell. Mode dims that differ from ``reshape`` raise DataError (``evaluate``)."""
    samples, labels = load_dataset(config)
    chain = load_chain(model)
    train, train_labels, test, test_labels = trial_data(config, samples, labels)
    result = evaluate(chain, train, train_labels, test, test_labels, config.k_classify)
    doc = {"n_test": result.n_test, "n_wrong": result.n_wrong, "error_rate": result.error_rate,
           "predictions": result.predictions.tolist(), "labels": test_labels.tolist()}
    text = json_text(doc, separators=(",", ":"))
    if out is None:
        sys.stdout.write(text)
    else:
        write_output(out, text)
    return doc


def run_convergence(config: ExperimentConfig) -> dict:
    """Run both solver variants on the report's first cell's training split; record traces.

    A variant failing with a library error (as in ``run_experiment``) is
    recorded with its reason; the other variant still runs. The set-up is
    :func:`first_cell_train`'s. Both fits share one ``solver.SplitCache``,
    so the split's KNN graph is searched once.
    """
    train = first_cell_train(config, config.output_path)
    tau = config.tau_list[0]
    split_cache = SplitCache()
    traces = {}
    for variant in ("tn", "atn"):
        entry = {}
        try:
            chain, report = fit_config(replace(config, variant=variant), train, tau, split_cache)
            entry.update({
                "objective_trace": report.objective_trace,
                "surrogate_trace": report.surrogate_trace,
                "core_change_trace": report.core_change_trace,
                "kyfan_bound": report.kyfan_bound,
                "sweeps": report.sweeps_run,
                "termination": report.termination_reason,
                "ranks": list(chain.ranks),
            })
        except (ValueError, NumericError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        traces[variant] = entry
    doc = {"config": asdict(config), "tau": tau, "traces": traces}
    write_output(config.output_path, json_text(doc, separators=(",", ":")))
    return doc
