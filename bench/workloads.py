"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every workload goes through the library's public entry points only:
``ttnpe.cli.main`` for the tau sweep and ``ttnpe.fit``/``ttnpe.evaluate``
for the single fits. An operation is one ``experiment`` command or one fit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

import ttnpe
import ttnpe.cli
import ttnpe.harness
import ttnpe.solver
from ttnpe.stiefel import OptimizerConfig

import synthdigits

DEFECT_TOL = 1e-8
SOLVER_BOUND_TOL = 1e-8   # the solver's own Ky Fan tolerance, relative to max(1, ||Z||_F)
CLASSES = (1, 2)          # the digit pair every workload fits; the IDX file also holds 0 and 3


@dataclass
class OpResult:
    experiment_s: float
    fit_s: float
    error_rate: float
    baseline_error: float
    failures: list[str] = field(default_factory=list)


class Capture:
    """Records what the public entry points return, for the output checks.

    Wraps ``ttnpe.harness.fit`` (the experiment's fits, with their wall time)
    and ``ttnpe.solver.build_gram`` (the Gram target's norm, which scales
    the solver's bound tolerance). Both wrappers only keep references and one
    norm, so they cost nothing measurable inside the timed operation.
    """

    def __init__(self):
        self.fits = []      # (chain, report, seconds)
        self.z_norms = []

    def __enter__(self):
        self._fit = ttnpe.harness.fit
        self._gram = ttnpe.solver.build_gram

        def fit(*args, **kwargs):
            t0 = time.perf_counter()
            chain, report = self._fit(*args, **kwargs)
            self.fits.append((chain, report, time.perf_counter() - t0))
            return chain, report

        def build_gram(y):
            z = self._gram(y)
            self.z_norms.append(float(np.linalg.norm(z)))
            return z

        ttnpe.harness.fit = fit
        ttnpe.solver.build_gram = build_gram
        return self

    def __exit__(self, *exc):
        ttnpe.harness.fit = self._fit
        ttnpe.solver.build_gram = self._gram
        return False


def check_chain(chain, report, z_norm: float) -> list[str]:
    """Orthonormal cores, and a final objective no lower than the Ky Fan bound."""
    failures = []
    defect = chain.orthonormality_defect()
    if not defect < DEFECT_TOL:
        failures.append(f"orthonormality defect {defect:.3g} >= {DEFECT_TOL}")
    final = report.objective_trace[-1]
    if not final >= report.kyfan_bound - SOLVER_BOUND_TOL * max(1.0, z_norm):
        failures.append(f"objective {final!r} below the Ky Fan bound {report.kyfan_bound!r}")
    return failures


def _pair_split(labels, n_train, n_test, seed):
    """Seeded per-class train/test indices over CLASSES."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in CLASSES:
        pool = rng.permutation(np.flatnonzero(labels == cls))
        train.append(pool[:n_train])
        test.append(pool[n_train:n_train + n_test])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def _warm_up(images, labels, dims, variant):
    """A tiny fit and evaluation, so lazy BLAS/LAPACK set-up is not timed."""
    train, test = _pair_split(labels, 10, 4, 0)
    data = synthdigits.as_samples(images[train], dims)
    chain, _ = ttnpe.fit(data, ttnpe.AffinityConfig(3), 0.5, variant=variant, max_sweeps=1)
    ttnpe.evaluate(chain, data, labels[train],
                   synthdigits.as_samples(images[test], dims), labels[test], 3)


@dataclass(frozen=True)
class ExperimentParams:
    n_train_per_class: int
    n_test_per_class: int
    tau_list: tuple
    max_sweeps: int
    n_other_per_class: int   # samples of the classes outside class_filter


class ExperimentDigits:
    """The paper's headline tau sweep, run as ``ttnpe experiment`` in-process."""

    name = "experiment-digits"
    dims = (4, 7, 4, 7)

    def __init__(self, params: ExperimentParams):
        self.params = params

    def setup(self, seed: int, workdir: Path) -> None:
        p = self.params
        per_pair = p.n_train_per_class + p.n_test_per_class
        labels = synthdigits.make_labels(
            [per_pair if c in CLASSES else p.n_other_per_class for c in range(synthdigits.N_CLASSES)],
            seed)
        images = synthdigits.make_digits(labels, seed)
        synthdigits.write_idx(images, labels, workdir / "images-idx3-ubyte", workdir / "labels-idx1-ubyte")
        self.report_path = workdir / "report.json"
        config = {
            "dataset": {"format": "idx",
                        "image_path": str(workdir / "images-idx3-ubyte"),
                        "label_path": str(workdir / "labels-idx1-ubyte")},
            "class_filter": list(CLASSES),
            "reshape": list(self.dims),
            "n_train_per_class": p.n_train_per_class,
            "n_test_per_class": p.n_test_per_class,
            "tau_list": list(p.tau_list),
            "variant": "atn",
            "k_graph": 5,
            "k_classify": 5,
            "max_sweeps": p.max_sweeps,
            "trials": 1,
            "seed": seed,
            "output_path": str(self.report_path),
        }
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.first_report = None
        _warm_up(images, labels, self.dims, "atn")

    def run_op(self) -> OpResult:
        with Capture() as cap:
            t0 = time.perf_counter()
            code = ttnpe.cli.main(["experiment", "--config", str(self.config_path)])
            wall = time.perf_counter() - t0
        res = OpResult(wall, float("nan"), float("nan"), float("nan"))
        if code != 0:
            res.failures.append(f"experiment exited with code {code}")
            return res
        raw = self.report_path.read_bytes()
        doc = json.loads(raw)
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            res.failures.append("report bytes differ from the first repeat of this seed")
        cells = doc["cells"]
        bad = [c for c in cells if "error" in c]
        if bad:
            res.failures.append(f"{len(bad)} error cells, first: {bad[0]['error']}")
        if len(cells) != len(self.params.tau_list) or len(cap.fits) != len(cells):
            res.failures.append(f"{len(cells)} cells and {len(cap.fits)} fits for "
                                f"{len(self.params.tau_list)} tau values")
        for (chain, report, _), z_norm in zip(cap.fits, cap.z_norms):
            res.failures.extend(check_chain(chain, report, z_norm))
        if res.failures:
            return res
        res.fit_s = float(median(s for _, _, s in cap.fits))
        res.error_rate = float(np.mean([c["error_rate"] for c in cells]))
        res.baseline_error = float(doc["baselines"][0]["error_rate"])
        return res


@dataclass(frozen=True)
class FitParams:
    variant: str
    dims: tuple
    tau: float
    rank_cap: object
    max_sweeps: int
    inner_iters: int
    n_train_per_class: int
    n_test_per_class: int


class FitWorkload:
    """One ``ttnpe.fit`` on a digit pair, then ``ttnpe.evaluate`` on held-out samples.

    The work is fixed so the timing does not hinge on convergence: every
    sweep runs (``core_change_tol=0``), every Stiefel solve takes
    ``inner_iters`` steps (gradient tolerance at the smallest positive
    float), and the rank cap pins the TT ranks, which the TT-SVD threshold
    alone leaves to the data.
    """

    def __init__(self, name: str, params: FitParams):
        self.name = name
        self.params = params
        self.opt_cfg = OptimizerConfig(grad_tol=float(np.finfo(np.float64).tiny),
                                       max_inner_iters=params.inner_iters)

    def setup(self, seed: int, workdir: Path) -> None:
        p = self.params
        per_pair = p.n_train_per_class + p.n_test_per_class
        labels = synthdigits.make_labels(
            [per_pair if c in CLASSES else 0 for c in range(synthdigits.N_CLASSES)], seed)
        images = synthdigits.make_digits(labels, seed)
        train, test = _pair_split(labels, p.n_train_per_class, p.n_test_per_class, seed)
        self.train = synthdigits.as_samples(images[train], p.dims)
        self.test = synthdigits.as_samples(images[test], p.dims)
        self.train_labels, self.test_labels = labels[train], labels[test]
        self.first_result = None
        _warm_up(images, labels, p.dims, p.variant)
        self.baseline_error = ttnpe.evaluate(None, self.train, self.train_labels,
                                             self.test, self.test_labels, 5).error_rate

    def run_op(self) -> OpResult:
        p = self.params
        with Capture() as cap:
            t0 = time.perf_counter()
            chain, report = ttnpe.fit(self.train, ttnpe.AffinityConfig(5), p.tau, variant=p.variant,
                                      max_sweeps=p.max_sweeps, core_change_tol=0.0,
                                      rank_cap=p.rank_cap, opt_cfg=self.opt_cfg)
            t1 = time.perf_counter()
            result = ttnpe.evaluate(chain, self.train, self.train_labels,
                                    self.test, self.test_labels, 5)
            t2 = time.perf_counter()
        res = OpResult(t2 - t0, t1 - t0, result.error_rate, self.baseline_error)
        res.failures.extend(check_chain(chain, report, cap.z_norms[-1]))
        digest = hashlib.sha256(b"".join(c.tobytes() for c in chain.cores)).hexdigest()
        outcome = (digest, result.n_wrong)
        if self.first_result is None:
            self.first_result = outcome
        elif outcome != self.first_result:
            res.failures.append("fitted chain or test errors differ from the first repeat of this seed")
        return res


FULL = {
    # Half the per-class counts of the 600/1000 MNIST protocol and 5 sweeps:
    # the full protocol takes 40-50 s per operation, too long to repeat within
    # one timed run, and its convergence-dependent sweep counts vary by seed.
    "experiment-digits": lambda: ExperimentDigits(ExperimentParams(
        n_train_per_class=300, n_test_per_class=500,
        tau_list=(0.5, 0.35, 0.25, 0.18, 0.12, 0.08), max_sweeps=5, n_other_per_class=100)),
    # 20 sweeps, not the default 50: later sweeps drive the core entries that
    # touch only dead border pixels into subnormal floats on some seeds and not
    # others, which made the fit time depend on the seed by up to 1.8x.
    "fit-atn-6mode": lambda: FitWorkload("fit-atn-6mode", FitParams(
        variant="atn", dims=(7, 2, 2, 2, 2, 7), tau=0.12, rank_cap=6, max_sweeps=20,
        inner_iters=40, n_train_per_class=200, n_test_per_class=200)),
    "fit-tn-4mode": lambda: FitWorkload("fit-tn-4mode", FitParams(
        variant="tn", dims=(4, 7, 4, 7), tau=0.08, rank_cap=(3, 7, 12, 10), max_sweeps=3,
        inner_iters=40, n_train_per_class=200, n_test_per_class=200)),
}


def make(name: str, tiny: bool = False):
    """The named workload at benchmark size, or at smoke-test size."""
    workload = FULL[name]()
    if not tiny:
        return workload
    if isinstance(workload, ExperimentDigits):
        workload.params = replace(workload.params, n_train_per_class=12, n_test_per_class=6,
                                  tau_list=(0.5, 0.12), max_sweeps=2, n_other_per_class=3)
    else:
        workload.params = replace(workload.params, n_train_per_class=12, n_test_per_class=6,
                                  max_sweeps=2)
        workload.opt_cfg = replace(workload.opt_cfg, max_inner_iters=5)
    return workload
