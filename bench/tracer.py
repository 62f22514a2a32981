"""Span tracing at the module boundaries of ``ttnpe``, for the traced run.

The tracer swaps timing wrappers in for public functions, in the namespace
where each caller looks the name up (``ttnpe.solver.minimize`` is the name
``fit`` calls, not ``ttnpe.stiefel.minimize``). Every call records a span:
name, start, end and parent, plus, for the spans in MEMORY_SPANS, the
``tracemalloc`` peak above the level at entry. Spans stay in memory until
the run ends. A layer is the module whose
code a span times; its self time is the span time not covered by child spans.

A wrapped name missing at some commit is recorded as absent, never an error,
so the benchmark keeps running while later changes rename or remove helpers.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import tracemalloc
from collections import Counter
from statistics import median

import numpy as np

MB = 1024.0 * 1024.0

# (namespace the caller looks the name up in, attribute, span name).
# The span name's prefix is the layer whose code runs inside the span.
WRAPS = [
    ("ttnpe.cli", "main", "cli.main"),
    ("ttnpe.cli", "run_experiment", "harness.run_experiment"),
    ("ttnpe.harness", "load_idx", "datasets.load_idx"),
    ("ttnpe.harness", "add_noise", "datasets.add_noise"),
    ("ttnpe.harness", "fit", "solver.fit"),
    ("ttnpe.harness", "evaluate", "classifier.evaluate"),
    ("ttnpe", "fit", "solver.fit"),
    ("ttnpe", "evaluate", "classifier.evaluate"),
    ("ttnpe.solver", "build_weight_matrix", "neighborhood_graph.build_weight_matrix"),
    ("ttnpe.neighborhood_graph", "pairwise_sq_dists", "neighborhood_graph.pairwise_sq_dists"),
    ("ttnpe.neighborhood_graph", "knn_sets", "neighborhood_graph.knn_sets"),
    ("ttnpe.neighborhood_graph", "resolve_epsilon", "neighborhood_graph.resolve_epsilon"),
    ("ttnpe.neighborhood_graph", "affinity", "neighborhood_graph.affinity"),
    ("ttnpe.neighborhood_graph", "symmetrize_normalize", "neighborhood_graph.symmetrize_normalize"),
    ("ttnpe.solver", "build_residual", "neighborhood_graph.build_residual"),
    ("ttnpe.solver", "build_gram", "neighborhood_graph.build_gram"),
    ("ttnpe.solver", "tt_svd", "tt_subspace.tt_svd"),
    ("ttnpe.solver", "contract_chain", "tt_subspace.contract_chain"),
    ("ttnpe.solver", "suffix_tensor", "tt_subspace.suffix_tensor"),
    ("ttnpe.classifier", "project_many", "tt_subspace.project_many"),
    ("ttnpe.solver", "merge_product", "tensor_core.merge_product"),
    ("ttnpe.solver", "partial_trace", "tensor_core.partial_trace"),
    ("ttnpe.solver", "kronecker", "tensor_core.kronecker"),
    ("ttnpe.solver", "objective", "solver.objective"),
    ("ttnpe.solver", "smallest_eigvecs", "solver.smallest_eigvecs"),
    ("ttnpe.solver", "build_A", "solver.build_A"),
    ("ttnpe.solver", "build_B", "solver.build_B"),
    ("ttnpe.solver", "build_PQC", "solver.build_PQC"),
    ("ttnpe.solver", "update_core_tn", "solver.update_core_tn"),
    ("ttnpe.solver", "update_core_atn", "solver.update_core_atn"),
    ("ttnpe.solver", "minimize", "stiefel.minimize"),
    ("ttnpe.classifier", "knn_classify", "classifier.knn_classify"),
]

# Spans whose tracemalloc peak is reported. tracemalloc runs only while one
# of them is open: tracing every allocation would slow the many small
# Stiefel steps several-fold and skew the layer shares.
MEMORY_SPANS = frozenset({
    "neighborhood_graph.build_weight_matrix", "neighborhood_graph.pairwise_sq_dists",
    "neighborhood_graph.knn_sets", "neighborhood_graph.resolve_epsilon",
    "neighborhood_graph.affinity", "neighborhood_graph.symmetrize_normalize",
    "neighborhood_graph.build_residual", "neighborhood_graph.build_gram",
    "solver.build_A", "solver.build_PQC",
})

LAYERS = ("cli", "harness", "datasets", "neighborhood_graph", "tt_subspace",
          "solver", "stiefel", "tensor_core", "classifier")

# Every per-layer metric: name -> (unit, better, end-to-end metric and
# workloads it should move). BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "neighborhood_graph.pairwise_sq_dists_s": ("s", "lower", "experiment_s on experiment-digits"),
    "neighborhood_graph.knn_sets_s": ("s", "lower", "experiment_s on experiment-digits"),
    "neighborhood_graph.weights_s": ("s", "lower", "experiment_s on experiment-digits"),
    "neighborhood_graph.gram_s": ("s", "lower", "experiment_s on experiment-digits"),
    "neighborhood_graph.build_weight_matrix_calls": ("count", "lower", "experiment_s on experiment-digits"),
    "neighborhood_graph.builds_per_split": ("ratio", "lower", "experiment_s on experiment-digits; 1 on the fit workloads"),
    "neighborhood_graph.peak_mb": ("MB", "lower", "peak_rss_mb on experiment-digits"),
    "neighborhood_graph.self_s": ("s", "lower", "experiment_s on experiment-digits; no change on the fit workloads"),
    "classifier.knn_classify_s": ("s", "lower", "experiment_s on experiment-digits (raw 784-d baseline)"),
    "classifier.queries": ("count", "lower", "experiment_s on experiment-digits"),
    "classifier.evaluate_s": ("s", "lower", "experiment_s on experiment-digits"),
    "classifier.self_s": ("s", "lower", "experiment_s on experiment-digits"),
    "datasets.load_idx_s": ("s", "lower", "experiment_s on experiment-digits"),
    "datasets.self_s": ("s", "lower", "experiment_s on experiment-digits"),
    "harness.self_s": ("s", "lower", "experiment_s on experiment-digits"),
    "harness.fit_calls": ("count", "lower", "experiment_s on experiment-digits"),
    "cli.self_s": ("s", "lower", "experiment_s on experiment-digits"),
    "solver.build_A_s": ("s", "lower", "fit_s on fit-tn-4mode"),
    "solver.build_A_calls": ("count", "lower", "fit_s on fit-tn-4mode"),
    "solver.build_A_peak_mb": ("MB", "lower", "peak_rss_mb on fit-tn-4mode"),
    "solver.build_B_s": ("s", "lower", "fit_s on fit-tn-4mode"),
    "solver.build_PQC_s": ("s", "lower", "fit_s on fit-atn-6mode and experiment-digits"),
    "solver.build_PQC_peak_mb": ("MB", "lower", "peak_rss_mb on fit-atn-6mode"),
    "solver.smallest_eigvecs_s": ("s", "lower", "fit_s on fit-atn-6mode and experiment-digits"),
    "solver.objective_s": ("s", "lower", "fit_s on all workloads"),
    "solver.update_core_tn_self_s": ("s", "lower", "fit_s on fit-tn-4mode"),
    "solver.update_core_atn_self_s": ("s", "lower", "fit_s on fit-atn-6mode"),
    "solver.sweeps": ("count", "lower", "fit_s on all workloads"),
    "solver.core_updates": ("count", "lower", "fit_s on all workloads"),
    "solver.kyfan_gap": ("objective", "lower", "error_rate (printed, not gated) on all workloads"),
    "solver.self_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "stiefel.minimize_self_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "stiefel.minimize_calls": ("count", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "stiefel.f_calls": ("count", "lower", "fit_s on fit-atn-6mode"),
    "stiefel.f_s": ("s", "lower", "fit_s on fit-atn-6mode"),
    "stiefel.grad_calls": ("count", "lower", "fit_s on fit-atn-6mode"),
    "stiefel.grad_s": ("s", "lower", "fit_s on fit-atn-6mode"),
    "stiefel.accepted_steps": ("count", "higher", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "stiefel.accept_ratio": ("ratio", "higher", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "stiefel.stop_gradient": ("count", "higher", "fit_s on experiment-digits"),
    "stiefel.stop_max_iters": ("count", "lower", "fit_s on experiment-digits"),
    "stiefel.stop_step_underflow": ("count", "lower", "fit_s on experiment-digits"),
    "stiefel.self_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tensor_core.merge_product_s": ("s", "lower", "fit_s on fit-tn-4mode"),
    "tensor_core.merge_product_calls": ("count", "lower", "fit_s on fit-tn-4mode"),
    "tensor_core.merge_product_mb": ("MB", "lower", "peak_rss_mb on fit-tn-4mode (largest output, computed from shapes)"),
    "tensor_core.kronecker_s": ("s", "lower", "fit_s on fit-atn-6mode"),
    "tensor_core.kronecker_calls": ("count", "lower", "fit_s on fit-atn-6mode"),
    "tensor_core.kronecker_mb": ("MB", "lower", "fit_s on fit-atn-6mode (largest output, computed from shapes)"),
    "tensor_core.self_s": ("s", "lower", "fit_s on fit-tn-4mode"),
    "tt_subspace.tt_svd_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tt_subspace.contract_chain_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tt_subspace.contract_chain_calls": ("count", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tt_subspace.suffix_tensor_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tt_subspace.suffix_tensor_calls": ("count", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "tt_subspace.project_many_s": ("s", "lower", "experiment_s on experiment-digits"),
    "tt_subspace.self_s": ("s", "lower", "fit_s on fit-atn-6mode and fit-tn-4mode"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time of one operation"),
    "trace.absent_names": ("count", "lower", "none: wrapped names missing at this commit"),
}


class Tracer:
    """Records spans and boundary counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, peak bytes]
        self.absent = []
        self.notes = Counter()   # counts and sums taken at the boundaries
        self.largest_output = Counter()  # bytes of the largest result per span name
        self.splits = set()      # digests of the data matrices graphs were built on
        self.reports = []        # SolverReport of every fit
        self._stack = []         # indices of the open spans
        self._mem = []           # open memory spans: [bytes at entry, peak bytes so far]
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        if name in MEMORY_SPANS:
            if self._mem:
                # The enclosing memory span keeps the peak reached so far.
                self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            current = tracemalloc.get_traced_memory()[0]
            self._mem.append([current, current])
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        if span[0] in MEMORY_SPANS:
            base, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span[4] = peak - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            else:
                tracemalloc.stop()

    def call(self, name, fn, *args, **kwargs):
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- wrappers ----------------------------------------------------------

    def install(self, wraps=WRAPS):
        """Swap in wrappers for every name present at this commit."""
        for module_name, attr, span in wraps:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(span, fn))
            self._patched.append((module, attr, fn))

    def uninstall(self):
        """Restore every wrapped name."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrapper(self, span, fn):
        hook = getattr(self, "_hook_" + span.split(".", 1)[1], None)

        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(span, fn, *args, **kwargs)
            return self.call(span, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # Hooks add boundary counts to the span of the same name.

    def _hook_build_weight_matrix(self, span, fn, d_mat, *args, **kwargs):
        digest = hashlib.blake2b(np.ascontiguousarray(d_mat).tobytes(), digest_size=16)
        self.splits.add(digest.hexdigest())
        return self.call(span, fn, d_mat, *args, **kwargs)

    def _hook_knn_classify(self, span, fn, train_coords, train_labels, test_coords, *args, **kwargs):
        self.notes["queries"] += len(test_coords)
        return self.call(span, fn, train_coords, train_labels, test_coords, *args, **kwargs)

    def _sized(self, span, fn, *args, **kwargs):
        out = self.call(span, fn, *args, **kwargs)
        self.largest_output[span] = max(self.largest_output[span], out.nbytes)
        return out

    _hook_merge_product = _sized
    _hook_kronecker = _sized

    def _hook_fit(self, span, fn, *args, **kwargs):
        chain, report = self.call(span, fn, *args, **kwargs)
        self.reports.append(report)
        return chain, report

    def _hook_minimize(self, span, fn, f, grad, *args, **kwargs):
        def f_traced(x):
            return self.call("stiefel.f", f, x)

        def grad_traced(x):
            return self.call("stiefel.grad", grad, x)

        result = self.call(span, fn, f_traced, grad_traced, *args, **kwargs)
        self.notes["accepted"] += result.n_accepted
        self.notes["stop_" + result.termination] += 1
        return result

    # -- results -----------------------------------------------------------

    def reset(self):
        """Forget spans and counts; keep the wrappers installed."""
        self.spans.clear()
        self.notes.clear()
        self.largest_output.clear()
        self.splits.clear()
        self.reports.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict:
        """Per-layer metrics for the spans recorded since the last reset."""
        own = self.self_times()
        total, calls, self_by_name, peak = Counter(), Counter(), Counter(), Counter()
        layer_self = Counter({layer: 0.0 for layer in LAYERS})
        fit_calls_in_harness = 0
        for (name, start, end, parent, peak_bytes), mine in zip(self.spans, own):
            total[name] += end - start
            calls[name] += 1
            self_by_name[name] += mine
            peak[name] = max(peak[name], peak_bytes)
            layer_self[name.split(".", 1)[0]] += mine
            if name == "solver.fit" and parent >= 0 and self.spans[parent][0].startswith("harness."):
                fit_calls_in_harness += 1
        graph_peak = max([peak[n] for n in peak if n.startswith("neighborhood_graph.")] or [0])
        f_calls, minimize_calls = calls["stiefel.f"], calls["stiefel.minimize"]
        trials = f_calls - minimize_calls  # every minimize call evaluates f once at x0
        gaps = [r.objective_trace[-1] - r.kyfan_bound for r in self.reports]
        n = "neighborhood_graph."
        m = {
            n + "pairwise_sq_dists_s": total[n + "pairwise_sq_dists"],
            n + "knn_sets_s": total[n + "knn_sets"],
            n + "weights_s": total[n + "resolve_epsilon"] + total[n + "affinity"]
                             + total[n + "symmetrize_normalize"],
            n + "gram_s": total[n + "build_residual"] + total[n + "build_gram"],
            n + "build_weight_matrix_calls": calls[n + "build_weight_matrix"],
            n + "builds_per_split": calls[n + "build_weight_matrix"] / max(1, len(self.splits)),
            n + "peak_mb": graph_peak / MB,
            "classifier.knn_classify_s": total["classifier.knn_classify"],
            "classifier.queries": self.notes["queries"],
            "classifier.evaluate_s": total["classifier.evaluate"],
            "datasets.load_idx_s": total["datasets.load_idx"],
            "harness.fit_calls": fit_calls_in_harness,
            "solver.build_A_s": total["solver.build_A"],
            "solver.build_A_calls": calls["solver.build_A"],
            "solver.build_A_peak_mb": peak["solver.build_A"] / MB,
            "solver.build_B_s": total["solver.build_B"],
            "solver.build_PQC_s": total["solver.build_PQC"],
            "solver.build_PQC_peak_mb": peak["solver.build_PQC"] / MB,
            "solver.smallest_eigvecs_s": total["solver.smallest_eigvecs"],
            "solver.objective_s": total["solver.objective"],
            "solver.update_core_tn_self_s": self_by_name["solver.update_core_tn"],
            "solver.update_core_atn_self_s": self_by_name["solver.update_core_atn"],
            "solver.sweeps": sum(r.sweeps_run for r in self.reports),
            "solver.core_updates": calls["solver.update_core_tn"] + calls["solver.update_core_atn"],
            "solver.kyfan_gap": float(np.mean(gaps)) if gaps else 0.0,
            "stiefel.minimize_self_s": self_by_name["stiefel.minimize"],
            "stiefel.minimize_calls": minimize_calls,
            "stiefel.f_calls": f_calls,
            "stiefel.f_s": total["stiefel.f"],
            "stiefel.grad_calls": calls["stiefel.grad"],
            "stiefel.grad_s": total["stiefel.grad"],
            "stiefel.accepted_steps": self.notes["accepted"],
            "stiefel.accept_ratio": self.notes["accepted"] / trials if trials > 0 else 0.0,
            "stiefel.stop_gradient": self.notes["stop_gradient"],
            "stiefel.stop_max_iters": self.notes["stop_max_iters"],
            "stiefel.stop_step_underflow": self.notes["stop_step_underflow"],
            "tensor_core.merge_product_s": total["tensor_core.merge_product"],
            "tensor_core.merge_product_calls": calls["tensor_core.merge_product"],
            "tensor_core.merge_product_mb": self.largest_output["tensor_core.merge_product"] / MB,
            "tensor_core.kronecker_s": total["tensor_core.kronecker"],
            "tensor_core.kronecker_calls": calls["tensor_core.kronecker"],
            "tensor_core.kronecker_mb": self.largest_output["tensor_core.kronecker"] / MB,
            "tt_subspace.tt_svd_s": total["tt_subspace.tt_svd"],
            "tt_subspace.contract_chain_s": total["tt_subspace.contract_chain"],
            "tt_subspace.contract_chain_calls": calls["tt_subspace.contract_chain"],
            "tt_subspace.suffix_tensor_s": total["tt_subspace.suffix_tensor"],
            "tt_subspace.suffix_tensor_calls": calls["tt_subspace.suffix_tensor"],
            "tt_subspace.project_many_s": total["tt_subspace.project_many"],
            "trace.absent_names": len(self.absent),
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = layer_self[layer]
        return {k: float(v) for k, v in m.items()}

    def dump(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, peak_bytes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "peak_bytes": peak_bytes}) + "\n")


def median_metrics(per_op: list[dict]) -> dict:
    """Median of each metric over traced operations."""
    return {k: float(median(m[k] for m in per_op)) for k in per_op[0]}
