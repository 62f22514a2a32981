"""Tests of the benchmark itself: smoke runs, absent names and self times."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import synthdigits  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import ttnpe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quiet(*_):
    pass


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace, tmp_path):
    workload = workloads.make(name, tiny=True)
    result = run.measure(workload, 0, 0.0, trace, tmp_path / "work", log=_quiet)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["neighborhood_graph.builds_per_split"]["value"] == (
            2.0 if name == "experiment-digits" else 1.0)


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (k, unit, better) for k, (unit, better, _) in tracer.LAYER_METRICS.items()]


def test_synthetic_digits_have_exactly_the_dead_border():
    labels = synthdigits.make_labels([5, 5, 5, 5], seed=3)
    images = synthdigits.make_digits(labels, seed=3)
    assert np.array_equal(images, synthdigits.make_digits(labels, seed=3))
    live = images.reshape(len(images), -1).max(axis=0) > 0
    assert int(np.count_nonzero(~live)) == synthdigits.DEAD_PIXELS == 384
    b = synthdigits.BORDER
    assert not images[:, :b].any() and not images[:, -b:].any()
    assert not images[:, :, :b].any() and not images[:, :, -b:].any()


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present = lambda x: x + 1
    original = fake.present
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    t = tracer.Tracer()
    t.install([("fake_layer", "present", "solver.present"), ("fake_layer", "gone", "solver.gone")])
    try:
        assert fake.present(1) == 2
    finally:
        t.uninstall()
    assert fake.present is original
    assert t.absent == ["fake_layer.gone"]
    assert [s[0] for s in t.spans] == ["solver.present"]
    assert t.metrics()["trace.absent_names"] == 1.0


def test_self_times_never_exceed_their_span():
    labels = synthdigits.make_labels([0, 12, 12, 0], seed=1)
    data = synthdigits.as_samples(synthdigits.make_digits(labels, seed=1), (7, 2, 2, 2, 2, 7))
    t = tracer.Tracer()
    t.install()
    try:
        ttnpe.fit(data, ttnpe.AffinityConfig(3), 0.3, variant="atn", max_sweeps=2)
    finally:
        t.uninstall()
    own = t.self_times()
    assert len(own) == len(t.spans) > 10
    for (name, start, end, _, _), mine in zip(t.spans, own):
        assert -1e-9 <= mine <= end - start + 1e-12, name
    roots = sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
    assert sum(own) == pytest.approx(roots)
