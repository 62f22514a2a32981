"""One rule per solver argument.

``ExperimentConfig``, ``fit`` and ``tt_svd`` accept and reject the same
tau, rank_cap, variant and max_sweeps values, because each calls the same
rule; ``fit`` applies them before it builds the graph. A ``--variant`` or
``--seed`` flag is checked as the config value it overrides.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnpe import harness, solver
from ttnpe.cli import main
from ttnpe.errors import ConfigError, NumericError, is_int, is_number
from ttnpe.harness import ExperimentConfig
from ttnpe.neighborhood_graph import AffinityConfig
from ttnpe.solver import fit
from ttnpe.tt_subspace import tt_svd

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
DATA = np.random.default_rng(3).standard_normal((2, 3, 2, 3, 12))
CONFIG = {"dataset": {"format": "csv", "path": "data.csv", "label_column": 0},
          "reshape": [2, 3, 2, 3], "n_train_per_class": 5, "n_test_per_class": 3,
          "tau_list": [0.3], "output_path": "report.json"}

COUNTS = st.integers(-2, 5) | st.integers(-2, 5).map(np.int64)
SCALARS = (st.none() | st.booleans() | COUNTS | st.floats() | st.floats(0.0, 1.0)
           | st.text(max_size=3) | st.sampled_from(["tn", "atn"]))
CAP_LISTS = st.lists(st.none() | st.booleans() | COUNTS | st.floats(0.0, 4.0), max_size=6)
VALUES = SCALARS | CAP_LISTS | CAP_LISTS.map(tuple)
# Each argument draws its likely valid values about half the time, so that
# accepted and rejected values meet the other argument's valid ones.
TAUS = st.floats(0.0, 1.0) | VALUES
CAPS = st.none() | COUNTS | st.lists(st.none() | COUNTS, min_size=4, max_size=4) | VALUES
VARIANTS = st.sampled_from(["tn", "atn"]) | VALUES
SWEEPS = COUNTS | VALUES

FLAGS = (st.tuples(st.just("--variant"), st.sampled_from(["tn", "atn", "xx", "", "TN"]))
         | st.tuples(st.just("--seed"), st.sampled_from(["3", "-1", "x", "1.5"])))

# Each must raise ConfigError from every caller before any work is done.
BAD_RANK_CAPS = [2.5, 0, -3, True, "3", [2, 2]]
BAD_TAUS = [True, "0.3", 1.5]


class GraphBuilt(Exception):
    """Raised in place of the graph build: ``fit`` accepted its arguments."""


def build_graph(*args):
    raise GraphBuilt


def accepted(call) -> bool:
    try:
        call()
    except (GraphBuilt, ConfigError) as exc:
        return isinstance(exc, GraphBuilt)
    return True


def fit_accepts(**kwargs) -> bool:
    kwargs.setdefault("tau", 0.3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "build_weight_matrix", build_graph)
        return accepted(lambda: fit(DATA, AffinityConfig(3), **kwargs))


def config_accepts(**overrides) -> bool:
    return accepted(lambda: ExperimentConfig(**{**CONFIG, **overrides}))


@PROPERTY_SETTINGS
@given(tau=TAUS, rank_cap=CAPS)
def test_tau_and_rank_cap_share_one_rule(tau, rank_cap):
    verdicts = {
        "ExperimentConfig": config_accepts(tau_list=[tau], rank_cap=rank_cap),
        "fit": fit_accepts(tau=tau, rank_cap=rank_cap),
        "tt_svd": accepted(lambda: tt_svd(DATA, tau, rank_cap=rank_cap)),
    }
    assert len(set(verdicts.values())) == 1, verdicts


@PROPERTY_SETTINGS
@given(variant=VARIANTS, max_sweeps=SWEEPS)
def test_variant_and_max_sweeps_share_one_rule(variant, max_sweeps):
    verdicts = {
        "ExperimentConfig": config_accepts(variant=variant, max_sweeps=max_sweeps),
        "fit": fit_accepts(variant=variant, max_sweeps=max_sweeps),
    }
    assert len(set(verdicts.values())) == 1, verdicts


@pytest.mark.parametrize("command", ["experiment", "convergence", "fit"])
@pytest.mark.parametrize("key, value", [("rank_cap", cap) for cap in BAD_RANK_CAPS]
                         + [("tau_list", [tau]) for tau in BAD_TAUS], ids=repr)
def test_bad_solver_key_exits_1_and_writes_nothing(tmp_path, capsys, command, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "output_path": str(tmp_path / "out.json"), key: value}))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out.json")]) == 1
    named = "every tau_list entry" if key == "tau_list" else key
    assert capsys.readouterr().err.startswith(f"config error: {named}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_a_number_is_what_a_float64_holds_and_an_int_has_any_size():
    # every number key (tau, epsilon, class_filter, noise_snr_db, ...) rejects an
    # int no float64 holds; the int rule keeps every int it took, seeds included
    for value in (10**400, -10**400, 2**1024):
        assert not is_number(value) and is_int(abs(value), 0)
    for value in (2**1024 - 2**971, -10**308, 0.5, np.float32(2.0), np.int64(3), float("inf"), float("nan")):
        assert is_number(value)
    assert not any(is_number(v) or is_int(v, 0) for v in (True, "1", None, [1]))


def test_valid_caps_keep_their_ranks():
    # Pinned from tt_svd before the cap rule was shared: valid caps keep their ranks.
    four = np.random.default_rng(7).standard_normal((4, 7, 4, 7, 40))
    three = np.random.default_rng(8).standard_normal((3, 4, 5, 20))
    cases = [(four, 1e-12, 2, (2, 2, 2, 2)), (four, 1e-12, np.int64(2), (2, 2, 2, 2)),
             (four, 1e-12, 6, (4, 6, 6, 6)), (four, 1e-12, (3, 7, 12, 10), (3, 7, 12, 10)),
             (three, 0.05, [2, None, 3], (2, 8, 3))]
    for data, tau, cap, ranks in cases:
        assert tt_svd(data, tau, rank_cap=cap).ranks == ranks, cap
    numpy_cap, int_cap = (tt_svd(four, 1e-12, rank_cap=cap).cores for cap in (np.int64(2), 2))
    assert all(np.array_equal(a, b) for a, b in zip(numpy_cap, int_cap))


class FitReached(NumericError):
    """Raised in place of the fit: the command accepted its config (exit 3)."""


def no_fit(*args, **kwargs):
    raise FitReached("fit reached")


def as_json(text):
    """The config-file value a flag's text stands for: a JSON number, or else the string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def run_fit(tmp, config, flags=()):
    """``ttnpe fit`` on ``config``; returns (exit code, stderr)."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    with redirect_stderr(io.StringIO()) as err:
        code = main(["fit", "--config", str(path), "--out", str(tmp / "model.json"), *flags])
    return code, err.getvalue()


@PROPERTY_SETTINGS
@given(flag=FLAGS)
def test_flag_is_checked_as_its_config_value(flag):
    name, text = flag
    key = name.removeprefix("--")
    rows = [[c] + list(range(36)) for c in (0, 1) for _ in range(8)]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        patch.setattr(harness, "fit", no_fit)
        (tmp / "data.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        config = {**CONFIG, "dataset": {**CONFIG["dataset"], "path": str(tmp / "data.csv")}}
        by_flag = run_fit(tmp, config, [name, text])
        by_file = run_fit(tmp, {**config, key: as_json(text)})
    assert by_flag[0] == by_file[0] and by_flag[0] in (1, 3), (by_flag, by_file)
    assert "Traceback" not in by_flag[1]
    if key == "variant":
        assert by_flag[1] == by_file[1]


@pytest.mark.parametrize("args, message", [
    (["fit", "--out", "m.json"], "the following arguments are required: --config"),
    (["fit", "--config", "c.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["predict", "--config", "c.json"], "argument command: invalid choice"),
])
def test_usage_error_is_a_config_error(capsys, args, message):
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ttnpe")
