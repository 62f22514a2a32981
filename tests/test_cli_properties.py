"""Property tests: garbage configs and CSV files end in a typed CLI failure.

``ttnpe.cli.main`` must map every bad input to its documented exit code
(1 config, 2 data), never let an exception escape. Each example runs in a
fresh working directory, so garbage relative paths stay inside it; path
strings never contain a separator.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnpe.cli import main
from ttnpe.harness import _CONFIG_KEYS, _DATASET_KEYS

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
DELETE = object()

SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
           | st.text(st.characters(blacklist_characters="/"), max_size=6))
GARBAGE = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DATASET_KEYS = set().union(*_DATASET_KEYS.values())
KEYS = st.sampled_from(sorted(_CONFIG_KEYS) + [f"dataset.{k}" for k in sorted(DATASET_KEYS)])
COMMANDS = st.sampled_from([["experiment"], ["convergence"], ["fit", "--out", "model.json"]])


def valid_csv() -> bytes:
    rng = np.random.default_rng(0)
    rows = [[c] + list(6.0 * c + 0.3 * rng.standard_normal(8)) for c in (0, 1) for _ in range(8)]
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows).encode()


def valid_config() -> dict:
    return {"dataset": {"format": "csv", "path": "data.csv", "label_column": 0},
            "reshape": [2, 2, 2], "n_train_per_class": 5, "n_test_per_class": 3,
            "tau_list": [0.3], "k_graph": 3, "k_classify": 1, "max_sweeps": 3,
            "output_path": "report.json"}


def run_in_fresh_dir(command, config, csv_bytes) -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("data.csv", "wb") as fh:
                fh.write(csv_bytes)
            with open("config.json", "w") as fh:
                json.dump(config, fh)
            return main([command[0], "--config", "config.json"] + command[1:])
        finally:
            os.chdir(cwd)


@PROPERTY_SETTINGS
@given(COMMANDS, st.dictionaries(KEYS, GARBAGE | st.just(DELETE), min_size=1, max_size=3))
def test_garbage_config_values_exit_typed(command, edits):
    config = valid_config()
    # dataset.* edits first, so a later whole-dataset edit can replace that dict
    for key, value in sorted(edits.items(), key=lambda kv: not kv[0].startswith("dataset.")):
        target, name = (config["dataset"], key[8:]) if key.startswith("dataset.") else (config, key)
        if value is DELETE:
            target.pop(name, None)
        else:
            target[name] = value
    # an edit may happen to be valid, and then the run succeeds
    assert run_in_fresh_dir(command, config, valid_csv()) in (0, 1, 2)


@PROPERTY_SETTINGS
@given(COMMANDS, st.binary(max_size=300))
def test_garbage_csv_bytes_exit_typed(command, raw):
    assert run_in_fresh_dir(command, valid_config(), raw) in (1, 2)


@PROPERTY_SETTINGS
@given(COMMANDS, st.integers(0, 10_000), st.binary(min_size=1, max_size=8))
def test_csv_with_spliced_bytes_exit_typed(command, at, raw):
    good = valid_csv()
    at %= len(good)
    assert run_in_fresh_dir(command, valid_config(), good[:at] + raw + good[at:]) in (0, 1, 2)


# Levels whose power ratio or noise overflows a float, the band on both sides
# of where the valid CSV's noise stops fitting the float range (near -3025 dB),
# usable levels, and any float.
NOISE_LEVELS = (st.sampled_from([math.inf, -math.inf, math.nan, 4000.0, -4000.0])
                | st.floats(-3250.0, -3000.0) | st.floats(-400.0, 100.0) | st.floats())


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(NOISE_LEVELS)
def test_noise_level_runs_or_keeps_previous_report(level):
    outputs = ("report.json", "report.json.timings.json", "report.json.csv")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("data.csv", "wb") as fh:
                fh.write(valid_csv())
            for name, noise in (("plain.json", None), ("noisy.json", [level])):
                with open(name, "w") as fh:
                    json.dump(dict(valid_config(), noise_snr_db=noise), fh)
            assert main(["experiment", "--config", "plain.json"]) == 0
            before = [Path(p).read_bytes() for p in outputs]
            code = main(["experiment", "--config", "noisy.json"])
            assert code in (0, 1)
            if code == 1:
                assert [Path(p).read_bytes() for p in outputs] == before
            else:
                with open("report.json") as fh:
                    assert [c["snr_db"] for c in json.load(fh)["cells"]] == [level]
        finally:
            os.chdir(cwd)
