"""Command-line entry point.

Subcommands: fit, embed, classify, experiment, convergence.
Exit codes: 0 success, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace

from ttnpe.errors import ConfigError, DataError, NumericError
from ttnpe.harness import (ExperimentConfig, run_classify, run_convergence, run_embed,
                           run_experiment, run_fit)

# glibc's mallopt parameter numbers (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Blocks up to this size come from the heap instead of a private mmap that
# free() hands straight back to the kernel: eigh's LAPACK workspace, TT-SVD
# scratch, graph arrays and Z are all below it at MNIST shape. 32 MiB is the
# largest value glibc accepts on 64-bit.
MMAP_THRESHOLD = 32 * 1024 * 1024
# Free memory at the top of the heap goes back to the kernel only past this,
# so one fit's freed scratch is reused by the next fit, not faulted in again.
TRIM_THRESHOLD = 1024 * 1024 * 1024


def _keep_freed_buffers() -> None:
    """Set the C allocator to keep freed numeric buffers for reuse.

    Sets glibc's mmap and trim thresholds to MMAP_THRESHOLD and
    TRIM_THRESHOLD; where the C library has no mallopt (macOS and Windows
    among them) it does nothing. Only where buffers are placed and whether
    freed ones are reused changes, never a computed value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttnpe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, out, seed=True, variant=False, model=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help=out)
        if seed:
            p.add_argument("--seed", type=int, help="override config seed")
        if variant:
            p.add_argument("--variant", help="override solver variant")
        if model:
            p.add_argument("--model", required=True, help="saved chain JSON")

    command("fit", "fit a chain on the first report cell's training split and save it",
            "model file to write (required)", variant=True)
    command("embed", "embed the whole dataset with a saved chain",
            "coordinates CSV to write (required)", seed=False, model=True)
    command("classify", "classify the first report cell's test split with a saved chain",
            "result JSON to write (default: stdout)", model=True)
    command("experiment", "run the full tau sweep and write the report",
            "report path (overrides config output_path)", variant=True)
    command("convergence", "record per-sweep objective traces for both variants",
            "report path (overrides config output_path)")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides, checked as one config."""
    config = ExperimentConfig.from_file(args.config)
    overrides = {"seed": getattr(args, "seed", None), "variant": getattr(args, "variant", None)}
    if args.command in ("experiment", "convergence"):
        overrides["output_path"] = args.out
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Each subcommand runs one ``ttnpe.harness`` function (``run_<command>``)
    on the config with the flags' overrides; ``main`` maps its typed errors.

    Before it reads the config, every call sets the process's C allocator
    to keep freed buffers (:func:`_keep_freed_buffers`). Without that, glibc
    returns each freed multi-MB block (LAPACK workspace, TT-SVD scratch, the
    graph's arrays, Z) to the kernel, and the next fit of a tau sweep takes
    tens of thousands of page faults to get it back. Results do not depend
    on it. Library callers get the same effect from the environment:
    ``MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824``.

    A usage error (a missing or unknown flag, a ``--seed`` that is not an
    int) is a config error like a bad ``--variant`` or config value: exit 1
    with a "config error:" line, no traceback. ``--help`` exits 0.
    """
    _keep_freed_buffers()
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args)
        if args.command in ("fit", "embed") and args.out is None:
            what = "the model path" if args.command == "fit" else "the coordinates CSV"
            raise ConfigError(f"{args.command} requires --out for {what}")
        if args.command == "fit":
            run_fit(config, args.out)
        elif args.command == "embed":
            run_embed(config, args.model, args.out)
        elif args.command == "classify":
            run_classify(config, args.model, args.out)
        elif args.command == "experiment":
            run_experiment(config)
        elif args.command == "convergence":
            run_convergence(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
