"""Command-line entry point: run, check-gradient, validate.

Exit codes: 0 success, 1 configuration error, 2 simulation failure.  A
config is its file, parsed and validated once; ``run`` also takes the output
directory, --out (default ``out``), and creates it before solving.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys

from .config import ConfigError, parse_config, serialize_config


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kinkband",
        description="2D single-slip crystal plasticity by incremental "
                    "energy minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the load program and write results")
    run.add_argument("--config", required=True, help="path to config file")
    run.add_argument("--out", default="out", help="output directory")

    check = sub.add_parser("check-gradient",
                           help="compare analytic and FD gradients on the "
                                "start-up check's fixed strained state")
    check.add_argument("--config", required=True)

    val = sub.add_parser("validate", help="parse a config and echo the result")
    val.add_argument("--config", required=True)
    return parser


def _load_config(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from None
    return parse_config(text)


def _write_outputs(config, records, states, out_dir):
    from .evolution import build_problem
    from .output import write_history_csv, write_snapshot_vtk

    formats = set(config.formats.split(","))
    if "csv" in formats and records:
        write_history_csv(records, os.path.join(out_dir, "history.csv"),
                          Lx=config.Lx, Ly=config.Ly, speed=config.speed)
    if "vtk" in formats:
        mesh = build_problem(config)[0]
        for i, state in enumerate(states):
            if i % config.snapshot_stride == 0 or i == len(states) - 1:
                path = os.path.join(out_dir, f"snapshot_{i:04d}.vtk")
                write_snapshot_vtk(state, mesh, path,
                                   title=f"kinkband t={state.time:g}")


def _cmd_run(args):
    from .evolution import StepFailureError, run_simulation

    logging.getLogger("kinkband").setLevel(logging.INFO)   # per-step progress
    config = _load_config(args)
    if args.out == "":
        raise ConfigError("--out must not be empty")
    os.makedirs(args.out, exist_ok=True)    # fail before solving, not after
    try:
        records, states = run_simulation(config)
    except StepFailureError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        if exc.records:
            _write_outputs(config, exc.records, exc.states, args.out)
            print(f"partial results saved to {args.out}", file=sys.stderr)
        return 2
    _write_outputs(config, records, states, args.out)
    print(f"completed {len(records)} steps; results in {args.out}")
    return 0


def _cmd_check_gradient(args):
    from .evolution import (GRADIENT_CHECK_TOL, _startup_gradient_check,
                            build_problem)

    config = _load_config(args)
    err = _startup_gradient_check(*build_problem(config))
    print(f"max relative gradient error: {err:.6e}")
    if not err < GRADIENT_CHECK_TOL:          # NaN fails too
        print("gradient check FAILED", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args):
    config = _load_config(args)
    sys.stdout.write(serialize_config(config))
    return 0


def cli_main(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    logging.basicConfig(format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-gradient":
            return _cmd_check_gradient(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 1


def _set_allocator_thresholds():
    """Keep freed blocks in the heap, so that each step's large numpy
    temporaries do not fault in fresh pages: glibc's mmap threshold 32 MiB,
    trim threshold 1 GiB.  Skipped silently where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)          # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)           # M_TRIM_THRESHOLD


def console_main() -> None:
    _set_allocator_thresholds()
    raise SystemExit(cli_main())
