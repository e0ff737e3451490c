"""Command-line entry point.

Subcommands: simulate, lln, clt, wlaw, oracle, variance.  Exit code 0 when
every check passes, 1 on a test failure or a refused budget, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .harness import (
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    dump_snapshots,
    emit,
)
from .model import BudgetExceededError, InvalidParameterError
from .simulator import AllExtinctError, ResourceCapError, simulate_farm

_SUBCOMMANDS = ("simulate", *RUNNERS)


@functools.cache  # built once per process: building costs far more than parsing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branching-ou",
        description="Simulation and verification toolkit for U-statistics "
                    "of branching Ornstein-Uhlenbeck particle systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, type=Path,
                         help="path to the JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--replicas", type=int, default=None,
                         help="override the replica count")
        cmd.add_argument("--t", type=str, default=None,
                         help="override the time grid, comma separated")
        cmd.add_argument("--out", type=Path, default=Path("out"),
                         help="output directory")
        cmd.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
    return parser


def _load_config(args) -> ExperimentConfig:
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("the config must be a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.replicas is not None:
        raw["replicas"] = args.replicas
    if args.t is not None:
        try:
            raw["t_grid"] = [float(v) for v in args.t.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--t: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(args)
    except (OSError, json.JSONDecodeError, ConfigError,
            InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            farm = simulate_farm(config.params, config.t_grid, config.replicas,
                                 config.seed, caps=config.caps)
            path = dump_snapshots(farm, args.out)
            counts = [int((farm[-1].counts > 0).sum()), config.replicas]
            print(f"wrote {path} ({counts[0]}/{counts[1]} replicas surviving "
                  f"at t={config.t_grid[-1]:g})")
            return 0
        runner = RUNNERS[args.command]
        report = runner(config)
    except (ConfigError, AllExtinctError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc} (time reached {exc.time_reached:g})",
              file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1

    path = emit(report, args.format, args.out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        target = "" if check.target is None else f" target={check.target:.6g}"
        print(f"[{status}] {check.name}: value={check.value:.6g}{target} "
              f"({check.tolerance})")
    print(f"report: {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
