"""Command-line front end: ``herdsim run <config.json>``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ConfigError, parse_config, run_experiment
from .signal_models import NumericalFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdsim",
        description="Sequential social-learning simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config_path", help="path to the experiment config (JSON)")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--output-dir", default=None, help="override output directory")
    run.add_argument(
        "--threads", type=int, default=None,
        help="override threads (validated; trials run in one thread, so it changes nothing)",
    )
    run.add_argument(
        "--dump-trajectories", action="store_true", default=None,
        help="also write raw action sequences for the first trials",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "run":  # pragma: no cover - argparse enforces this
        return EXIT_CONFIG
    try:
        with open(args.config_path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(
            text, master_seed=args.seed, output_dir=args.output_dir,
            threads=args.threads, dump_trajectories=args.dump_trajectories,
        )
        manifest = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {len(manifest.files)} files to {config.output_dir}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
