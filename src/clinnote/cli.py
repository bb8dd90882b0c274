"""Command line entry point: run one pipeline stage or all of them.

Exit codes: 0 success, 2 config error, 3 dependency error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import validate_config
from .errors import ConfigError, DependencyMissing
from .pipeline import STAGES, Runner


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clinnote",
        description="Discharge-note risk factor mining and readmission prediction",
    )
    parser.add_argument("stage", choices=list(STAGES) + ["run-all"],
                        help="pipeline stage to run")
    parser.add_argument("--config", default=None, help="path to JSON config")
    parser.add_argument("--out", required=True, help="run output directory")
    parser.add_argument("--mock", action="store_true",
                        help="use the offline deterministic mock gateway")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    overrides = {"mock_mode": True} if args.mock else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:  # replace runs Config's checks on the overrides too
        config = dataclasses.replace(validate_config(args.config), **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    runner = None
    try:
        runner = Runner(config, args.out)
        if args.stage == "run-all":
            runner.run_all()
        else:
            runner.run_stage(args.stage)
    except DependencyMissing as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        if args.verbose:
            raise
        return 4
    finally:
        if runner is not None:
            runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
