"""Command-line entry point.

Subcommands run one pipeline stage against a JSON config; `reproduce` runs
them all in order. Exit codes: 0 success, 1 usage or config error, 2 data
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import TASKS
from .errors import ConfigError, RenalRiskError
from .pipeline import STAGE_ORDER, load_pipeline_config, run_reproduce, run_stage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="renalrisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_ORDER + ("reproduce",):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--workers", type=int, default=1, help="worker processes for synth")
        p.add_argument("--seed", type=int, default=None, help="override every config seed")
        if name in ("train", "predict", "evaluate"):
            p.add_argument("--task", choices=TASKS, default=None, help="restrict to one task")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers must be >= 1")
        cfg = load_pipeline_config(args.config, seed_override=args.seed, workers=args.workers)
        if args.command == "reproduce":
            run_reproduce(cfg)
        else:
            run_stage(cfg, args.command, only_task=getattr(args, "task", None))
        return 0
    except RenalRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
