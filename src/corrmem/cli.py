"""Command-line front end.

Usage::

    corrmem <kind> --config <path> [--out <dir>] [--seed <u64>] [--threads <k>]

``verify-all`` runs its bundled model suite and needs no config file.  Exit
codes: 0 success, 2 config error, 3 resource limit exceeded, 4 a violated
bound was detected by ``verify-all``.
"""

import argparse
import sys
from dataclasses import replace

from .errors import ResourceLimitError, ValidationError
from .harness import KINDS, ExperimentConfig, load_config, parse_config, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrmem",
        description="Correlated-error memory experiments: run one experiment kind "
        "from a JSON config and write CSV + JSON reports.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument(
            "--config",
            required=(kind != "verify-all"),
            help="path to the JSON experiment config",
        )
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads for independent grid points (default 1)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config, args.kind)
        else:
            cfg = parse_config({"kind": args.kind})
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        result = run(cfg, threads=args.threads)
    except ValidationError as exc:
        print(f"corrmem: config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"corrmem: resource limit: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.kind}: {result.rows} rows -> {result.csv_path}")
    if result.exit_code == 4:
        print("corrmem: verify-all detected a violated bound", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
