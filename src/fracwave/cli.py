"""Command-line experiment runner.

Subcommands mirror the experiment runners:

    fracwave solve    --config cfg.txt [--out DIR] [--backend B] [--plot]
    fracwave rates    ...
    fracwave lemmas   ...
    fracwave sandwich ...
    fracwave energy   ...

Exit status is 0 exactly when every enabled verdict passes; config problems
exit with 2 and carry line/key diagnostics, a refused computation with 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

from .errors import ConfigError, FracwaveError
from .experiments import RUNNERS, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="fractional wave equation: exact spectral solver and "
                    "growth-law verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in RUNNERS.items():
        cmd = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--backend", choices=("grid", "quadrature"),
                         default=None, help="override the configured backend")
        cmd.add_argument("--plot", action="store_true",
                         help="also emit plot.svg (as the config's plot = true)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every non-finite result is refused as a one-line error; a warnings
        # filter, unlike np.errstate, also holds in map_times' threads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = load_config(args.config)
            if args.backend:
                cfg = dataclasses.replace(cfg, backend=args.backend)
            if args.plot:
                cfg = dataclasses.replace(cfg, plot=True)
            result = RUNNERS[args.command](cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FracwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for path in result.files:
        print(f"wrote {path}")
    for name, ok in result.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
