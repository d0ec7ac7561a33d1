"""Command-line experiment runner.

Subcommands mirror the experiment runners:

    fracwave solve    --config cfg.txt [--out DIR]
    fracwave rates    ...
    fracwave lemmas   ...
    fracwave sandwich ...
    fracwave energy   ...

Every setting, the backend and the plot included, comes from the config;
``--out`` only places the outputs (default: the config's ``out``).

Exit status is 0 exactly when every enabled verdict passes; config problems
exit with 2 and carry line/key diagnostics, a refused computation with 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .errors import ConfigError, FracwaveError
from .experiments import RUNNERS, load_config


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: its six parsers cost
    about 20 times a parse."""
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="fractional wave equation: exact spectral solver and "
                    "growth-law verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in RUNNERS.items():
        cmd = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every non-finite result is refused as a one-line error; a warnings
        # filter, unlike np.errstate, also holds in map_times' threads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = load_config(args.config)
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
