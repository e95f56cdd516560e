"""Command-line interface: parameter sweeps, single-point regions, self-checks.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

from .core import ConfigError, HdmarcError, file_path, rate_region, write_text
from .sweep import (
    config_from_dict,
    emit_csv,
    emit_plot_script,
    evaluate,
    plot_csv_path,
    region_config_from_dict,
    run_sweep,
)
from .verify import DEFAULT_DRAWS, SUBJECTS, run_subject

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config-error exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hdmarc",
        description=(
            "Achievable rate regions for the half-duplex multiple-access "
            "relay channel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="evaluate schemes over a parameter grid; write CSV + gnuplot script",
    )
    sweep.add_argument("--config", required=True, help="sweep JSON document")
    sweep.add_argument(
        "--out",
        help="CSV output path (overrides the config's 'output'); the gnuplot "
        "script lands next to it with a .gp suffix",
    )

    region = sub.add_parser(
        "region", help="evaluate the rate region of a single operating point"
    )
    region.add_argument("--config", required=True, help="region JSON document")
    region.add_argument("--out", help="write the JSON result here instead of stdout")

    verify = sub.add_parser(
        "verify", help="run a seeded self-verification subject"
    )
    verify.add_argument("subject", choices=SUBJECTS)
    verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    verify.add_argument(
        "--draws",
        type=int,
        default=None,
        help=f"random draws (defaults per subject: {DEFAULT_DRAWS})",
    )
    verify.add_argument("--out", help="also write the report to this path")
    return parser


# Built once per process: parse_args keeps no state between calls, so every
# main() call reuses it.
_PARSER = _build_parser()


def _load_json(path: str) -> dict:
    with open(file_path(path), "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # Bad JSON or UTF-8 is a ValueError, too deep a nesting a RecursionError.
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = config_from_dict(_load_json(args.config))
    out = args.out or config.output
    if not out:
        raise ConfigError(
            "no output path: pass --out or set 'output' in the config"
        )
    script = os.path.splitext(file_path(out))[0] + ".gp"
    if script == out:
        raise ConfigError(
            f"CSV output path {out!r} ends in .gp, where the plot script would overwrite it"
        )
    plot_csv_path(out)
    result = run_sweep(config)
    emit_csv(result, out)
    emit_plot_script(result, script, out)
    rows = len(result.values) * len(result.columns)
    print(f"wrote {rows} rows to {out} and plot script {script}")
    return EXIT_OK


def _cmd_region(args: argparse.Namespace) -> int:
    config = region_config_from_dict(_load_json(args.config))
    regions = {}
    for scheme, bounds in evaluate(config, config.beta, config.sigma_q2).items():
        region = rate_region(bounds)
        # JSON has no infinities: a non-finite term (the CF threshold of a
        # dead relay link) is written as null.
        terms = {k: v if math.isfinite(v) else None for k, v in region.terms.items()}
        regions[scheme.value] = dict(dataclasses.asdict(region), terms=terms)
    text = json.dumps(regions, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_subject(args.subject, seed=args.seed, draws=args.draws)
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        write_text(args.out, text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "region": _cmd_region,
        "verify": _cmd_verify,
    }
    try:
        if args.out:  # every command has --out; an empty one is no path
            file_path(args.out)
        return handlers[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HdmarcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
