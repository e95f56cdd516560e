"""Command-line interface: parameter sweeps, single-point regions, self-checks.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .core import ConfigError, HdmarcError, RateRegion, SchemeId, validate_beta
from .dminfo import spec_from_dict
from .dmregions import dm_regions
from .gaussian import cf_rates, gqf_rates, no_relay_rates
from .sweep import (
    config_from_dict,
    emit_csv,
    emit_plot_script,
    gaussian_point_from_dict,
    no_relay_from_dict,
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


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = config_from_dict(_load_json(args.config))
    out = args.out or config.output
    if not out:
        raise ConfigError(
            "no output path: pass --out or set 'output' in the config"
        )
    result = run_sweep(config)
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    script = os.path.splitext(out)[0] + ".gp"
    emit_csv(result, out)
    emit_plot_script(result, script, out)
    rows = len(result.values) * len(result.schemes)
    print(f"wrote {rows} rows to {out} and plot script {script}")
    return EXIT_OK


def _region_to_jsonable(region: RateRegion) -> dict:
    return {
        "r1_max": region.r1_max,
        "r2_max": region.r2_max,
        "sum_max": region.sum_max,
        "feasible": region.feasible,
        "terms": dict(region.terms),
    }


def _cmd_region(args: argparse.Namespace) -> int:
    doc = _load_json(args.config)
    if not isinstance(doc, dict):
        raise ConfigError("region config must be an object")
    known = {"model", "channel", "schemes", "beta", "topology", "no_relay"}
    extra = sorted(set(doc) - known)
    if extra:
        raise ConfigError(f"region config has unknown fields {extra}")
    model = doc.get("model")
    if model not in ("gaussian", "dm"):
        raise ConfigError(f"model must be 'gaussian' or 'dm', got {model!r}")
    schemes = doc.get("schemes", [s.value for s in SchemeId])
    if not isinstance(schemes, list) or not schemes:
        raise ConfigError("schemes must be a non-empty list")
    try:
        scheme_ids = [SchemeId(s) for s in schemes]
    except ValueError as exc:
        raise ConfigError(f"unknown scheme in {schemes}: {exc}") from None
    if "channel" not in doc:
        raise ConfigError("region config is missing 'channel'")

    regions: dict[str, dict] = {}
    if model == "gaussian":
        if "topology" in doc or "beta" in doc:
            raise ConfigError(
                "gaussian region configs carry beta inside 'channel'; "
                "'topology' applies to the dm model only"
            )
        params = gaussian_point_from_dict(doc["channel"])
        for scheme in scheme_ids:
            if scheme is SchemeId.GQF:
                regions[scheme.value] = _region_to_jsonable(gqf_rates(params))
            elif scheme is SchemeId.CF:
                regions[scheme.value] = _region_to_jsonable(cf_rates(params))
            else:
                if "no_relay" not in doc:
                    raise ConfigError(
                        "the NO_RELAY scheme needs a no_relay block with "
                        "baseline powers P1 and P2"
                    )
                p1, p2 = no_relay_from_dict(doc["no_relay"])
                regions[scheme.value] = _region_to_jsonable(
                    no_relay_rates(params.h11, params.h21, p1, p2)
                )
    else:
        if "no_relay" in doc:
            raise ConfigError("no_relay powers apply to the gaussian model only")
        if "beta" not in doc:
            raise ConfigError("dm region configs need a top-level beta")
        beta = doc["beta"]
        if isinstance(beta, bool) or not isinstance(beta, (int, float)):
            raise ConfigError(f"beta must be a number, got {beta!r}")
        topology = doc.get("topology", "marc")
        if topology not in ("marc", "cmacr"):
            raise ConfigError(
                f"topology must be 'marc' or 'cmacr', got {topology!r}"
            )
        spec = spec_from_dict(doc["channel"])
        results = dm_regions(spec, topology, scheme_ids, (validate_beta(beta),))
        for scheme, (region,) in results.items():
            regions[scheme.value] = _region_to_jsonable(region)

    text = json.dumps(regions, indent=2, sort_keys=True) + "\n"
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(directory, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_subject(args.subject, seed=args.seed, draws=args.draws)
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(directory, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "region": _cmd_region,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HdmarcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
