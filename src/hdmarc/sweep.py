"""Parameter sweeps over quantization variance or slot fraction.

A sweep is described by a JSON document (see :func:`config_from_dict`),
evaluated on a grid, and emitted as a CSV plus a gnuplot script that plots
the per-scheme sum-rate curves from that CSV.  Output is deterministic:
the same configuration always produces byte-identical files.

CSV layout (one row per scheme per grid point, grouped by scheme)::

    swept,scheme,r1,r2,sum,feasible,diag_sigma

``diag_sigma`` records the quantization variance actually used at that
point (the optimizer's choice, or the threshold for CF), and is empty for
schemes without a quantizer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    ConfigError,
    HdmarcError,
    OutOfRange,
    SchemeId,
    clamp_bounds,
    reject_unknown_fields,
    validate_beta,
)
from .dminfo import DmChannelSpec, spec_from_dict
from .dmregions import dm_regions
from .gaussian import GaussianMarcParams, gaussian_regions

#: The only schema version this package reads.
SCHEMA_VERSION = 1

#: Significant digits used for every CSV number.
CSV_DIGITS = 12

#: Column header of every emitted CSV.
CSV_HEADER = "swept,scheme,r1,r2,sum,feasible,diag_sigma"

#: Most points a sweep grid may have; bounds the memory and time of a sweep.
MAX_GRID_POINTS = 10**6

_GAIN_KEYS = {"h11": "h11", "h21": "h21", "h1R": "h1r", "h2R": "h2r", "hR1": "hr1"}
_POWER_KEYS = {"P11": "p11", "P12": "p12", "P21": "p21", "P22": "p22", "PR": "pr"}


@dataclass(frozen=True)
class GridSpec:
    """A one-dimensional sweep grid."""

    lo: float
    hi: float
    points: int
    spacing: str  # "linear" | "log"

    def __post_init__(self) -> None:
        if self.spacing not in ("linear", "log"):
            raise ConfigError(
                f"grid spacing must be 'linear' or 'log', got {self.spacing!r}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError(
                f"grid bounds must be finite, got min={self.lo!r} max={self.hi!r}"
            )
        if not self.lo < self.hi:
            raise ConfigError(
                f"grid needs min < max, got min={self.lo!r} max={self.hi!r}"
            )
        if not 2 <= self.points <= MAX_GRID_POINTS:
            raise ConfigError(
                f"grid needs 2 to {MAX_GRID_POINTS} points, got {self.points!r}"
            )
        if self.spacing == "log" and self.lo <= 0.0:
            raise ConfigError("log-spaced grid needs min > 0")

    def values(self) -> tuple[float, ...]:
        if self.spacing == "log":
            grid = np.geomspace(self.lo, self.hi, self.points)
        else:
            grid = np.linspace(self.lo, self.hi, self.points)
        return tuple(float(v) for v in grid)


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep description.

    Exactly one of ``gaussian``/``dm_spec`` is set, matching ``model``.
    For the Gaussian model, ``no_relay`` holds the single-slot baseline
    powers (required only when NO_RELAY is among the schemes).  For the
    finite-alphabet model, ``topology`` selects the single-destination or
    compound region.
    """

    model: str  # "gaussian" | "dm"
    swept: str  # "sigma_q2" | "beta"
    grid: GridSpec
    schemes: tuple[SchemeId, ...]
    gaussian: Optional[GaussianMarcParams] = None
    no_relay: Optional[tuple[float, float]] = None
    dm_spec: Optional[DmChannelSpec] = None
    topology: str = "marc"  # "marc" | "cmacr" (dm only)
    output: Optional[str] = None


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ConfigError(f"{where} is missing required field {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_schemes(raw) -> tuple[SchemeId, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("schemes must be a non-empty list")
    schemes = []
    for name in raw:
        try:
            schemes.append(SchemeId(name))
        except ValueError:
            raise ConfigError(
                f"unknown scheme {name!r}; expected one of "
                f"{[s.value for s in SchemeId]}"
            ) from None
    if len(set(schemes)) != len(schemes):
        raise ConfigError(f"schemes list has duplicates: {raw}")
    return tuple(schemes)


def _parse_gaussian_channel(doc: dict, swept: Optional[str]) -> GaussianMarcParams:
    """A Gaussian ``channel`` block of a sweep over ``swept``, or of a single
    point (``swept=None``: ``beta`` and ``sigma_q2`` both fixed)."""
    gains_doc = _require(doc, "gains", dict, "channel")
    powers_doc = _require(doc, "powers", dict, "channel")
    for label, table, known in (
        ("gains", gains_doc, _GAIN_KEYS),
        ("powers", powers_doc, _POWER_KEYS),
    ):
        reject_unknown_fields(table, known, f"channel.{label}")
        missing = sorted(set(known) - set(table))
        if missing:
            raise ConfigError(f"channel.{label} is missing fields {missing}")
    kwargs = {field: _require(gains_doc, key, float, "channel.gains")
              for key, field in _GAIN_KEYS.items()}
    kwargs.update(
        {field: _require(powers_doc, key, float, "channel.powers")
         for key, field in _POWER_KEYS.items()}
    )

    reject_unknown_fields(doc, {"gains", "powers", "beta", "sigma_q2"}, "channel")

    if swept == "beta":
        if "beta" in doc:
            raise ConfigError("channel.beta must be omitted when sweeping beta")
        beta = 0.5  # placeholder; every evaluation replaces it with a grid value
    else:
        beta = _require(doc, "beta", float, "channel")
    sigma = None
    if swept is None:
        sigma = _require(doc, "sigma_q2", float, "channel")
    elif "sigma_q2" in doc:
        raise ConfigError(
            "channel.sigma_q2 must be omitted in sweeps: it is either the swept "
            "parameter or chosen per point by the scheme"
        )
    try:
        return GaussianMarcParams(beta=beta, sigma_q2=sigma, **kwargs)
    except HdmarcError as exc:
        raise ConfigError(f"invalid channel parameters: {exc}") from exc


def gaussian_point_from_dict(doc: dict) -> GaussianMarcParams:
    """Parse a Gaussian channel document with beta and sigma_q2 both fixed.

    Same layout as a sweep's ``channel`` block, but for single-point
    evaluation: ``gains``, ``powers``, ``beta`` and ``sigma_q2`` are all
    required.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"channel must be an object, got {type(doc).__name__}")
    return _parse_gaussian_channel(doc, swept=None)


def no_relay_from_dict(doc: dict) -> tuple[float, float]:
    """Parse a ``no_relay`` block: the baseline powers ``P1`` and ``P2``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"no_relay must be an object, got {type(doc).__name__}")
    reject_unknown_fields(doc, {"P1", "P2"}, "no_relay")
    return tuple(_require(doc, key, float, "no_relay") for key in ("P1", "P2"))


def _model_fields(
    doc: dict, schemes: tuple[SchemeId, ...], where: str, parse_gaussian
) -> dict:
    """The model and channel fields of a sweep or region document ``doc``, as
    keywords of :class:`SweepConfig` and :class:`RegionConfig`.

    ``parse_gaussian`` reads a Gaussian ``channel`` block: sweeps leave
    ``sigma_q2`` (and a swept ``beta``) out of it, single points fix both.
    """
    model = _require(doc, "model", str, where)
    if model not in ("gaussian", "dm"):
        raise ConfigError(f"model must be 'gaussian' or 'dm', got {model!r}")
    channel_doc = _require(doc, "channel", dict, where)
    if model == "gaussian":
        if "topology" in doc:
            raise ConfigError("topology applies to the dm model only")
        no_relay = no_relay_from_dict(doc["no_relay"]) if "no_relay" in doc else None
        if SchemeId.NO_RELAY in schemes and no_relay is None:
            raise ConfigError(
                "the NO_RELAY scheme needs a no_relay block with baseline "
                "powers P1 and P2"
            )
        params = parse_gaussian(channel_doc)
        return {"model": model, "gaussian": params, "no_relay": no_relay}
    if "no_relay" in doc:
        raise ConfigError(
            "no_relay powers apply to the gaussian model only; the dm "
            "NO_RELAY baseline silences the relay of the same channel"
        )
    topology = doc.get("topology", "marc")
    if topology not in ("marc", "cmacr"):
        raise ConfigError(f"topology must be 'marc' or 'cmacr', got {topology!r}")
    try:
        dm_spec = spec_from_dict(channel_doc)
    except HdmarcError as exc:
        raise ConfigError(f"invalid dm channel: {exc}") from exc
    return {"model": model, "dm_spec": dm_spec, "topology": topology}


def config_from_dict(doc: dict) -> SweepConfig:
    """Validate a sweep document and build a :class:`SweepConfig`.

    Top-level fields: ``schema_version`` (must be 1), ``model`` ("gaussian"
    or "dm"), ``swept`` ("sigma_q2" or "beta"), ``grid`` (``min``, ``max``,
    ``points``, optional ``spacing``), ``schemes``, ``channel`` (model
    parameters), optional ``no_relay`` (``P1``, ``P2``; Gaussian baseline),
    optional ``topology`` ("marc" or "cmacr"; dm only), optional ``output``
    (CSV path).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be an object, got {type(doc).__name__}")
    version = _require(doc, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version}; this package reads "
            f"version {SCHEMA_VERSION}"
        )
    known = {
        "schema_version",
        "model",
        "swept",
        "grid",
        "schemes",
        "channel",
        "no_relay",
        "topology",
        "output",
    }
    reject_unknown_fields(doc, known, "config")

    swept = _require(doc, "swept", str, "config")
    if swept not in ("sigma_q2", "beta"):
        raise ConfigError(f"swept must be 'sigma_q2' or 'beta', got {swept!r}")
    if doc.get("model") == "dm" and swept != "beta":
        raise ConfigError("the dm model has no sigma_q2 knob; sweep beta instead")

    grid_doc = _require(doc, "grid", dict, "config")
    reject_unknown_fields(grid_doc, {"min", "max", "points", "spacing"}, "grid")
    grid = GridSpec(
        lo=_require(grid_doc, "min", float, "grid"),
        hi=_require(grid_doc, "max", float, "grid"),
        points=_require(grid_doc, "points", int, "grid"),
        spacing=grid_doc.get("spacing", "linear"),
    )
    if swept == "beta":
        try:
            validate_beta(np.array([grid.lo, grid.hi]))
        except OutOfRange as exc:
            raise ConfigError(f"beta grid [{grid.lo!r}, {grid.hi!r}]: {exc}") from exc
    if swept == "sigma_q2" and not grid.lo > 0.0:
        raise ConfigError(f"sigma_q2 grid needs min > 0, got {grid.lo!r}")

    schemes = _parse_schemes(doc.get("schemes"))
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path string, got {output!r}")
    fields = _model_fields(
        doc, schemes, "config", lambda channel: _parse_gaussian_channel(channel, swept)
    )
    return SweepConfig(swept=swept, grid=grid, schemes=schemes, output=output, **fields)


@dataclass(frozen=True)
class RegionConfig:
    """A validated single-point description: the model fields of a
    :class:`SweepConfig`, plus the point's ``beta`` and, for the Gaussian
    model, its ``sigma_q2`` (both also held by ``gaussian``)."""

    model: str  # "gaussian" | "dm"
    schemes: tuple[SchemeId, ...]
    beta: float
    sigma_q2: Optional[float] = None
    gaussian: Optional[GaussianMarcParams] = None
    no_relay: Optional[tuple[float, float]] = None
    dm_spec: Optional[DmChannelSpec] = None
    topology: str = "marc"


def region_config_from_dict(doc: dict) -> RegionConfig:
    """Validate a region document and build a :class:`RegionConfig`.

    Fields: ``model``, ``channel`` (a Gaussian channel carries ``beta`` and
    ``sigma_q2``, see :func:`gaussian_point_from_dict`), optional
    ``schemes`` (default: all, no duplicates), and as in a sweep optional
    ``no_relay`` (Gaussian) or top-level ``beta`` and optional ``topology``
    (dm).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"region config must be an object, got {type(doc).__name__}")
    known = {"model", "channel", "schemes", "beta", "topology", "no_relay"}
    reject_unknown_fields(doc, known, "region config")
    schemes = _parse_schemes(doc.get("schemes", [scheme.value for scheme in SchemeId]))
    fields = _model_fields(doc, schemes, "region config", gaussian_point_from_dict)
    if fields["model"] == "dm":
        beta = validate_beta(_require(doc, "beta", float, "region config"))
        return RegionConfig(schemes=schemes, beta=beta, **fields)
    if "beta" in doc:
        raise ConfigError("gaussian region configs carry beta inside 'channel'")
    params = fields["gaussian"]
    return RegionConfig(
        schemes=schemes, beta=params.beta, sigma_q2=params.sigma_q2, **fields
    )


def evaluate(config, beta, sigma_q2=None) -> dict[SchemeId, Bounds]:
    """Unclamped bounds of every scheme of ``config`` (a :class:`SweepConfig`
    or :class:`RegionConfig`) at slot fraction(s) ``beta`` and, for the
    Gaussian model, quantization variance(s) ``sigma_q2`` (None: each
    scheme's own choice per ``beta``).  Floats give one point, arrays a grid.
    """
    models = {
        "gaussian": lambda: gaussian_regions(
            config.gaussian, config.schemes, beta, sigma_q2, config.no_relay
        ),
        "dm": lambda: dm_regions(config.dm_spec, config.topology, config.schemes, beta),
    }
    return models[config.model]()


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep: per scheme, its :class:`Bounds` clamped and listed
    column by column, one entry per grid value (``sigma`` is the
    ``diag_sigma`` column)."""

    swept: str
    values: tuple[float, ...]
    schemes: tuple[SchemeId, ...]
    columns: dict[SchemeId, Bounds]
    log_axis: bool


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every scheme at every grid point.

    On a ``beta`` sweep each scheme picks its own variance per point: GQF
    the sum optimum, CF just above the binning threshold.  Backend errors
    are re-raised with the schemes prepended to the message.
    """
    values = config.grid.values()
    grid = np.asarray(values)
    if config.swept == "sigma_q2":
        beta, sigma = config.gaussian.beta, grid
    else:
        beta, sigma = grid, None
    try:
        evaluated = evaluate(config, beta, sigma)
    except HdmarcError as exc:
        label = ", ".join(scheme.value for scheme in config.schemes)
        raise type(exc)(f"sweep failed for schemes {label}: {exc}") from exc
    columns = {}
    for scheme, bounds in evaluated.items():
        r1, r2, rsum = clamp_bounds(bounds.r1, bounds.r2, bounds.rsum)
        clamped = (r1, r2, rsum, bounds.feasible, bounds.sigma)
        lists = (np.broadcast_to(column, grid.shape).tolist() for column in clamped)
        columns[scheme] = Bounds(*lists, bounds.terms)
    return SweepResult(
        swept=config.swept,
        values=values,
        schemes=config.schemes,
        columns=columns,
        log_axis=config.grid.spacing == "log",
    )


def render_csv(result: SweepResult) -> str:
    """The CSV text of a sweep (deterministic; see the module docstring)."""
    g = f".{CSV_DIGITS}g"
    lines = [CSV_HEADER]
    for scheme in result.schemes:
        name = scheme.value
        for value, r1, r2, rsum, feasible, sigma in zip(
            result.values, *result.columns[scheme][:5]
        ):
            diag = "" if sigma is None else f"{sigma:{g}}"
            lines.append(
                f"{value:{g}},{name},{r1:{g}},{r2:{g}},{rsum:{g}},"
                f"{'true' if feasible else 'false'},{diag}"
            )
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the sweep CSV to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_csv(result))


def render_plot_script(result: SweepResult, script_path: str, csv_path: str) -> str:
    """The gnuplot script text plotting per-scheme sum rates from the CSV.

    The script refers to the CSV by a path relative to its own directory,
    so the pair can be moved together.
    """
    rel_csv = os.path.relpath(
        os.path.abspath(csv_path), os.path.dirname(os.path.abspath(script_path))
    )
    lines = [
        "# Sum-rate curves from the sweep CSV emitted alongside this script.",
        "set datafile separator ','",
        f"set xlabel '{result.swept}'",
        "set ylabel 'sum rate (bits/channel use)'",
        "set key bottom right",
        "set grid",
    ]
    if result.log_axis:
        lines.append("set logscale x")
    lines.append(f"csv = '{rel_csv}'")
    plots = [
        f"    csv skip 1 using 1:(strcol(2) eq '{scheme.value}' ? column(5) : NaN) "
        f"with lines title '{scheme.value}'"
        for scheme in result.schemes
    ]
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def emit_plot_script(result: SweepResult, script_path: str, csv_path: str) -> None:
    """Write the gnuplot script to ``script_path`` (UTF-8)."""
    with open(script_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_plot_script(result, script_path, csv_path))
