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

import operator
import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    Bounds,
    ConfigError,
    HdmarcError,
    InvalidParams,
    OutOfRange,
    SchemeId,
    clamp_bounds,
    document,
    file_path,
    instance_of,
    integer,
    one_of,
    read_schemes,
    real_array,
    real_number,
    validate_beta,
    write_text,
)
from .dminfo import DmChannelSpec, spec_from_dict
from .dmregions import TOPOLOGIES, dm_regions
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
        # The checks of a config document's grid, under the same labels.
        object.__setattr__(self, "lo", real_number(self.lo, "grid.min", ConfigError))
        object.__setattr__(self, "hi", real_number(self.hi, "grid.max", ConfigError))
        points = integer(self.points, "grid.points", 2, MAX_GRID_POINTS, ConfigError)
        object.__setattr__(self, "points", points)
        spacing = one_of(self.spacing, "grid.spacing", ("linear", "log"), ConfigError)
        object.__setattr__(self, "spacing", spacing)
        if not self.lo < self.hi:
            raise ConfigError(
                f"grid needs min < max, got min={self.lo!r} max={self.hi!r}"
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

    The type of ``channel`` is the model: a :class:`GaussianMarcParams` or
    a finite-alphabet :class:`DmChannelSpec`.  For a Gaussian channel,
    ``no_relay`` holds the single-slot baseline powers (required only when
    NO_RELAY is among the schemes).  For a finite-alphabet channel,
    ``topology`` selects the single-destination or compound region.
    """

    swept: str  # "sigma_q2" | "beta"
    grid: GridSpec
    schemes: tuple[SchemeId, ...]
    channel: Union[GaussianMarcParams, DmChannelSpec]
    no_relay: Optional[tuple[float, float]] = None
    topology: str = "marc"  # "marc" | "cmacr" (dm only)
    output: Optional[str] = None


def _number(doc: dict, key: str, where: str, rule: Optional[str] = None) -> float:
    """The number ``doc[key]`` of a document checked by :func:`document`, if ``rule``."""
    return real_number(doc[key], f"{where}.{key}", ConfigError, rule)


def _parse_schemes(raw) -> tuple[SchemeId, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("schemes must be a non-empty list")
    names = tuple(scheme.value for scheme in SchemeId)
    schemes = [SchemeId(one_of(name, "scheme", names, ConfigError)) for name in raw]
    if len(set(schemes)) != len(schemes):
        raise ConfigError(f"schemes list has duplicates: {raw}")
    return tuple(schemes)


def _parse_gaussian_channel(doc: dict, swept: Optional[str]) -> GaussianMarcParams:
    """A Gaussian ``channel`` block of a sweep over ``swept``, or of a single
    point (``swept=None``: ``beta`` and ``sigma_q2`` both fixed)."""
    fixed = {None: ("beta", "sigma_q2"), "sigma_q2": ("beta",), "beta": ()}[swept]
    document(doc, "channel", ("gains", "powers", *fixed), ("beta", "sigma_q2"))
    if swept == "beta" and "beta" in doc:
        raise ConfigError("channel.beta must be omitted when sweeping beta")
    if swept is not None and "sigma_q2" in doc:
        raise ConfigError(
            "channel.sigma_q2 must be omitted in sweeps: it is either the swept "
            "parameter or chosen per point by the scheme"
        )
    kwargs = {}
    for label, keys in (("gains", _GAIN_KEYS), ("powers", _POWER_KEYS)):
        where = f"channel.{label}"
        table = document(doc[label], where, keys)
        kwargs.update({field: _number(table, key, where) for key, field in keys.items()})
    # A swept beta is a placeholder; every evaluation replaces it with a grid value.
    beta = 0.5 if swept == "beta" else _number(doc, "beta", "channel")
    sigma = _number(doc, "sigma_q2", "channel") if swept is None else None
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
    return _parse_gaussian_channel(doc, swept=None)


def no_relay_from_dict(doc: dict) -> tuple[float, float]:
    """Parse a ``no_relay`` block: the baseline powers ``P1`` and ``P2``,
    each finite and non-negative."""
    document(doc, "no_relay", ("P1", "P2"))
    return tuple(_number(doc, k, "no_relay", "finite and non-negative") for k in ("P1", "P2"))


def _model_fields(
    doc: dict, schemes: tuple[SchemeId, ...], swept: Optional[str]
) -> dict:
    """The ``channel`` its ``model`` names, and ``no_relay`` or ``topology``, of
    a sweep over ``swept`` or a region (``swept=None``) document ``doc``, as
    keywords of :class:`SweepConfig` and :class:`RegionConfig`."""
    model = one_of(doc["model"], "model", ("gaussian", "dm"), ConfigError)
    if model == "gaussian":
        if "topology" in doc:
            raise ConfigError("topology applies to the dm model only")
        no_relay = no_relay_from_dict(doc["no_relay"]) if "no_relay" in doc else None
        if SchemeId.NO_RELAY in schemes and no_relay is None:
            raise ConfigError(
                "the NO_RELAY scheme needs a no_relay block with baseline "
                "powers P1 and P2"
            )
        if swept is None:  # a region: the public single-point parser
            params = gaussian_point_from_dict(doc["channel"])
        else:
            params = _parse_gaussian_channel(doc["channel"], swept)
        return {"channel": params, "no_relay": no_relay}
    if "no_relay" in doc:
        raise ConfigError(
            "no_relay powers apply to the gaussian model only; the dm "
            "NO_RELAY baseline silences the relay of the same channel"
        )
    if swept == "sigma_q2":
        raise ConfigError("the dm model has no sigma_q2 knob; sweep beta instead")
    topology = one_of(doc.get("topology", "marc"), "topology", TOPOLOGIES, ConfigError)
    try:
        spec = spec_from_dict(doc["channel"])
    except HdmarcError as exc:
        raise ConfigError(f"invalid dm channel: {exc}") from exc
    return {"channel": spec, "topology": topology}


def config_from_dict(doc: dict) -> SweepConfig:
    """Validate a sweep document and build a :class:`SweepConfig`.

    Top-level fields: ``schema_version`` (must be 1), ``model`` ("gaussian"
    or "dm"), ``swept`` ("sigma_q2" or "beta"), ``grid`` (``min``, ``max``,
    ``points``, optional ``spacing``), ``schemes``, ``channel`` (model
    parameters), optional ``no_relay`` (``P1``, ``P2``; Gaussian baseline),
    optional ``topology`` ("marc" or "cmacr"; dm only), optional ``output``
    (CSV path).
    """
    required = ("schema_version", "model", "swept", "grid", "schemes", "channel")
    document(doc, "config", required, ("no_relay", "topology", "output"))
    one_of(doc["schema_version"], "config.schema_version", (SCHEMA_VERSION,), ConfigError)
    swept = one_of(doc["swept"], "swept", ("sigma_q2", "beta"), ConfigError)

    grid_doc = document(doc["grid"], "grid", ("min", "max", "points"), ("spacing",))
    grid = GridSpec(
        lo=grid_doc["min"],
        hi=grid_doc["max"],
        points=grid_doc["points"],
        spacing=grid_doc.get("spacing", "linear"),
    )
    if swept == "beta":
        try:
            validate_beta(np.array([grid.lo, grid.hi]))
        except OutOfRange as exc:
            raise ConfigError(f"beta grid [{grid.lo!r}, {grid.hi!r}]: {exc}") from exc
    if swept == "sigma_q2" and not grid.lo > 0.0:
        raise ConfigError(f"sigma_q2 grid needs min > 0, got {grid.lo!r}")

    schemes = _parse_schemes(doc["schemes"])
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path string, got {output!r}")
    fields = _model_fields(doc, schemes, swept)
    return SweepConfig(swept=swept, grid=grid, schemes=schemes, output=output, **fields)


@dataclass(frozen=True)
class RegionConfig:
    """A validated single-point description: the channel fields of a
    :class:`SweepConfig`, plus a finite-alphabet channel's slot fraction
    ``beta``.  A Gaussian channel holds its own ``beta`` and ``sigma_q2``."""

    schemes: tuple[SchemeId, ...]
    channel: Union[GaussianMarcParams, DmChannelSpec]
    beta: Optional[float] = None  # dm only
    no_relay: Optional[tuple[float, float]] = None
    topology: str = "marc"


def region_config_from_dict(doc: dict) -> RegionConfig:
    """Validate a region document and build a :class:`RegionConfig`.

    Fields: ``model``, ``channel`` (a Gaussian channel carries ``beta`` and
    ``sigma_q2``, see :func:`gaussian_point_from_dict`), optional
    ``schemes`` (default: all, no duplicates), and as in a sweep optional
    ``no_relay`` (Gaussian) or top-level ``beta`` and optional ``topology``
    (dm).
    """
    known = ("model", "channel", "schemes", "beta", "topology", "no_relay")
    document(doc, "region config", ("model", "channel"), known)
    schemes = _parse_schemes(doc.get("schemes", [scheme.value for scheme in SchemeId]))
    fields = _model_fields(doc, schemes, None)
    if isinstance(fields["channel"], GaussianMarcParams):
        if "beta" in doc:
            raise ConfigError("gaussian region configs carry beta inside 'channel'")
        return RegionConfig(schemes=schemes, **fields)
    document(doc, "region config", ("beta",), known)  # a dm region's beta
    try:
        beta = validate_beta(_number(doc, "beta", "region config"))
    except OutOfRange as exc:
        raise ConfigError(f"region config beta: {exc}") from exc
    return RegionConfig(schemes=schemes, beta=beta, **fields)


def evaluate(config: Union[SweepConfig, RegionConfig]) -> dict[SchemeId, Bounds]:
    """Unclamped bounds of every scheme of ``config`` at the point(s) it
    holds.  A :class:`SweepConfig` is evaluated over its grid: of slot
    fractions, where each scheme picks its own variance per point, or of
    variances at its Gaussian channel's ``beta``.  A :class:`RegionConfig`
    is evaluated at its one point: a Gaussian channel's ``beta`` and
    ``sigma_q2`` (None: each scheme's own choice), or a finite-alphabet
    channel at the config's ``beta``.  The channel's type picks the model
    entry.  A channel of neither type, a Gaussian one with a ``topology``
    other than "marc" or in a region with its own ``beta``, and a
    finite-alphabet one with ``no_relay`` powers raise ``InvalidParams``.
    """
    instance_of(config, (SweepConfig, RegionConfig), "config")
    channel = instance_of(config.channel, (GaussianMarcParams, DmChannelSpec), "channel")
    if isinstance(config, SweepConfig):
        grid = np.asarray(instance_of(config.grid, GridSpec, "grid").values())
        if one_of(config.swept, "swept", ("sigma_q2", "beta")) == "beta":
            beta, sigma_q2 = grid, None
        else:  # at the Gaussian channel's own beta
            beta = instance_of(channel, GaussianMarcParams, "channel").beta
            sigma_q2 = grid
    elif isinstance(channel, GaussianMarcParams):
        if config.beta is not None:
            raise InvalidParams("a Gaussian region's beta is its channel's, not the config's")
        beta, sigma_q2 = channel.beta, channel.sigma_q2
    else:  # a finite-alphabet region
        beta = config.beta
    if isinstance(channel, DmChannelSpec):
        if config.no_relay is not None:
            raise InvalidParams("no_relay powers apply to a Gaussian channel only")
        return dm_regions(channel, (config.topology,), config.schemes, beta)[config.topology]
    one_of(config.topology, "the topology of a Gaussian channel", ("marc",))
    return gaussian_regions(channel, config.schemes, beta, sigma_q2, config.no_relay)


@dataclass(frozen=True)
class SweepResult:
    """A finished sweep of ``config``: its grid ``values`` and, per scheme
    in config order, its :class:`Bounds` clamped and listed column by
    column, one entry per value (``sigma`` is the ``diag_sigma`` column)."""

    config: SweepConfig
    values: tuple[float, ...]
    columns: dict[SchemeId, Bounds]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every scheme at every grid point (:func:`evaluate`), on a
    ``beta`` sweep GQF at its sum optimum and CF just above its binning
    threshold.  Backend errors are re-raised with the schemes prepended to
    the message.  A config that is not a :class:`SweepConfig` with a
    :class:`GridSpec`, sweeps neither "sigma_q2" nor "beta", or lists no
    scheme, a repeated one or one that is not a :class:`SchemeId` raises
    :class:`InvalidParams`, as does a channel :func:`evaluate` refuses.
    """
    instance_of(config, SweepConfig, "config")
    one_of(config.swept, "swept", ("sigma_q2", "beta"))
    values = instance_of(config.grid, GridSpec, "grid").values()
    schemes = read_schemes(config.schemes)
    if not schemes:
        raise InvalidParams("a sweep needs at least one scheme")
    grid = np.asarray(values)
    try:
        evaluated = evaluate(config)
    except HdmarcError as exc:
        label = ", ".join(scheme.value for scheme in schemes)
        raise type(exc)(f"sweep failed for schemes {label}: {exc}") from exc
    columns = {}
    for scheme, bounds in evaluated.items():
        r1, r2, rsum = clamp_bounds(bounds.r1, bounds.r2, bounds.rsum)
        clamped = (r1, r2, rsum, bounds.feasible, bounds.sigma)
        # A bound that is the same at every point is listed as one object.
        lists = (
            [np.asarray(column).item()] * grid.size
            if np.ndim(column) == 0
            else np.broadcast_to(column, grid.shape).tolist()
            for column in clamped
        )
        columns[scheme] = Bounds(*lists, bounds.terms)
    return SweepResult(config, values, columns)


#: One CSV number, and a CSV row from its ``scheme`` to its ``diag_sigma`` field.
_CSV_NUMBER = f"%.{CSV_DIGITS}g"
_CSV_TAIL = f",%s,{_CSV_NUMBER},{_CSV_NUMBER},{_CSV_NUMBER},%s,"


def _checked_columns(result: SweepResult) -> dict[SchemeId, Bounds]:
    """The columns of ``result`` if it is a :class:`SweepResult` of a
    :class:`SweepConfig` whose ``values`` are a sequence of real numbers,
    and which has at least one column, each a :class:`Bounds` of a
    :class:`SchemeId` listing one entry per value in every field but
    ``terms``.  Otherwise raises :class:`InvalidParams`.  Types and lengths
    are checked once per column, not entry by entry."""
    instance_of(result, SweepResult, "result")
    instance_of(result.config, SweepConfig, "result config")
    size = real_array(result.values, "values").shape
    columns = instance_of(result.columns, dict, "columns")
    if len(size) != 1 or not columns:
        raise InvalidParams("a sweep result needs a sequence of values and at least one column")
    for scheme, bounds in columns.items():
        name = instance_of(scheme, SchemeId, "scheme").value
        try:
            sizes = tuple(len(field) for field in instance_of(bounds, Bounds, name)[:5])
        except TypeError:  # a field that is a single object
            sizes = None
        if sizes != size * 5:
            raise InvalidParams(
                f"column {name} must list one entry per value ({size[0]}) in each "
                f"of r1, r2, rsum, feasible and sigma, got lengths {sizes}"
            )
    return columns


def render_csv(result: SweepResult) -> str:
    """The CSV text of a sweep (deterministic; see the module docstring),
    or :class:`InvalidParams` for a result :func:`_checked_columns` refuses
    or an entry that is not a number.

    Each swept value is formatted once for all schemes, and a scheme's row
    that is the same objects at every point once for the whole grid.
    """
    columns = _checked_columns(result)
    swept = [_CSV_NUMBER % value for value in result.values]
    lines = [CSV_HEADER]
    try:
        for scheme, bounds in columns.items():
            name, fields, repeats = scheme.value, bounds[:5], 1
            # run_sweep lists a bound that is the same at every point as one object.
            if all(all(entry is field[0] for entry in field) for field in fields):
                fields, repeats = [field[:1] for field in fields], len(swept)
            tails = []
            for r1, r2, rsum, feasible, sigma in zip(*fields):
                tail = _CSV_TAIL % (name, r1, r2, rsum, "true" if feasible else "false")
                tails.append(tail if sigma is None else tail + _CSV_NUMBER % sigma)
            lines.extend(map(operator.add, swept, tails * repeats))
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"a sweep result entry is not a number: {exc}") from None
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the sweep CSV to ``path`` (see :func:`~hdmarc.core.write_text`)."""
    write_text(path, render_csv(result))


def plot_csv_path(csv_path) -> str:
    """``csv_path`` (see :func:`~hdmarc.core.file_path`) if a plot script
    can name it; a line break, which the script's one-line quoted string
    cannot hold, raises :class:`ConfigError`."""
    csv_path = file_path(csv_path)
    if csv_path.splitlines() != [csv_path]:
        raise ConfigError(
            f"CSV output path {csv_path!r} has a line break, which the plot script "
            "cannot quote"
        )
    return csv_path


def render_plot_script(result: SweepResult, script_path: str, csv_path: str) -> str:
    """The gnuplot script text plotting per-scheme sum rates from the CSV.

    The script refers to the CSV by a path relative to its own directory,
    so the pair can be moved together; a ``'`` in it is written ``''``,
    gnuplot's escape inside single quotes, and a line break is refused
    (:func:`plot_csv_path`).  A result :func:`_checked_columns` refuses, or
    whose config sweeps neither "sigma_q2" nor "beta" or has no
    :class:`GridSpec`, raises :class:`InvalidParams`.
    """
    columns = _checked_columns(result)
    swept = one_of(result.config.swept, "swept", ("sigma_q2", "beta"))
    log_axis = instance_of(result.config.grid, GridSpec, "grid").spacing == "log"
    rel_csv = os.path.relpath(
        os.path.abspath(plot_csv_path(csv_path)),
        os.path.dirname(os.path.abspath(file_path(script_path))),
    ).replace("'", "''")
    lines = [
        "# Sum-rate curves from the sweep CSV emitted alongside this script.",
        "set datafile separator ','",
        f"set xlabel '{swept}'",
        "set ylabel 'sum rate (bits/channel use)'",
        "set key bottom right",
        "set grid",
    ]
    if log_axis:
        lines.append("set logscale x")
    lines.append(f"csv = '{rel_csv}'")
    plots = [
        f"    csv skip 1 using 1:(strcol(2) eq '{scheme.value}' ? column(5) : NaN) "
        f"with lines title '{scheme.value}'"
        for scheme in columns
    ]
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def emit_plot_script(result: SweepResult, script_path: str, csv_path: str) -> None:
    """Write the gnuplot script to ``script_path`` (see
    :func:`~hdmarc.core.write_text`), or refuse before writing (see
    :func:`render_plot_script`)."""
    write_text(script_path, render_plot_script(result, script_path, csv_path))
