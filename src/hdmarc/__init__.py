"""Achievable rate regions for the half-duplex multiple-access relay channel.

Two sources talk to a destination with the help of a relay that must split
its block between listening and talking.  The package evaluates two
relaying schemes — quantize-and-forward with joint decoding (GQF) and
classic compress-and-forward with binning (CF) — on exact finite-alphabet
channels and on the closed-form Gaussian model, optimizes the scheme knobs
(quantization variance, slot fraction), cross-checks every formula against
independent oracles, and drives parameter sweeps from the command line.

This namespace holds the product: the two model entries
(:func:`gaussian_regions`, :func:`dm_regions`), their inputs and results,
the config parsers, sweeps and their writers, the self-checks, and the
error types.  Single-point wrappers, information measures and oracle
internals live in their own modules (``hdmarc.gaussian``,
``hdmarc.dmregions``, ``hdmarc.dminfo``, ``hdmarc.oracle``, ``hdmarc.core``).
"""

from .core import (
    Bounds,
    ConfigError,
    DegenerateRelayLink,
    DimensionMismatch,
    HdmarcError,
    InvalidParams,
    OutOfRange,
    OverlappingSets,
    RateRegion,
    SchemeId,
    SingularCovariance,
    TensorTooLarge,
    UnknownVariable,
    rate_region,
)
from .dminfo import DmChannelSpec, spec_from_dict
from .dmregions import dm_regions
from .gaussian import BetaOptimum, GaussianMarcParams, gaussian_regions, optimize_beta
from .sweep import (
    SweepConfig,
    SweepResult,
    config_from_dict,
    emit_csv,
    emit_plot_script,
    region_config_from_dict,
    run_sweep,
)
from .verify import Report, run_subject

__version__ = "0.8.0"

__all__ = [
    "BetaOptimum",
    "Bounds",
    "ConfigError",
    "DegenerateRelayLink",
    "DimensionMismatch",
    "DmChannelSpec",
    "GaussianMarcParams",
    "HdmarcError",
    "InvalidParams",
    "OutOfRange",
    "OverlappingSets",
    "RateRegion",
    "Report",
    "SchemeId",
    "SingularCovariance",
    "SweepConfig",
    "SweepResult",
    "TensorTooLarge",
    "UnknownVariable",
    "config_from_dict",
    "dm_regions",
    "emit_csv",
    "emit_plot_script",
    "gaussian_regions",
    "optimize_beta",
    "rate_region",
    "region_config_from_dict",
    "run_subject",
    "run_sweep",
    "spec_from_dict",
]
