"""Achievable rate regions for the half-duplex multiple-access relay channel.

Two sources talk to a destination with the help of a relay that must split
its block between listening and talking.  The package evaluates two
relaying schemes — quantize-and-forward with joint decoding (GQF) and
classic compress-and-forward with binning (CF) — on exact finite-alphabet
channels and on the closed-form Gaussian model, optimizes the scheme knobs
(quantization variance, slot fraction), cross-checks every formula against
independent oracles, and drives parameter sweeps from the command line.
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
    clamp_region,
    rate_region,
    validate_beta,
)
from .dminfo import (
    DmChannelSpec,
    JointPmf,
    build_slot1_joint,
    build_slot2_joint,
    entropy,
    marginalize,
    mutual_information,
    spec_from_dict,
)
from .dmregions import (
    cf_region_cmacr,
    cf_region_marc,
    degenerate_relay_spec,
    gqf_region_cmacr,
    gqf_region_marc,
    no_relay_region_cmacr,
    no_relay_region_marc,
)
from .gaussian import (
    BetaOptimum,
    GaussianMarcParams,
    SigmaOptimum,
    cf_rates,
    cf_sigma_min,
    gqf_optimize_sigma,
    gqf_rates,
    no_relay_rates,
    optimize_beta,
)
from .oracle import (
    GaussianVectorModel,
    build_covariance,
    gaussian_mi,
    gqf_region_via_ru_sweep,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    config_from_dict,
    emit_csv,
    emit_plot_script,
    run_sweep,
)
from .verify import Report, run_subject

__version__ = "0.1.0"

__all__ = [
    "BetaOptimum",
    "Bounds",
    "ConfigError",
    "DegenerateRelayLink",
    "DimensionMismatch",
    "DmChannelSpec",
    "GaussianMarcParams",
    "GaussianVectorModel",
    "HdmarcError",
    "InvalidParams",
    "JointPmf",
    "OutOfRange",
    "OverlappingSets",
    "RateRegion",
    "Report",
    "SchemeId",
    "SigmaOptimum",
    "SingularCovariance",
    "SweepConfig",
    "SweepResult",
    "TensorTooLarge",
    "UnknownVariable",
    "build_covariance",
    "build_slot1_joint",
    "build_slot2_joint",
    "cf_rates",
    "cf_region_cmacr",
    "cf_region_marc",
    "cf_sigma_min",
    "clamp_region",
    "config_from_dict",
    "degenerate_relay_spec",
    "emit_csv",
    "emit_plot_script",
    "entropy",
    "gaussian_mi",
    "gqf_optimize_sigma",
    "gqf_rates",
    "gqf_region_cmacr",
    "gqf_region_marc",
    "gqf_region_via_ru_sweep",
    "marginalize",
    "mutual_information",
    "no_relay_rates",
    "no_relay_region_cmacr",
    "no_relay_region_marc",
    "optimize_beta",
    "rate_region",
    "run_subject",
    "run_sweep",
    "spec_from_dict",
    "validate_beta",
]
