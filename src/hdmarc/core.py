"""Shared domain types: errors, slot fractions, scheme tags, rate regions.

Every quantity in this package is a rate in bits per channel use.  A
"region" here is the triple of single-user bounds plus the sum bound that
cuts the corner off the rectangle, together with a feasibility flag for
schemes (compress-and-forward) whose operating point may violate a side
constraint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional

import numpy as np


class HdmarcError(Exception):
    """Base class for every error raised by this package."""


class OutOfRange(HdmarcError):
    """A scalar parameter lies outside its admissible interval."""


class DimensionMismatch(HdmarcError):
    """Array shapes or alphabet sizes disagree."""


class UnknownVariable(HdmarcError):
    """A variable name is not part of the model it was used with."""


class OverlappingSets(HdmarcError):
    """Variable sets that must be disjoint share a name."""


class InvalidParams(HdmarcError):
    """A parameter combination is rejected (wrong sign, bad pmf, ...)."""


class DegenerateRelayLink(HdmarcError):
    """The relay-to-destination link carries nothing (h_R1^2 * P_R = 0)."""


class SingularCovariance(HdmarcError):
    """A covariance submatrix is numerically singular."""


class TensorTooLarge(HdmarcError):
    """A dense joint pmf would exceed the cell cap."""


class ConfigError(HdmarcError):
    """A configuration document is malformed or inconsistent."""


class SchemeId(enum.Enum):
    """Relaying scheme selector used by sweeps and the CLI."""

    GQF = "GQF"
    CF = "CF"
    NO_RELAY = "NO_RELAY"


@dataclass(frozen=True)
class SlotFraction:
    """Fraction beta of the block in which the relay listens.

    The remaining fraction 1 - beta is the slot in which the relay
    transmits.  Both endpoints are excluded: at beta = 0 the relay never
    hears anything and at beta = 1 it never gets to talk, so each endpoint
    collapses the two-slot model into a different single-slot channel.
    """

    beta: float

    def __post_init__(self) -> None:
        beta = self.beta
        if not isinstance(beta, (int, float)) or isinstance(beta, bool):
            raise OutOfRange(f"slot fraction must be a real number, got {beta!r}")
        beta = float(beta)
        check_slot_fractions(beta)
        object.__setattr__(self, "beta", beta)

    @property
    def complement(self) -> float:
        """The transmit-slot fraction 1 - beta."""
        return 1.0 - self.beta


def validate_beta(beta: float) -> SlotFraction:
    """Wrap ``beta`` as a :class:`SlotFraction`, rejecting values outside (0, 1)."""
    return SlotFraction(beta)


def check_slot_fractions(beta) -> None:
    """Reject a float or array of slot fractions unless every one lies
    strictly inside (0, 1): :class:`OutOfRange` names the first that does
    not (NaN included)."""
    inside = (beta > 0.0) & (beta < 1.0)  # NaN fails both
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        first = np.ravel(beta)[~np.ravel(inside)][0]
        raise OutOfRange(
            f"slot fraction must lie strictly inside (0, 1), got {float(first)!r}"
        )


def two_slot(beta, s1, s2):
    """A bound at slot fraction(s) ``beta`` (float or array) from its
    slot-1 term ``s1`` and slot-2 term ``s2``, each weighted by its slot's
    share of the block: the one place where the two slots are mixed."""
    return beta * s1 + (1.0 - beta) * s2


@dataclass(frozen=True)
class RateRegion:
    """Axis-aligned description of an achievable region.

    ``r1_max`` and ``r2_max`` bound the individual rates, ``sum_max`` bounds
    their sum; all three are clamped to be non-negative and mutually
    consistent (``sum_max <= r1_max + r2_max``).  ``feasible`` is False when
    a scheme's side constraint failed and the values describe the fallback
    operating point instead.  ``terms`` preserves the raw, unclamped
    quantities the bounds were assembled from, keyed by short names such as
    ``"a_1(1)"`` or ``"I1"``, so callers can see which branch was active.
    """

    r1_max: float
    r2_max: float
    sum_max: float
    feasible: bool
    terms: Mapping[str, float]


def clamp_region(
    r1: float,
    r2: float,
    rsum: float,
    feasible: bool = True,
    terms: Optional[Mapping[str, float]] = None,
) -> RateRegion:
    """Clamp raw bounds into a valid :class:`RateRegion`.

    A negative information bound just means the achievable point is rate 0,
    and a sum bound above ``r1 + r2`` is slack, so values are clamped to
    ``r1, r2 >= 0`` and ``0 <= sum <= r1 + r2``.  The raw values stay
    available through ``terms``.
    """
    r1c, r2c, sumc = (float(v) for v in clamp_bounds(float(r1), float(r2), float(rsum)))
    return RateRegion(r1c, r2c, sumc, bool(feasible), dict(terms or {}))


def clamp_bounds(r1, r2, rsum):
    """The clamp of :func:`clamp_region`, elementwise on floats or numpy
    arrays (NaN clamps to 0, -0.0 to 0.0)."""
    r1c = np.where(r1 > 0.0, r1, 0.0)
    r2c = np.where(r2 > 0.0, r2, 0.0)
    sumc = np.where(rsum > 0.0, rsum, 0.0)
    total = r1c + r2c
    return r1c, r2c, np.where(total < sumc, total, sumc)


class Bounds(NamedTuple):
    """Unclamped bounds of one scheme at one point or over a grid of points.

    ``r1``, ``r2``, ``rsum`` and ``feasible`` are floats/bools or numpy
    arrays over the grid; ``sigma`` is the quantization variance asked for at
    each point (swept, GQF-optimal or the CF operating point; None for
    schemes without a quantizer), and ``terms`` the named raw quantities the
    bounds were assembled from.
    """

    r1: Any
    r2: Any
    rsum: Any
    feasible: Any
    sigma: Any
    terms: dict


def rate_region(bounds: Bounds) -> RateRegion:
    """The :class:`RateRegion` of a single-point evaluation."""
    terms = {name: float(value) for name, value in bounds.terms.items()}
    return clamp_region(bounds.r1, bounds.r2, bounds.rsum, bool(bounds.feasible), terms)
