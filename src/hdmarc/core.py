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


def validate_beta(beta, allow_array: bool = True):
    """The slot fraction(s) ``beta``: the share of the block in which the
    relay listens, the rest being the slot in which it transmits.

    A real number (Python or numpy, not a bool) comes back as a float; a
    numpy array of integers or floats, when ``allow_array``, as a float64
    array.  Every value must lie strictly inside (0, 1): at beta = 0 the
    relay never hears anything and at beta = 1 it never gets to talk.
    Anything else, NaN included, raises :class:`OutOfRange` naming it.
    """
    if isinstance(beta, (float, int, np.floating, np.integer)) and type(beta) is not bool:
        beta = float(beta)
        if 0.0 < beta < 1.0:  # NaN fails
            return beta
        first = beta
    elif allow_array and isinstance(beta, np.ndarray) and beta.dtype.kind in "iuf":
        beta = beta.astype(np.float64, copy=False)
        inside = (beta > 0.0) & (beta < 1.0)
        if inside.all():
            return beta
        first = float(np.ravel(beta)[~np.ravel(inside)][0])
    else:
        kind = "a real number or an array of them" if allow_array else "a real number"
        raise OutOfRange(f"slot fraction must be {kind}, got {beta!r}")
    raise OutOfRange(f"slot fraction must lie strictly inside (0, 1), got {first!r}")


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


def reject_unknown_fields(doc: Mapping, known, where: str) -> None:
    """Raise :class:`ConfigError` naming the keys of the config document
    ``doc`` that are not in ``known``; ``where`` names the document."""
    extra = sorted(set(doc) - set(known))
    if extra:
        raise ConfigError(f"{where} has unknown fields {extra}")
