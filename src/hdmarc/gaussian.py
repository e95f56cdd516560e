"""Closed-form rates for the Gaussian half-duplex relay channel.

The model: two sources reach destination 1 through gains ``h11, h21`` in
both slots; the relay hears them through ``h1R, h2R`` in slot 1, quantizes
its observation with additive Gaussian quantization noise of variance
``sigma_q2``, and talks to the destination through ``hR1`` in slot 2.  All
receiver noises have unit variance, and per-slot transmit powers are fixed
(no power allocation across slots is optimized here).

All rates are in bits per channel use.  Formula shape notes:

* every slot contributes ``(slot fraction) / 2 * log2(1 + SNR-like term)``;
* the "quantization index treated as noise" branches pick up the factor
  ``sigma_q2 / (1 + sigma_q2)``, the price of not recovering the index;
* ``relay_view`` below is the determinant-like quantity coupling the two
  source-to-relay paths, and ``relay_link`` is the relay-to-destination
  received power.

The formulas are written once, in the private ``_rate_terms`` and
``_sigma_threshold``, over floats or numpy arrays of (beta, sigma_q2).
:func:`gaussian_regions` is the one array entry: it checks ``beta`` and
``sigma_q2`` once and the helpers behind it trust them.  The single-point
entries reach the same formulas, so they and whole-grid sweeps agree bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .core import (
    Bounds,
    DegenerateRelayLink,
    DimensionMismatch,
    InvalidParams,
    OutOfRange,
    RateRegion,
    SchemeId,
    clamp_bounds,
    instance_of,
    one_of,
    open_interval,
    rate_region,
    read_collection,
    read_schemes,
    real_number,
    two_slot,
    validate_beta,
)

#: Interval searched by the slot-fraction optimizer.
BETA_RANGE = (0.01, 0.99)

#: The slot-fraction search stops once its interval is at most this wide.
BETA_TOL = 1e-6

#: Evenly spaced points per grid of the slot-fraction search.
BETA_SEEDS = 33

#: Relative offset above the feasibility threshold used when a sweep needs a
#: concrete CF operating point.
CF_SIGMA_NUDGE = 1e-9

#: Stand-in for sigma_q2 -> infinity when the relay link is dead: the GQF
#: optimum and the CF fallback, where every branch equals its limit (the
#: two-slot direct-link bounds) to float64 precision.
DEAD_LINK_SIGMA = 1e30

#: Smallest positive normal float64; a threshold below it has lost digits.
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class GaussianMarcParams:
    """Channel gains, per-slot powers, slot fraction, quantization variance.

    ``sigma_q2`` may be ``None`` while an optimizer is choosing it; any
    rate evaluation that needs it will reject ``None``.  Powers must be
    non-negative, ``sigma_q2`` strictly positive when set.
    """

    h11: float
    h21: float
    h1r: float
    h2r: float
    hr1: float
    p11: float
    p12: float
    p21: float
    p22: float
    pr: float
    beta: float
    sigma_q2: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("h11", "h21", "h1r", "h2r", "hr1"):
            gain = real_number(getattr(self, name), f"gain {name}")
            object.__setattr__(self, name, gain)
        for name in ("p11", "p12", "p21", "p22", "pr"):
            power = real_number(
                getattr(self, name), f"power {name}", rule="finite and non-negative"
            )
            object.__setattr__(self, name, power)
        # Every closed form takes logs of parts of these two sums of
        # non-negative powers, so finite sums keep every rate finite.
        if _overflows(lambda: slot1_signal(self) + relay_view(self)) or _overflows(
            lambda: slot2_signal(self) + relay_link(self)
        ):
            gains = ("h11", "h21", "h1r", "h2r", "hr1")
            gain = max(gains, key=lambda name: abs(getattr(self, name)))
            raise InvalidParams(
                f"received powers overflow float64; the largest gain is "
                f"{gain}={getattr(self, gain)!r}"
            )
        object.__setattr__(self, "beta", validate_beta(self.beta, allow_array=False))
        if self.sigma_q2 is not None:
            sigma = real_number(
                self.sigma_q2, "quantization variance", rule="finite and positive"
            )
            object.__setattr__(self, "sigma_q2", sigma)


def _variances(sigma_q2, beta):
    """``sigma_q2`` checked by :func:`~hdmarc.core.open_interval`: a float or
    a float64 array strictly inside (0, inf), :class:`InvalidParams` for a
    non-number.  Its shape must broadcast with that of the slot fraction(s)
    ``beta`` (:class:`DimensionMismatch` otherwise)."""
    sigma_q2 = open_interval(sigma_q2, "quantization variance", math.inf, InvalidParams)
    if isinstance(sigma_q2, np.ndarray) and np.shape(beta) != sigma_q2.shape:
        try:
            np.broadcast_shapes(np.shape(beta), sigma_q2.shape)
        except ValueError:
            raise DimensionMismatch(
                f"slot fractions {np.shape(beta)} and quantization variances "
                f"{sigma_q2.shape} have shapes that do not broadcast"
            ) from None
    return sigma_q2


def _overflows(power: Callable[[], float]) -> bool:
    """Whether a sum of received powers leaves the float64 range (float **
    raises OverflowError where float * gives inf)."""
    try:
        return not math.isfinite(power())
    except OverflowError:
        return True


def slot1_signal(params: GaussianMarcParams) -> float:
    """Received power at the destination in slot 1 (incl. unit noise)."""
    return 1.0 + params.h11**2 * params.p11 + params.h21**2 * params.p21


def slot2_signal(params: GaussianMarcParams) -> float:
    """Received power at the destination in slot 2, relay excluded (incl. unit noise)."""
    return 1.0 + params.h11**2 * params.p12 + params.h21**2 * params.p22


def relay_view(params: GaussianMarcParams) -> float:
    """Joint source-pair power as seen through the relay's slot-1 observation."""
    cross = (params.h11 * params.h2r - params.h1r * params.h21) ** 2
    return (
        cross * params.p11 * params.p21
        + params.h1r**2 * params.p11
        + params.h2r**2 * params.p21
    )


def relay_link(params: GaussianMarcParams) -> float:
    """Relay-to-destination received power in slot 2."""
    return params.hr1**2 * params.pr


def _rate_terms(params: GaussianMarcParams, beta, sigma_q2) -> dict[str, Any]:
    """The six unclamped GQF branches at checked slot fraction(s) ``beta``
    and quantization variance(s) ``sigma_q2`` (floats or arrays that
    broadcast): ``a(i)``/``b(i)`` bound source i with the quantization index
    recovered / jointly explained, ``I1``/``I2`` the sum.  Only the gains and
    powers of ``params`` are used.  A point where a value leaves the float64
    range raises :class:`OutOfRange` naming the first such
    ``(beta, sigma_q2)``."""
    beta, sigma_q2 = np.float64(beta), np.float64(sigma_q2)  # obey the errstate below
    s1, s2, link = slot1_signal(params), slot2_signal(params), relay_link(params)
    sources = (
        (1, params.h11, params.h1r, params.p11, params.p12),
        (2, params.h21, params.h2r, params.p21, params.p22),
    )
    with np.errstate(all="ignore"):  # an inf or NaN anywhere reaches the terms
        shrink = 1.0 + sigma_q2
        logs = {}  # each term's slot-1 and slot-2 arguments of 0.5 * log2
        for i, h_direct, h_relay, p_slot1, p_slot2 in sources:
            direct = 1.0 + h_direct**2 * p_slot1
            logs[f"a({i})"] = (
                direct + h_relay**2 * p_slot1 / shrink,
                1.0 + h_direct**2 * p_slot2,
            )
            logs[f"b({i})"] = (
                direct * sigma_q2 / shrink,
                1.0 + h_direct**2 * p_slot2 + link,
            )
        logs["I1"] = (s1 + relay_view(params) / shrink, s2)
        logs["I2"] = (s1 * sigma_q2 / shrink, s2 + link)
        terms = {
            name: two_slot(beta, 0.5 * np.log2(x1), 0.5 * np.log2(x2))
            for name, (x1, x2) in logs.items()
        }
    # A finite term is at most about 540 bits either way (half the log2 of a
    # float64), so only a non-finite term (inf or NaN) makes the sum so.
    ok = np.isfinite(sum(terms.values()))
    if not ok.all():
        first = np.flatnonzero(~ok)[0]
        beta_at, sigma_at = (
            float(np.broadcast_to(x, ok.shape).flat[first]) for x in (beta, sigma_q2)
        )
        raise OutOfRange(
            f"Gaussian closed forms must stay in the float64 range; they fail "
            f"at beta={beta_at!r}, sigma_q2={sigma_at!r}"
        )
    return terms


def _sigma_threshold(params: GaussianMarcParams, beta):
    """CF binning threshold at checked slot fraction(s) ``beta`` (float or
    array).  Raises :class:`DegenerateRelayLink` for a dead relay link, and
    :class:`OutOfRange` naming the first ``beta`` whose threshold leaves the
    normal float64 range (small ``beta`` on a strong link, where the pipe
    ``(1 + link/S2)**((1-beta)/beta)`` overflows)."""
    beta = np.float64(beta)
    link = relay_link(params)
    if link <= 0.0:
        raise DegenerateRelayLink(
            "relay-to-destination link carries nothing (hr1**2 * pr == 0)"
        )
    with np.errstate(all="ignore"):
        # (1 + link/S2)**((1-b)/b) - 1, via expm1/log1p: the plain pow loses
        # the trailing digits that decide the threshold when the
        # exponentiated base is close to 1, and thresholds grow like 1/pipe.
        pipe = np.expm1((1.0 - beta) / beta * np.log1p(link / slot2_signal(params)))
        sigma = (1.0 + relay_view(params) / slot1_signal(params)) / pipe
    bad = ~((sigma >= _TINY) & (sigma < math.inf))
    if np.any(bad):
        first = np.flatnonzero(bad)[0]
        raise OutOfRange(
            f"CF binning threshold at beta={float(np.ravel(beta)[first])!r} is "
            f"{float(np.ravel(sigma)[first])!r}, outside the normal float64 "
            "range: the relay pipe (1 + link/S2)**((1-beta)/beta) over- or "
            "underflows; use a larger beta"
        )
    return sigma


def _gqf_bounds(params: GaussianMarcParams, beta, sigma_q2=None) -> Bounds:
    """GQF bounds at each checked ``(beta, sigma_q2)``; always feasible.
    ``sigma_q2=None`` is the sum-optimal variance (see :func:`gaussian_regions`)."""
    if sigma_q2 is None:
        if relay_link(params) > 0.0:
            sigma_q2 = _sigma_threshold(params, beta)
        else:
            sigma_q2 = np.full(np.shape(beta), DEAD_LINK_SIGMA)
    terms = _rate_terms(params, beta, sigma_q2)
    return Bounds(
        np.minimum(terms["a(1)"], terms["b(1)"]),
        np.minimum(terms["a(2)"], terms["b(2)"]),
        np.minimum(terms["I1"], terms["I2"]),
        True,
        sigma_q2,
        terms,
    )


def _cf_bounds(params: GaussianMarcParams, beta, sigma_q2=None) -> Bounds:
    """CF bounds at each checked ``(beta, sigma_q2)``.  The dead-link
    fallback is the index-as-noise branches b(1), b(2), I2 in the limit
    sigma_q2 -> infinity."""
    try:
        sigma_min = _sigma_threshold(params, beta)
    except DegenerateRelayLink:
        if sigma_q2 is None:
            sigma_q2 = np.ones(np.shape(beta))
        t = _rate_terms(params, beta, DEAD_LINK_SIGMA)
        terms = {"sigma_min": math.inf, "degenerate_relay_link": 1.0}
        return Bounds(t["b(1)"], t["b(2)"], t["I2"], False, sigma_q2, terms)
    if sigma_q2 is None:
        sigma_q2 = sigma_min * (1.0 + CF_SIGMA_NUDGE)
    feasible = sigma_q2 > sigma_min
    used = np.where(feasible, sigma_q2, sigma_min)
    t = _rate_terms(params, beta, used)
    terms = {"a(1)": t["a(1)"], "a(2)": t["a(2)"], "I1": t["I1"]}
    terms.update(sigma_min=sigma_min, sigma_used=used)
    return Bounds(t["a(1)"], t["a(2)"], t["I1"], feasible, sigma_q2, terms)


def _point(params: GaussianMarcParams, scheme: SchemeId) -> RateRegion:
    """``scheme``'s region at the fixed (beta, sigma_q2) of ``params``."""
    if instance_of(params, GaussianMarcParams, "params").sigma_q2 is None:
        raise InvalidParams("quantization variance is unset; fix sigma_q2 first")
    bounds = gaussian_regions(params, (scheme,), params.beta, params.sigma_q2)
    return rate_region(bounds[scheme])


def gqf_rates(params: GaussianMarcParams) -> RateRegion:
    """Full GQF region at fixed (sigma_q2, beta).  Always feasible."""
    return _point(params, SchemeId.GQF)


@dataclass(frozen=True)
class SigmaOptimum:
    """The sum-optimal GQF quantization variance and the sum rate there.

    ``crossing`` is False for a dead relay link: the sum branches then meet
    only as sigma_q2 -> infinity, reported as :data:`DEAD_LINK_SIGMA` with
    the I2 value there (the two-slot direct-link sum bound).
    """

    sigma_q2: float
    sum_rate: float
    crossing: bool


def _gqf_sum_rate(params: GaussianMarcParams, bounds: Bounds):
    """The sum rate at the optimum: I1 at the crossing, else the I2 limit."""
    return bounds.terms["I1" if relay_link(params) > 0.0 else "I2"]


def gqf_optimize_sigma(params: GaussianMarcParams) -> SigmaOptimum:
    """Quantization variance maximizing the GQF sum bound min(I1, I2).

    I1 falls and I2 rises in sigma_q2, so the max-min sits where they
    cross, and by the paper's threshold identity that is exactly the CF
    binning threshold :func:`cf_sigma_min`: a closed form, no search.
    """
    bounds = _gqf_bounds(params, instance_of(params, GaussianMarcParams, "params").beta)
    return SigmaOptimum(
        sigma_q2=float(bounds.sigma),
        sum_rate=float(_gqf_sum_rate(params, bounds)),
        crossing=relay_link(params) > 0.0,
    )


def cf_sigma_min(params: GaussianMarcParams) -> float:
    """Smallest quantization variance the CF binning constraint allows.

    Solves the constraint "index description rate fits into the slot-2
    relay pipe" for sigma_q2.  Requires a live relay-to-destination link;
    otherwise the pipe has zero capacity and no variance is small enough.
    """
    beta = instance_of(params, GaussianMarcParams, "params").beta
    return float(_sigma_threshold(params, beta))


def cf_rates(params: GaussianMarcParams) -> RateRegion:
    """CF region at fixed (sigma_q2, beta); ``feasible`` is False at or
    below the binning threshold (see :func:`gaussian_regions`)."""
    return _point(params, SchemeId.CF)


def _no_relay_bounds(h11: float, h21: float, p1: float, p2: float) -> Bounds:
    """Bounds of the single-slot two-user MAC (the no-relay baseline).

    With no relay there is no slot structure; each source spends its whole
    power budget in one full-length block.  Gains and powers must be finite
    (powers non-negative), and so must the received powers they give.
    """
    h11, h21 = real_number(h11, "gain h11"), real_number(h21, "gain h21")
    p1 = real_number(p1, "power p1", rule="finite and non-negative")
    p2 = real_number(p2, "power p2", rule="finite and non-negative")
    if _overflows(lambda: 1.0 + h11**2 * p1 + h21**2 * p2):
        raise InvalidParams(
            f"no-relay received powers overflow float64 "
            f"(h11={h11!r}, P1={p1!r}, h21={h21!r}, P2={p2!r})"
        )
    r1 = 0.5 * math.log2(1.0 + h11**2 * p1)
    r2 = 0.5 * math.log2(1.0 + h21**2 * p2)
    rsum = 0.5 * math.log2(1.0 + h11**2 * p1 + h21**2 * p2)
    return Bounds(r1, r2, rsum, True, None, {"r1": r1, "r2": r2, "sum": rsum})


def no_relay_rates(h11: float, h21: float, p1: float, p2: float) -> RateRegion:
    """Single-slot two-user MAC region (the no-relay baseline)."""
    return rate_region(_no_relay_bounds(h11, h21, p1, p2))


def gaussian_regions(
    params: GaussianMarcParams,
    schemes: Sequence[SchemeId],
    beta,
    sigma_q2=None,
    no_relay: Optional[tuple[float, float]] = None,
) -> dict[SchemeId, Bounds]:
    """Every requested scheme's bounds at each ``(beta, sigma_q2)``, floats
    or arrays that broadcast: the Gaussian model's one array entry.

    ``sigma_q2=None`` gives GQF the sum-optimal variance at each ``beta``
    (the CF threshold, or :data:`DEAD_LINK_SIGMA` on a dead relay link) and
    operates CF at ``threshold * (1 + CF_SIGMA_NUDGE)`` (at 1 on a dead
    link).  At or below the threshold a CF point is infeasible and takes
    the bounds at the threshold, the closure point of its region; on a dead
    link CF falls back to the two-slot no-relay bounds.  NO_RELAY takes the
    baseline powers ``no_relay = (P1, P2)`` and is the same at every point.
    ``beta`` (:func:`~hdmarc.core.validate_beta`) and a given ``sigma_q2``
    (:func:`_variances`) are checked here once, whichever schemes are asked
    for; the helpers behind this entry trust them.
    """
    instance_of(params, GaussianMarcParams, "params")
    beta = validate_beta(beta)
    if sigma_q2 is not None:
        sigma_q2 = _variances(sigma_q2, beta)

    def baseline() -> Bounds:
        powers = () if no_relay is None else no_relay
        powers = read_collection(powers, "the NO_RELAY baseline powers", lambda p: p)
        if len(powers) != 2:
            raise InvalidParams(
                f"NO_RELAY needs the baseline powers (P1, P2), got {no_relay!r}"
            )
        return _no_relay_bounds(params.h11, params.h21, *powers)

    table = {
        SchemeId.GQF: lambda: _gqf_bounds(params, beta, sigma_q2),
        SchemeId.CF: lambda: _cf_bounds(params, beta, sigma_q2),
        SchemeId.NO_RELAY: baseline,
    }
    return {scheme: table[scheme]() for scheme in read_schemes(schemes)}


@dataclass(frozen=True)
class BetaOptimum:
    """Result of the slot-fraction search."""

    beta: float
    rate: float


def cf_operating_point(params: GaussianMarcParams) -> GaussianMarcParams:
    """CF parameters with sigma_q2 pinned just above the binning threshold
    (at 1 with a dead relay link, where :func:`cf_rates` falls back)."""
    beta = instance_of(params, GaussianMarcParams, "params").beta
    return replace(params, sigma_q2=float(_cf_bounds(params, beta).sigma))


def _smallest_beta(params: GaussianMarcParams) -> float:
    """Slot fraction where the CF threshold A / expm1((1-beta)/beta * L) is
    2**-1000, with L = log1p(link/S2), A = 1 + view/S1 (0 for a dead link)."""
    pipe = math.log1p(relay_link(params) / slot2_signal(params))
    reach = math.log1p(relay_view(params) / slot1_signal(params)) + 1000 * math.log(2.0)
    return pipe / (pipe + reach)


def optimize_beta(
    params: GaussianMarcParams,
    scheme: SchemeId,
    objective: str = "sum",
) -> BetaOptimum:
    """Slot fraction maximizing a rate bound for the given scheme.

    For GQF the quantization variance is the sum-optimal one at every
    candidate beta; for CF it is pinned just above the binning threshold.
    The objective ("sum", "r1" or "r2") need not be unimodal in beta, so
    the search is a grid refinement: each round evaluates
    :data:`BETA_SEEDS` evenly spaced points in one array call and narrows
    the interval to the best point's grid neighbours, until it is at most
    :data:`BETA_TOL` wide.  The result is the last round's best grid point
    and its rate from that same evaluation, so an optimum at an end of the
    range is returned exactly.  The search covers :data:`BETA_RANGE`,
    starting higher only on relay links so strong that the threshold at
    its low end would leave the float64 range.
    """
    scheme = one_of(scheme, "slot-fraction search scheme", (SchemeId.GQF, SchemeId.CF))
    objective = one_of(objective, "objective", ("sum", "r1", "r2"))
    instance_of(params, GaussianMarcParams, "params")

    def value(beta):
        bounds = gaussian_regions(params, (scheme,), beta)[scheme]
        if scheme is SchemeId.GQF and objective == "sum":
            return _gqf_sum_rate(params, bounds)
        r1, r2, rsum = clamp_bounds(bounds.r1, bounds.r2, bounds.rsum)
        return {"sum": rsum, "r1": r1, "r2": r2}[objective]

    lo, hi = max(BETA_RANGE[0], _smallest_beta(params)), BETA_RANGE[1]
    while True:
        grid = np.linspace(lo, hi, BETA_SEEDS)
        rates = value(grid)
        best = int(np.argmax(rates))
        if hi - lo <= BETA_TOL:
            return BetaOptimum(beta=float(grid[best]), rate=float(rates[best]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, BETA_SEEDS - 1)]
