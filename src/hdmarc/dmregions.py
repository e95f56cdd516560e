"""Achievable rate regions for the finite-alphabet two-slot relay models.

Two schemes are implemented on top of :mod:`hdmarc.dminfo`:

* **GQF** — the relay quantizes its slot-1 observation and sends the
  quantization index uncoded (no binning); destinations decode the two
  messages and the quantization index jointly.  Each bound is the minimum
  of two decoding branches: one where the quantization index is recovered
  and helps, one where it is treated as part of the noise to be jointly
  explained.
* **CF** — classic compress-and-forward, where the quantization index is
  binned and must be recovered before the messages.  The bounds are the
  "index recovered" branches alone, but the scheme is only usable when the
  binning constraint holds; the constraint is strict, and on failure the
  evaluation falls back to the same channel with the relay silenced.

The single-destination model evaluates destination 1; the compound model
takes the worst case over both destinations.  A destination whose slot-1
and slot-2 outputs both have singleton alphabets observes nothing and is
treated as absent from the compound.

Every bound, and both sides of the binning constraint, has the form
beta * S1 + (1 - beta) * S2, where S1 is an information term of the slot-1
joint and S2 one of the slot-2 joint.  :func:`slot_terms` computes the
(S1, S2) pairs of a spec once, and :func:`dm_regions` evaluates every
scheme at every beta from them, so a whole sweep builds each joint once
per spec (plus once for the relay-silenced spec, when that is needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import InvalidParams, RateRegion, SchemeId, SlotFraction, clamp_region
from .dminfo import (
    DmChannelSpec,
    JointEntropies,
    build_slot1_joint,
    build_slot2_joint,
)

#: The binning constraint is a strict inequality; a margin this close to
#: equality (or worse) counts as infeasible.
CF_MARGIN = 1e-12

#: A slot-1 term and a slot-2 term; a bound is beta * S1 + (1 - beta) * S2.
SlotPair = tuple[float, float]


@dataclass(frozen=True)
class RegionTerms:
    """Raw bound ingredients, unclamped, in bits per channel use.

    ``a[(k, i)]``/``b[(k, i)]`` are the two decoding branches bounding
    source ``i``'s rate at destination ``k``; ``c[k]``/``d[k]`` the two
    branches bounding the sum rate.  Entries exist exactly for the
    destinations that were evaluated.
    """

    a: Mapping[tuple[int, int], float]
    b: Mapping[tuple[int, int], float]
    c: Mapping[int, float]
    d: Mapping[int, float]

    def destinations(self) -> tuple[int, ...]:
        return tuple(sorted(self.c))


@dataclass(frozen=True)
class SlotTerms:
    """The (S1, S2) pairs of every bound of one spec, per destination.

    ``a``, ``b``, ``c`` and ``d`` are keyed like :class:`RegionTerms`.  The
    binning constraint's ingredients are ``cf_excess[k]``, the slot-1
    description excess I(YR; YhR) - I(Yk1; YhR), and ``cf_pipe[k]``, the
    slot-2 pipe I(XR; Yk2).
    """

    a: Mapping[tuple[int, int], SlotPair]
    b: Mapping[tuple[int, int], SlotPair]
    c: Mapping[int, SlotPair]
    d: Mapping[int, SlotPair]
    cf_excess: Mapping[int, float]
    cf_pipe: Mapping[int, float]

    def at(self, beta: float) -> RegionTerms:
        """The bounds at slot fraction ``beta``."""
        comp = 1.0 - beta

        def mix(terms):
            return {key: beta * s1 + comp * s2 for key, (s1, s2) in terms.items()}

        return RegionTerms(a=mix(self.a), b=mix(self.b), c=mix(self.c), d=mix(self.d))


def _dest_outputs(k: int) -> tuple[str, str]:
    """Slot-1 and slot-2 output names of destination ``k``."""
    if k == 1:
        return "Y11", "Y12"
    if k == 2:
        return "Y21", "Y22"
    raise InvalidParams(f"destination index must be 1 or 2, got {k!r}")


def slot_terms(spec: DmChannelSpec, ks: tuple[int, ...]) -> SlotTerms:
    """Build both joints of ``spec`` once and split every bound into slots."""
    mi1 = JointEntropies(build_slot1_joint(spec)).mutual_information
    mi2 = JointEntropies(build_slot2_joint(spec)).mutual_information
    quant_rate = mi1({"YR"}, {"YhR"})
    a: dict[tuple[int, int], SlotPair] = {}
    b: dict[tuple[int, int], SlotPair] = {}
    c: dict[int, SlotPair] = {}
    d: dict[int, SlotPair] = {}
    cf_excess: dict[int, float] = {}
    cf_pipe: dict[int, float] = {}
    for k in ks:
        yk1, yk2 = _dest_outputs(k)
        for i, j in ((1, 2), (2, 1)):
            xi1, xj1 = f"X{i}1", f"X{j}1"
            xi2, xj2 = f"X{i}2", f"X{j}2"
            a[(k, i)] = (
                mi1({xi1}, {xj1, yk1, "YhR"}),
                mi2({xi2}, {xj2, "XR", yk2}),
            )
            b[(k, i)] = (
                mi1({xi1}, {xj1, yk1}) - mi1({"YhR"}, {"YR"}, {xi1, xj1, yk1}),
                mi2({xi2, "XR"}, {xj2, yk2}),
            )
        c[k] = (
            mi1({"X11", "X21"}, {yk1, "YhR"}),
            mi2({"X12", "X22"}, {"XR", yk2}),
        )
        d[k] = (
            mi1({"X11", "X21", "YhR"}, {yk1})
            + mi1({"X11", "X21"}, {"YhR"})
            - mi1({"YR"}, {"YhR"}),
            mi2({"X12", "X22", "XR"}, {yk2}),
        )
        # Binning feasibility: the quantization-index description rate left
        # after side-information gains must fit through the relay's slot-2
        # pipe, at every destination.
        cf_excess[k] = quant_rate - mi1({yk1}, {"YhR"})
        cf_pipe[k] = mi2({"XR"}, {yk2})
    return SlotTerms(a=a, b=b, c=c, d=d, cf_excess=cf_excess, cf_pipe=cf_pipe)


def gqf_terms(spec: DmChannelSpec, beta: SlotFraction, k: int = 1) -> RegionTerms:
    """Raw GQF bound ingredients at destination ``k``."""
    if k not in (1, 2):
        raise InvalidParams(f"destination index must be 1 or 2, got {k!r}")
    return slot_terms(spec, (k,)).at(beta.beta)


def active_destinations(spec: DmChannelSpec) -> tuple[int, ...]:
    """Destinations that observe anything at all.

    A destination whose slot-1 and slot-2 outputs are both singletons gets
    zero information in either slot and is treated as absent from the
    compound model.  At least one destination must remain.
    """
    ks = []
    if spec.n_y11 > 1 or spec.n_y12 > 1:
        ks.append(1)
    if spec.n_y21 > 1 or spec.n_y22 > 1:
        ks.append(2)
    if not ks:
        raise InvalidParams(
            "every destination output has a singleton alphabet; "
            "no destination can decode anything"
        )
    return tuple(ks)


def _flat_terms(terms: RegionTerms) -> dict[str, float]:
    flat: dict[str, float] = {}
    for k in terms.destinations():
        for i in (1, 2):
            flat[f"a_{k}({i})"] = terms.a[(k, i)]
            flat[f"b_{k}({i})"] = terms.b[(k, i)]
        flat[f"c_{k}"] = terms.c[k]
        flat[f"d_{k}"] = terms.d[k]
    return flat


def _gqf_bounds(terms: RegionTerms) -> tuple[float, float, float]:
    ks = terms.destinations()
    r1 = min(min(terms.a[(k, 1)], terms.b[(k, 1)]) for k in ks)
    r2 = min(min(terms.a[(k, 2)], terms.b[(k, 2)]) for k in ks)
    rsum = min(min(terms.c[k], terms.d[k]) for k in ks)
    return r1, r2, rsum


def _gqf_region(terms: RegionTerms) -> RateRegion:
    r1, r2, rsum = _gqf_bounds(terms)
    return clamp_region(r1, r2, rsum, feasible=True, terms=_flat_terms(terms))


def _cf_region(
    relay: SlotTerms, beta: float, silenced: Callable[[], SlotTerms]
) -> RateRegion:
    terms = relay.at(beta)
    # Worst cases over the destinations of both sides of the binning test.
    lhs = max(beta * excess for excess in relay.cf_excess.values())
    rhs = min((1.0 - beta) * pipe for pipe in relay.cf_pipe.values())
    flat = _flat_terms(terms)
    flat["cf_lhs"] = lhs
    flat["cf_rhs"] = rhs

    if (rhs - lhs) > CF_MARGIN:
        ks = terms.destinations()
        r1 = min(terms.a[(k, 1)] for k in ks)
        r2 = min(terms.a[(k, 2)] for k in ks)
        rsum = min(terms.c[k] for k in ks)
        return clamp_region(r1, r2, rsum, feasible=True, terms=flat)

    # Binning fails: the destinations cannot recover the quantization index,
    # so the relay is silenced and the plain two-slot region is reported.
    silenced_terms = silenced().at(beta)
    r1, r2, rsum = _gqf_bounds(silenced_terms)
    for key, value in _flat_terms(silenced_terms).items():
        flat[f"no_relay_{key}"] = value
    return clamp_region(r1, r2, rsum, feasible=False, terms=flat)


def dm_regions(
    spec: DmChannelSpec,
    topology: str,
    schemes: Sequence[SchemeId],
    betas: Sequence[SlotFraction],
) -> dict[SchemeId, tuple[RateRegion, ...]]:
    """Every requested scheme's region at every slot fraction, per scheme.

    ``topology`` is "marc" (destination 1) or "cmacr" (worst case over the
    active destinations).  The slot terms of ``spec`` are built once; those
    of the relay-silenced spec at most once, and only when NO_RELAY is
    requested or some CF point fails its binning constraint.
    """
    if topology not in ("marc", "cmacr"):
        raise InvalidParams(f"topology must be 'marc' or 'cmacr', got {topology!r}")
    ks = (1,) if topology == "marc" else active_destinations(spec)
    built: dict[bool, SlotTerms] = {}  # keyed by "relay silenced"; this call only

    def terms(silenced: bool) -> SlotTerms:
        if silenced not in built:
            source = degenerate_relay_spec(spec) if silenced else spec
            built[silenced] = slot_terms(source, ks)
        return built[silenced]

    evaluate = {
        SchemeId.GQF: lambda beta: _gqf_region(terms(False).at(beta)),
        SchemeId.CF: lambda beta: _cf_region(terms(False), beta, lambda: terms(True)),
        SchemeId.NO_RELAY: lambda beta: _gqf_region(terms(True).at(beta)),
    }
    return {
        scheme: tuple(evaluate[scheme](beta.beta) for beta in betas)
        for scheme in schemes
    }


def _one_region(
    spec: DmChannelSpec, topology: str, scheme: SchemeId, beta: SlotFraction
) -> RateRegion:
    return dm_regions(spec, topology, (scheme,), (beta,))[scheme][0]


def gqf_region_marc(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """GQF region with a single destination (destination 1)."""
    return _one_region(spec, "marc", SchemeId.GQF, beta)


def gqf_region_cmacr(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """GQF region of the compound model: worst case over active destinations."""
    return _one_region(spec, "cmacr", SchemeId.GQF, beta)


def degenerate_relay_spec(spec: DmChannelSpec) -> DmChannelSpec:
    """The same channel with the relay silenced.

    XR is pinned to the first letter of its alphabet (a point mass; which
    letter means "silence" is a modeling convention) and the quantizer is
    collapsed to a single output, so the relay conveys nothing in either
    slot.  Evaluating GQF on the result gives the plain two-slot
    no-relay region of the channel.
    """
    pxr = np.zeros_like(spec.pxr)
    pxr[0] = 1.0
    test_channel = np.ones((spec.n_yr, 1))
    return DmChannelSpec(
        px11=spec.px11,
        px21=spec.px21,
        px12=spec.px12,
        px22=spec.px22,
        pxr=pxr,
        test_channel=test_channel,
        slot1=spec.slot1,
        slot2=spec.slot2,
    )


def no_relay_region_marc(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """Two-slot region of the single-destination channel with the relay silenced."""
    return _one_region(spec, "marc", SchemeId.NO_RELAY, beta)


def no_relay_region_cmacr(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """Two-slot compound region with the relay silenced."""
    return _one_region(spec, "cmacr", SchemeId.NO_RELAY, beta)


def cf_region_marc(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """CF region with a single destination (destination 1).

    ``feasible`` reports whether the binning constraint held; when it did
    not, the returned bounds are those of the relay-silenced channel (the
    raw CF terms stay available in ``terms``).
    """
    return _one_region(spec, "marc", SchemeId.CF, beta)


def cf_region_cmacr(spec: DmChannelSpec, beta: SlotFraction) -> RateRegion:
    """CF region of the compound model: worst case over active destinations.

    The binning constraint must hold at every active destination (the
    worst left-hand side must clear the worst right-hand side).
    """
    return _one_region(spec, "cmacr", SchemeId.CF, beta)
