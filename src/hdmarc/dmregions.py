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
beta * S1 + (1 - beta) * S2, where S1 is an information term of the
destination's slot-1 joint and S2 one of the slot-2 joint.
:func:`slot_terms` computes the (S1, S2) pairs of a spec once, and
:func:`dm_regions` evaluates every scheme at every beta from them into a
:class:`~hdmarc.core.Bounds` per scheme, like the Gaussian closed forms,
for one topology or both from the same pairs.
:func:`~hdmarc.core.gqf_bounds` reduces the GQF terms that
:func:`branches` names, as it does the Gaussian ones; CF reads the same
table.  A whole sweep thus builds one slot-1 joint per destination and one
slot-2 joint per spec (and as many for the relay-silenced spec, when that
is needed).
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .core import (
    Bounds,
    InvalidParams,
    RateRegion,
    SchemeId,
    gqf_bounds,
    instance_of,
    one_of,
    rate_region,
    read_collection,
    read_names,
    read_schemes,
    two_slot,
    validate_beta,
)
from .dminfo import DmChannelSpec

#: The binning constraint is a strict inequality; a margin this close to
#: equality (or worse) counts as infeasible.
CF_MARGIN = 1e-12

#: The topologies :func:`dm_regions` answers: "marc" is destination 1 alone,
#: "cmacr" the compound of the destinations that hear anything.
TOPOLOGIES = ("marc", "cmacr")


def slot_terms(
    spec: DmChannelSpec, ks: tuple[int, ...]
) -> dict[str, tuple[float, float]]:
    """Split every bound into its slot-1 and slot-2 terms (S1, S2), read
    from the joints of ``spec`` (:meth:`DmChannelSpec.joints`): the bound
    is beta * S1 + (1-beta) * S2.  Destination ``k``'s pairs read its own
    joints only, so they do not depend on which other destinations ``ks``
    lists.

    Keys are the names of :class:`~hdmarc.core.RateRegion` terms:
    ``a_k(i)``/``b_k(i)`` are the two decoding branches bounding source
    ``i``'s rate at destination ``k``, ``c_k``/``d_k`` the two branches
    bounding the sum rate.  ``cf_lhs_k`` and ``cf_rhs_k`` are the two sides
    of the binning constraint at ``k``: the slot-1 description excess
    I(YR; YhR) - I(Yk1; YhR) and the slot-2 pipe I(XR; Yk2).
    """
    ks = read_collection(ks, "destination indices", lambda k: one_of(k, "destination index", (1, 2)))
    instance_of(spec, DmChannelSpec, "spec")
    terms = {}
    for k in ks:
        mi1, mi2 = (joint.mutual_information for joint in spec.joints(k))
        quant_rate = mi1({"YR"}, {"YhR"})
        yk1, yk2 = f"Y{k}1", f"Y{k}2"  # its slot-1 and slot-2 outputs
        for i, j in ((1, 2), (2, 1)):
            xi1, xj1 = f"X{i}1", f"X{j}1"
            xi2, xj2 = f"X{i}2", f"X{j}2"
            terms[f"a_{k}({i})"] = (
                mi1({xi1}, {xj1, yk1, "YhR"}),
                mi2({xi2}, {xj2, "XR", yk2}),
            )
            terms[f"b_{k}({i})"] = (
                mi1({xi1}, {xj1, yk1}) - mi1({"YhR"}, {"YR"}, {xi1, xj1, yk1}),
                mi2({xi2, "XR"}, {xj2, yk2}),
            )
        terms[f"c_{k}"] = (
            mi1({"X11", "X21"}, {yk1, "YhR"}),
            mi2({"X12", "X22"}, {"XR", yk2}),
        )
        terms[f"d_{k}"] = (
            mi1({"X11", "X21", "YhR"}, {yk1})
            + mi1({"X11", "X21"}, {"YhR"})
            - mi1({"YR"}, {"YhR"}),
            mi2({"X12", "X22", "XR"}, {yk2}),
        )
        # Binning feasibility: the quantization-index description rate left
        # after side-information gains must fit through the relay's slot-2
        # pipe, at every destination.
        terms[f"cf_lhs_{k}"] = (quant_rate - mi1({yk1}, {"YhR"}), 0.0)
        terms[f"cf_rhs_{k}"] = (0.0, mi2({"XR"}, {yk2}))
    return terms


def active_destinations(spec: DmChannelSpec) -> tuple[int, ...]:
    """Destinations that observe anything at all.

    A destination whose slot-1 and slot-2 outputs are both singletons gets
    zero information in either slot and is treated as absent from the
    compound model.  At least one destination must remain.
    """
    instance_of(spec, DmChannelSpec, "spec")
    # Yk1 and Yk2 are axis 2 + k of slot1 and of slot2.
    ks = tuple(
        k for k in (1, 2) if spec.slot1.shape[2 + k] > 1 or spec.slot2.shape[2 + k] > 1
    )
    if not ks:
        raise InvalidParams(
            "every destination output has a singleton alphabet; "
            "no destination can decode anything"
        )
    return ks


@cache
def branches(ks: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
    """The :func:`slot_terms` bounding r1, r2 and the sum at the destinations
    ``ks`` (:func:`~hdmarc.core.gqf_bounds`), built once per ``ks``: at each
    in turn the quantization index decoded, then treated as noise."""
    pairs = (("a_{k}(1)", "b_{k}(1)"), ("a_{k}(2)", "b_{k}(2)"), ("c_{k}", "d_{k}"))
    return tuple(tuple(name.format(k=k) for k in ks for name in pair) for pair in pairs)


def dm_regions(
    spec: DmChannelSpec,
    topologies: Sequence[str],
    schemes: Sequence[SchemeId],
    beta,
) -> dict[str, dict[SchemeId, Bounds]]:
    """Every requested scheme's bounds at slot fraction(s) ``beta``, for
    each of ``topologies``: ``{topology: {scheme: Bounds}}``.

    ``beta`` is a float or an array of floats in (0, 1), checked by
    :func:`~hdmarc.core.validate_beta`.  A topology is "marc" (destination
    1) or "cmacr" (worst case over the active destinations).  Both reduce
    the same slot terms, built once for the destinations the topologies
    need; those of the relay-silenced spec are built at most once, and only
    when NO_RELAY is requested or some CF point fails its binning
    constraint.  Each topology's ``terms`` name its own destinations only.
    ``topologies`` (:func:`~hdmarc.core.read_names`, so a lone str or a
    set is refused, as is a repeated topology) and ``schemes`` are read
    once.
    """
    instance_of(spec, DmChannelSpec, "spec")
    beta = validate_beta(beta)
    topologies = read_names(
        topologies, "topologies", tuple, lambda topology: one_of(topology, "topology", TOPOLOGIES)
    )
    repeated = [topology for topology in TOPOLOGIES if topologies.count(topology) > 1]
    if repeated:
        raise InvalidParams(f"topologies lists {', '.join(repeated)} more than once")
    # The destinations each topology takes the worst case over.
    reach = {
        topology: (1,) if topology == "marc" else active_destinations(spec)
        for topology in topologies
    }
    schemes = read_schemes(schemes)
    needed = tuple(sorted({k for ks in reach.values() for k in ks}))
    built: dict[bool, dict] = {}  # keyed by "relay silenced"; this call only

    def terms(silenced: bool) -> dict:
        if silenced not in built:
            source = degenerate_relay_spec(spec) if silenced else spec
            pairs = slot_terms(source, needed)
            built[silenced] = {
                name: two_slot(beta, s1, s2) for name, (s1, s2) in pairs.items()
            }
        return built[silenced]

    def cf(ks: tuple[int, ...]) -> Bounds:
        relay, table = terms(False), branches(ks)
        # Worst cases over the destinations of both sides of the binning test.
        lhs = reduce(np.maximum, (relay[f"cf_lhs_{k}"] for k in ks))
        rhs = reduce(np.minimum, (relay[f"cf_rhs_{k}"] for k in ks))
        feasible = (rhs - lhs) > CF_MARGIN
        out = dict(gqf_bounds(relay, table).terms, cf_lhs=lhs, cf_rhs=rhs)
        # The worst over the destinations of each bound's index-decoded branch.
        bounds = gqf_bounds(relay, tuple(names[::2] for names in table))[:3]
        if not np.all(feasible):
            # Binning fails: the destinations cannot recover the quantization
            # index, so the relay is silenced and the plain two-slot region
            # is reported there.
            silenced = gqf_bounds(terms(True), table)
            bounds = [np.where(feasible, *pair) for pair in zip(bounds, silenced[:3])]
            out.update({f"no_relay_{name}": v for name, v in silenced.terms.items()})
        return Bounds(*bounds, feasible, None, out)

    table = {
        SchemeId.GQF: lambda ks: gqf_bounds(terms(False), branches(ks)),
        SchemeId.CF: cf,
        SchemeId.NO_RELAY: lambda ks: gqf_bounds(terms(True), branches(ks)),
    }
    return {
        topology: {scheme: table[scheme](ks) for scheme in schemes}
        for topology, ks in reach.items()
    }


def _one_region(
    spec: DmChannelSpec, topology: str, scheme: SchemeId, beta: float
) -> RateRegion:
    beta = validate_beta(beta, allow_array=False)
    return rate_region(dm_regions(spec, (topology,), (scheme,), beta)[topology][scheme])


def gqf_region_marc(spec: DmChannelSpec, beta: float) -> RateRegion:
    """GQF region with a single destination (destination 1)."""
    return _one_region(spec, "marc", SchemeId.GQF, beta)


def gqf_region_cmacr(spec: DmChannelSpec, beta: float) -> RateRegion:
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
    pxr = np.zeros_like(instance_of(spec, DmChannelSpec, "spec").pxr)
    pxr[0] = 1.0
    return replace(spec, pxr=pxr, test_channel=np.ones((spec.test_channel.shape[0], 1)))


def no_relay_region_marc(spec: DmChannelSpec, beta: float) -> RateRegion:
    """Two-slot region of the single-destination channel with the relay silenced."""
    return _one_region(spec, "marc", SchemeId.NO_RELAY, beta)


def no_relay_region_cmacr(spec: DmChannelSpec, beta: float) -> RateRegion:
    """Two-slot compound region with the relay silenced."""
    return _one_region(spec, "cmacr", SchemeId.NO_RELAY, beta)


def cf_region_marc(spec: DmChannelSpec, beta: float) -> RateRegion:
    """CF region with a single destination (destination 1).

    ``feasible`` reports whether the binning constraint held; when it did
    not, the returned bounds are those of the relay-silenced channel (the
    raw CF terms stay available in ``terms``).
    """
    return _one_region(spec, "marc", SchemeId.CF, beta)


def cf_region_cmacr(spec: DmChannelSpec, beta: float) -> RateRegion:
    """CF region of the compound model: worst case over active destinations.

    The binning constraint must hold at every active destination (the
    worst left-hand side must clear the worst right-hand side).
    """
    return _one_region(spec, "cmacr", SchemeId.CF, beta)
