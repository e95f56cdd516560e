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
destination's slot-1 joint and S2 one of the slot-2 joint.  Each term is
written once, as a formula in mutual informations (:func:`_formulas`),
and compiled once per destination and pattern of one-letter axes into a
plan of entropy-table indices (:func:`_plan`).  :func:`dm_regions_stack`
evaluates many specs at one beta each: per slot joint one stacked build
and one stacked entropy-table pass (:mod:`hdmarc.dminfo`), then every
(S1, S2) pair of every spec is read with a few gathers, in the operation
order of one float lookup, so each spec's entry of the arrays it answers
with has the bits of its own.  :func:`dm_regions` is the one-spec case,
at one beta or a grid, and :func:`slot_terms` gives one spec's pairs.
Both evaluate every scheme into a :class:`~hdmarc.core.Bounds` per
scheme, like the Gaussian closed forms, for one topology or both from the
same pairs.
:func:`~hdmarc.core.gqf_bounds` reduces the GQF terms that
:func:`_branches` names, as it does the Gaussian ones; CF reads the same
table.  The relay-silenced channel (:func:`degenerate_relay_spec`) is
read from the same tables, with XR pinned and the quantizer collapsed,
and only where NO_RELAY is asked for or a CF point fails its binning
constraint.
"""

from __future__ import annotations

import re
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
from .dminfo import (
    SLOT1_VARS_BY_DESTINATION,
    SLOT2_VARS,
    DmChannelSpec,
    build_slot1_joints,
    build_slot2_joints,
    _entropy_tables,
)

#: The binning constraint is a strict inequality; a margin this close to
#: equality (or worse) counts as infeasible.
CF_MARGIN = 1e-12

#: The topologies :func:`dm_regions` answers: "marc" is destination 1 alone,
#: "cmacr" the compound of the destinations that hear anything.
TOPOLOGIES = ("marc", "cmacr")


@cache
def _formulas(k: int) -> dict[str, tuple[str, str]]:
    """Each slot term at destination ``k``, in order: its slot-1 and slot-2
    parts, each "0" or up to three mutual informations of that slot's
    joint, evaluated left to right (see :func:`slot_terms`)."""
    y1, y2 = f"Y{k}1", f"Y{k}2"  # the destination's slot-1 and slot-2 outputs
    formulas = {}
    for i, j in ((1, 2), (2, 1)):
        formulas[f"a_{k}({i})"] = (f"I(X{i}1; X{j}1,{y1},YhR)", f"I(X{i}2; X{j}2,XR,{y2})")
        formulas[f"b_{k}({i})"] = (
            f"I(X{i}1; X{j}1,{y1}) - I(YhR; YR | X{i}1,X{j}1,{y1})",
            f"I(X{i}2,XR; X{j}2,{y2})",
        )
    formulas[f"c_{k}"] = (f"I(X11,X21; {y1},YhR)", f"I(X12,X22; XR,{y2})")
    formulas[f"d_{k}"] = (
        f"I(X11,X21,YhR; {y1}) + I(X11,X21; YhR) - I(YR; YhR)",
        f"I(X12,X22,XR; {y2})",
    )
    # Binning feasibility: the quantization-index description rate left
    # after side-information gains must fit through the relay's slot-2
    # pipe, at every destination.
    formulas[f"cf_lhs_{k}"] = (f"I(YR; YhR) - I({y1}; YhR)", "0")
    formulas[f"cf_rhs_{k}"] = ("0", f"I(XR; {y2})")
    return formulas


#: I(; ) of no variables, which is 0.0: what a part lacks.
_NOTHING = ((), (), ())


def _parts(formula: str) -> tuple[tuple, tuple, tuple]:
    """The mutual informations ``(first, added, subtracted)`` of a formula of
    :func:`_formulas`, each a triple (A, B, C) of name tuples for I(A; B |
    C); the formula is (first + added) - subtracted."""
    parts = {"": _NOTHING, "+": _NOTHING, "-": _NOTHING}
    for sign, body in re.findall(r"([+-]?) *I\(([^)]*)\)", formula):
        left, _, given = body.partition("|")
        a, b = left.split(";")
        parts[sign] = tuple(tuple(n for n in s.replace(" ", "").split(",") if n) for s in (a, b, given))
    return parts[""], parts["+"], parts["-"]


@cache
def _plan(slot: int, k: int, kept: tuple[bool, ...]):
    """Where :func:`slot_terms` reads destination ``k``'s parts in ``slot``
    from an :func:`~hdmarc.dminfo._entropy_tables` row of a joint whose axes
    of more than one letter are ``kept``: the table indices (A,C), (B,C), C
    and (A,B,C) of each mutual information, and which ones each term's
    (first, added, subtracted) are.  Built once per plan."""
    names = SLOT1_VARS_BY_DESTINATION[k] if slot == 1 else SLOT2_VARS
    live = [name for name, keep in zip(names, kept) if keep]
    bits = {name: 1 << bit for bit, name in enumerate(reversed(live))}

    def mask(*sets):
        return sum(bits.get(name, 0) for name in set().union(*sets))

    mis = {_NOTHING: 0}
    terms = [
        [mis.setdefault(mi, len(mis)) for mi in _parts(pair[slot - 1])]
        for pair in _formulas(k).values()
    ]
    quads = [(mask(a, c), mask(b, c), mask(c), mask(a, b, c)) for a, b, c in mis]
    return np.array(quads).T, np.array(terms).T


def _tabled(stacks: list) -> list:
    """``(positions, kept axes, entropy tables)`` of each stack of the joint
    builders: one table pass per stack."""
    return [
        (positions, tuple(size > 1 for size in joints.shape[1:]), _entropy_tables(joints))
        for positions, joints in stacks
    ]


def _parts_of(tabled: list, slot: int, k: int, count: int) -> np.ndarray:
    """Destination ``k``'s parts in ``slot`` of every slot term, one row per
    spec of ``tabled`` (:func:`_tabled`; ``count`` specs), one column per
    term, read from the tables: every mutual information as h[ac] + h[bc] -
    h[c] - h[abc], then each part as (first + added) - subtracted, the
    order a lone float lookup takes."""
    rows = np.empty((count, len(_formulas(k))))
    for positions, kept, h in tabled:
        (ac, bc, c, abc), (first, added, subtracted) = _plan(slot, k, kept)
        mi = h[:, ac] + h[:, bc] - h[:, c] - h[:, abc]
        rows[positions] = mi[:, first] + mi[:, added] - mi[:, subtracted]
    return rows


def _stacked_terms(specs: list, ks: tuple, silenced: bool = False) -> dict:
    """:func:`slot_terms` of each of ``specs`` (of the relay-silenced
    channel, when ``silenced``), each S1 and S2 an array over the specs:
    one stacked build and table pass per slot-1 joint of each of ``ks`` and
    one for the slot-2 joint."""
    slot2, terms = None, {}
    for k in ks:
        s1 = _parts_of(_tabled(build_slot1_joints(specs, k, silenced)), 1, k, len(specs))
        slot2 = slot2 or _tabled(build_slot2_joints(specs, silenced))
        s2 = _parts_of(slot2, 2, k, len(specs))
        for column, name in enumerate(_formulas(k)):
            terms[name] = (s1[:, column], s2[:, column])
    return terms


def slot_terms(
    spec: DmChannelSpec, ks: tuple[int, ...]
) -> dict[str, tuple[float, float]]:
    """Split every bound into its slot-1 and slot-2 terms (S1, S2), read
    from the entropy tables of ``spec``'s joints: the bound is beta * S1 +
    (1-beta) * S2.  Destination ``k``'s pairs read its own joints only, so
    they do not depend on which other destinations ``ks`` lists.

    Keys are the names of :class:`~hdmarc.core.RateRegion` terms:
    ``a_k(i)``/``b_k(i)`` are the two decoding branches bounding source
    ``i``'s rate at destination ``k``, ``c_k``/``d_k`` the two branches
    bounding the sum rate.  ``cf_lhs_k`` and ``cf_rhs_k`` are the two sides
    of the binning constraint at ``k``: the slot-1 description excess
    I(YR; YhR) - I(Yk1; YhR) and the slot-2 pipe I(XR; Yk2).  This is the
    one-spec case of the stacked terms :func:`dm_regions_stack` reads.
    """
    ks = read_collection(ks, "destination indices", lambda k: one_of(k, "destination index", (1, 2)))
    instance_of(spec, DmChannelSpec, "spec")
    pairs = _stacked_terms([spec], ks)
    return {name: (float(s1[0]), float(s2[0])) for name, (s1, s2) in pairs.items()}


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
def _branches(ks: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
    """The :func:`slot_terms` bounding r1, r2 and the sum at the destinations
    ``ks`` (:func:`~hdmarc.core.gqf_bounds`), built once per ``ks``: at each
    in turn the quantization index decoded, then treated as noise."""
    pairs = (("a_{k}(1)", "b_{k}(1)"), ("a_{k}(2)", "b_{k}(2)"), ("c_{k}", "d_{k}"))
    return tuple(tuple(name.format(k=k) for k in ks for name in pair) for pair in pairs)


def _reach(spec: DmChannelSpec, topologies: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """The destinations each topology takes the worst case over."""
    return {
        topology: (1,) if topology == "marc" else active_destinations(spec)
        for topology in topologies
    }


def _read_topologies(topologies) -> tuple[str, ...]:
    """``topologies`` read by :func:`~hdmarc.core.read_names`, so a lone str
    or a set is refused, as is a repeated topology."""
    topologies = read_names(
        topologies, "topologies", tuple, lambda topology: one_of(topology, "topology", TOPOLOGIES)
    )
    repeated = [topology for topology in TOPOLOGIES if topologies.count(topology) > 1]
    if repeated:
        raise InvalidParams(f"topologies lists {', '.join(repeated)} more than once")
    return topologies


def _evaluate(specs: list, reach: dict, schemes: tuple, beta, one: bool) -> dict:
    """``{topology: {scheme: Bounds}}`` of ``specs``, which share their
    ``reach``: with ``one`` of the one spec at ``beta`` (a float or a grid),
    otherwise each value an array over the specs, each at its own ``beta``.
    The slot terms are built once for the destinations the topologies need;
    those of the relay-silenced channel at most once, and only when NO_RELAY
    is requested or some CF point fails its binning constraint."""
    needed = tuple(sorted({k for ks in reach.values() for k in ks}))
    built: dict[bool, dict] = {}  # keyed by "relay silenced"; this call only

    def terms(silenced: bool) -> dict:
        if silenced not in built:
            pairs = _stacked_terms(specs, needed, silenced)
            built[silenced] = {
                name: two_slot(beta, s1[0], s2[0]) if one else two_slot(beta, s1, s2)
                for name, (s1, s2) in pairs.items()
            }
        return built[silenced]

    def cf(ks: tuple[int, ...]) -> Bounds:
        relay, table = terms(False), _branches(ks)
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
        SchemeId.GQF: lambda ks: gqf_bounds(terms(False), _branches(ks)),
        SchemeId.CF: cf,
        SchemeId.NO_RELAY: lambda ks: gqf_bounds(terms(True), _branches(ks)),
    }
    return {
        topology: {scheme: table[scheme](ks) for scheme in schemes}
        for topology, ks in reach.items()
    }


def dm_regions(
    spec: DmChannelSpec,
    topologies: Sequence[str],
    schemes: Sequence[SchemeId],
    beta,
) -> dict[str, dict[SchemeId, Bounds]]:
    """Every requested scheme's bounds at slot fraction(s) ``beta``, for
    each of ``topologies``: ``{topology: {scheme: Bounds}}``, the one-spec
    case of :func:`dm_regions_stack` with a grid of betas.

    ``beta`` is a float or an array of floats in (0, 1), checked by
    :func:`~hdmarc.core.validate_beta`.  A topology is "marc" (destination
    1) or "cmacr" (worst case over the active destinations).  Both reduce
    the same slot terms, built once for the destinations the topologies
    need; those of the relay-silenced channel are built at most once, and
    only when NO_RELAY is requested or some CF point fails its binning
    constraint.  Each topology's ``terms`` name its own destinations only.
    ``topologies`` (:func:`~hdmarc.core.read_names`, so a lone str or a
    set is refused, as is a repeated topology) and ``schemes`` are read
    once.
    """
    instance_of(spec, DmChannelSpec, "spec")
    beta = validate_beta(beta)
    reach = _reach(spec, _read_topologies(topologies))
    return _evaluate([spec], reach, read_schemes(schemes), beta, one=True)


def dm_regions_stack(
    specs: Sequence[DmChannelSpec],
    topologies: Sequence[str],
    schemes: Sequence[SchemeId],
    betas: Sequence[float],
) -> dict[str, dict[SchemeId, Bounds]]:
    """:func:`dm_regions` of each of ``specs`` at its own slot fraction, the
    float of ``betas`` at its position: ``{topology: {scheme: Bounds}}`` as
    over a grid, with every value an array over the specs (or one value for
    all of them), each entry with the bits of that spec's own call.

    The joints of the specs are built and their entropy tables computed in
    stacks, one per slot joint where their shapes allow it
    (:func:`~hdmarc.dminfo._stack_positions`), and every slot term is a
    gather from those tables; a joint that is refused names its spec's
    position in ``specs``.  As over a grid, the CF ``terms`` hold the
    ``no_relay_*`` fallback terms of every spec once any point fails the
    binning constraint.  A spec or a slot fraction that its own call
    refuses is refused; so are a mismatch in number, an empty stack and
    specs whose cMACr reaches different destinations.
    """
    specs = read_collection(specs, "specs", lambda spec: instance_of(spec, DmChannelSpec, "spec"))
    betas = read_collection(
        betas, "slot fractions", lambda beta: validate_beta(beta, allow_array=False)
    )
    if len(betas) != len(specs):
        raise InvalidParams(f"{len(specs)} specs need as many slot fractions, got {len(betas)}")
    if not specs:
        raise InvalidParams("a stack needs at least one spec")
    topologies = _read_topologies(topologies)
    reaches = [_reach(spec, topologies) for spec in specs]
    for position, reach in enumerate(reaches):
        if reach != reaches[0]:
            raise InvalidParams(
                f"the specs of a stack must reach the same destinations; cmacr reaches "
                f"{reaches[0]['cmacr']} for specs[0] and {reach['cmacr']} for specs[{position}]"
            )
    return _evaluate(specs, reaches[0], read_schemes(schemes), np.array(betas), one=False)


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
