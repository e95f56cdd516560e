"""Exact information measures over finite-alphabet joint distributions.

Joint pmfs are dense numpy tensors with one axis per named variable.
Entropies and mutual informations are evaluated by brute-force
marginalization; this module is meant to be an exact reference for small
alphabets, not an estimator, so tensors are capped at :data:`MAX_CELLS`
cells and anything larger is rejected with a clear error.

The variable names are fixed: two sources transmit ``X11, X21`` in slot 1
and ``X12, X22`` in slot 2, the relay hears ``YR`` in slot 1, quantizes it
into ``YhR`` and transmits ``XR`` in slot 2, and destination k observes
``Yk1`` in slot 1 and ``Yk2`` in slot 2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import (
    ConfigError,
    DimensionMismatch,
    InvalidParams,
    OverlappingSets,
    TensorTooLarge,
    UnknownVariable,
    document,
    instance_of,
    read_names,
    real_array,
)

#: The only admissible variable names (see the module docstring).
VAR_NAMES = frozenset(
    {"X11", "X21", "X12", "X22", "XR", "YR", "YhR", "Y11", "Y21", "Y12", "Y22"}
)


def check_names(names: Iterable[str], where: str) -> tuple[str, ...]:
    """``names``, read by :func:`~hdmarc.core.read_names`, as a tuple if
    each is one of :data:`VAR_NAMES` and none repeats.  Otherwise raises
    :class:`UnknownVariable` or :class:`InvalidParams` naming the model
    ``where``.  This is the one name check of both information models."""
    names = read_names(names, f"variable names of the {where}", tuple)
    unknown = sorted(set(names) - VAR_NAMES)
    if unknown:
        raise UnknownVariable(
            f"unknown variable names {unknown}; expected some of {sorted(VAR_NAMES)}"
        )
    if len(set(names)) != len(names):
        raise InvalidParams(f"duplicate variable names in {where}: {list(names)}")
    return names


def disjoint_sets(a: Iterable[str], b: Iterable[str], c: Iterable[str]):
    """``a``, ``b`` and ``c`` as sets if they are pairwise disjoint, as the
    sets of I(A; B | C) must be.  Otherwise raises :class:`OverlappingSets`
    naming the first pair that shares variables; each is read by
    :func:`~hdmarc.core.read_names`."""
    a, b, c = read_names(a, "set A"), read_names(b, "set B"), read_names(c, "set C")
    for tag, shared in (("A and B", a & b), ("A and C", a & c), ("B and C", b & c)):
        if shared:
            raise OverlappingSets(f"{tag} share variables {sorted(shared)}")
    return a, b, c


#: Pmfs must sum to 1 within this tolerance; off-normalized input is
#: rejected, never silently renormalized.
NORM_TOL = 1e-12

#: Probabilities at or below this are treated as exact zeros inside logs.
ZERO_EPS = 1e-15

#: Dense-tensor cap (number of cells).  Brute force is the point; scale is not.
MAX_CELLS = 2**18

#: Variable order of the slot-1 joint built by :func:`build_slot1_joint`.
SLOT1_VARS = ("X11", "X21", "YR", "Y11", "Y21", "YhR")

#: Variable order of the slot-2 joint built by :func:`build_slot2_joint`.
SLOT2_VARS = ("X12", "X22", "XR", "Y12", "Y22")


class JointPmf:
    """Dense joint pmf: a tuple of variable names and a probability array.

    ``probs`` has one axis per name, whose length is that variable's
    alphabet size; its entries are non-negative and sum to 1 within
    :data:`NORM_TOL`.  The stored array is a read-only copy of the input.
    """

    def __init__(self, names: Iterable[str], probs) -> None:
        names = check_names(names, "joint pmf")
        probs = real_array(probs, "joint pmf")
        if probs.size > MAX_CELLS:
            raise TensorTooLarge(
                f"joint pmf would hold {probs.size} cells; the cap is {MAX_CELLS}"
            )
        if probs.ndim != len(names):
            raise DimensionMismatch(
                f"tensor shape {probs.shape} has {probs.ndim} axes for {len(names)} "
                f"variables {list(names)}"
            )
        _check_stochastic("joint pmf", probs)
        self._names = names
        self._probs = probs.copy()
        self._probs.flags.writeable = False
        self._entropies: dict[frozenset, float] = {}

    def names(self) -> tuple[str, ...]:
        """Variable names in axis order."""
        return self._names

    @property
    def probs(self) -> np.ndarray:
        """The read-only probability array; it cannot be rebound either."""
        return self._probs

    def entropy(self, names: set[str]) -> float:
        """Entropy in bits of the marginal on the set ``names`` (0 * log 0 =
        0; probabilities at or below :data:`ZERO_EPS` count as zeros).  Each
        set is summed out once: the table is read-only, so the memo cannot
        go stale.  A name not in the pmf raises :class:`UnknownVariable`;
        :func:`entropy` reads ``names`` first."""
        key = frozenset(names)
        value = self._entropies.get(key)
        if value is None:
            flat = _marginal(self, key).ravel()
            positive = flat[flat > ZERO_EPS]
            value = float(-(positive * np.log2(positive)).sum()) if positive.size else 0.0
            self._entropies[key] = value
        return value

    def mutual_information(
        self, a: set[str], b: set[str], c: set[str] = frozenset()
    ) -> float:
        """I(A; B | C) = H(A,C) + H(B,C) - H(C) - H(A,B,C) in bits, from
        :meth:`entropy`, for pairwise disjoint sets (not checked here;
        :func:`mutual_information` checks)."""
        return (
            self.entropy(a | c)
            + self.entropy(b | c)
            - self.entropy(c)
            - self.entropy(a | b | c)
        )


def _marginal(pmf: JointPmf, keep: set) -> np.ndarray:
    """The probabilities of ``pmf`` with every variable not in ``keep``
    summed out, surviving axes in their original order."""
    names = pmf.names()
    unknown = keep.difference(names)
    if unknown:
        raise UnknownVariable(
            f"variables {sorted(unknown)} are not part of this pmf over {names}"
        )
    drop = tuple(i for i, name in enumerate(names) if name not in keep)
    return pmf.probs.sum(axis=drop) if drop else pmf.probs


def marginalize(pmf: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Sum out every variable not named in ``keep``.

    Axis order of the surviving variables is preserved.  Names in ``keep``
    that are not part of ``pmf`` raise :class:`UnknownVariable`.
    """
    keep = read_names(keep, "keep")
    probs = _marginal(instance_of(pmf, JointPmf, "pmf"), keep)
    return JointPmf(tuple(name for name in pmf.names() if name in keep), probs)


def entropy(pmf: JointPmf, names: Iterable[str]) -> float:
    """Joint entropy H of the marginal on ``names``, in bits.

    Uses the convention 0 * log 0 = 0; probabilities at or below
    :data:`ZERO_EPS` are treated as exact zeros.
    """
    names = read_names(names, "names")
    return instance_of(pmf, JointPmf, "pmf").entropy(names)


def mutual_information(
    pmf: JointPmf,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    Evaluated by :meth:`JointPmf.mutual_information`.  ``a``, ``b`` and
    ``c`` must be pairwise disjoint; an empty ``c`` gives the unconditional
    I(A; B).  The value is non-negative up to float round-off (no clamping
    is applied here).
    """
    return instance_of(pmf, JointPmf, "pmf").mutual_information(*disjoint_sets(a, b, c))


def _check_stochastic(name: str, table: np.ndarray, cond_axes: int = 0) -> None:
    """Check that ``table`` is a pmf over its axes after the first
    ``cond_axes``, for each index of those (a plain pmf for 0)."""
    # Written so that NaN fails both checks, with no extra pass.
    if table.size and not float(table.min()) >= 0.0:
        raise InvalidParams(f"{name} has negative or NaN entries")
    totals = table.sum(axis=tuple(range(cond_axes, table.ndim)))
    worst = float(np.abs(totals - 1.0).max(initial=0.0))
    if not worst <= NORM_TOL:
        raise InvalidParams(
            f"{name} must sum to 1 within {NORM_TOL} "
            f"(per row, over its last {table.ndim - cond_axes} axes); "
            f"worst deviation is {worst!r}"
        )


@dataclass(frozen=True)
class DmChannelSpec:
    """A finite-alphabet two-slot channel with a quantizing relay.

    The distribution factors as independent inputs, a slot-1 transition, a
    relay test channel, and a slot-2 transition::

        p(x11) p(x21) p(x12) p(x22) p(xR)
        * slot1[x11, x21, yR, y11, y21]   = p(yR, y11, y21 | x11, x21)
        * test_channel[yR, yhR]           = p(yhR | yR)
        * slot2[x12, x22, xR, y12, y22]   = p(y12, y22 | x12, x22, xR)

    All tables are dense row-major arrays, and each alphabet size is the
    length of its axes (``slot1.shape[3]`` is |Y11|, ...).  Construction
    validates non-negativity, normalization of every conditional slice
    within :data:`NORM_TOL` (rejected, not renormalized), and size
    consistency across tables.

    The tables are read-only, so a spec's joints never change:
    :attr:`joints` builds them on first use and keeps them with the
    spec.  A spec made by :func:`dataclasses.replace` is a new spec and
    builds its own.
    """

    px11: np.ndarray
    px21: np.ndarray
    px12: np.ndarray
    px22: np.ndarray
    pxr: np.ndarray
    test_channel: np.ndarray
    slot1: np.ndarray
    slot2: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for field in fields(self):
            arr = real_array(getattr(self, field.name), field.name).copy()
            arr.flags.writeable = False
            arrays[field.name] = arr
            object.__setattr__(self, field.name, arr)

        for name in ("px11", "px21", "px12", "px22", "pxr"):
            if arrays[name].ndim != 1 or arrays[name].size < 1:
                raise DimensionMismatch(
                    f"{name} must be a non-empty 1-D probability vector"
                )
            _check_stochastic(name, arrays[name])
        if arrays["test_channel"].ndim != 2:
            raise DimensionMismatch("test_channel must be a 2-D table [yR, yhR]")
        if arrays["slot1"].ndim != 5:
            raise DimensionMismatch(
                "slot1 must be a 5-D table [x11, x21, yR, y11, y21]"
            )
        if arrays["slot2"].ndim != 5:
            raise DimensionMismatch(
                "slot2 must be a 5-D table [x12, x22, xR, y12, y22]"
            )
        _check_stochastic("test_channel", arrays["test_channel"], 1)
        _check_stochastic("slot1", arrays["slot1"], 2)
        _check_stochastic("slot2", arrays["slot2"], 3)

        slot1, slot2 = arrays["slot1"], arrays["slot2"]
        checks = (
            (slot1.shape[0], arrays["px11"].size, "slot1 x11 axis", "px11"),
            (slot1.shape[1], arrays["px21"].size, "slot1 x21 axis", "px21"),
            (slot1.shape[2], arrays["test_channel"].shape[0], "slot1 yR axis", "test_channel yR axis"),
            (slot2.shape[0], arrays["px12"].size, "slot2 x12 axis", "px12"),
            (slot2.shape[1], arrays["px22"].size, "slot2 x22 axis", "px22"),
            (slot2.shape[2], arrays["pxr"].size, "slot2 xR axis", "pxr"),
        )
        for got, want, where, other in checks:
            if got != want:
                raise DimensionMismatch(
                    f"{where} has size {got} but {other} has size {want}"
                )

    @cached_property
    def joints(self) -> tuple[JointPmf, JointPmf]:
        """This spec's slot-1 and slot-2 joints (:func:`build_slot1_joint`,
        then :func:`build_slot2_joint`), built on first use.  Every
        information term of the spec reads them, so each joint is built
        once and each marginal entropy is summed out once
        (:meth:`JointPmf.entropy`)."""
        return build_slot1_joint(self), build_slot2_joint(self)


def build_slot1_joint(spec: DmChannelSpec) -> JointPmf:
    """Joint pmf of ``(X11, X21, YR, Y11, Y21, YhR)`` for slot 1.

    Assembled as p(x11) p(x21) p(yR, y11, y21 | x11, x21) p(yhR | yR); the
    relay quantizes based on YR alone, which is exactly the test-channel
    factorization above.
    """
    cells = instance_of(spec, DmChannelSpec, "spec").slot1.size * spec.test_channel.shape[1]
    if cells > MAX_CELLS:
        raise TensorTooLarge(
            f"slot-1 joint would hold {cells} cells; the cap is {MAX_CELLS}"
        )
    # One product per cell, no path search; the operand order is the one
    # np.einsum(..., optimize=True) settles on, so the bits are the same.
    tensor = np.einsum(
        "rh,abruv,b,a->abruvh", spec.test_channel, spec.slot1, spec.px21, spec.px11
    )
    return JointPmf(SLOT1_VARS, tensor)


def build_slot2_joint(spec: DmChannelSpec) -> JointPmf:
    """Joint pmf of ``(X12, X22, XR, Y12, Y22)`` for slot 2.

    Assembled as p(x12) p(x22) p(xR) p(y12, y22 | x12, x22, xR); in slot 2
    the relay input XR is an independent codebook symbol.
    """
    cells = instance_of(spec, DmChannelSpec, "spec").slot2.size
    if cells > MAX_CELLS:
        raise TensorTooLarge(
            f"slot-2 joint would hold {cells} cells; the cap is {MAX_CELLS}"
        )
    # As in build_slot1_joint: the optimizer's operand order, no path search.
    tensor = np.einsum("abcuv,c,b,a->abcuv", spec.slot2, spec.pxr, spec.px22, spec.px12)
    return JointPmf(SLOT2_VARS, tensor)


#: JSON keys of a channel document, mapped to constructor fields.
_JSON_FIELDS = {
    "p_x11": "px11",
    "p_x21": "px21",
    "p_x12": "px12",
    "p_x22": "px22",
    "p_xr": "pxr",
    "test_channel": "test_channel",
    "slot1": "slot1",
    "slot2": "slot2",
}


def spec_from_dict(doc: dict) -> DmChannelSpec:
    """Build a :class:`DmChannelSpec` from its JSON document form.

    The document must contain exactly the keys ``p_x11, p_x21, p_x12,
    p_x22, p_xr`` (probability vectors), ``test_channel`` (2-D nested
    list), and ``slot1``/``slot2`` (5-D nested lists), all row-major.
    """
    document(doc, "channel document", _JSON_FIELDS)
    return DmChannelSpec(**{
        field: real_array(doc[key], f"channel field {key!r}", ConfigError)
        for key, field in _JSON_FIELDS.items()
    })

