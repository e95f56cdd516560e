"""Exact information measures over finite-alphabet joint distributions.

Joint pmfs are dense numpy tensors with one axis per named variable.
On first use a pmf computes the entropy of every one of its marginals in
one vectorized pass (:meth:`JointPmf.entropy`); every entropy and mutual
information is then a lookup in that table.  This module is meant to be an
exact reference for small alphabets, not an estimator, so tensors are
capped at :data:`MAX_CELLS` cells, their entropy tables at
:data:`MAX_TABLE_CELLS`, and anything larger is rejected with a clear
error.

The variable names are fixed: two sources transmit ``X11, X21`` in slot 1
and ``X12, X22`` in slot 2, the relay hears ``YR`` in slot 1, quantizes it
into ``YhR`` and transmits ``XR`` in slot 2, and destination k observes
``Yk1`` in slot 1 and ``Yk2`` in slot 2.
"""

from __future__ import annotations

import math
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
    one_of,
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

#: Cap on the cells of the pass behind a pmf's entropy table, the product
#: of (alphabet size + 1) over its axes of more than one letter.  A
#: five-axis joint under :data:`MAX_CELLS`, as every slot joint is, needs
#: at most 3**4 * 16385 = 1327185; an eleven-axis pmf near
#: :data:`MAX_CELLS` could need 15.2 million.
MAX_TABLE_CELLS = 2**21

#: Variable order of destination k's slot-1 joint, built by
#: :func:`build_slot1_joint`: the sources, the relay's observation and its
#: quantization, and ``Yk1``, by destination index.
SLOT1_VARS_BY_DESTINATION = {k: ("X11", "X21", "YR", f"Y{k}1", "YhR") for k in (1, 2)}

#: Variable order of the slot-2 joint built by :func:`build_slot2_joint`.
SLOT2_VARS = ("X12", "X22", "XR", "Y12", "Y22")


class JointPmf:
    """Dense joint pmf: a tuple of variable names and a probability array.

    ``probs`` has one axis per name, whose length is that variable's
    alphabet size; its entries are non-negative and sum to 1 within
    :data:`NORM_TOL`.  The stored array is a read-only copy of the input.
    The entropy of every marginal (:func:`_entropy_table`) is computed on
    first use and kept: the array is read-only, so the table cannot go
    stale.  A pmf whose table pass would exceed :data:`MAX_TABLE_CELLS`
    cells is refused.
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
        cells = math.prod(size + 1 for size in probs.shape if size > 1)
        if cells > MAX_TABLE_CELLS:
            raise TensorTooLarge(
                f"the entropy table of a joint pmf of shape {probs.shape} would take "
                f"{cells} cells; the cap is {MAX_TABLE_CELLS}"
            )
        _check_stochastic("joint pmf", probs)
        self._names = names
        self._probs = probs.copy()
        self._probs.flags.writeable = False
        # The bit of each name in a set's table index, the first axis of
        # more than one letter highest; a one-letter axis has none.
        kept = [name for name, size in zip(names, probs.shape) if size > 1]
        self._bits = dict.fromkeys(names, 0)
        self._bits.update((name, 1 << bit) for bit, name in enumerate(reversed(kept)))

    def names(self) -> tuple[str, ...]:
        """Variable names in axis order."""
        return self._names

    @property
    def probs(self) -> np.ndarray:
        """The read-only probability array; it cannot be rebound either."""
        return self._probs

    @cached_property
    def _table(self) -> list[float]:
        return _entropy_table(self._probs)

    def _mask(self, names) -> int:
        """The table index of the set ``names``; a name the pmf lacks is
        refused (:class:`UnknownVariable`, or :class:`InvalidParams` if it
        is not a str)."""
        try:
            return sum(map(self._bits.__getitem__, names))
        except KeyError:
            unknown = set(names).difference(self._names)
        read_names(unknown, "names")  # a name that is not a str is refused as such
        raise UnknownVariable(
            f"variables {sorted(unknown)} are not part of this pmf over {self._names}"
        )

    def entropy(self, names: Iterable[str]) -> float:
        """Entropy in bits of the marginal on ``names`` (0 * log 0 = 0;
        probabilities at or below :data:`ZERO_EPS` count as zeros), read
        from the pmf's entropy table.  ``names`` is read by
        :func:`~hdmarc.core.read_names`, a set's only if it holds a name the
        pmf lacks (every name of the pmf is a str); a str name not in the
        pmf raises :class:`UnknownVariable`."""
        if not isinstance(names, (set, frozenset)):
            names = read_names(names, "names")
        return self._table[self._mask(names)]

    def mutual_information(
        self, a: Iterable[str], b: Iterable[str], c: Iterable[str] = frozenset()
    ) -> float:
        """I(A; B | C) = H(A,C) + H(B,C) - H(C) - H(A,B,C) in bits, read
        from the entropy table.  ``a``, ``b`` and ``c`` must be pairwise
        disjoint (:class:`OverlappingSets` otherwise); an empty ``c`` gives
        the unconditional I(A; B).  Sets are tested for overlap as they
        are; any other collection is read by :func:`disjoint_sets`.  The
        value is non-negative up to float round-off (no clamping is applied
        here)."""
        sets = (set, frozenset)
        plain = isinstance(a, sets) and isinstance(b, sets) and isinstance(c, sets)
        if not plain or a & b or a & c or b & c:
            a, b, c = disjoint_sets(a, b, c)
        h, mask = self._table, self._mask
        ac, bc = mask(a | c), mask(b | c)
        return h[ac] + h[bc] - h[mask(c)] - h[ac | bc]


def _entropy_table(probs: np.ndarray) -> list[float]:
    """H(S) in bits for every subset S of the axes of ``probs``, indexed by
    :meth:`JointPmf._mask`, from one vectorized pass.

    Each axis of more than one letter gets one more slot that holds the
    table summed over it, axis by axis, so the extended table holds every
    marginal; a one-letter axis gets none, since summing it out changes
    nothing.  p * log2 p is taken on every cell (0 at or below
    :data:`ZERO_EPS`), then each axis' letters are summed into one "kept"
    entry beside its slot.  0.0 - that sum is the entropy of each subset:
    the 0.0 makes the entropy of a lone positive cell +0.0, not -0.0.
    """
    ext = probs.reshape([size for size in probs.shape if size > 1])
    for axis in range(ext.ndim):
        ext = np.concatenate((ext, ext.sum(axis=axis, keepdims=True)), axis=axis)
    plogp = np.log2(ext, where=ext > ZERO_EPS, out=np.zeros_like(ext))
    plogp *= ext
    for axis, size in enumerate(ext.shape):
        # Index 0 is then the letters summed (kept), 1 the slot (summed out).
        plogp = np.add.reduceat(plogp, [0, size - 1], axis=axis)
    # Reversed, the index of a set has the bit of each axis it keeps.
    return (0.0 - plogp).ravel()[::-1].tolist()


def marginalize(pmf: JointPmf, keep: Iterable[str]) -> JointPmf:
    """Sum out every variable not named in ``keep``.

    Axis order of the surviving variables is preserved.  Names in ``keep``
    that are not part of ``pmf`` raise :class:`UnknownVariable`.
    """
    keep = read_names(keep, "keep")
    instance_of(pmf, JointPmf, "pmf")._mask(keep)  # refuses a name the pmf lacks
    names = pmf.names()
    drop = tuple(i for i, name in enumerate(names) if name not in keep)
    probs = pmf.probs.sum(axis=drop) if drop else pmf.probs
    return JointPmf(tuple(name for name in names if name in keep), probs)


def entropy(pmf: JointPmf, names: Iterable[str]) -> float:
    """Joint entropy H of the marginal on ``names``, in bits:
    :meth:`JointPmf.entropy`, which checks ``names``."""
    return instance_of(pmf, JointPmf, "pmf").entropy(names)


def mutual_information(
    pmf: JointPmf,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits:
    :meth:`JointPmf.mutual_information`, which checks the sets."""
    return instance_of(pmf, JointPmf, "pmf").mutual_information(a, b, c)


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


@dataclass(frozen=True, eq=False)
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
    :meth:`joints` builds each on first use and keeps it with the spec.  A
    spec made by :func:`dataclasses.replace` is a new spec and builds its
    own; a spec equals, and hashes as, only itself.
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
        object.__setattr__(self, "_slot1_joints", {})

    def joints(self, k: int) -> tuple[JointPmf, JointPmf]:
        """Destination ``k``'s slot-1 joint and the slot-2 joint
        (:func:`build_slot1_joint`, then :func:`build_slot2_joint`), each
        built on first use.  Every information term of destination ``k``
        reads them, so each joint is built once and computes the entropies
        of all its marginals once (:meth:`JointPmf.entropy`).  ``k`` must
        be the integer 1 or 2."""
        k = one_of(k, "destination index", (1, 2))
        slot1 = self._slot1_joints
        if k not in slot1:
            slot1[k] = build_slot1_joint(self, k)
        return slot1[k], self._slot2_joint

    @cached_property
    def _slot2_joint(self) -> JointPmf:
        return build_slot2_joint(self)


def build_slot1_joint(spec: DmChannelSpec, k: int) -> JointPmf:
    """Destination ``k``'s joint pmf of ``(X11, X21, YR, Yk1, YhR)`` for
    slot 1 (:data:`SLOT1_VARS_BY_DESTINATION`).

    Assembled as p(x11) p(x21) p(yR, yk1 | x11, x21) p(yhR | yR), where
    p(yR, yk1 | x11, x21) is ``slot1`` summed over the other destination's
    output; the relay quantizes based on YR alone, which is exactly the
    test-channel factorization above.  ``k`` must be the integer 1 or 2.
    """
    instance_of(spec, DmChannelSpec, "spec")
    k = one_of(k, "destination index", (1, 2))
    # Yk1 is axis 2 + k of slot1, so the other destination's is 5 - k.
    slot1 = spec.slot1.sum(axis=5 - k)
    cells = slot1.size * spec.test_channel.shape[1]
    if cells > MAX_CELLS:
        raise TensorTooLarge(
            f"slot-1 joint of destination {k} would hold {cells} cells; "
            f"the cap is {MAX_CELLS}"
        )
    # One product per cell, no path search; the operand order is the one
    # np.einsum(..., optimize=True) settles on, so the bits are the same.
    tensor = np.einsum("rh,abru,b,a->abruh", spec.test_channel, slot1, spec.px21, spec.px11)
    return JointPmf(SLOT1_VARS_BY_DESTINATION[k], tensor)


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

