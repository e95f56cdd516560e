"""Exact information measures over finite-alphabet joint distributions.

Joint pmfs are dense numpy tensors with one axis per named variable.  The
slot joints of a channel are built for many specs at once, stacked on a
leading axis (:func:`build_slot1_joints`, :func:`build_slot2_joints`), and
:func:`_entropy_tables` computes the entropy of every marginal of every
joint of a stack in one vectorized pass; every entropy and mutual
information is then a lookup in that table.  One spec is the stack of one:
:class:`JointPmf` keeps its table on first use (:meth:`JointPmf.entropy`),
and :func:`build_slot1_joint` and :func:`build_slot2_joint` give one
spec's joints as pmfs.  Specs of
different shapes share a stack by zero padding only where that leaves
every bit as it is alone (:func:`_stack_positions`).  This module is meant
to be an exact reference for small alphabets, not an estimator, so each
joint is capped at :data:`MAX_CELLS` cells, its entropy table at
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
    read_collection,
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
    """The :func:`_entropy_tables` row of one pmf, as floats."""
    return _entropy_tables(probs[None])[0].tolist()


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


#: The number of axes of each table of a :class:`DmChannelSpec`, and how
#: many of them lead its rows: at each index of those the table sums to 1
#: over the others (a pmf, with none, sums to 1 over all of its axes).
_TABLE_AXES = {
    "px11": (1, 0),
    "px21": (1, 0),
    "px12": (1, 0),
    "px22": (1, 0),
    "pxr": (1, 0),
    "test_channel": (2, 1),
    "slot1": (5, 2),
    "slot2": (5, 3),
}


def _tables_pass(arrays: dict) -> bool:
    """Whether the tables ``arrays`` of a spec pass every check of
    :func:`_check_tables`, in one pass: one minimum over all entries, and
    one sum per conditional row, each the sum :func:`_check_stochastic`
    takes, so this accepts exactly what those checks accept."""
    if any(arrays[name].ndim != ndim for name, (ndim, _) in _TABLE_AXES.items()):
        return False
    if not all(arrays[name].size for name, (_, lead) in _TABLE_AXES.items() if not lead):
        return False
    entries = np.concatenate([table.ravel() for table in arrays.values()])
    totals = np.concatenate([
        np.add.reduce(arrays[name], axis=tuple(range(lead, ndim))).ravel()
        for name, (ndim, lead) in _TABLE_AXES.items()
    ])
    # Written so that NaN fails, as in _check_stochastic.
    return bool(entries.min() >= 0.0 and np.abs(totals - 1.0).max() <= NORM_TOL)


def _check_tables(arrays: dict) -> None:
    """Check the tables ``arrays`` of a spec one by one, raising the first
    refusal: each input pmf's shape and sums, the shapes of the test
    channel and the slot transitions, then their rows' sums."""
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
    for name in ("test_channel", "slot1", "slot2"):
        _check_stochastic(name, arrays[name], _TABLE_AXES[name][1])


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

    The tables are read-only; a spec equals, and hashes as, only itself.
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
        if not _tables_pass(arrays):
            _check_tables(arrays)

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


def build_slot1_joint(spec: DmChannelSpec, k: int) -> JointPmf:
    """Destination ``k``'s joint pmf of ``(X11, X21, YR, Yk1, YhR)`` for
    slot 1 (:data:`SLOT1_VARS_BY_DESTINATION`): the one-spec case of
    :func:`build_slot1_joints`.  ``k`` must be the integer 1 or 2."""
    instance_of(spec, DmChannelSpec, "spec")
    k = one_of(k, "destination index", (1, 2))
    ((_, stack),) = build_slot1_joints((spec,), k)
    return JointPmf(SLOT1_VARS_BY_DESTINATION[k], stack[0])


def build_slot2_joint(spec: DmChannelSpec) -> JointPmf:
    """Joint pmf of ``(X12, X22, XR, Y12, Y22)`` for slot 2: the one-spec
    case of :func:`build_slot2_joints`."""
    ((_, stack),) = build_slot2_joints((instance_of(spec, DmChannelSpec, "spec"),))
    return JointPmf(SLOT2_VARS, stack[0])


#: Joints are zero-padded to share a stack only while every axis is shorter
#: than this.  Below 8 letters numpy sums an axis in order, wherever the axis
#: lies, so zeros appended to it leave every bit; from 8 on it sums in blocks
#: whose layout depends on the axes after it, which padding a one-letter
#: axis changes.
PAD_BELOW = 8


def build_slot1_joints(specs, k: int, silenced: bool = False) -> list:
    """Destination ``k``'s slot-1 joints of ``specs``, over
    :data:`SLOT1_VARS_BY_DESTINATION`, as stacks: a list of ``(positions in
    specs, joints)``, the joints stacked on a leading axis
    (:func:`_stack_positions`).

    Each joint is p(x11) p(x21) p(yR, yk1 | x11, x21) p(yhR | yR), where
    p(yR, yk1 | x11, x21) is ``slot1`` summed over the other destination's
    output; the relay quantizes based on YR alone, which is exactly the
    test-channel factorization of :class:`DmChannelSpec`.  ``silenced``
    collapses the quantizer to one output (a test channel that is a column
    of ones), as in the relay-silenced channel.  Each joint is checked on
    its own (:func:`_joint_stacks`).  ``k`` must be the integer 1 or 2.
    """
    specs = _read_specs(specs)
    k = one_of(k, "destination index", (1, 2))
    instance_of(silenced, bool, "silenced")
    # Yk1 is axis 2 + k of slot1, so the other destination's is 5 - k.
    slot1 = [spec.slot1.sum(axis=5 - k) for spec in specs]
    shapes = [
        table.shape + (1 if silenced else spec.test_channel.shape[1],)
        for table, spec in zip(slot1, specs)
    ]

    def build(positions, shape):
        if silenced:
            quantizer = np.ones((len(positions), shape[2], 1))
        else:
            quantizer = _padded([specs[i].test_channel for i in positions], (shape[2], shape[4]))
        return _slot1_product(
            quantizer,
            _padded([slot1[i] for i in positions], shape[:4]),
            _padded([specs[i].px21 for i in positions], shape[1:2]),
            _padded([specs[i].px11 for i in positions], shape[:1]),
        )

    return _joint_stacks(f"slot-1 joint of destination {k}", shapes, build)


def build_slot2_joints(specs, silenced: bool = False) -> list:
    """The slot-2 joints of ``specs``, over :data:`SLOT2_VARS`, as stacks
    like :func:`build_slot1_joints`.

    Each joint is p(x12) p(x22) p(xR) p(y12, y22 | x12, x22, xR); in slot 2
    the relay input XR is an independent codebook symbol.  ``silenced``
    pins XR to the first letter of its alphabet (a point mass), as in the
    relay-silenced channel.
    """
    specs = _read_specs(specs)
    instance_of(silenced, bool, "silenced")
    shapes = [spec.slot2.shape for spec in specs]

    def build(positions, shape):
        pxr = _padded([specs[i].pxr for i in positions], shape[2:3])
        if silenced:
            pxr = np.zeros_like(pxr)
            pxr[:, 0] = 1.0
        return _slot2_product(
            _padded([specs[i].slot2 for i in positions], shape),
            pxr,
            _padded([specs[i].px22 for i in positions], shape[1:2]),
            _padded([specs[i].px12 for i in positions], shape[:1]),
        )

    return _joint_stacks("slot-2 joint", shapes, build)


def _slot1_product(test_channel, slot1, px21, px11) -> np.ndarray:
    """Slot-1 joints of a stack, one product per cell in the operand order
    np.einsum(..., optimize=True) settles on, so the bits are the same:
    ((p(yhR | yR) * p(yR, yk1 | x11, x21)) * p(x21)) * p(x11)."""
    joint = test_channel[:, None, None, :, None, :] * slot1[..., None]
    joint *= px21[:, None, :, None, None, None]
    joint *= px11[:, :, None, None, None, None]
    return joint


def _slot2_product(slot2, pxr, px22, px12) -> np.ndarray:
    """Slot-2 joints of a stack, as :func:`_slot1_product`:
    ((p(y12, y22 | x12, x22, xR) * p(xR)) * p(x22)) * p(x12)."""
    joint = slot2 * pxr[:, None, None, :, None, None]
    joint *= px22[:, None, :, None, None, None]
    joint *= px12[:, :, None, None, None, None]
    return joint


def _read_specs(specs) -> tuple:
    """``specs``, read once, if each is a :class:`DmChannelSpec`."""
    return read_collection(specs, "specs", lambda spec: instance_of(spec, DmChannelSpec, "spec"))


def _padded(arrays: list, shape: tuple) -> np.ndarray:
    """``arrays`` zero-padded to ``shape`` and stacked on a leading axis."""
    if all(array.shape == shape for array in arrays):
        return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
    stack = np.zeros((len(arrays), *shape))
    for row, array in zip(stack, arrays):
        row[tuple(map(slice, array.shape))] = array
    return stack


def _stack_positions(shapes) -> list[list[int]]:
    """The positions of ``shapes``, the shapes of joints over the same
    variables, grouped into stacks in order of first appearance.  A joint
    with an axis of :data:`PAD_BELOW` letters or more shares a stack only
    with joints of its own shape; all others share stacks, zero-padded to
    the stack's longest alphabet on each axis.  A stack's entropy tables
    take at most :data:`MAX_TABLE_CELLS` cells in all, unless it holds one
    joint."""
    groups: dict[tuple, list[int]] = {}
    for position, shape in enumerate(shapes):
        groups.setdefault(tuple(shape) if max(shape) >= PAD_BELOW else (), []).append(position)
    stacks = []
    for positions in groups.values():
        longest = _longest(shapes, positions)
        count = max(1, MAX_TABLE_CELLS // math.prod(size + 1 for size in longest if size > 1))
        stacks += [positions[start : start + count] for start in range(0, len(positions), count)]
    return stacks


def _longest(shapes: list, positions: list[int]) -> tuple[int, ...]:
    """The longest alphabet on each axis of the ``shapes`` at ``positions``."""
    return tuple(map(max, *(shapes[i] for i in positions))) if len(positions) > 1 else shapes[positions[0]]


def _joint_stacks(where: str, shapes: list, build) -> list:
    """``[(positions, build(positions, shape))]`` for each of
    :func:`_stack_positions`, ``shape`` the stack's longest alphabets.  First
    each joint's ``shapes`` must pass :data:`MAX_CELLS` and
    :data:`MAX_TABLE_CELLS` (:class:`TensorTooLarge`), then each built joint
    must be a pmf (:class:`InvalidParams`), as a :class:`JointPmf` must; a
    failure of one of several specs names its position in ``specs``."""

    def label(position: int) -> str:
        return where if len(shapes) == 1 else f"{where} of specs[{position}]"

    for position, shape in enumerate(shapes):
        cells = math.prod(shape)
        if cells > MAX_CELLS:
            raise TensorTooLarge(
                f"{label(position)} would hold {cells} cells; the cap is {MAX_CELLS}"
            )
        cells = math.prod(size + 1 for size in shape if size > 1)
        if cells > MAX_TABLE_CELLS:
            raise TensorTooLarge(
                f"the entropy table of {label(position)} would take {cells} cells; "
                f"the cap is {MAX_TABLE_CELLS}"
            )
    stacks = []
    for positions in _stack_positions(shapes):
        joints = build(positions, _longest(shapes, positions))
        flat = joints.reshape(len(positions), -1)
        # Written so that NaN fails, as in _check_stochastic.
        good = (flat.min(axis=1) >= 0.0) & (np.abs(flat.sum(axis=1) - 1.0) <= NORM_TOL)
        if not good.all():
            row = int(np.argmin(good))
            _check_stochastic(label(positions[row]), joints[row])
        stacks.append((positions, joints))
    return stacks


def _entropy_tables(stack: np.ndarray) -> np.ndarray:
    """H(S) in bits for every subset S of the variable axes of each pmf of
    ``stack`` (a leading axis over pmfs), one row per pmf, indexed like
    :meth:`JointPmf._mask`, from one vectorized pass over the stack.

    Each axis of more than one letter gets one more slot that holds the
    table summed over it, axis by axis, so the extended table holds every
    marginal; a one-letter axis gets none, since summing it out changes
    nothing.  p * log2 p is taken on every cell (0 at or below
    :data:`ZERO_EPS`), then each axis' letters are summed into one "kept"
    entry beside its slot.  0.0 - that sum is the entropy of each subset:
    the 0.0 makes the entropy of a lone positive cell +0.0, not -0.0.  On
    a stack of :func:`_stack_positions` each row has the bits of its pmf
    alone, zero-padded letters included.
    """
    count = len(stack)
    ext = stack.reshape([count] + [size for size in stack.shape[1:] if size > 1])
    for axis in range(1, ext.ndim):
        ext = np.concatenate((ext, ext.sum(axis=axis, keepdims=True)), axis=axis)
    plogp = np.log2(ext, where=ext > ZERO_EPS, out=np.zeros_like(ext))
    plogp *= ext
    for axis in range(1, ext.ndim):
        # Index 0 is then the letters summed (kept), 1 the slot (summed out).
        plogp = np.add.reduceat(plogp, [0, ext.shape[axis] - 1], axis=axis)
    # Reversed, the index of a set has the bit of each axis it keeps.
    return (0.0 - plogp).reshape(count, -1)[:, ::-1]


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

