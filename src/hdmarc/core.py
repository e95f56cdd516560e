"""Shared domain types and input checks: errors, slot fractions, scheme tags,
rate regions, and the gates for numbers, numeric arrays, open intervals,
config documents, fixed choices, counts, collections, model objects and
file paths, and the one writer of an output file.

Every quantity in this package is a rate in bits per channel use.  A
"region" here is the triple of single-user bounds plus the sum bound that
cuts the corner off the rectangle, together with a feasibility flag for
schemes (compress-and-forward) whose operating point may violate a side
constraint.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Mapping, NamedTuple, Optional

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


#: The Python and numpy types of a real number and of an integer (a bool
#: is refused apart).
_REAL_TYPES = (float, int, np.floating, np.integer)
_INTEGER_TYPES = (int, np.integer)


def real_number(
    value, label: str, error=InvalidParams, rule: Optional[str] = "finite"
) -> float:
    """``value`` as a float if it is a real number (Python or numpy; a str,
    bool or None is refused, not parsed) that is ``rule``: "finite",
    "finite and non-negative", "finite and positive" or None (any float).
    Otherwise raises ``error`` naming ``label``.

    This is the one check of a number from outside the program.
    """
    if not isinstance(value, _REAL_TYPES) or type(value) is bool:
        # A JSON document has one kind of number; Python has others.
        kind = "a number" if error is ConfigError else "a real number"
        raise error(f"{label} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float64 range
        raise error(f"{label} is an integer too large for a float64") from None
    signed = {"finite and non-negative": number >= 0.0, "finite and positive": number > 0.0}
    if rule and not (math.isfinite(number) and signed.get(rule, True)):
        raise error(f"{label} must be {rule}, got {number!r}")
    return number


def real_array(value, label: str, error=InvalidParams) -> np.ndarray:
    """``value``, an array or nested lists of real numbers, as a float64
    array (not copied when it is one already).  Ragged nesting, strings,
    None and objects, which numpy would convert or parse, and bools, even
    one among numbers, raise ``error`` naming ``label``.

    This is the one check of a numeric array from outside the program.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise error(f"{label} is not numeric: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise error(f"{label} must be a real number array, got {array.dtype} entries")
    if not isinstance(value, np.ndarray):  # numpy reads a bool among numbers as 0 or 1
        leaves = [value]
        for _ in range(array.ndim):
            leaves = list(chain.from_iterable(leaves))
        if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
            raise error(f"{label} must be a real number array, got a bool")
    return array.astype(np.float64, copy=False)


def one_of(value, label: str, choices: tuple, error=InvalidParams):
    """The one of ``choices`` that ``value`` equals, if it is of that
    choice's kind: a Python or numpy integer (not a bool) for an int choice,
    an instance of the choice's own type for any other, so ``np.int64(2)``
    gives ``2`` and a list, array or None is refused before any comparison.
    Otherwise raises ``error`` naming ``label``: the one check of a fixed
    choice (a slot, a destination, a topology, a scheme, a grid spacing)."""
    for choice in choices:
        kind = _INTEGER_TYPES if type(choice) is int else type(choice)
        if isinstance(value, kind) and type(value) is not bool and value == choice:
            return choice
    shown = [str(c) if isinstance(c, enum.Enum) else repr(c) for c in choices]
    listed = " or ".join(filter(None, (", ".join(shown[:-1]), shown[-1])))
    raise error(f"{label} must be {listed}, got {value!r}")


def integer(value, label: str, lo: int, hi: Optional[int] = None, error=InvalidParams) -> int:
    """``value`` as an int if it is a Python or numpy integer (not a bool,
    a float such as 5.0 or a str) from ``lo`` to ``hi`` (None: unbounded).
    Otherwise raises ``error`` naming ``label``: the one check of a count
    (grid points, a seed, a draw count)."""
    if not isinstance(value, _INTEGER_TYPES) or type(value) is bool:
        raise error(f"{label} must be an integer, got {value!r}")
    if value < lo:
        raise error(f"{label} must be an integer >= {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise error(f"{label} must be at most {hi}, got {value!r}")
    return int(value)


def document(doc, where: str, required, optional=()) -> dict:
    """``doc`` if it is a JSON object holding every key of ``required`` and
    no key outside ``required`` and ``optional``.  Otherwise raises
    :class:`ConfigError` naming the document ``where`` and the missing or
    unknown keys.  This is the one check of a config document's shape."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    missing = sorted(set(required).difference(doc))
    if missing:
        raise ConfigError(f"{where} is missing fields {missing}")
    extra = sorted(set(doc).difference(required, optional))
    if extra:
        raise ConfigError(f"{where} has unknown fields {extra}")
    return doc


def open_interval(value, label: str, hi: float, error, allow_array: bool = True):
    """``value`` as a float if it is a real number (see :func:`real_number`),
    or, when ``allow_array``, as a float64 array if it is a numpy array of
    them (see :func:`real_array`), strictly inside (0, ``hi``).  Anything
    that is not a number raises ``error``; a value outside the interval, NaN
    included, raises :class:`OutOfRange` naming the first one."""
    if allow_array and isinstance(value, np.ndarray):
        value = real_array(value, label, error)
        inside = (value > 0.0) & (value < hi)
        if inside.all():
            return value
        first = float(np.ravel(value)[~np.ravel(inside)][0])
    else:
        first = value = real_number(value, label, error, None)
        if 0.0 < value < hi:  # NaN fails
            return value
    raise OutOfRange(f"{label} must lie strictly inside (0, {hi:g}), got {first!r}")


def validate_beta(beta, allow_array: bool = True):
    """The slot fraction(s) ``beta``, the share of the block in which the
    relay listens: a float, or a float64 array when ``allow_array``, each
    value strictly inside (0, 1) (at 0 the relay never hears, at 1 it never
    talks).  :func:`open_interval` checks it, with :class:`OutOfRange` for
    anything else, NaN included."""
    return open_interval(beta, "slot fraction", 1.0, OutOfRange, allow_array)


def read_collection(values, label: str, check: Callable, kind: type = tuple):
    """``values`` read once, as a ``kind`` of what the gate ``check``
    returns for each element, so a generator works.  One that is not
    iterable, and a set read into an ordered ``kind`` (a tuple or list:
    a set's order changes with the hash seed), raise :class:`InvalidParams`
    naming the argument ``label``; ``check`` raises for an element it
    refuses."""
    if kind is not set and isinstance(values, (set, frozenset)):
        raise InvalidParams(f"{label} must be in order, got a {type(values).__name__}")
    try:
        iterator = iter(values)
    except TypeError:
        raise InvalidParams(f"{label} must be iterable, got {values!r}") from None
    return kind(map(check, iterator))


def read_names(values, label: str, kind: type = set, check: Optional[Callable] = None):
    """:func:`read_collection` of a collection of names into a ``kind`` (a
    set, or a tuple to keep their order), each element read by the gate
    ``check``.  The default gate refuses an element that is not a str
    (a list, which a set could not hold, or a number) with
    :class:`InvalidParams` naming ``label``.  A lone str, which it would
    read letter by letter, raises :class:`InvalidParams` naming ``label``."""
    if isinstance(values, str):
        raise InvalidParams(
            f"{label} must be a collection of names (not one str), got the str {values!r}"
        )
    if check is None:

        def check(value):
            if isinstance(value, str):
                return value
            raise InvalidParams(f"{label} must hold str names, got a {type(value).__name__}")

    return read_collection(values, label, check, kind)


def instance_of(value, kind, label: str):
    """``value`` if it is a ``kind`` (a type, or a tuple of types it may be
    any of).  Otherwise raises :class:`InvalidParams` naming ``label``,
    ``kind`` and the type it got (not its repr, which for an array can be
    huge): the one check of a model object or of a scheme."""
    if isinstance(value, kind):
        return value
    names = " or a ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise InvalidParams(f"{label} must be a {names}, got {type(value).__name__}")


def file_path(path) -> str:
    """``path`` (a str or a path-like of one) as a str, if it can name a
    file.  Anything else (an int, which ``open`` would take for a file
    descriptor, a bool, None, bytes), an empty path, one with a NUL
    character and one with a character the file system encoding cannot
    write raise :class:`ConfigError` before any file is opened: the one
    check of a file path."""
    try:
        text = os.fspath(path)
    except TypeError:
        text = None
    if not isinstance(text, str):
        raise ConfigError(f"path must be a str or path-like, got {type(path).__name__}")
    try:
        if text and b"\0" not in os.fsencode(text):
            return text
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"path {text!r} cannot name a file")


def write_text(path, text: str) -> None:
    """Write ``text`` to the file ``path`` (see :func:`file_path`) as UTF-8
    with ``\\n`` line ends, creating a missing parent directory: the one
    writer of an output file."""
    path = file_path(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def read_schemes(schemes) -> tuple:
    """The schemes a model entry should evaluate, read once by
    :func:`read_collection`: each must be a :class:`SchemeId`, not a str,
    and a repeated one raises :class:`InvalidParams` naming it."""
    schemes = read_collection(schemes, "schemes", lambda s: instance_of(s, SchemeId, "scheme"))
    repeated = [scheme.value for scheme in SchemeId if schemes.count(scheme) > 1]
    if repeated:
        raise InvalidParams(f"schemes lists {', '.join(repeated)} more than once")
    return schemes


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


def _scalar(value):
    """``value``, or the one element of it if it is a 0-d array (``np.where``
    makes those)."""
    return value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value


def rate_region(bounds: Bounds) -> RateRegion:
    """The :class:`RateRegion` of a single-point evaluation (not a grid).

    ``r1``, ``r2`` and ``rsum`` must be finite real numbers, ``feasible`` a
    bool, and ``terms`` a dict of str names to real numbers (inf is the CF
    threshold of a dead relay link), each of them or a 0-d array of it;
    anything else raises :class:`InvalidParams` naming the field.
    """
    instance_of(bounds, Bounds, "bounds")
    if np.ndim(bounds.rsum):  # on a grid, rsum has the grid's shape
        raise InvalidParams("rate_region takes a single-point evaluation, not a grid")
    r1, r2, rsum = (
        real_number(_scalar(bounds[i]), f"bounds {bounds._fields[i]}") for i in range(3)
    )
    feasible = _scalar(bounds.feasible)
    if not isinstance(feasible, (bool, np.bool_)):
        raise InvalidParams(f"bounds feasible must be a bool, got {type(feasible).__name__}")
    terms = {}
    try:
        for name, value in instance_of(bounds.terms, dict, "bounds terms").items():
            value = _scalar(value)
            if type(name) is not str or type(value) is bool or not isinstance(value, _REAL_TYPES):
                raise TypeError
            terms[name] = float(value)
    except (TypeError, OverflowError):
        raise InvalidParams(
            f"bounds terms must map str names to real numbers, got {name!r}: {value!r}"
        ) from None
    return clamp_region(r1, r2, rsum, bool(feasible), terms)
