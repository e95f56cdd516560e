"""Independent reference values for the production rate formulas.

Nothing here shares formula code with :mod:`hdmarc.gaussian` or
:mod:`hdmarc.dmregions`, and every value ``hdmarc verify`` compares a
model entry against is computed here.  Two checkers are provided:

* a jointly-Gaussian vector model per slot, built straight from the channel
  equations as a square root of its covariance (the loading matrix times
  the primitives' standard deviations), with mutual informations evaluated
  through log-determinants of covariance submatrices, read off a QR of the
  square root's rows so that no covariance is ever formed;
  :func:`closed_forms_via_log_dets` evaluates the table below with it, for
  many channels at once; and
* an evaluator of the raw joint-decoding inequality system of both
  topologies, in which the codebook rate appears explicitly and is
  eliminated at its minimum ``R_U = beta * I(YR; YhR)``
  (:func:`gqf_regions_via_ru_sweep`), with the single-source forms of the
  GQF branches beside it (:func:`single_source_gqf_branch_pairs`).  Both
  take a chunk of ``(spec, beta)`` draws and build each destination's
  joints themselves, as broadcast products of the spec's tables, stacked
  over the chunk; each marginal's entropy is its own sum, kept once per
  stack.  From :mod:`hdmarc.dminfo` they take the channel and nothing that
  builds or measures a joint, so production's joints and entropy tables
  are checked, not shared.

The three chunk entries answer as the model entries do, with arrays over
their draws (the GQF bounds as :class:`~hdmarc.core.Bounds`, unclamped),
each entry with the bits of its draw alone; each refuses an empty chunk.
:func:`crossing_offset` gives how far a quantization variance sits from the
crossing of the two GQF sum branches, from the channel's gains and powers,
for one draw.

Mapping between the closed-form terms of :mod:`hdmarc.gaussian` and the
log-det expressions used here (slot-1 model over ``X11, X21, YR, YhR,
Y11``; slot-2 model over ``X12, X22, XR, Y12``; ``i`` is the source, ``j``
the other source):

====================  =========================================================
closed-form term      log-det expression (beta-weighted across slots)
====================  =========================================================
``a(i)``              ``b*I(Xi1; Xj1,Y11,YhR) + (1-b)*I(Xi2; Xj2,XR,Y12)``
``b(i)``              ``b*[I(Xi1; Xj1,Y11) - I(YhR; YR | Xi1,Xj1,Y11)]
                      + (1-b)*I(Xi2,XR; Xj2,Y12)``
``I1``                ``b*I(X11,X21; Y11,YhR) + (1-b)*I(X12,X22; XR,Y12)``
``I2``                ``b*[I(X11,X21; Y11) - I(YhR; YR | X11,X21,Y11)]
                      + (1-b)*I(X12,X22,XR; Y12)``
CF threshold          at ``sigma_q2 = cf_sigma_min``:
                      ``b*[I(YR; YhR) - I(Y11; YhR)] = (1-b)*I(XR; Y12)``
====================  =========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Bounds,
    DimensionMismatch,
    InvalidParams,
    RateRegion,
    SingularCovariance,
    TensorTooLarge,
    UnknownVariable,
    instance_of,
    one_of,
    rate_region,
    read_collection,
    real_array,
    real_number,
    run_chunk,
    validate_beta,
)
from .dminfo import DmChannelSpec, check_names, disjoint_sets
from .gaussian import GaussianMarcParams

#: A conditional variance (squared pivot of the square-root factor) at or
#: below this makes a covariance submatrix singular in log-dets.
PIVOT_TOL = 1e-14

#: Round-off slack below the unit noise floor that an output's variance may
#: show and still pass.
NOISE_FLOOR_SLACK = 1e-9

#: Most channels :func:`closed_forms_via_log_dets` stacks into one QR per
#: model; a longer sequence is cut into chunks of this many, so the stacks of
#: a run of any length stay a few MB.
BATCH_DRAWS = 256

#: Variables that are channel outputs and therefore carry unit noise.
_OUTPUT_NAMES = frozenset({"YR", "YhR", "Y11", "Y21", "Y12", "Y22"})

#: Variable order of the slot-1 model built by :func:`build_covariance`.
SLOT1_ORDER = ("X11", "X21", "YR", "YhR", "Y11")

#: Variable order of the slot-2 model built by :func:`build_covariance`.
SLOT2_ORDER = ("X12", "X22", "XR", "Y12")


@dataclass(frozen=True)
class GaussianVectorModel:
    """A zero-mean jointly Gaussian vector with named coordinates, given by
    a square root ``factor`` = ``A`` of its covariance: one row per name,
    any number of columns, ``cov = A A^T``, which is positive semidefinite
    by construction.  Log-dets are taken from ``A``; :attr:`cov` is derived.

    Construction checks that the names are known and distinct, that the
    factor is a finite real matrix (strings, bools, ragged nesting, NaN and
    inf raise :class:`InvalidParams`) with one row per name
    (:class:`DimensionMismatch` otherwise), and that every output variable
    keeps at least unit variance (the noise floor of the channel model,
    within :data:`NOISE_FLOOR_SLACK`).  The stored factor is a read-only
    copy.
    """

    names: tuple[str, ...]
    factor: np.ndarray

    def __post_init__(self) -> None:
        names = check_names(self.names, "Gaussian model")
        factor = real_array(self.factor, "factor").copy()
        if factor.ndim != 2 or factor.shape[0] != len(names):
            raise DimensionMismatch(
                f"factor shape {factor.shape} does not have one row for each of "
                f"{len(names)} variables"
            )
        _check_factors(names, factor[None])
        factor.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "factor", factor)

    @property
    def cov(self) -> np.ndarray:
        """The covariance ``factor @ factor.T``, read-only."""
        cov = self.factor @ self.factor.T
        cov.flags.writeable = False
        return cov


def _check_factors(names: tuple[str, ...], factors: np.ndarray) -> np.ndarray:
    """``factors``, a stack of square roots over ``names`` (models, rows,
    columns), if each passes the value checks of
    :class:`GaussianVectorModel`: finite, and every output at the unit noise
    floor.  Raises :class:`InvalidParams` for the first model that fails."""
    finite = np.isfinite(factors).all(axis=(1, 2))
    with np.errstate(over="ignore"):  # an infinite variance clears the floor
        variances = (factors**2).sum(axis=2)
    outputs = np.array([name in _OUTPUT_NAMES for name in names], dtype=bool)
    low = outputs & (variances < 1.0 - NOISE_FLOOR_SLACK)
    failing = ~finite | low.any(axis=1)
    if not failing.any():
        return factors
    first = int(failing.argmax())
    if not finite[first]:
        raise InvalidParams("factor has non-finite entries")
    row = int(low[first].argmax())
    raise InvalidParams(
        f"output {names[row]} has variance {variances[first, row].item()!r} below "
        f"the unit noise floor"
    )


def _slot_factors(
    slot: int, channels: Sequence[GaussianMarcParams], sigma_q2: Sequence[float]
) -> np.ndarray:
    """The square root of one slot's model (see :func:`build_covariance`)
    of each of ``channels``, stacked as (channels, rows, columns), with the
    slot-1 quantization variances ``sigma_q2``."""
    h11, h21, h1r, h2r, hr1, p11, p12, p21, p22, pr = np.array(
        [(c.h11, c.h21, c.h1r, c.h2r, c.hr1, c.p11, c.p12, c.p21, c.p22, c.pr) for c in channels]
    ).T
    one, zero = np.ones_like(h11), np.zeros_like(h11)
    if slot == 1:
        loading = [
            [one, zero, zero, zero, zero],
            [zero, one, zero, zero, zero],
            [h1r, h2r, one, zero, zero],
            [h1r, h2r, one, one, zero],
            [h11, h21, zero, zero, one],
        ]
        variances = [p11, p21, one, sigma_q2, one]
    else:
        loading = [
            [one, zero, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, one, zero],
            [h11, h21, hr1, one],
        ]
        variances = [p12, p22, pr, one]
    # (rows, columns, channels) -> (channels, rows, columns), row-major.
    loading = np.moveaxis(np.array(loading), -1, 0)
    return np.ascontiguousarray(loading * np.sqrt(np.array(variances).T)[:, None, :])


def build_covariance(params: GaussianMarcParams, slot: int) -> GaussianVectorModel:
    """Jointly Gaussian model of one slot of the Gaussian channel.

    The covariance is ``L D L^T`` from the channel equations, where the
    loading matrix ``L`` maps the independent primitives (inputs and unit
    noises) to the observed vector and ``D`` holds their variances; the
    model keeps its square root ``L diag(sqrt(D))`` and never forms it:

    * slot 1 (order :data:`SLOT1_ORDER`): primitives ``X11, X21, ZR, ZQ,
      Z11`` with variances ``p11, p21, 1, sigma_q2, 1``; the relay hears
      ``YR = h1r*X11 + h2r*X21 + ZR`` and quantizes it into
      ``YhR = YR + ZQ``; the destination hears
      ``Y11 = h11*X11 + h21*X21 + Z11``.
    * slot 2 (order :data:`SLOT2_ORDER`): primitives ``X12, X22, XR, Z12``
      with variances ``p12, p22, pr, 1``; the destination hears
      ``Y12 = h11*X12 + h21*X22 + hr1*XR + Z12``.

    ``slot`` must be the integer 1 or 2 (a bool or a float is refused).
    """
    instance_of(params, GaussianMarcParams, "params")
    slot = one_of(slot, "slot", (1, 2))
    if slot == 1 and params.sigma_q2 is None:
        raise InvalidParams("slot-1 covariance needs sigma_q2 to be set")
    factors = _slot_factors(slot, [params], [params.sigma_q2])
    return GaussianVectorModel(SLOT1_ORDER if slot == 1 else SLOT2_ORDER, factors[0])


def _read_triples(
    names: tuple[str, ...],
    triples: Iterable[tuple[Iterable[str], Iterable[str], Iterable[str]]],
) -> tuple[list[list[int]], np.ndarray]:
    """Triples (A, B, C) of the coordinates ``names``, each read by
    :func:`~hdmarc.dminfo.disjoint_sets`: the block orders (C, A, B) and
    (C, B) of each, as coordinate indices, and the ends of the blocks C,
    (C, A), (C, A, B) and (C, B), one row each."""
    position = {name: i for i, name in enumerate(names)}
    orders, ends = [], []
    for a, b, c in triples:
        a_set, b_set, c_set = disjoint_sets(a, b, c)
        unknown = (a_set | b_set | c_set).difference(position)
        if unknown:
            raise UnknownVariable(
                f"variables {sorted(unknown)} are not part of this model over {names}"
            )
        if sorted(b_set) < sorted(a_set):  # I(A; B | C) = I(B; A | C): one order
            a_set, b_set = b_set, a_set
        ia, ib, ic = (
            sorted(position[name] for name in s) for s in (a_set, b_set, c_set)
        )
        orders += [ic + ia + ib, ic + ib]
        nc, na, nb = len(ic), len(ia), len(ib)
        ends.append((nc, nc + na, nc + na + nb, nc + nb))
    return orders, np.array(ends, dtype=int).reshape(-1, 4).T


def _log2dets(
    factors: np.ndarray, names: tuple[str, ...], orders: list[list[int]]
) -> np.ndarray:
    """Log2 determinants of covariance submatrices along orders of the
    coordinates, for a stack of square roots over ``names`` (models, rows,
    columns): entry ``[m, o, j]`` is the log-det of model ``m`` on the
    first ``j`` coordinates (indices) of ``orders[o]``, and 0 for ``j = 0``.

    With ``A`` the factor rows of an order and ``A^T = QR``, the submatrix
    on the first j rows is ``R_j^T R_j`` for the leading j x j block ``R_j``
    of ``R``, so its log-det is ``2 * sum(log2 |R_ii|)`` over i < j.  This
    square-root form never forms a submatrix, whose determinant cancels
    catastrophically when a quantizer variance is tiny (Golub & Van Loan,
    *Matrix Computations*, ch. 5); ``R_ii**2`` is the variance of a
    coordinate given the ones before it.  Rows appended after the first j
    do not change ``R_j``, so every order is padded with the model's other
    coordinates, and all orders of all models share one stacked QR.  The
    first model, then the first order, with a singular leading block raises
    :class:`SingularCovariance`.
    """
    count, n, columns = factors.shape
    sizes = [len(order) for order in orders]
    if not any(sizes):
        return np.zeros((count, len(orders), 1))
    if columns < n:  # a low-rank square root: its missing columns are 0
        factors = np.concatenate([factors, np.zeros((count, n, n - columns))], axis=2)
    rows = [order + [i for i in range(n) if i not in order] for order in orders]
    # mode="raw" stores each R transposed; its diagonal is R's.
    stack = factors[:, rows].swapaxes(2, 3)
    pivots = np.abs(np.linalg.qr(stack, mode="raw")[0].diagonal(axis1=2, axis2=3))
    leading = np.arange(n) < np.array(sizes)[:, None]
    smallest = np.where(leading, pivots, np.inf).min(axis=2)
    singular = np.argwhere(smallest**2 <= PIVOT_TOL)
    if len(singular):
        model, order = singular[0]
        low = smallest[model, order].item()
        raise SingularCovariance(
            f"covariance of {sorted(names[i] for i in orders[order])} is "
            f"numerically singular (conditional variance {low**2!r})"
        )
    with np.errstate(divide="ignore"):  # a zero pivot past an order is never read
        steps = 2.0 * np.log2(pivots)
    return np.concatenate([np.zeros((count, len(orders), 1)), np.cumsum(steps, axis=2)], axis=2)


def _mis(factors: np.ndarray, names: tuple[str, ...], triples: tuple) -> np.ndarray:
    """I(A; B | C) in bits for each model of a stack of square roots over
    ``names`` and each of ``triples`` (:func:`_read_triples`), as (models,
    triples), from one stacked QR: (1/2) * [log2 det S_AC + log2 det S_BC -
    log2 det S_C - log2 det S_ABC] on covariance submatrices, read along the
    orders (C, A, B) and (C, B)."""
    orders, (c_end, ac_end, abc_end, bc_end) = triples
    logs = _log2dets(factors, names, orders)
    first = np.arange(0, len(orders), 2)  # the (C, A, B) order of each triple
    log_c, log_ac, log_abc = (logs[:, first, end] for end in (c_end, ac_end, abc_end))
    log_bc = logs[:, first + 1, bc_end]
    return 0.5 * (log_ac + log_bc - log_c - log_abc)


def gaussian_mi(
    model: GaussianVectorModel,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits, by log-dets: the
    one-model, one-triple case of the arithmetic
    :func:`closed_forms_via_log_dets` stacks."""
    instance_of(model, GaussianVectorModel, "model")
    triples = _read_triples(model.names, [(a, b, c)])
    return _mis(model.factor[None], model.names, triples).item()


def _term_triples() -> dict[str, tuple[list, tuple]]:
    """Each GQF term's slot-1 triples (a difference if two) and slot-2
    triple, as in the table above; x are the inputs of the sources whose
    rate it bounds, w those of the other."""
    layout = {}
    for plain, indexed, own, other in (
        ("a(1)", "b(1)", "1", "2"), ("a(2)", "b(2)", "2", "1"), ("I1", "I2", "12", "")
    ):
        x1, w1 = {f"X{i}1" for i in own}, {f"X{i}1" for i in other}
        x2, w2 = {f"X{i}2" for i in own}, {f"X{i}2" for i in other}
        layout[plain] = [(x1, w1 | {"Y11", "YhR"}, ())], (x2, w2 | {"XR", "Y12"}, ())
        layout[indexed] = (
            [(x1, w1 | {"Y11"}, ()), ({"YhR"}, {"YR"}, x1 | w1 | {"Y11"})],
            (x2 | {"XR"}, w2 | {"Y12"}, ()),
        )
    return layout


_TERM_TRIPLES = _term_triples()

#: The three models of :func:`closed_forms_via_log_dets` and their triples,
#: read once: slot 1 at the drawn sigma_q2, slot 2 (with I(XR; Y12) last),
#: and slot 1 at the CF threshold.
_SLOT1_TRIPLES = _read_triples(
    SLOT1_ORDER, [triple for slot1, _ in _TERM_TRIPLES.values() for triple in slot1]
)
_SLOT2_TRIPLES = _read_triples(
    SLOT2_ORDER, [slot2 for _, slot2 in _TERM_TRIPLES.values()] + [({"XR"}, {"Y12"}, ())]
)
_THRESHOLD_TRIPLES = _read_triples(
    SLOT1_ORDER, [({"YR"}, {"YhR"}, ()), ({"Y11"}, {"YhR"}, ())]
)


def _closed_forms(draws: list[tuple]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """:func:`closed_forms_via_log_dets` on one chunk, one stacked QR per
    model.  Its checks run in the order one draw's would (the channel, the
    slot-1 and slot-2 factors, their QRs, the threshold, its factors and
    QR), each over all draws of the chunk."""
    channels = [instance_of(params, GaussianMarcParams, "params") for params, _ in draws]
    sigma_q2 = [params.sigma_q2 for params in channels]
    if None in sigma_q2:
        raise InvalidParams("slot-1 covariance needs sigma_q2 to be set")
    slot1 = _check_factors(SLOT1_ORDER, _slot_factors(1, channels, sigma_q2))
    slot2 = _check_factors(SLOT2_ORDER, _slot_factors(2, channels, sigma_q2))
    mi1 = iter(_mis(slot1, SLOT1_ORDER, _SLOT1_TRIPLES).T)
    mi2 = iter(_mis(slot2, SLOT2_ORDER, _SLOT2_TRIPLES).T)
    sigma_min = [
        real_number(sigma, "quantization variance", rule="finite and positive")
        for _, sigma in draws
    ]
    at_min = _check_factors(SLOT1_ORDER, _slot_factors(1, channels, sigma_min))
    quant, side = _mis(at_min, SLOT1_ORDER, _THRESHOLD_TRIPLES).T
    b = np.array([params.beta for params in channels])
    comp = 1.0 - b
    terms = {}
    for name, (slot1_triples, _) in _TERM_TRIPLES.items():
        s1 = next(mi1) if len(slot1_triples) == 1 else next(mi1) - next(mi1)
        terms[name] = b * s1 + comp * next(mi2)
    return terms, b * (quant - side) - comp * next(mi2)


def _draw(value) -> tuple:
    """``value`` if it is a pair ``(params, sigma_min)``."""
    if isinstance(value, tuple) and len(value) == 2:
        return value
    raise InvalidParams(f"a draw must be a pair (params, sigma_min), got {type(value).__name__}")


def closed_forms_via_log_dets(
    draws: Iterable[tuple[GaussianMarcParams, float]],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """For the draws ``(params, sigma_min)``: the six GQF terms of the table
    above at ``params.sigma_q2``, and the CF binning excess ``b*[I(YR; YhR)
    - I(Y11; YhR)] - (1-b)*I(XR; Y12)`` at ``sigma_q2 = sigma_min`` (zero at
    the threshold), by log-dets, as ``(terms, excess)``: each value an array
    over the draws.

    The draws are evaluated in chunks of at most :data:`BATCH_DRAWS`, each
    with three stacked QRs (slot 1 at ``sigma_q2``, slot 2, slot 1 at
    ``sigma_min``), and every entry has the same bits as a chunk of its
    draw alone.  A draw that fails raises the error it raises alone, and
    the first such draw in order is the one reported; no draws at all raise
    :class:`InvalidParams`.
    """
    draws = read_collection(draws, "draws", _draw, list)
    if not draws:
        raise InvalidParams("draws must hold at least one (params, sigma_min) pair")
    # The checks run stage by stage over a chunk, so its first error may be
    # a later draw's: run_chunk raises the first failing draw's.
    chunks = [
        run_chunk(draws[start : start + BATCH_DRAWS], _closed_forms)
        for start in range(0, len(draws), BATCH_DRAWS)
    ]
    terms = {name: np.concatenate([t[name] for t, _ in chunks]) for name in _TERM_TRIPLES}
    return terms, np.concatenate([excess for _, excess in chunks])


def crossing_offset(params: GaussianMarcParams, sigma: float) -> float:
    """Distance from ``sigma`` to the crossing of the GQF sum branches,
    relative to ``sigma``: one Newton step in log(sigma) on the forward gap
    I1 - I2, written as b*log1p(q) - (1-b)*log1p(link/S2) with q = (S1 +
    view) / (S1 * sigma), from the gains and powers of ``params``.  It
    shares no code with the expm1 closed form of the threshold and stays
    accurate to a few ulps at any scale of sigma.  ``params`` must be a
    channel and ``sigma`` finite and positive (:class:`InvalidParams`)."""
    p = instance_of(params, GaussianMarcParams, "params")
    sigma = real_number(sigma, "quantization variance", rule="finite and positive")
    b = p.beta
    s1 = 1.0 + p.h11**2 * p.p11 + p.h21**2 * p.p21  # slot-1 destination power
    s2 = 1.0 + p.h11**2 * p.p12 + p.h21**2 * p.p22  # slot 2, relay excluded
    # The source pair's power as the relay's slot-1 observation sees it.
    cross = (p.h11 * p.h2r - p.h1r * p.h21) ** 2
    view = cross * p.p11 * p.p21 + p.h1r**2 * p.p11 + p.h2r**2 * p.p21
    q = (s1 + view) / (s1 * sigma)
    gap = b * math.log1p(q) - (1.0 - b) * math.log1p(p.hr1**2 * p.pr / s2)
    slope = -b * q / (1.0 + q)  # sigma * d(gap)/d(sigma)
    return gap / slope


#: Most cells one joint of the finite-alphabet checks may hold, per spec: as
#: many as a joint of :mod:`hdmarc.dminfo` may, so a channel the production
#: entry takes is never refused here.
MAX_JOINT_CELLS = 2**18

#: The finite-alphabet checks stack specs whose joints differ in shape by
#: zero-padding each axis to the stack's longest, while every axis is
#: shorter than this; a spec with a longer axis stacks only with specs of its
#: own shapes.  Every sum runs over one axis at a time, and below 8 letters
#: numpy adds an axis in order, so padded zeros leave each value the bits of
#: its spec alone.
_PAD_BELOW = 8

#: Most cells of one stack of padded joints, unless it holds one spec.
_STACK_CELLS = 2**21


def _dm_draw(value) -> tuple:
    """``value`` if it is a pair ``(spec, beta)``."""
    if isinstance(value, tuple) and len(value) == 2:
        return value
    raise InvalidParams(f"a draw must be a pair (spec, beta), got {type(value).__name__}")


def _dm_draws(draws) -> tuple[list, np.ndarray]:
    """The specs and slot fractions of ``draws``, pairs ``(spec, beta)``
    read in order, each beta then spec; no draws raise
    :class:`InvalidParams`."""
    specs, betas = [], []
    for spec, beta in read_collection(draws, "draws", _dm_draw, list):
        betas.append(validate_beta(beta, allow_array=False))
        specs.append(instance_of(spec, DmChannelSpec, "spec"))
    if not specs:
        raise InvalidParams("draws must hold at least one (spec, beta) pair")
    return specs, np.array(betas)


def _stack(arrays: list) -> np.ndarray:
    """``arrays`` zero-padded to their longest length on each axis and
    stacked on a new first axis."""
    stack = np.zeros((len(arrays), *np.max([array.shape for array in arrays], axis=0)))
    for row, array in zip(stack, arrays):
        row[tuple(slice(size) for size in array.shape)] = array
    return stack


def _joints(specs: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Destination ``k``'s joints of ``specs``, stacked and zero-padded:
    p(x11) p(x21) p(yR, yk1 | x11, x21) p(yhR | yR) over (X11, X21, YR, Yk1,
    YhR) and p(x12) p(x22) p(xR) p(yk2 | x12, x22, xR) over (X12, X22, XR,
    Yk2), products of the spec's tables, the other destination's output
    summed out of each slot's transition."""
    # Yk1 and Yk2 are axis 2 + k of slot1 and of slot2; the other's is 5 - k.
    px11, px21, px12, px22, pxr = (
        _stack([getattr(spec, name) for spec in specs])
        for name in ("px11", "px21", "px12", "px22", "pxr")
    )
    slot1 = _stack([spec.slot1.sum(axis=5 - k) for spec in specs])
    slot2 = _stack([spec.slot2.sum(axis=5 - k) for spec in specs])
    quantizer = _stack([spec.test_channel for spec in specs])
    slot1_joint = (
        px11[:, :, None, None, None, None]
        * px21[:, None, :, None, None, None]
        * slot1[..., None]
        * quantizer[:, None, None, :, None, :]
    )
    slot2_joint = (
        px12[:, :, None, None, None] * px22[:, None, :, None, None] * pxr[:, None, None, :, None]
    ) * slot2
    return slot1_joint, slot2_joint


def _information(names: tuple[str, ...], joints: np.ndarray):
    """I(A; B | C) in bits of each joint of the stack ``joints`` (one axis
    per name after the first), as [H(A,C) - H(C)] - [H(A,B,C) - H(B,C)]:
    each marginal's entropy -sum(p log2 p) over its positive cells is summed
    on its own, from the joint, one axis at a time, and kept for the
    stack."""
    entropies: dict[frozenset, np.ndarray] = {}

    def entropy(kept: frozenset) -> np.ndarray:
        if kept not in entropies:
            marginal = joints
            for axis in range(len(names), 0, -1):
                if names[axis - 1] not in kept:
                    marginal = marginal.sum(axis=axis)
            plogp = marginal * np.log2(marginal, where=marginal > 0.0, out=np.zeros_like(marginal))
            for axis in range(plogp.ndim - 1, 0, -1):
                plogp = plogp.sum(axis=axis)
            entropies[kept] = -plogp
        return entropies[kept]

    def mi(a: set, b: set, c: set = frozenset()) -> np.ndarray:
        return (entropy(frozenset(a | c)) - entropy(frozenset(c))) - (
            entropy(frozenset(a | b | c)) - entropy(frozenset(b | c))
        )

    return mi


def _destination_terms(specs: list, betas: np.ndarray, k: int, terms) -> dict[str, np.ndarray]:
    """``terms(mi1, mi2, k, b)`` at destination ``k`` of ``specs``, each
    value an array over them: ``mi1`` and ``mi2`` give the mutual
    informations of its slot-1 and slot-2 joints (:func:`_joints`,
    :func:`_information`) and ``b`` its slot fractions in ``betas``, each
    an array over a stack of specs.  A spec whose joint would pass
    :data:`MAX_JOINT_CELLS` raises :class:`TensorTooLarge`."""
    shapes = []
    for spec in specs:
        yr, yhr = spec.test_channel.shape
        slot1 = spec.slot1.shape[:2] + (yr, spec.slot1.shape[2 + k], yhr)
        slot2 = spec.slot2.shape[:3] + (spec.slot2.shape[2 + k],)
        for slot, shape in ((1, slot1), (2, slot2)):
            if math.prod(shape) > MAX_JOINT_CELLS:
                raise TensorTooLarge(
                    f"the slot-{slot} joint of destination {k} would hold "
                    f"{math.prod(shape)} cells; the cap is {MAX_JOINT_CELLS}"
                )
        shapes.append(slot1 + slot2)
    groups: dict[tuple, list[int]] = {}
    for position, shape in enumerate(shapes):
        groups.setdefault(shape if max(shape) >= _PAD_BELOW else (), []).append(position)
    names1 = ("X11", "X21", "YR", f"Y{k}1", "YhR")
    names2 = ("X12", "X22", "XR", f"Y{k}2")
    columns: dict[str, np.ndarray] = {}
    for positions in groups.values():
        longest = np.max([shapes[i] for i in positions], axis=0)
        cells = max(math.prod(longest[:5].tolist()), math.prod(longest[5:].tolist()))
        count = max(1, _STACK_CELLS // cells)
        for start in range(0, len(positions), count):
            stack = positions[start : start + count]
            joint1, joint2 = _joints([specs[i] for i in stack], k)
            mi1, mi2 = _information(names1, joint1), _information(names2, joint2)
            for name, value in terms(mi1, mi2, k, betas[stack]).items():
                columns.setdefault(name, np.empty(len(specs)))[stack] = value
    return columns


def _raw_terms(mi1, mi2, k: int, b) -> dict:
    """R_U and the right-hand sides at destination k: source i (or both)
    with the quantization index as known noise, and with it decoded."""
    comp = 1.0 - b
    yk1, yk2 = f"Y{k}1", f"Y{k}2"
    terms = {"R_U": b * mi1({"YR"}, {"YhR"})}
    for i, j in ((1, 2), (2, 1)):
        xi1, xj1, xi2, xj2 = f"X{i}1", f"X{j}1", f"X{i}2", f"X{j}2"
        terms[f"r{i}_plain"] = b * mi1({xi1}, {xj1, yk1, "YhR"}) + comp * mi2(
            {xi2}, {xj2, "XR", yk2}
        )
        terms[f"r{i}_with_index"] = b * (
            mi1({xi1, "YhR"}, {xj1, yk1}) + mi1({xi1}, {"YhR"})
        ) + comp * mi2({xi2, "XR"}, {xj2, yk2})
    terms["sum_plain"] = b * mi1({"X11", "X21"}, {yk1, "YhR"}) + comp * mi2(
        {"X12", "X22"}, {"XR", yk2}
    )
    terms["sum_with_index"] = b * (
        mi1({"X11", "X21", "YhR"}, {yk1}) + mi1({"X11", "X21"}, {"YhR"})
    ) + comp * mi2({"X12", "X22", "XR"}, {yk2})
    return terms


def gqf_regions_via_ru_sweep(
    draws: Iterable[tuple[DmChannelSpec, float]],
) -> dict[str, Bounds]:
    """The GQF bounds ``{"marc": ..., "cmacr": ...}`` of the draws ``(spec,
    beta)`` from the raw inequalities, unclamped, each value an array over
    the draws.

    The joint-decoding analysis yields six inequalities per destination in
    which the quantization-codebook rate ``R_U`` appears additively on the
    left of three of them; the covering lemma pins ``R_U = beta * I(YR;
    YhR)``.  This evaluates all six right-hand sides at each destination k,
    from joints and entropies of its own (:func:`_destination_terms`), and
    subtracts ``R_U`` where it belongs, instead of using the algebraically
    simplified bounds of :mod:`hdmarc.dmregions` — so agreement between the
    two is a real consistency check of that simplification.  "marc" is
    destination 1, its raw quantities kept as ``terms``.  "cmacr" takes the
    worst raw bounds over the destinations that hear anything (not both
    outputs one-letter; :class:`InvalidParams` if none does), their
    quantities suffixed ``_k``.  Both are feasible and carry no ``sigma``.
    The draws are read first, each beta then spec, in order; no draws, and
    draws that hear different destinations, raise :class:`InvalidParams`.
    """
    specs, betas = _dm_draws(draws)
    # Yk1 and Yk2 are axis 2 + k of slot1 and of slot2.
    hearing = [
        tuple(k for k in (1, 2) if spec.slot1.shape[2 + k] > 1 or spec.slot2.shape[2 + k] > 1)
        for spec in specs
    ]
    for position, heard in enumerate(hearing):
        if not heard:
            raise InvalidParams("no destination output has more than one letter")
        if heard != hearing[0]:
            raise InvalidParams(
                f"the draws must hear the same destinations; draws[0] hears {hearing[0]} "
                f"and draws[{position}] hears {heard}"
            )
    heard = hearing[0]
    raw = {k: _destination_terms(specs, betas, k, _raw_terms) for k in sorted({1, *heard})}
    bounds = {  # (r1, r2, sum) per destination, R_U eliminated
        k: [
            np.minimum(t[f"{n}_plain"], t[f"{n}_with_index"] - t["R_U"])
            for n in ("r1", "r2", "sum")
        ]
        for k, t in raw.items()
    }
    worst = [np.min(column, axis=0) for column in zip(*(bounds[k] for k in heard))]
    suffixed = {f"{name}_{k}": raw[k][name] for k in heard for name in raw[k]}
    return {
        "marc": Bounds(*bounds[1], True, None, raw[1]),
        "cmacr": Bounds(*worst, True, None, suffixed),
    }


def gqf_region_via_ru_sweep(spec: DmChannelSpec, beta: float) -> dict[str, RateRegion]:
    """The GQF regions of one spec from the raw inequalities: draw 0 of
    :func:`gqf_regions_via_ru_sweep`, clamped by
    :func:`~hdmarc.core.rate_region`."""
    regions = {}
    for topology, (r1, r2, rsum, _, _, terms) in gqf_regions_via_ru_sweep([(spec, beta)]).items():
        raw = {name: value[0] for name, value in terms.items()}
        regions[topology] = rate_region(Bounds(r1[0], r2[0], rsum[0], True, None, raw))
    return regions


def _single_source_terms(mi1, mi2, k: int, b) -> dict:
    """Source 1's two GQF branches in their single-source forms."""
    comp = 1.0 - b
    return {
        "plain": b * mi1({"X11"}, {"Y11", "YhR"}) + comp * mi2({"X12"}, {"Y12"}, {"XR"}),
        "with_index": b * (mi1({"X11"}, {"Y11"}) - mi1({"YhR"}, {"YR"}, {"X11", "Y11"}))
        + comp * mi2({"X12", "XR"}, {"Y12"}),
    }


def single_source_gqf_branch_pairs(
    draws: Iterable[tuple[DmChannelSpec, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """For the draws ``(spec, beta)`` of channels whose source 2 is
    degenerate: source 1's two GQF branches at destination 1 in their
    single-source forms, ``(plain, with_index)``, each an array over the
    draws, the quantization index as noise and decoded, ``b*I(X11;
    Y11,YhR) + (1-b)*I(X12; Y12 | XR)`` and ``b*[I(X11; Y11) - I(YhR; YR |
    X11,Y11)] + (1-b)*I(X12,XR; Y12)``, from joints and entropies of its own
    (:func:`_destination_terms`).  No draws raise :class:`InvalidParams`."""
    terms = _destination_terms(*_dm_draws(draws), 1, _single_source_terms)
    return terms["plain"], terms["with_index"]
