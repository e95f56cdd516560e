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
  topologies, from the joints of one spec, in which the codebook
  rate appears explicitly and is eliminated at its minimum ``R_U = beta *
  I(YR; YhR)`` (:func:`gqf_region_via_ru_sweep`), with the single-source
  forms of the GQF branches beside it (:func:`single_source_gqf_branches`).

:func:`crossing_offset` gives how far a quantization variance sits from the
crossing of the two GQF sum branches, from the channel's gains and powers.

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
    DimensionMismatch,
    HdmarcError,
    InvalidParams,
    RateRegion,
    SingularCovariance,
    UnknownVariable,
    clamp_region,
    instance_of,
    one_of,
    read_collection,
    real_array,
    real_number,
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


def _triple(value) -> tuple:
    """``value`` if it is a triple ``(a, b, c)``."""
    if isinstance(value, tuple) and len(value) == 3:
        return value
    raise InvalidParams(f"triples must hold (a, b, c) tuples, got {value!r}")


def _read_triples(
    names: tuple[str, ...],
    triples: Iterable[tuple[Iterable[str], Iterable[str], Iterable[str]]],
) -> tuple[list[list[int]], np.ndarray]:
    """Triples (A, B, C) of the coordinates ``names``, read once by
    :func:`~hdmarc.core.read_collection`: the block orders (C, A, B) and
    (C, B) of each, as coordinate indices, and the ends of the blocks C,
    (C, A), (C, A, B) and (C, B), one row each."""
    position = {name: i for i, name in enumerate(names)}
    orders, ends = [], []
    for a, b, c in read_collection(triples, "triples", _triple):
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


def gaussian_mis(
    model: GaussianVectorModel,
    triples: Iterable[tuple[Iterable[str], Iterable[str], Iterable[str]]],
) -> list[float]:
    """Conditional mutual informations I(A; B | C) in bits, one per
    ``(a, b, c)`` triple, by log-dets from one stacked QR: the one-model
    case of the arithmetic :func:`closed_forms_via_log_dets` stacks."""
    instance_of(model, GaussianVectorModel, "model")
    triples = _read_triples(model.names, triples)
    if not triples[0]:
        return []
    return _mis(model.factor[None], model.names, triples)[0].tolist()


def gaussian_mi(
    model: GaussianVectorModel,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits, by log-dets: the
    one-triple case of :func:`gaussian_mis`."""
    return gaussian_mis(model, [(a, b, c)])[0]


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


def _closed_forms(draws: list[tuple]) -> list[tuple[dict[str, float], float]]:
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
    excess = b * (quant - side) - comp * next(mi2)
    return [
        (dict(zip(terms, row)), value)
        for row, value in zip(np.array(list(terms.values())).T.tolist(), excess.tolist())
    ]


def _draw(value) -> tuple:
    """``value`` if it is a pair ``(params, sigma_min)``."""
    if isinstance(value, tuple) and len(value) == 2:
        return value
    raise InvalidParams(f"a draw must be a pair (params, sigma_min), got {type(value).__name__}")


def closed_forms_via_log_dets(
    draws: Iterable[tuple[GaussianMarcParams, float]],
) -> list[tuple[dict[str, float], float]]:
    """For each draw ``(params, sigma_min)``: the six GQF terms of the table
    above at ``params.sigma_q2``, and the CF binning excess ``b*[I(YR; YhR)
    - I(Y11; YhR)] - (1-b)*I(XR; Y12)`` at ``sigma_q2 = sigma_min`` (zero at
    the threshold), by log-dets, as ``(terms, excess)``.

    The draws are evaluated in chunks of at most :data:`BATCH_DRAWS`, each
    with three stacked QRs (slot 1 at ``sigma_q2``, slot 2, slot 1 at
    ``sigma_min``), and every value has the same bits as a chunk of one
    draw.  A draw that fails raises the error it raises alone, and the
    first such draw in order is the one reported.
    """
    draws = read_collection(draws, "draws", _draw, list)
    evaluated = []
    for start in range(0, len(draws), BATCH_DRAWS):
        chunk = draws[start : start + BATCH_DRAWS]
        try:
            evaluated += _closed_forms(chunk)
        except HdmarcError:
            # The checks ran stage by stage over the chunk, so this may be a
            # later draw's error: the first draw that fails alone raises its
            # own.  If none before the last does, the last draw is the only
            # one that fails, and this is its error.
            for draw in chunk[:-1]:
                _closed_forms([draw])
            raise
    return evaluated


def crossing_offset(params: GaussianMarcParams, sigma: float) -> float:
    """Distance from ``sigma`` to the crossing of the GQF sum branches,
    relative to ``sigma``: one Newton step in log(sigma) on the forward gap
    I1 - I2, written as b*log1p(q) - (1-b)*log1p(link/S2) with q = (S1 +
    view) / (S1 * sigma), from the gains and powers of ``params``.  It
    shares no code with the expm1 closed form of the threshold and stays
    accurate to a few ulps at any scale of sigma."""
    p, b = params, params.beta
    s1 = 1.0 + p.h11**2 * p.p11 + p.h21**2 * p.p21  # slot-1 destination power
    s2 = 1.0 + p.h11**2 * p.p12 + p.h21**2 * p.p22  # slot 2, relay excluded
    # The source pair's power as the relay's slot-1 observation sees it.
    cross = (p.h11 * p.h2r - p.h1r * p.h21) ** 2
    view = cross * p.p11 * p.p21 + p.h1r**2 * p.p11 + p.h2r**2 * p.p21
    q = (s1 + view) / (s1 * sigma)
    gap = b * math.log1p(q) - (1.0 - b) * math.log1p(p.hr1**2 * p.pr / s2)
    slope = -b * q / (1.0 + q)  # sigma * d(gap)/d(sigma)
    return gap / slope


def gqf_region_via_ru_sweep(spec: DmChannelSpec, beta: float) -> dict[str, RateRegion]:
    """GQF regions ``{"marc": ..., "cmacr": ...}`` from the raw inequalities.

    The joint-decoding analysis yields six inequalities per destination in
    which the quantization-codebook rate ``R_U`` appears additively on the
    left of three of them; the covering lemma pins ``R_U = beta * I(YR;
    YhR)``.  This helper evaluates all six right-hand sides at each
    destination, from the joints of the spec
    (:attr:`~hdmarc.dminfo.DmChannelSpec.joints`), and subtracts ``R_U``
    where it belongs, instead of using the algebraically simplified bounds of
    :mod:`hdmarc.dmregions` — so agreement between the two is a real
    consistency check of that simplification.  "marc" is destination 1, its
    raw quantities kept as ``terms``.  "cmacr" clamps the worst raw bounds
    over the destinations that hear anything (not both outputs one-letter;
    :class:`InvalidParams` if none does), their quantities suffixed ``_k``.
    """
    b = validate_beta(beta, allow_array=False)
    joints = instance_of(spec, DmChannelSpec, "spec").joints
    sizes = [dict(zip(joint.names(), joint.probs.shape)) for joint in joints]
    hearing = [k for k in (1, 2) if sizes[0][f"Y{k}1"] > 1 or sizes[1][f"Y{k}2"] > 1]
    if not hearing:
        raise InvalidParams("no destination output has more than one letter")
    mi1, mi2 = (joint.mutual_information for joint in joints)
    comp = 1.0 - b
    r_u = b * mi1({"YR"}, {"YhR"})

    def raw_terms(k: int) -> dict[str, float]:
        """R_U and the right-hand sides at destination k: source i (or both)
        with the quantization index as known noise, and with it decoded."""
        yk1, yk2 = f"Y{k}1", f"Y{k}2"
        terms = {"R_U": r_u}
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

    raw = {k: raw_terms(k) for k in sorted({1, *hearing})}
    bounds = {  # (r1, r2, sum) per destination, R_U eliminated
        k: [min(t[f"{n}_plain"], t[f"{n}_with_index"] - r_u) for n in ("r1", "r2", "sum")]
        for k, t in raw.items()
    }
    worst = [min(column) for column in zip(*(bounds[k] for k in hearing))]
    suffixed = {f"{name}_{k}": raw[k][name] for k in hearing for name in raw[k]}
    return {
        "marc": clamp_region(*bounds[1], feasible=True, terms=raw[1]),
        "cmacr": clamp_region(*worst, feasible=True, terms=suffixed),
    }


def single_source_gqf_branches(spec: DmChannelSpec, beta: float) -> tuple[float, float]:
    """Source 1's two GQF branches at destination 1 of a channel whose
    source 2 is degenerate, in their single-source forms: ``(plain,
    with_index)``, the quantization index as noise and decoded,
    ``b*I(X11; Y11,YhR) + (1-b)*I(X12; Y12 | XR)`` and ``b*[I(X11; Y11) -
    I(YhR; YR | X11,Y11)] + (1-b)*I(X12,XR; Y12)``, from the joints of the
    spec."""
    b = validate_beta(beta, allow_array=False)
    joints = instance_of(spec, DmChannelSpec, "spec").joints
    mi1, mi2 = (joint.mutual_information for joint in joints)
    plain = b * mi1({"X11"}, {"Y11", "YhR"}) + (1.0 - b) * mi2({"X12"}, {"Y12"}, {"XR"})
    with_index = b * (
        mi1({"X11"}, {"Y11"}) - mi1({"YhR"}, {"YR"}, {"X11", "Y11"})
    ) + (1.0 - b) * mi2({"X12", "XR"}, {"Y12"})
    return plain, with_index
