"""Independent verification paths for the production rate formulas.

Nothing here shares formula code with :mod:`hdmarc.gaussian` or
:mod:`hdmarc.dmregions`.  Two checkers are provided:

* a jointly-Gaussian vector model per slot, built straight from the channel
  equations as loading matrices, with mutual informations evaluated through
  log-determinants of covariance submatrices; and
* an evaluator of the raw joint-decoding inequality system in which the
  quantization-codebook rate appears explicitly and is then eliminated at
  its covering-lemma minimum (``R_U = beta * I(YR; YhR)``).

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

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional

import numpy as np

from .core import (
    DimensionMismatch,
    InvalidParams,
    OverlappingSets,
    RateRegion,
    SingularCovariance,
    UnknownVariable,
    clamp_region,
    validate_beta,
)
from .dminfo import VAR_NAMES, DmChannelSpec, build_slot1_joint, build_slot2_joint
from .dminfo import mutual_information as dm_mi
from .gaussian import GaussianMarcParams

#: Covariance matrices must be symmetric within this absolute tolerance.
SYM_TOL = 1e-12

#: Most negative admissible eigenvalue of a covariance matrix.
PSD_TOL = 1e-9

#: A conditional variance (squared pivot of the square-root factor) at or
#: below this makes a covariance submatrix singular in log-dets.
PIVOT_TOL = 1e-14

#: Variables that are channel outputs and therefore carry unit noise.
_OUTPUT_NAMES = frozenset({"YR", "YhR", "Y11", "Y21", "Y12", "Y22"})

#: Variable order of the slot-1 covariance built by :func:`build_covariance`.
SLOT1_ORDER = ("X11", "X21", "YR", "YhR", "Y11")

#: Variable order of the slot-2 covariance built by :func:`build_covariance`.
SLOT2_ORDER = ("X12", "X22", "XR", "Y12")


@dataclass(frozen=True)
class GaussianVectorModel:
    """A zero-mean jointly Gaussian vector with named coordinates.

    Construction validates symmetry, positive semidefiniteness (within
    :data:`PSD_TOL`), and that every output variable keeps at least unit
    variance (the noise floor of the channel model).  ``factor`` is a
    square root ``A`` of the covariance (``cov = A A^T``), one row per
    coordinate; log-dets are taken from it, never from ``cov``.  When it is
    not given, it is built from the eigendecomposition of ``cov``.
    """

    names: tuple[str, ...]
    cov: np.ndarray
    factor: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        names = tuple(self.names)
        for name in names:
            if name not in VAR_NAMES:
                raise UnknownVariable(
                    f"unknown variable name {name!r}; expected one of "
                    f"{sorted(VAR_NAMES)}"
                )
        if len(set(names)) != len(names):
            raise InvalidParams(f"duplicate variable names: {names}")
        cov = np.asarray(self.cov, dtype=np.float64)
        n = len(names)
        if cov.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match {n} variables"
            )
        if n and float(np.abs(cov - cov.T).max()) > SYM_TOL:
            raise InvalidParams("covariance matrix is not symmetric")
        if n:
            smallest = float(np.linalg.eigvalsh(cov).min())
            if smallest < -PSD_TOL:
                raise InvalidParams(
                    f"covariance matrix is not positive semidefinite "
                    f"(eigenvalue {smallest!r})"
                )
        for index, name in enumerate(names):
            if name in _OUTPUT_NAMES and cov[index, index] < 1.0 - PSD_TOL:
                raise InvalidParams(
                    f"output {name} has variance {cov[index, index]!r} below "
                    f"the unit noise floor"
                )
        if self.factor is None:
            eigs, vecs = np.linalg.eigh(cov)
            factor = vecs * np.sqrt(np.clip(eigs, 0.0, None))
        else:
            factor = np.array(self.factor, dtype=np.float64)
            variances = np.diag(cov)
            if factor.ndim != 2 or factor.shape[0] != n or np.any(
                np.abs((factor**2).sum(axis=1) - variances) > 1e-12 * variances
            ):
                raise InvalidParams("factor does not reproduce the variances")
        cov = cov.copy()
        for array in (cov, factor):
            array.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "factor", factor)


def build_covariance(params: GaussianMarcParams, slot: int) -> GaussianVectorModel:
    """Joint covariance of one slot of the Gaussian channel.

    Built as ``L D L^T`` from the channel equations, where the loading
    matrix ``L`` maps the independent primitives (inputs and unit noises)
    to the observed vector, and kept with its square root
    ``L diag(sqrt(D))`` as the model's ``factor``:

    * slot 1 (order :data:`SLOT1_ORDER`): primitives ``X11, X21, ZR, ZQ,
      Z11`` with variances ``p11, p21, 1, sigma_q2, 1``; the relay hears
      ``YR = h1r*X11 + h2r*X21 + ZR`` and quantizes it into
      ``YhR = YR + ZQ``; the destination hears
      ``Y11 = h11*X11 + h21*X21 + Z11``.
    * slot 2 (order :data:`SLOT2_ORDER`): primitives ``X12, X22, XR, Z12``
      with variances ``p12, p22, pr, 1``; the destination hears
      ``Y12 = h11*X12 + h21*X22 + hr1*XR + Z12``.
    """
    if slot == 1:
        sigma = params.sigma_q2
        if sigma is None:
            raise InvalidParams("slot-1 covariance needs sigma_q2 to be set")
        loading = np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [params.h1r, params.h2r, 1.0, 0.0, 0.0],
                [params.h1r, params.h2r, 1.0, 1.0, 0.0],
                [params.h11, params.h21, 0.0, 0.0, 1.0],
            ]
        )
        order, variances = SLOT1_ORDER, [params.p11, params.p21, 1.0, sigma, 1.0]
    elif slot == 2:
        loading = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [params.h11, params.h21, params.hr1, 1.0],
            ]
        )
        order, variances = SLOT2_ORDER, [params.p12, params.p22, params.pr, 1.0]
    else:
        raise InvalidParams(f"slot must be 1 or 2, got {slot!r}")
    variances = np.array(variances)
    cov = (loading * variances) @ loading.T
    return GaussianVectorModel(order, cov, factor=loading * np.sqrt(variances))


def _log2dets(model: GaussianVectorModel, *blocks: set) -> list[float]:
    """log2 determinants of the covariance submatrices on the first one,
    two, ... of the disjoint name sets ``blocks`` (an empty union gives 0).

    With ``A`` the factor rows of the blocks, in order, and ``A^T = QR``,
    the submatrix on the first j rows is ``R_j^T R_j`` for the leading
    j x j block ``R_j`` of ``R``, so its log-det is ``2 * sum(log2 |R_ii|)``
    over i < j.  This square-root form never forms a submatrix, whose
    determinant cancels catastrophically when a quantizer variance is tiny
    (Golub & Van Loan, *Matrix Computations*, ch. 5); ``R_ii**2`` is the
    variance of a coordinate given the ones before it.
    """
    names = set().union(*blocks)
    unknown = names - set(model.names)
    if unknown:
        raise UnknownVariable(
            f"variables {sorted(unknown)} are not part of this model over "
            f"{model.names}"
        )
    idx = [i for block in blocks for i, name in enumerate(model.names) if name in block]
    logs = [0.0]
    if idx:
        # mode="raw" stores R transposed; its diagonal is R's.
        pivots = np.abs(np.linalg.qr(model.factor[idx].T, mode="raw")[0].diagonal())
        if float(pivots.min()) ** 2 <= PIVOT_TOL:
            raise SingularCovariance(
                f"covariance of {sorted(names)} is numerically singular "
                f"(conditional variance {float(pivots.min()) ** 2!r})"
            )
        steps = (2.0 * log for log in np.log2(pivots).tolist())
        logs = list(accumulate(steps, initial=0.0))
    return [logs[end] for end in accumulate(map(len, blocks))]


def gaussian_mi(
    model: GaussianVectorModel,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits, by log-dets.

    Uses I(A; B | C) = (1/2) * [log2 det S_AC + log2 det S_BC
    - log2 det S_C - log2 det S_ABC] on covariance submatrices.
    """
    a_set, b_set, c_set = set(a), set(b), set(c)
    for left, right, tag in (
        (a_set, b_set, "A and B"),
        (a_set, c_set, "A and C"),
        (b_set, c_set, "B and C"),
    ):
        shared = left & right
        if shared:
            raise OverlappingSets(f"{tag} share variables {sorted(shared)}")
    if sorted(b_set) < sorted(a_set):  # I(A; B | C) = I(B; A | C): one order
        a_set, b_set = b_set, a_set
    log_c, log_ac, log_abc = _log2dets(model, c_set, a_set, b_set)
    log_bc = _log2dets(model, c_set, b_set)[1]
    return 0.5 * (log_ac + log_bc - log_c - log_abc)


def gqf_region_via_ru_sweep(
    spec: DmChannelSpec, beta: float, k: int = 1
) -> RateRegion:
    """GQF region from the raw inequality system, for cross-checking.

    The joint-decoding analysis yields six inequalities per destination in
    which the quantization-codebook rate ``R_U`` appears additively on the
    left of three of them; the covering lemma pins ``R_U = beta * I(YR;
    YhR)``.  This helper evaluates all six right-hand sides directly and
    subtracts ``R_U`` where it belongs, instead of using the algebraically
    simplified bounds of :mod:`hdmarc.dmregions` — so agreement between the
    two is a real consistency check of that simplification.
    """
    b = validate_beta(beta, allow_array=False)
    if k not in (1, 2):
        raise InvalidParams(f"destination index must be 1 or 2, got {k!r}")
    yk1, yk2 = ("Y11", "Y12") if k == 1 else ("Y21", "Y22")
    joint1 = build_slot1_joint(spec)
    joint2 = build_slot2_joint(spec)
    comp = 1.0 - b

    r_u = b * dm_mi(joint1, {"YR"}, {"YhR"})

    def plain(i: int, j: int) -> float:
        """Bound on source i with the quantization index treated as known noise."""
        xi1, xj1, xi2, xj2 = f"X{i}1", f"X{j}1", f"X{i}2", f"X{j}2"
        return b * dm_mi(joint1, {xi1}, {xj1, yk1, "YhR"}) + comp * dm_mi(
            joint2, {xi2}, {xj2, "XR", yk2}
        )

    def with_index(i: int, j: int) -> float:
        """Bound on (source i, quantization index) decoded together."""
        xi1, xj1, xi2, xj2 = f"X{i}1", f"X{j}1", f"X{i}2", f"X{j}2"
        return b * (
            dm_mi(joint1, {xi1, "YhR"}, {xj1, yk1}) + dm_mi(joint1, {xi1}, {"YhR"})
        ) + comp * dm_mi(joint2, {xi2, "XR"}, {xj2, yk2})

    sum_plain = b * dm_mi(joint1, {"X11", "X21"}, {yk1, "YhR"}) + comp * dm_mi(
        joint2, {"X12", "X22"}, {"XR", yk2}
    )
    sum_with_index = b * (
        dm_mi(joint1, {"X11", "X21", "YhR"}, {yk1})
        + dm_mi(joint1, {"X11", "X21"}, {"YhR"})
    ) + comp * dm_mi(joint2, {"X12", "X22", "XR"}, {yk2})

    terms = {
        "R_U": r_u,
        "r1_plain": plain(1, 2),
        "r1_with_index": with_index(1, 2),
        "r2_plain": plain(2, 1),
        "r2_with_index": with_index(2, 1),
        "sum_plain": sum_plain,
        "sum_with_index": sum_with_index,
    }
    r1 = min(terms["r1_plain"], terms["r1_with_index"] - r_u)
    r2 = min(terms["r2_plain"], terms["r2_with_index"] - r_u)
    rsum = min(terms["sum_plain"], terms["sum_with_index"] - r_u)
    return clamp_region(r1, r2, rsum, feasible=True, terms=terms)
