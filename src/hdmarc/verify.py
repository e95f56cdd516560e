"""Seeded self-verification suites.

Each subject is a check of a chunk of draws: it draws random instances,
evaluates them with a production entry and with the reference values of
:mod:`hdmarc.oracle`, and records the deviations.  :func:`run_subject`
drives one over chunks of at most :data:`~hdmarc.oracle.BATCH_DRAWS`
draws and reports the worst deviation per check, deterministically for a
given (seed, draws).  A subject draws a whole chunk first, in the order
one draw at a time would, then asks the oracle and each production entry
once per question on all of it (``gaussian_regions_stack``,
``dm_regions_stack``), and records each check once, with an array of the
chunk's deviations.  The oracle answers in arrays over the chunk, as the
production entries do, so each check compares array with array.  A chunk
that fails runs again draw by draw (:func:`~hdmarc.core.run_chunk`), so
the first failing draw raises its own error.

Subjects:

* ``closed-forms`` — every closed-form Gaussian term against log-det
  mutual informations, plus the threshold identity (the sum-optimal
  quantization variance sits where the two sum branches cross, to 1e-9
  relative, and there GQF and CF reach the same sum rate).
* ``dm-regions`` — the simplified finite-alphabet region of each topology
  against the raw inequality system with the codebook rate eliminated.
* ``reductions`` — single-source and silent-destination degenerations
  collapse to the expected smaller models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Bounds,
    SchemeId,
    clamp_bounds,
    integer,
    one_of,
    rate_region,
    run_chunk,
)
from .dminfo import DmChannelSpec
from .dmregions import TOPOLOGIES, dm_regions_stack
from .gaussian import GaussianMarcParams, gaussian_regions_stack
from .oracle import (
    BATCH_DRAWS,
    closed_forms_via_log_dets,
    crossing_offset,
    gqf_regions_via_ru_sweep,
    single_source_gqf_branch_pairs,
)

#: Absolute tolerance for the Gaussian closed-form checks.
GAUSSIAN_TOL = 1e-9

#: Relative tolerance on the sum-optimal quantization variance.
SIGMA_REL_TOL = 1e-9

#: Absolute tolerance for the finite-alphabet cross-checks.
DM_TOL = 1e-10

#: A quantization variance below every CF binning threshold (a threshold
#: under the smallest normal float64 is refused), so CF asked for it is
#: infeasible and takes the bounds at the threshold it works out itself.
_BELOW_EVERY_THRESHOLD = float(np.finfo(np.float64).tiny)

#: Most draws a subject run may take; bounds its time as MAX_GRID_POINTS
#: bounds a sweep's.
MAX_DRAWS = 10**5


@dataclass(frozen=True)
class Check:
    """Worst observed deviation of one named comparison."""

    name: str
    max_dev: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_dev <= self.tol


@dataclass(frozen=True)
class Report:
    """All checks of one subject run."""

    subject: str
    seed: int
    draws: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        width = max(len(check.name) for check in self.checks)
        lines = [
            f"subject: {self.subject}",
            f"seed: {self.seed}",
            f"draws: {self.draws}",
            "",
        ]
        for check in self.checks:
            lines.append(
                f"  {check.name:<{width}}  max dev {check.max_dev:.3e}  "
                f"tol {check.tol:.0e}  {'ok' if check.ok else 'FAIL'}"
            )
        lines.append("")
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


class _Worst:
    """Accumulates the worst deviation per named check, in the order the
    checks are first recorded.  A subject records each check once per
    chunk, with the deviations of all its draws."""

    def __init__(self) -> None:
        self._checks: dict[str, Check] = {}

    def record(self, name: str, devs, tol: float) -> None:
        """Fold ``devs``, a float or an array over a chunk's draws, into
        check ``name``: it keeps the largest |dev|, and a NaN anywhere makes
        the worst NaN, which fails the check (np.max keeps a NaN that
        max() would drop)."""
        previous = self._checks.get(name)
        worst = np.max(np.abs(devs), initial=previous.max_dev if previous else 0.0)
        self._checks[name] = Check(name, float(worst), tol)

    def checks(self) -> tuple[Check, ...]:
        return tuple(self._checks.values())


# ---------------------------------------------------------------------------
# Random instance generators (shared with the test suite).

def draw_gaussian_params(rng: np.random.Generator) -> GaussianMarcParams:
    """A random Gaussian channel: gains and powers in [0.1, 5], beta in
    [0.1, 0.9], quantization variance in [0.01, 100]."""
    gains = rng.uniform(0.1, 5.0, size=5)  # h11, h21, h1r, h2r, hr1
    powers = rng.uniform(0.1, 5.0, size=5)  # p11, p12, p21, p22, pr
    beta = float(rng.uniform(0.1, 0.9))
    sigma = float(rng.uniform(0.01, 100.0))
    return GaussianMarcParams(*gains, *powers, beta=beta, sigma_q2=sigma)


_SIZE_NAMES = (
    "x11", "x21", "x12", "x22", "xr", "yr", "yhr", "y11", "y21", "y12", "y22",
)


def _draw_tables(rng: np.random.Generator, sizes: Optional[dict[str, int]]) -> dict:
    """The eight tables of a random small channel with alphabet sizes 2-3
    (overridable), as keywords of :class:`DmChannelSpec`, unchecked."""
    s = {name: int(rng.integers(2, 4)) for name in _SIZE_NAMES} | (sizes or {})

    def conditional(rows: tuple[int, ...], cols: int) -> np.ndarray:
        return rng.dirichlet(np.ones(cols), size=rows)

    slot1 = conditional((s["x11"], s["x21"]), s["yr"] * s["y11"] * s["y21"]).reshape(
        s["x11"], s["x21"], s["yr"], s["y11"], s["y21"]
    )
    test_channel = conditional((s["yr"],), s["yhr"]).reshape(s["yr"], s["yhr"])
    slot2 = conditional(
        (s["x12"], s["x22"], s["xr"]), s["y12"] * s["y22"]
    ).reshape(s["x12"], s["x22"], s["xr"], s["y12"], s["y22"])
    return dict(
        px11=rng.dirichlet(np.ones(s["x11"])),
        px21=rng.dirichlet(np.ones(s["x21"])),
        px12=rng.dirichlet(np.ones(s["x12"])),
        px22=rng.dirichlet(np.ones(s["x22"])),
        pxr=rng.dirichlet(np.ones(s["xr"])),
        test_channel=test_channel,
        slot1=slot1,
        slot2=slot2,
    )


def draw_dm_spec(
    rng: np.random.Generator, sizes: Optional[dict[str, int]] = None
) -> DmChannelSpec:
    """A random small channel with alphabet sizes 2-3 (overridable)."""
    return DmChannelSpec(**_draw_tables(rng, sizes))


def draw_single_source_spec(
    rng: np.random.Generator,
) -> tuple[DmChannelSpec, float]:
    """A random channel with source 2 and destination 2 degenerate.

    The slot-2 link is a noiseless map from (X12, XR) onto Y12 and XR is
    uniform, which keeps the relay pipe strictly wider than the index
    description rate: with a binary quantizer and beta <= 0.4 the CF
    binning constraint holds for every draw.
    """
    n_x12 = int(rng.integers(2, 4))
    n_xr = 2
    sizes = {
        "x21": 1,
        "x22": 1,
        "y21": 1,
        "y22": 1,
        "xr": n_xr,
        "x12": n_x12,
        "y12": n_x12 * n_xr,
        "yhr": 2,
    }
    tables = _draw_tables(rng, sizes)
    slot2 = np.zeros_like(tables["slot2"])
    for x12 in range(n_x12):
        for xr in range(n_xr):
            slot2[x12, 0, xr, x12 * n_xr + xr, 0] = 1.0
    spec = DmChannelSpec(**dict(tables, pxr=np.full(n_xr, 1.0 / n_xr), slot2=slot2))
    return spec, float(rng.uniform(0.2, 0.4))


def draw_silent_dest2_spec(rng: np.random.Generator) -> DmChannelSpec:
    """A random channel whose destination 2 observes nothing in either slot."""
    return draw_dm_spec(rng, {"y21": 1, "y22": 1})


# ---------------------------------------------------------------------------
# Checks, one per subject: (rng, count, worst) -> None.

def _clamped(bounds: Bounds) -> tuple:
    """The clamped r1, r2 and sum bounds of ``bounds``, production's or the
    oracle's, whose values are arrays over a chunk's draws: the floats
    :func:`~hdmarc.core.rate_region` gives each draw
    (:func:`~hdmarc.core.clamp_bounds`).  The first draw with a bound that
    is not finite goes to :func:`~hdmarc.core.rate_region`, which refuses
    it naming the field."""
    r1, r2, rsum = bounds[:3]
    finite = np.isfinite(r1) & np.isfinite(r2) & np.isfinite(rsum)
    if not finite.all():
        first = int(np.argmin(finite))
        rate_region(Bounds(r1[first], r2[first], rsum[first], True, None, {}))
    return clamp_bounds(r1, r2, rsum)


def _closed_forms_answers(drawn: list) -> tuple:
    """Production's three answers for the channels ``drawn``, each asked
    once for all of them: the GQF bounds at the drawn variance, the
    sum-optimal GQF bounds (the optimum found by the GQF entry), and CF
    asked for a variance below its binning threshold, which it finds itself
    and takes the bounds at; then the oracle's terms and its CF binning
    balance at the thresholds production found (at sigma_q2 = sigma_min
    the index description rate exactly fills the relay pipe)."""
    betas = [params.beta for params in drawn]
    asked = (
        (SchemeId.GQF, [params.sigma_q2 for params in drawn]),
        (SchemeId.GQF, None),
        (SchemeId.CF, [_BELOW_EVERY_THRESHOLD] * len(drawn)),
    )
    at_drawn, optimum, at_threshold = (
        gaussian_regions_stack(drawn, (scheme,), betas, sigmas)[scheme] for scheme, sigmas in asked
    )
    thresholds = at_threshold.terms["sigma_min"].tolist()
    return at_drawn, optimum, at_threshold, closed_forms_via_log_dets(list(zip(drawn, thresholds)))


def closed_forms_draws(rng: np.random.Generator, count: int, worst: _Worst) -> None:
    """Gaussian closed forms vs log-det oracle, plus the threshold identity,
    on ``count`` draws: all drawn first, then the production entry and the
    oracle each asked once on all of them."""
    drawn = [draw_gaussian_params(rng) for _ in range(count)]
    at_drawn, optimum, at_threshold, (terms, excess) = run_chunk(drawn, _closed_forms_answers)
    for name, reference in terms.items():
        worst.record(f"gqf_term_{name}", at_drawn.terms[name] - reference, GAUSSIAN_TOL)
    worst.record("cf_threshold_balance", excess, GAUSSIAN_TOL)

    # Threshold identity: the sum-optimal GQF quantizer sits exactly where
    # the two sum branches cross, and there both schemes meet at the same
    # sum rate.  A drawn relay link is live, so the optimum is a crossing
    # and its sum rate is I1.
    offsets = [crossing_offset(params, sigma) for params, sigma in zip(drawn, optimum.sigma.tolist())]
    worst.record("threshold_sigma", np.array(offsets), SIGMA_REL_TOL)
    _, _, cf_sum = _clamped(at_threshold)
    worst.record("threshold_sum_rate", optimum.terms["I1"] - cf_sum, GAUSSIAN_TOL)


def _dm_regions_answers(drawn: list) -> tuple:
    """The oracle's GQF bounds of the ``(spec, beta)`` of ``drawn``, then
    production's."""
    specs, betas = zip(*drawn)
    oracle = gqf_regions_via_ru_sweep(drawn)
    return oracle, dm_regions_stack(specs, TOPOLOGIES, (SchemeId.GQF,), betas)


def dm_regions_draws(rng: np.random.Generator, count: int, worst: _Worst) -> None:
    """Simplified finite-alphabet bounds vs the raw inequality system, on
    ``count`` draws: all drawn first, then the oracle and the production
    entry each once on all of them, both sides clamped alike."""
    drawn = [(draw_dm_spec(rng), float(rng.uniform(0.1, 0.9))) for _ in range(count)]
    oracle, production = run_chunk(drawn, _dm_regions_answers)
    for topology in TOPOLOGIES:
        pairs = zip(_clamped(production[topology][SchemeId.GQF]), _clamped(oracle[topology]))
        for suffix, (bound, reference) in zip(("r1", "r2", "sum"), pairs):
            worst.record(f"{topology}_{suffix}", bound - reference, DM_TOL)


def _regions(drawn: list, topologies: tuple[str, ...]) -> dict:
    """The GQF and CF bounds of the ``(spec, beta)`` of ``drawn`` on each
    of ``topologies``, from one evaluation."""
    specs, betas = zip(*drawn)
    return dm_regions_stack(specs, topologies, (SchemeId.GQF, SchemeId.CF), betas)


def _reductions_answers(drawn: list) -> tuple:
    """For the draws ``drawn``, each a single-source ``(spec, beta)`` and a
    silent-destination one: the oracle's single-source branches, then
    production's bounds of each kind."""
    single, silent = zip(*drawn)
    branches = single_source_gqf_branch_pairs(single)
    return branches, _regions(single, ("marc",)), _regions(silent, ("cmacr", "marc"))


def reductions_draws(rng: np.random.Generator, count: int, worst: _Worst) -> None:
    """Degenerate channels collapse to the expected smaller models, on
    ``count`` draws: all drawn first, then the oracle and the production
    entry each once on all of them."""
    drawn = [
        (draw_single_source_spec(rng), (draw_silent_dest2_spec(rng), float(rng.uniform(0.1, 0.9))))
        for _ in range(count)
    ]
    (plain, with_index), regions, silent = run_chunk(drawn, _reductions_answers)

    # With source 2 degenerate the single-user and sum bounds coincide,
    # and each GQF branch collapses to its single-source form.
    gqf = regions["marc"][SchemeId.GQF]
    r1, _, rsum = _clamped(gqf)
    worst.record("gqf_r1_eq_sum", r1 - rsum, DM_TOL)
    worst.record("gqf_branch_plain", gqf.terms["a_1(1)"] - plain, DM_TOL)
    worst.record("gqf_branch_with_index", gqf.terms["b_1(1)"] - with_index, DM_TOL)
    worst.record(
        "gqf_r1_eq_min_branches", r1 - np.maximum(0.0, np.minimum(plain, with_index)), DM_TOL
    )

    # CF with one source: rate bound collapses to the classic
    # compress-and-forward expression, and the strong relay pipe of the
    # generator keeps every draw feasible.
    cf = regions["marc"][SchemeId.CF]
    r1, _, rsum = _clamped(cf)
    worst.record("cf_feasible", np.where(cf.feasible, 0.0, 1.0), 0.0)
    worst.record("cf_r1_eq_sum", r1 - rsum, DM_TOL)
    worst.record("cf_r1_eq_formula", r1 - np.maximum(0.0, plain), DM_TOL)

    # A destination that observes nothing drops out of the compound
    # region entirely: same code path, identical floats.
    for name, scheme in (
        ("gqf_silent_dest2_exact", SchemeId.GQF),
        ("cf_silent_dest2_exact", SchemeId.CF),
    ):
        both, alone = (silent[topology][scheme] for topology in ("cmacr", "marc"))
        bounds = (np.abs(x - y) for x, y in zip(_clamped(both), _clamped(alone)))
        feasible = np.where(both.feasible == alone.feasible, 0.0, 1.0)
        worst.record(name, np.maximum.reduce(np.broadcast_arrays(*bounds, feasible)), 0.0)


#: Each subject's check and default draw count, in the order the CLI lists
#: them.
_SUBJECT_TABLE: dict[str, tuple[Callable[[np.random.Generator, int, _Worst], None], int]] = {
    "closed-forms": (closed_forms_draws, 100),
    "dm-regions": (dm_regions_draws, 50),
    "reductions": (reductions_draws, 50),
}

SUBJECTS = tuple(_SUBJECT_TABLE)

#: Default draw counts per subject.
DEFAULT_DRAWS = {subject: draws for subject, (_, draws) in _SUBJECT_TABLE.items()}


def _check_run(seed: int, draws: int) -> None:
    """Reject a seed that is not an integer >= 0 and a draw count that is
    not an integer from 1 to :data:`MAX_DRAWS`."""
    integer(seed, "seed", 0)
    integer(draws, "draw count", 1, MAX_DRAWS)


def run_subject(subject: str, seed: int = 0, draws: Optional[int] = None) -> Report:
    """Run one verification subject by name: ``draws`` (default
    :data:`DEFAULT_DRAWS`) of its check on one ``seed``, in chunks of at
    most :data:`~hdmarc.oracle.BATCH_DRAWS` draws."""
    check, default_draws = _SUBJECT_TABLE[one_of(subject, "verification subject", SUBJECTS)]
    draws = default_draws if draws is None else draws
    _check_run(seed, draws)
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for start in range(0, draws, BATCH_DRAWS):
        check(rng, min(BATCH_DRAWS, draws - start), worst)
    return Report(subject, seed, draws, worst.checks())
