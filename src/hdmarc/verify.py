"""Seeded self-verification suites.

Each subject is a check of a run of draws: it draws random instances,
evaluates each with a production entry and with the reference values of
:mod:`hdmarc.oracle`, and records the deviations.  :func:`run_subject`
drives one over chunks of at most :data:`~hdmarc.oracle.BATCH_DRAWS`
draws and reports the worst deviation per check, deterministically for a
given (seed, draws).

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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import RateRegion, SchemeId, integer, one_of, rate_region
from .dminfo import DmChannelSpec
from .dmregions import TOPOLOGIES, dm_regions
from .gaussian import (
    GaussianMarcParams,
    gaussian_regions,
    relay_link,
    relay_view,
    slot1_signal,
    slot2_signal,
)
from .oracle import (
    BATCH_DRAWS,
    closed_forms_via_log_dets,
    gqf_region_via_ru_sweep,
    single_source_gqf_branches,
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
    """Accumulates the worst deviation per named check, preserving order."""

    def __init__(self) -> None:
        self._checks: dict[str, Check] = {}

    def record(self, name: str, dev: float, tol: float) -> None:
        previous = self._checks.get(name)
        # np.maximum keeps a NaN, which then fails the check; max(x, nan) is x.
        worst = np.maximum(previous.max_dev if previous else 0.0, abs(float(dev)))
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

def _crossing_offset(params: GaussianMarcParams, sigma: float) -> float:
    """Distance from ``sigma`` to the crossing of the sum branches, relative
    to ``sigma``: one Newton step in log(sigma) on the forward gap I1 - I2,
    written as b*log1p(q) - (1-b)*log1p(link/S2) with q = (S1 + view) /
    (S1 * sigma).  It shares no code with the expm1 closed form of the
    threshold and stays accurate to a few ulps at any scale of sigma."""
    b = params.beta
    s1 = slot1_signal(params)
    q = (s1 + relay_view(params)) / (s1 * sigma)
    gap = b * math.log1p(q) - (1.0 - b) * math.log1p(
        relay_link(params) / slot2_signal(params)
    )
    slope = -b * q / (1.0 + q)  # sigma * d(gap)/d(sigma)
    return gap / slope


def _closed_forms_production(params: GaussianMarcParams) -> tuple:
    """The GQF terms at the drawn variance, the sum-optimal GQF bounds
    (the optimum found by the GQF entry), and CF asked for a variance below
    its binning threshold, which it finds itself and takes the bounds at."""
    beta = params.beta
    gqf, cf = (SchemeId.GQF,), (SchemeId.CF,)
    terms = gaussian_regions(params, gqf, beta, params.sigma_q2)[SchemeId.GQF].terms
    optimum = gaussian_regions(params, gqf, beta)[SchemeId.GQF]
    cf_at_threshold = gaussian_regions(params, cf, beta, _BELOW_EVERY_THRESHOLD)[SchemeId.CF]
    return terms, optimum, cf_at_threshold


def closed_forms_draws(rng: np.random.Generator, count: int, worst: _Worst) -> None:
    """Gaussian closed forms vs log-det oracle, plus the threshold identity,
    on ``count`` draws: the production entry draw by draw, then the oracle
    on all of them in one batch."""
    drawn = [draw_gaussian_params(rng) for _ in range(count)]
    answers = []
    try:
        for params in drawn:
            answers.append(_closed_forms_production(params))
    finally:
        # CF feasibility threshold: at sigma_q2 = sigma_min the index
        # description rate exactly fills the relay pipe.  The oracle takes
        # the draws answered so far, so that an error of one of them comes
        # before a production error of a later draw, as draw by draw.
        references = closed_forms_via_log_dets(
            [(params, float(cf.terms["sigma_min"])) for params, (_, _, cf) in zip(drawn, answers)]
        )
    for params, (terms, optimum, cf_at_threshold), (oracle, excess) in zip(
        drawn, answers, references
    ):
        for name in ("a(1)", "b(1)", "a(2)", "b(2)", "I1", "I2"):
            worst.record(f"gqf_term_{name}", terms[name] - oracle[name], GAUSSIAN_TOL)
        worst.record("cf_threshold_balance", excess, GAUSSIAN_TOL)

        # Threshold identity: the sum-optimal GQF quantizer sits exactly where
        # the two sum branches cross, and there both schemes meet at the same
        # sum rate.  A drawn relay link is live, so the optimum is a crossing
        # and its sum rate is I1.
        worst.record(
            "threshold_sigma", _crossing_offset(params, float(optimum.sigma)), SIGMA_REL_TOL
        )
        worst.record(
            "threshold_sum_rate",
            float(optimum.terms["I1"]) - rate_region(cf_at_threshold).sum_max,
            GAUSSIAN_TOL,
        )


def dm_regions_draw(rng: np.random.Generator, worst: _Worst) -> None:
    """Simplified finite-alphabet bounds vs the raw inequality system."""
    spec = draw_dm_spec(rng)
    beta = float(rng.uniform(0.1, 0.9))
    oracle = gqf_region_via_ru_sweep(spec, beta)
    production = dm_regions(spec, TOPOLOGIES, (SchemeId.GQF,), beta)
    for topology, bounds in production.items():
        region, raw = rate_region(bounds[SchemeId.GQF]), oracle[topology]
        worst.record(f"{topology}_r1", region.r1_max - raw.r1_max, DM_TOL)
        worst.record(f"{topology}_r2", region.r2_max - raw.r2_max, DM_TOL)
        worst.record(f"{topology}_sum", region.sum_max - raw.sum_max, DM_TOL)


def _rate_regions(
    spec: DmChannelSpec, topologies: tuple[str, ...], beta: float
) -> dict[str, dict[SchemeId, RateRegion]]:
    """The GQF and CF regions of ``spec`` at ``beta`` on each of
    ``topologies``, from one evaluation."""
    evaluated = dm_regions(spec, topologies, (SchemeId.GQF, SchemeId.CF), beta)
    return {
        topology: {scheme: rate_region(value) for scheme, value in bounds.items()}
        for topology, bounds in evaluated.items()
    }


def reductions_draw(rng: np.random.Generator, worst: _Worst) -> None:
    """Degenerate channels collapse to the expected smaller models."""
    spec, b = draw_single_source_spec(rng)
    plain, with_index = single_source_gqf_branches(spec, b)
    regions = _rate_regions(spec, ("marc",), b)["marc"]

    # With source 2 degenerate the single-user and sum bounds coincide,
    # and each GQF branch collapses to its single-source form.
    region = regions[SchemeId.GQF]
    worst.record("gqf_r1_eq_sum", region.r1_max - region.sum_max, DM_TOL)
    worst.record("gqf_branch_plain", region.terms["a_1(1)"] - plain, DM_TOL)
    worst.record("gqf_branch_with_index", region.terms["b_1(1)"] - with_index, DM_TOL)
    worst.record(
        "gqf_r1_eq_min_branches", region.r1_max - max(0.0, min(plain, with_index)), DM_TOL
    )

    # CF with one source: rate bound collapses to the classic
    # compress-and-forward expression, and the strong relay pipe of the
    # generator keeps every draw feasible.
    cf = regions[SchemeId.CF]
    worst.record("cf_feasible", 0.0 if cf.feasible else 1.0, 0.0)
    worst.record("cf_r1_eq_sum", cf.r1_max - cf.sum_max, DM_TOL)
    worst.record("cf_r1_eq_formula", cf.r1_max - max(0.0, plain), DM_TOL)

    # A destination that observes nothing drops out of the compound
    # region entirely: same code path, identical floats.
    silent = draw_silent_dest2_spec(rng)
    silent_beta = float(rng.uniform(0.1, 0.9))
    regions = _rate_regions(silent, ("cmacr", "marc"), silent_beta)
    compound, single = regions["cmacr"], regions["marc"]
    for name, scheme in (
        ("gqf_silent_dest2_exact", SchemeId.GQF),
        ("cf_silent_dest2_exact", SchemeId.CF),
    ):
        both, alone = compound[scheme], single[scheme]
        dev = max(
            abs(both.r1_max - alone.r1_max),
            abs(both.r2_max - alone.r2_max),
            abs(both.sum_max - alone.sum_max),
            0.0 if both.feasible == alone.feasible else 1.0,
        )
        worst.record(name, dev, 0.0)


def _each_draw(check: Callable[[np.random.Generator, _Worst], None]):
    """The check of ``count`` draws that runs the one-draw ``check`` on each."""

    def run(rng: np.random.Generator, count: int, worst: _Worst) -> None:
        for _ in range(count):
            check(rng, worst)

    return run


#: Each subject's check and default draw count, in the order the CLI lists
#: them.
_SUBJECT_TABLE: dict[str, tuple[Callable[[np.random.Generator, int, _Worst], None], int]] = {
    "closed-forms": (closed_forms_draws, 100),
    "dm-regions": (_each_draw(dm_regions_draw), 50),
    "reductions": (_each_draw(reductions_draw), 50),
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
