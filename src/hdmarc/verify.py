"""Seeded self-verification suites.

Each subject draws random instances, evaluates the production formulas and
an independent oracle path side by side, and reports the worst deviation
per check.  Reports are deterministic for a given (seed, draws).

Subjects:

* ``closed-forms`` — every closed-form Gaussian term against log-det
  mutual informations, plus the threshold identity (the sum-optimal
  quantization variance sits where the two sum branches cross, to 1e-9
  relative, and there GQF and CF reach the same sum rate).
* ``dm-regions`` — the simplified finite-alphabet bounds against the raw
  inequality system with the quantization-codebook rate eliminated.
* ``reductions`` — single-source and silent-destination degenerations
  collapse to the expected smaller models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import InvalidParams, clamp_region
from .dminfo import DmChannelSpec, build_slot1_joint, build_slot2_joint
from .dminfo import mutual_information as dm_mi
from .dmregions import (
    cf_region_cmacr,
    cf_region_marc,
    gqf_region_cmacr,
    gqf_region_marc,
)
from .gaussian import (
    GaussianMarcParams,
    cf_rates,
    cf_sigma_min,
    gqf_optimize_sigma,
    gqf_rates,
    relay_link,
    relay_view,
    slot1_signal,
    slot2_signal,
)
from .oracle import build_covariance, gaussian_mi, gqf_region_via_ru_sweep

#: Default draw counts per subject.
DEFAULT_DRAWS = {"closed-forms": 100, "dm-regions": 50, "reductions": 50}

#: Absolute tolerance for the Gaussian closed-form checks.
GAUSSIAN_TOL = 1e-9

#: Relative tolerance on the sum-optimal quantization variance.
SIGMA_REL_TOL = 1e-9

#: Absolute tolerance for the finite-alphabet cross-checks.
DM_TOL = 1e-10

SUBJECTS = ("closed-forms", "dm-regions", "reductions")


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
        self._devs: dict[str, float] = {}
        self._tols: dict[str, float] = {}

    def record(self, name: str, dev: float, tol: float) -> None:
        self._devs[name] = max(self._devs.get(name, 0.0), abs(float(dev)))
        self._tols[name] = tol

    def checks(self) -> tuple[Check, ...]:
        return tuple(
            Check(name, self._devs[name], self._tols[name]) for name in self._devs
        )


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


def draw_dm_spec(
    rng: np.random.Generator, sizes: Optional[dict[str, int]] = None
) -> DmChannelSpec:
    """A random small channel with alphabet sizes 2-3 (overridable)."""
    chosen = {name: int(rng.integers(2, 4)) for name in _SIZE_NAMES}
    if sizes:
        chosen.update(sizes)
    s = chosen

    def conditional(rows: tuple[int, ...], cols: int) -> np.ndarray:
        return rng.dirichlet(np.ones(cols), size=rows)

    slot1 = conditional((s["x11"], s["x21"]), s["yr"] * s["y11"] * s["y21"]).reshape(
        s["x11"], s["x21"], s["yr"], s["y11"], s["y21"]
    )
    test_channel = conditional((s["yr"],), s["yhr"]).reshape(s["yr"], s["yhr"])
    slot2 = conditional(
        (s["x12"], s["x22"], s["xr"]), s["y12"] * s["y22"]
    ).reshape(s["x12"], s["x22"], s["xr"], s["y12"], s["y22"])
    return DmChannelSpec(
        px11=rng.dirichlet(np.ones(s["x11"])),
        px21=rng.dirichlet(np.ones(s["x21"])),
        px12=rng.dirichlet(np.ones(s["x12"])),
        px22=rng.dirichlet(np.ones(s["x22"])),
        pxr=rng.dirichlet(np.ones(s["xr"])),
        test_channel=test_channel,
        slot1=slot1,
        slot2=slot2,
    )


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
    base = draw_dm_spec(rng, sizes)
    slot2 = np.zeros_like(base.slot2)
    for x12 in range(n_x12):
        for xr in range(n_xr):
            slot2[x12, 0, xr, x12 * n_xr + xr, 0] = 1.0
    spec = replace(base, pxr=np.full(n_xr, 1.0 / n_xr), slot2=slot2)
    return spec, float(rng.uniform(0.2, 0.4))


def draw_silent_dest2_spec(rng: np.random.Generator) -> DmChannelSpec:
    """A random channel whose destination 2 observes nothing in either slot."""
    return draw_dm_spec(rng, {"y21": 1, "y22": 1})


# ---------------------------------------------------------------------------
# Subject: closed-forms.

def _oracle_gqf_terms(params: GaussianMarcParams) -> dict[str, float]:
    """The six GQF terms via log-det mutual informations (see oracle docs)."""
    model1 = build_covariance(params, slot=1)
    model2 = build_covariance(params, slot=2)
    b = params.beta
    comp = 1.0 - b
    values: dict[str, float] = {}
    for i, j in ((1, 2), (2, 1)):
        xi1, xj1 = f"X{i}1", f"X{j}1"
        xi2, xj2 = f"X{i}2", f"X{j}2"
        values[f"a({i})"] = b * gaussian_mi(
            model1, {xi1}, {xj1, "Y11", "YhR"}
        ) + comp * gaussian_mi(model2, {xi2}, {xj2, "XR", "Y12"})
        values[f"b({i})"] = b * (
            gaussian_mi(model1, {xi1}, {xj1, "Y11"})
            - gaussian_mi(model1, {"YhR"}, {"YR"}, {xi1, xj1, "Y11"})
        ) + comp * gaussian_mi(model2, {xi2, "XR"}, {xj2, "Y12"})
    values["I1"] = b * gaussian_mi(
        model1, {"X11", "X21"}, {"Y11", "YhR"}
    ) + comp * gaussian_mi(model2, {"X12", "X22"}, {"XR", "Y12"})
    values["I2"] = b * (
        gaussian_mi(model1, {"X11", "X21"}, {"Y11"})
        - gaussian_mi(model1, {"YhR"}, {"YR"}, {"X11", "X21", "Y11"})
    ) + comp * gaussian_mi(model2, {"X12", "X22", "XR"}, {"Y12"})
    return values


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


def verify_closed_forms(seed: int = 0, draws: int = 100) -> Report:
    """Gaussian closed forms vs log-det oracle, plus the threshold identity."""
    _check_run(seed, draws)
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for _ in range(draws):
        params = draw_gaussian_params(rng)
        region = gqf_rates(params)
        oracle = _oracle_gqf_terms(params)
        for name in ("a(1)", "b(1)", "a(2)", "b(2)", "I1", "I2"):
            worst.record(
                f"gqf_term_{name}", region.terms[name] - oracle[name], GAUSSIAN_TOL
            )

        # CF feasibility threshold: at sigma_q2 = cf_sigma_min the index
        # description rate exactly fills the relay pipe.
        sigma_min = cf_sigma_min(params)
        at_min = replace(params, sigma_q2=sigma_min)
        model1 = build_covariance(at_min, slot=1)
        model2 = build_covariance(at_min, slot=2)
        b = params.beta
        lhs = b * (
            gaussian_mi(model1, {"YR"}, {"YhR"})
            - gaussian_mi(model1, {"Y11"}, {"YhR"})
        )
        rhs = (1.0 - b) * gaussian_mi(model2, {"XR"}, {"Y12"})
        worst.record("cf_threshold_balance", lhs - rhs, GAUSSIAN_TOL)

        # Threshold identity: the sum-optimal GQF quantizer sits exactly
        # where the two sum branches cross, and there both schemes meet at
        # the same sum rate.
        optimum = gqf_optimize_sigma(params)
        worst.record(
            "threshold_sigma", _crossing_offset(params, optimum.sigma_q2), SIGMA_REL_TOL
        )
        cf_at_threshold = cf_rates(at_min)
        worst.record(
            "threshold_sum_rate",
            optimum.sum_rate - cf_at_threshold.sum_max,
            GAUSSIAN_TOL,
        )
    return Report("closed-forms", seed, draws, worst.checks())


# ---------------------------------------------------------------------------
# Subject: dm-regions.

def verify_dm_regions(seed: int = 0, draws: int = 50) -> Report:
    """Simplified finite-alphabet bounds vs the raw inequality system."""
    _check_run(seed, draws)
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for _ in range(draws):
        spec = draw_dm_spec(rng)
        beta = float(rng.uniform(0.1, 0.9))

        region = gqf_region_marc(spec, beta)
        sweep = gqf_region_via_ru_sweep(spec, beta, k=1)
        worst.record("marc_r1", region.r1_max - sweep.r1_max, DM_TOL)
        worst.record("marc_r2", region.r2_max - sweep.r2_max, DM_TOL)
        worst.record("marc_sum", region.sum_max - sweep.sum_max, DM_TOL)

        compound = gqf_region_cmacr(spec, beta)
        sweep2 = gqf_region_via_ru_sweep(spec, beta, k=2)

        def raw_bounds(swept_region) -> tuple[float, float, float]:
            terms = swept_region.terms
            r_u = terms["R_U"]
            return (
                min(terms["r1_plain"], terms["r1_with_index"] - r_u),
                min(terms["r2_plain"], terms["r2_with_index"] - r_u),
                min(terms["sum_plain"], terms["sum_with_index"] - r_u),
            )

        # Worst case over destinations is taken on the raw bounds, then
        # clamped once, mirroring the production compound evaluation.
        bounds1 = raw_bounds(sweep)
        bounds2 = raw_bounds(sweep2)
        oracle_compound = clamp_region(
            min(bounds1[0], bounds2[0]),
            min(bounds1[1], bounds2[1]),
            min(bounds1[2], bounds2[2]),
        )
        worst.record("cmacr_r1", compound.r1_max - oracle_compound.r1_max, DM_TOL)
        worst.record("cmacr_r2", compound.r2_max - oracle_compound.r2_max, DM_TOL)
        worst.record(
            "cmacr_sum", compound.sum_max - oracle_compound.sum_max, DM_TOL
        )
    return Report("dm-regions", seed, draws, worst.checks())


# ---------------------------------------------------------------------------
# Subject: reductions.

def verify_reductions(seed: int = 0, draws: int = 50) -> Report:
    """Degenerate channels collapse to the expected smaller models."""
    _check_run(seed, draws)
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for _ in range(draws):
        spec, b = draw_single_source_spec(rng)
        joint1 = build_slot1_joint(spec)
        joint2 = build_slot2_joint(spec)

        # With source 2 degenerate the single-user and sum bounds coincide,
        # and each GQF branch collapses to its single-source form.
        region = gqf_region_marc(spec, b)
        worst.record("gqf_r1_eq_sum", region.r1_max - region.sum_max, DM_TOL)
        plain = b * dm_mi(joint1, {"X11"}, {"Y11", "YhR"}) + (1.0 - b) * dm_mi(
            joint2, {"X12"}, {"Y12"}, {"XR"}
        )
        with_index = b * (
            dm_mi(joint1, {"X11"}, {"Y11"})
            - dm_mi(joint1, {"YhR"}, {"YR"}, {"X11", "Y11"})
        ) + (1.0 - b) * dm_mi(joint2, {"X12", "XR"}, {"Y12"})
        worst.record(
            "gqf_branch_plain", region.terms["a_1(1)"] - plain, DM_TOL
        )
        worst.record(
            "gqf_branch_with_index", region.terms["b_1(1)"] - with_index, DM_TOL
        )
        worst.record(
            "gqf_r1_eq_min_branches",
            region.r1_max - max(0.0, min(plain, with_index)),
            DM_TOL,
        )

        # CF with one source: rate bound collapses to the classic
        # compress-and-forward expression, and the strong relay pipe of the
        # generator keeps every draw feasible.
        cf = cf_region_marc(spec, b)
        worst.record("cf_feasible", 0.0 if cf.feasible else 1.0, 0.0)
        worst.record("cf_r1_eq_sum", cf.r1_max - cf.sum_max, DM_TOL)
        worst.record("cf_r1_eq_formula", cf.r1_max - max(0.0, plain), DM_TOL)

        # A destination that observes nothing drops out of the compound
        # region entirely: same code path, identical floats.
        silent = draw_silent_dest2_spec(rng)
        silent_beta = float(rng.uniform(0.1, 0.9))
        for name, compound_fn, single_fn in (
            ("gqf_silent_dest2_exact", gqf_region_cmacr, gqf_region_marc),
            ("cf_silent_dest2_exact", cf_region_cmacr, cf_region_marc),
        ):
            compound = compound_fn(silent, silent_beta)
            single = single_fn(silent, silent_beta)
            dev = max(
                abs(compound.r1_max - single.r1_max),
                abs(compound.r2_max - single.r2_max),
                abs(compound.sum_max - single.sum_max),
                0.0 if compound.feasible == single.feasible else 1.0,
            )
            worst.record(name, dev, 0.0)
    return Report("reductions", seed, draws, worst.checks())


_RUNNERS: dict[str, Callable[[int, int], Report]] = {
    "closed-forms": verify_closed_forms,
    "dm-regions": verify_dm_regions,
    "reductions": verify_reductions,
}


def _check_run(seed: int, draws: int) -> None:
    """Reject a seed that is not an integer >= 0 and a draw count that is
    not an integer >= 1."""
    for name, value, least in (("seed", seed, 0), ("draw count", draws, 1)):
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not integer or value < least:
            raise InvalidParams(f"{name} must be an integer >= {least}, got {value!r}")


def run_subject(subject: str, seed: int = 0, draws: Optional[int] = None) -> Report:
    """Run one verification subject by name."""
    if subject not in _RUNNERS:
        raise InvalidParams(
            f"unknown verification subject {subject!r}; expected one of {SUBJECTS}"
        )
    if draws is None:
        draws = DEFAULT_DRAWS[subject]
    return _RUNNERS[subject](seed, draws)
