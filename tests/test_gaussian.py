"""Tests for the closed-form Gaussian rate expressions and knob optimizers.

Anchor values are written as explicit formulas (log2 of small rationals)
recomputed inside each test, so any regression in the closed forms shows up
against independently assembled numbers.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hdmarc import (
    DegenerateRelayLink,
    InvalidParams,
    OutOfRange,
    SchemeId,
    cf_rates,
    cf_sigma_min,
    config_from_dict,
    gqf_optimize_sigma,
    gqf_rates,
    no_relay_rates,
    optimize_beta,
    run_sweep,
    validate_beta,
)
from hdmarc.gaussian import (
    BETA_RANGE,
    cf_operating_point,
    gaussian_regions,
    gqf_bounds,
    relay_link,
    relay_view,
    slot1_signal,
    slot2_signal,
)

from _support import assert_same_bits, benchmark_params
from _support import random_gaussian_params as _random_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Parameter validation and derived powers


def test_params_validation():
    with pytest.raises(InvalidParams):
        benchmark_params(h11=math.nan)
    with pytest.raises(InvalidParams):
        benchmark_params(p21=-0.5)
    with pytest.raises(InvalidParams):
        benchmark_params(sigma_q2=0.0)
    with pytest.raises(InvalidParams):
        benchmark_params(sigma_q2=-1.0)
    with pytest.raises(OutOfRange):
        benchmark_params(beta=1.0)


@pytest.mark.parametrize(
    "overrides, gain",
    [
        ({"h11": 1e200}, "h11"),  # h11**2 raises OverflowError in Python
        ({"hr1": 1e200}, "hr1"),
        ({"h1r": 1e155, "h2r": 1e155}, "h1r"),  # the cross term overflows
        ({"h21": 1e154, "p21": 1e100}, "h21"),  # h**2 finite, h**2 * p is inf
    ],
)
def test_params_reject_gains_whose_powers_overflow(overrides, gain):
    with pytest.raises(InvalidParams, match=f"largest gain is {gain}="):
        benchmark_params(sigma_q2=1.0, **overrides)
    # Large gains whose powers stay finite are still accepted.
    assert math.isfinite(gqf_rates(benchmark_params(sigma_q2=1.0, h11=1e100)).sum_max)


def test_params_coerce_beta_to_slot_fraction():
    params = benchmark_params(beta=0.25)
    assert type(params.beta) is float
    assert params.beta == 0.25
    validated = benchmark_params(beta=validate_beta(0.25))
    assert validated.beta == 0.25


def test_derived_powers_on_benchmark_channel():
    params = benchmark_params()
    assert slot1_signal(params) == pytest.approx(3.0, abs=1e-15)
    assert slot2_signal(params) == pytest.approx(3.0, abs=1e-15)
    # (h11*h2r - h1r*h21)^2 * p11 * p21 + h1r^2 * p11 + h2r^2 * p21
    assert relay_view(params) == pytest.approx(
        (1.0 * 0.5 - 3.0 * 1.0) ** 2 + 9.0 + 0.25, abs=1e-15
    )
    assert relay_view(params) == pytest.approx(15.5, abs=1e-15)
    assert relay_link(params) == pytest.approx(9.0, abs=1e-15)


def test_rate_evaluation_requires_sigma():
    params = benchmark_params()  # sigma_q2 left unset
    with pytest.raises(InvalidParams):
        gqf_rates(params).r1_max
    with pytest.raises(InvalidParams):
        gqf_rates(params)
    with pytest.raises(InvalidParams):
        cf_rates(params)


def test_source_index_is_validated():
    params = benchmark_params(sigma_q2=1.0)
    with pytest.raises(InvalidParams):
        optimize_beta(params, SchemeId.GQF, objective="r3")


# ---------------------------------------------------------------------------
# Benchmark anchors at sigma_q2 = 1, beta = 1/2


def test_individual_rate_branches_on_benchmark_channel():
    params = benchmark_params(sigma_q2=1.0)
    region = gqf_rates(params)
    # Index-decoded branch: relay view of source 1 shrunk by (1 + sigma).
    a1 = 0.25 * math.log2(1.0 + 1.0 + 9.0 / 2.0) + 0.25 * math.log2(2.0)
    assert region.terms["a(1)"] == pytest.approx(a1, abs=1e-15)
    # Index-as-noise branch: slot 1 degrades, slot 2 gains the relay power.
    b1 = 0.25 * math.log2(2.0 * 1.0 / 2.0) + 0.25 * math.log2(1.0 + 1.0 + 9.0)
    assert region.terms["b(1)"] == pytest.approx(b1, abs=1e-15)
    assert region.r1_max == pytest.approx(min(a1, b1), abs=1e-15)
    # Source 2 couples to the relay through the weaker 0.5 gain.
    a2 = 0.25 * math.log2(1.0 + 1.0 + 0.25 / 2.0) + 0.25 * math.log2(2.0)
    assert region.r2_max == pytest.approx(a2, abs=1e-15)


def test_sum_branches_on_benchmark_channel():
    params = benchmark_params(sigma_q2=1.0)
    terms = gqf_rates(params).terms
    i1 = 0.25 * math.log2(3.0 + 15.5 / 2.0) + 0.25 * math.log2(3.0)
    i2 = 0.25 * math.log2(3.0 / 2.0) + 0.25 * math.log2(3.0 + 9.0)
    assert terms["I1"] == pytest.approx(i1, abs=1e-15)
    assert terms["I2"] == pytest.approx(i2, abs=1e-15)
    assert gqf_bounds(params, 0.5, 1.0).rsum == min(terms["I1"], terms["I2"])
    region = gqf_rates(params)
    assert region.sum_max == pytest.approx(min(i1, i2), abs=1e-15)
    assert region.feasible is True


def test_huge_quantization_noise_reduces_slot1_to_direct_links():
    params = benchmark_params(sigma_q2=1e12)
    region = gqf_rates(params)
    # a-branches lose the relay view, I1 loses the relay's observation.
    assert region.terms["a(1)"] == pytest.approx(0.5, abs=1e-6)
    assert region.terms["I1"] == pytest.approx(0.5 * math.log2(3.0), abs=1e-6)
    # The index-as-noise branches recover their slot-1 quality.
    b1 = 0.25 * math.log2(2.0) + 0.25 * math.log2(11.0)
    assert region.terms["b(1)"] == pytest.approx(b1, abs=1e-6)


def test_sum_branches_are_strictly_monotone_in_sigma():
    grid = np.logspace(-3.0, 3.0, 60)
    terms = [gqf_rates(benchmark_params(sigma_q2=s)).terms for s in grid]
    i1 = np.array([t["I1"] for t in terms])
    i2 = np.array([t["I2"] for t in terms])
    assert np.all(np.diff(i1) < 0.0)
    assert np.all(np.diff(i2) > 0.0)


# ---------------------------------------------------------------------------
# Quantization-variance optimizer


def test_optimize_sigma_finds_the_benchmark_crossing():
    result = gqf_optimize_sigma(benchmark_params())
    # Hand algebra: I1 = I2 at sigma = 55.5/27 on this channel.
    assert result.crossing is True
    assert result.sigma_q2 == pytest.approx(55.5 / 27.0, abs=1e-8)
    at_opt = benchmark_params(sigma_q2=result.sigma_q2)
    terms = gqf_rates(at_opt).terms
    assert abs(terms["I1"] - terms["I2"]) <= 1e-8
    assert result.sum_rate == pytest.approx(terms["I1"], abs=1e-12)


def _exact_threshold(params):
    """The CF threshold of ``params`` in 40-digit mpmath arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h11, h21, h1r, h2r, hr1 = map(
            mpmath.mpf, (params.h11, params.h21, params.h1r, params.h2r, params.hr1)
        )
        p11, p12, p21, p22, pr = map(
            mpmath.mpf, (params.p11, params.p12, params.p21, params.p22, params.pr)
        )
        b = mpmath.mpf(params.beta)
        s1 = 1 + h11**2 * p11 + h21**2 * p21
        s2 = 1 + h11**2 * p12 + h21**2 * p22
        view = (h11 * h2r - h1r * h21) ** 2 * p11 * p21 + h1r**2 * p11 + h2r**2 * p21
        pipe = mpmath.expm1((1 - b) / b * mpmath.log1p(hr1**2 * pr / s2))
        return (1 + view / s1) / pipe


def test_optimal_sigma_matches_the_exact_threshold_under_fuzz():
    # The sum-optimal variance is the closed-form threshold (no search), so
    # it holds to 1e-12 relative at any beta, down to where the threshold
    # is far below any absolute tolerance a search could use.
    rng = np.random.default_rng(63)
    betas = [0.01, 0.05] + [float(b) for b in rng.uniform(0.1, 0.9, 30)]
    for beta in betas:
        params = _random_params(rng, beta=beta)
        result = gqf_optimize_sigma(params)
        exact = _exact_threshold(params)
        assert result.crossing is True
        assert abs(result.sigma_q2 / float(exact) - 1.0) <= 1e-12, (beta, result)
        at_opt = gqf_rates(replace(params, sigma_q2=result.sigma_q2)).terms
        assert result.sum_rate == at_opt["I1"]


def _bits(*values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize(
    "name", ["gaussian_sigma_sweep.json", "gaussian_beta_sweep.json"]
)
def test_shipped_sweep_rows_equal_scalar_evaluations_bit_for_bit(name):
    # Sweeps evaluate each scheme on the whole grid at once; every row must
    # be the scalar evaluation at that point, to the last bit.
    config = config_from_dict(json.loads((CONFIG_DIR / name).read_text()))
    result = run_sweep(config)
    p1, p2 = config.no_relay
    baseline = no_relay_rates(config.gaussian.h11, config.gaussian.h21, p1, p2)
    for k, value in enumerate(result.values):
        if config.swept == "sigma_q2":
            gqf_point = cf_point = replace(config.gaussian, sigma_q2=value)
        else:
            point = replace(config.gaussian, beta=value)
            gqf_point = replace(point, sigma_q2=gqf_optimize_sigma(point).sigma_q2)
            cf_point = cf_operating_point(point)
        for scheme, region, sigma in (
            (SchemeId.GQF, gqf_rates(gqf_point), gqf_point.sigma_q2),
            (SchemeId.CF, cf_rates(cf_point), cf_point.sigma_q2),
            (SchemeId.NO_RELAY, baseline, None),
        ):
            column = result.columns[scheme]
            assert column.feasible[k] is region.feasible
            assert column.sigma[k] == sigma
            assert _bits(column.r1[k], column.r2[k], column.rsum[k]) == _bits(
                region.r1_max, region.r2_max, region.sum_max
            ), (scheme, value)


def test_optimize_sigma_reports_no_crossing_for_dead_relay_link():
    result = gqf_optimize_sigma(benchmark_params(hr1=0.0))
    assert result.crossing is False
    # Coarsening the quantizer costs nothing when the index cannot be
    # delivered anyway; the supremum is the limit sigma_q2 -> infinity,
    # reported at DEAD_LINK_SIGMA.
    assert result.sigma_q2 >= 1e9
    assert result.sum_rate == pytest.approx(0.5 * math.log2(3.0), abs=1e-9)


def test_small_beta_threshold_overflow_is_a_typed_error():
    # (1 + link/S2)**((1-beta)/beta) overflows float64 at beta = 0.001 on
    # the reference channel; the threshold must not become a silent 0.
    params = benchmark_params(beta=0.001)
    with pytest.raises(OutOfRange, match="beta=0.001"):
        cf_sigma_min(params)
    with pytest.raises(OutOfRange, match="beta=0.001"):
        gqf_optimize_sigma(params)
    with pytest.raises(OutOfRange, match="beta=0.001"):
        cf_rates(replace(params, sigma_q2=1.0))
    with pytest.raises(OutOfRange, match="beta=0.001"):
        cf_operating_point(params)
    # GQF at a fixed variance needs no threshold and stays finite.
    assert math.isfinite(gqf_rates(replace(params, sigma_q2=1.0)).sum_max)


def test_optimize_beta_on_a_strong_relay_link_skips_unrepresentable_thresholds():
    # With hR1 = 100 the threshold at beta = 0.01 is far below 1e-308; the
    # search starts where it is representable and still finds the optimum.
    params = benchmark_params(hr1=100.0)
    gqf = optimize_beta(params, SchemeId.GQF)
    cf = optimize_beta(params, SchemeId.CF)
    assert gqf.beta == pytest.approx(0.70325, abs=1e-4)
    assert gqf.rate == pytest.approx(1.636321153, abs=1e-8)
    assert cf.rate == pytest.approx(gqf.rate, abs=1e-8)


def test_closed_form_overflow_is_a_typed_error():
    with pytest.raises(OutOfRange, match="float64"):
        gqf_rates(benchmark_params(sigma_q2=1e308))


def test_optimize_sigma_maximizes_the_min_branch_under_fuzz():
    rng = np.random.default_rng(61)
    for _ in range(25):
        params = _random_params(rng)
        result = gqf_optimize_sigma(params)
        if not result.crossing:
            continue
        for factor in (0.5, 0.9, 1.1, 2.0):
            nearby = gqf_rates(
                replace(params, sigma_q2=result.sigma_q2 * factor)
            ).terms
            assert result.sum_rate >= min(nearby["I1"], nearby["I2"]) - 1e-9


# ---------------------------------------------------------------------------
# CF threshold and rates


def test_cf_threshold_on_benchmark_channel():
    assert cf_sigma_min(benchmark_params()) == pytest.approx(18.5 / 9.0, abs=1e-12)
    # The binning threshold and the GQF sum-branch crossing coincide.
    assert cf_sigma_min(benchmark_params()) == pytest.approx(55.5 / 27.0, abs=1e-12)


def test_cf_threshold_equals_gqf_crossing_under_fuzz():
    rng = np.random.default_rng(62)
    for _ in range(20):
        params = _random_params(rng)
        crossing = gqf_optimize_sigma(params)
        if not crossing.crossing:
            continue
        assert cf_sigma_min(params) == pytest.approx(crossing.sigma_q2, abs=1e-6)


def test_cf_threshold_grows_with_the_listening_fraction():
    lo = cf_sigma_min(benchmark_params(beta=0.3))
    mid = cf_sigma_min(benchmark_params(beta=0.5))
    hi = cf_sigma_min(benchmark_params(beta=0.8))
    assert lo < mid < hi


def test_cf_threshold_requires_a_live_relay_link():
    with pytest.raises(DegenerateRelayLink):
        cf_sigma_min(benchmark_params(hr1=0.0))
    with pytest.raises(DegenerateRelayLink):
        cf_sigma_min(benchmark_params(pr=0.0))


def test_cf_rates_feasible_point_on_benchmark_channel():
    region = cf_rates(benchmark_params(sigma_q2=3.0))
    assert region.feasible is True
    rsum = 0.25 * math.log2(3.0 + 15.5 / 4.0) + 0.25 * math.log2(3.0)
    assert region.sum_max == pytest.approx(rsum, abs=1e-15)
    r1 = 0.25 * math.log2(1.0 + 1.0 + 9.0 / 4.0) + 0.25 * math.log2(2.0)
    assert region.r1_max == pytest.approx(r1, abs=1e-15)
    assert region.terms["sigma_used"] == 3.0


def test_cf_rates_below_threshold_evaluates_the_closure_point():
    region = cf_rates(benchmark_params(sigma_q2=1.0))
    assert region.feasible is False
    assert region.terms["sigma_min"] == pytest.approx(18.5 / 9.0, abs=1e-12)
    assert region.terms["sigma_used"] == pytest.approx(18.5 / 9.0, abs=1e-12)
    rsum = 0.25 * math.log2(3.0 + 15.5 / (1.0 + 18.5 / 9.0)) + 0.25 * math.log2(3.0)
    assert region.sum_max == pytest.approx(rsum, abs=1e-12)


def test_cf_rates_with_dead_relay_link_fall_back_to_two_slot_no_relay():
    region = cf_rates(benchmark_params(pr=0.0, sigma_q2=1.0))
    assert region.feasible is False
    assert region.terms["degenerate_relay_link"] == 1.0
    assert region.terms["sigma_min"] == math.inf
    assert region.r1_max == pytest.approx(0.5, abs=1e-15)  # 1/4 log2(2) per slot
    assert region.sum_max == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)


def test_cf_operating_point_sits_just_above_the_threshold():
    params = benchmark_params()
    operating = cf_operating_point(params)
    threshold = cf_sigma_min(params)
    assert operating.sigma_q2 > threshold
    assert operating.sigma_q2 == pytest.approx(threshold, rel=1e-8)
    assert cf_rates(operating).feasible is True
    dead = cf_operating_point(benchmark_params(hr1=0.0))
    assert dead.sigma_q2 == 1.0
    assert cf_rates(dead).feasible is False


# ---------------------------------------------------------------------------
# No-relay baseline


def test_no_relay_rates_on_boosted_powers():
    region = no_relay_rates(1.0, 1.0, 1.5, 1.5)
    assert region.r1_max == pytest.approx(0.5 * math.log2(2.5), abs=1e-15)
    assert region.r2_max == pytest.approx(0.5 * math.log2(2.5), abs=1e-15)
    assert region.sum_max == pytest.approx(1.0, abs=1e-15)
    assert region.feasible is True


def test_no_relay_rates_degenerate_inputs():
    silent = no_relay_rates(1.0, 1.0, 0.0, 0.0)
    assert silent.r1_max == 0.0
    assert silent.sum_max == 0.0
    one_sided = no_relay_rates(1.0, 0.0, 1.0, 5.0)
    assert one_sided.r2_max == 0.0
    assert one_sided.sum_max == pytest.approx(one_sided.r1_max, abs=1e-15)
    with pytest.raises(InvalidParams):
        no_relay_rates(math.nan, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParams):
        no_relay_rates(1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("h11, p1", [(1e10, 1e300), (1e200, 1.0)])
def test_no_relay_rates_reject_received_powers_that_overflow(h11, p1):
    # h11**2 * P1 is inf in the first case and an OverflowError in the
    # second; neither may reach a rate.
    with pytest.raises(InvalidParams, match="overflow float64"):
        no_relay_rates(h11, 1.0, p1, 1.0)


# ---------------------------------------------------------------------------
# Slot-fraction optimizer


def test_optimize_beta_validates_inputs():
    params = benchmark_params()
    with pytest.raises(InvalidParams):
        optimize_beta(params, SchemeId.NO_RELAY)
    with pytest.raises(InvalidParams):
        optimize_beta(params, SchemeId.GQF, objective="throughput")


def test_optimize_beta_matches_across_schemes_on_benchmark_channel():
    params = benchmark_params()
    gqf = optimize_beta(params, SchemeId.GQF)
    cf = optimize_beta(params, SchemeId.CF)
    # Operated at their own optima, the two schemes' sum rates coincide on
    # this channel (CF runs right at its binning threshold).
    assert gqf.rate == pytest.approx(cf.rate, abs=1e-6)
    assert BETA_RANGE[0] <= gqf.beta <= BETA_RANGE[1]
    assert BETA_RANGE[0] <= cf.beta <= BETA_RANGE[1]
    # Both beat the flat sum bound of the listening slot alone.
    assert gqf.rate > 0.5 * math.log2(3.0)


def test_optimize_beta_with_relay_fully_disconnected():
    params = benchmark_params(h1r=0.0, h2r=0.0, hr1=0.0)
    result = optimize_beta(params, SchemeId.GQF)
    # Every slot split gives the same two-slot direct-link sum bound.
    assert result.rate == pytest.approx(0.5 * math.log2(3.0), abs=1e-6)


def test_optimize_beta_cf_with_dead_link_reports_the_fallback_rate():
    params = benchmark_params(hr1=0.0)
    result = optimize_beta(params, SchemeId.CF)
    assert result.rate == pytest.approx(0.5 * math.log2(3.0), abs=1e-6)


def test_optimize_beta_single_user_objective():
    params = benchmark_params(p21=0.0, p22=0.0)
    silent = optimize_beta(params, SchemeId.GQF, objective="r2")
    assert silent.rate == 0.0
    active = optimize_beta(params, SchemeId.GQF, objective="r1")
    assert active.rate > 0.5  # relay lifts source 1 above its direct link


def test_flipping_the_sign_of_a_source_gain_pair_leaves_every_bound_unchanged():
    # The closed forms see a source's gains only through squares and the
    # squared cross term (h11*h2R - h1R*h21)**2, whose sign flips exactly.
    rng = np.random.default_rng(71)
    betas = np.linspace(0.05, 0.95, 19)
    for _ in range(100):
        params = _random_params(rng)
        no_relay = tuple(rng.uniform(0.1, 5.0, 2))
        want = gaussian_regions(params, tuple(SchemeId), betas, no_relay=no_relay)
        for pair in (("h11", "h1r"), ("h21", "h2r")):
            flipped = replace(params, **{name: -getattr(params, name) for name in pair})
            got = gaussian_regions(flipped, tuple(SchemeId), betas, no_relay=no_relay)
            for scheme in SchemeId:
                assert_same_bits(got[scheme], want[scheme])
