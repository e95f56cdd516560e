"""Tests for the closed-form Gaussian rate expressions and knob optimizers.

Anchor values are written as explicit formulas (log2 of small rationals)
recomputed inside each test, so any regression in the closed forms shows up
against independently assembled numbers.
"""

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdmarc.gaussian
from hdmarc import (
    DegenerateRelayLink,
    DimensionMismatch,
    GaussianMarcParams,
    InvalidParams,
    OutOfRange,
    SchemeId,
    config_from_dict,
    optimize_beta,
    run_sweep,
)
from hdmarc.core import clamp_bounds, rate_region, validate_beta
from hdmarc.gaussian import (
    BETA_RANGE,
    _powers,
    _smallest_beta,
    cf_operating_point,
    cf_rates,
    cf_sigma_min,
    gaussian_regions,
    gaussian_regions_stack,
    gqf_optimize_sigma,
    gqf_rates,
    no_relay_rates,
)

from _support import assert_same_bits, benchmark_params, entry
from _support import random_gaussian_params as _random_params
from hdmarc.verify import draw_gaussian_params

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
    "overrides",
    [{"h11": "1.5"}, {"h11": True}, {"sigma_q2": "2"}, {"h11": None}, {"h11": "x"}],
)
def test_params_refuse_strings_bools_and_none(overrides):
    with pytest.raises(InvalidParams, match="must be a real number"):
        benchmark_params(**overrides)


@pytest.mark.parametrize("sigma_q2", ["1", True])
def test_closed_forms_refuse_a_non_numeric_variance(sigma_q2):
    params = benchmark_params()
    for scheme in SchemeId:
        with pytest.raises(InvalidParams, match="variance must be a real number"):
            gaussian_regions(params, (scheme,), 0.5, sigma_q2, no_relay=(1.5, 1.5))


@pytest.mark.parametrize("h11", ["1", None, True])
def test_no_relay_rates_refuse_strings_bools_and_none(h11):
    with pytest.raises(InvalidParams, match="gain h11 must be a real number"):
        no_relay_rates(h11, 1.0, 1.0, 1.0)


def test_an_integer_beyond_float64_is_invalid_params():
    with pytest.raises(InvalidParams, match="gain h11 is an integer too large"):
        no_relay_rates(10**400, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParams, match="power pr is an integer too large"):
        benchmark_params(pr=10**400)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: benchmark_params(h21=math.nan), "gain h21 must be finite, got nan"),
        (lambda: benchmark_params(pr=-1.0), "power pr must be finite and non-negative, got -1.0"),
        (
            lambda: benchmark_params(sigma_q2=math.inf),
            "quantization variance must be finite and positive, got inf",
        ),
        (lambda: no_relay_rates(1.0, math.inf, 1.0, 1.0), "gain h21 must be finite, got inf"),
        (
            lambda: no_relay_rates(1.0, 1.0, 1.0, -2.0),
            "power p2 must be finite and non-negative, got -2.0",
        ),
    ],
)
def test_non_finite_and_negative_inputs_keep_their_messages(build, message):
    with pytest.raises(InvalidParams) as excinfo:
        build()
    assert str(excinfo.value) == message


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
    powers = _powers(benchmark_params())
    assert powers.s1 == pytest.approx(3.0, abs=1e-15)
    assert powers.s2 == pytest.approx(3.0, abs=1e-15)
    # (h11*h2r - h1r*h21)^2 * p11 * p21 + h1r^2 * p11 + h2r^2 * p21
    assert powers.view == pytest.approx(
        (1.0 * 0.5 - 3.0 * 1.0) ** 2 + 9.0 + 0.25, abs=1e-15
    )
    assert powers.view == pytest.approx(15.5, abs=1e-15)
    assert powers.link == pytest.approx(9.0, abs=1e-15)


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
    gqf = gaussian_regions(params, (SchemeId.GQF,), 0.5, 1.0)[SchemeId.GQF]
    assert gqf.rsum == min(terms["I1"], terms["I2"])
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


def _exact_gqf_terms(params, mpmath):
    """The six GQF terms of ``params`` in 50-digit mpmath arithmetic,
    written from the channel equations: in slot 1 Yk1 = h11 X11 + h21 X21
    + Z, YR = h1R X11 + h2R X21 + ZR and YhR = YR + Q with Var Q =
    sigma_q2; in slot 2 Y12 = h11 X12 + h21 X22 + hR1 XR + Z; unit noises,
    independent Gaussian inputs.  Each term is beta * (slot 1) + (1 - beta)
    * (slot 2) of the mutual informations that ``dmregions.slot_terms``
    takes of a finite-alphabet channel."""
    with mpmath.workdps(50):
        h11, h21, h1r, h2r, hr1, p11, p12, p21, p22, pr, b, q = map(mpmath.mpf, (
            params.h11, params.h21, params.h1r, params.h2r, params.hr1,
            params.p11, params.p12, params.p21, params.p22, params.pr,
            params.beta, params.sigma_q2,
        ))

        def half_log2(x):
            return mpmath.log(x, 2) / 2

        def mi_two_looks(k):
            """I(X; Y11, YhR) for inputs of covariance diag(k) and gains
            (direct, relay) per input: log det of the looks' covariance
            over that of their noises, diag(1, 1 + q)."""
            direct = sum(k[x] * g[0] ** 2 for x, g in enumerate(gains))
            relay = sum(k[x] * g[1] ** 2 for x, g in enumerate(gains))
            both = sum(k[x] * g[0] * g[1] for x, g in enumerate(gains))
            return half_log2(((1 + direct) * (1 + q + relay) - both**2) / (1 + q))

        gains = ((h11, h1r), (h21, h2r))
        heard = 1 + h1r**2 * p11 + h2r**2 * p21  # Var YR
        index_noise = half_log2((1 + q) / q)  # I(YhR; YR | X11, X21, Y11)
        slot2 = 1 + h11**2 * p12 + h21**2 * p22  # Var Y12 given XR
        slot1_terms, slot2_terms = {}, {}
        for i, (h_direct, p1, p2) in ((1, (h11, p11, p12)), (2, (h21, p21, p22))):
            alone = [p1, 0] if i == 1 else [0, p1]  # Xj1 known
            slot1_terms[f"a({i})"] = mi_two_looks(alone)
            slot2_terms[f"a({i})"] = half_log2(1 + h_direct**2 * p2)
            slot1_terms[f"b({i})"] = half_log2(1 + h_direct**2 * p1) - index_noise
            slot2_terms[f"b({i})"] = half_log2(1 + h_direct**2 * p2 + hr1**2 * pr)
        slot1_terms["I1"] = mi_two_looks([p11, p21])
        slot2_terms["I1"] = half_log2(slot2)
        # I(X; Y11) + I(X; YhR) - I(YR; YhR), with I(YhR; Y11 | X) = 0.
        slot1_terms["I2"] = (
            half_log2(1 + h11**2 * p11 + h21**2 * p21)
            + half_log2((q + heard) / (1 + q))
            - half_log2((q + heard) / q)
        )
        slot2_terms["I2"] = half_log2(slot2 + hr1**2 * pr)
        return {name: b * slot1_terms[name] + (1 - b) * slot2_terms[name] for name in slot1_terms}


def test_gqf_terms_are_within_1e_14_bits_of_the_exact_terms_at_extreme_channels():
    # The absolute accuracy contract of the Gaussian closed forms, over
    # gains 1e-6..1e6, powers 1e-3..1e3, beta 1e-3..0.999 and sigma_q2
    # 1e-8..1e12, all log-uniform.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2014)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    worst = 0.0
    for _ in range(300):
        params = GaussianMarcParams(
            *(log_uniform(1e-6, 1e6) for _ in range(5)),
            *(log_uniform(1e-3, 1e3) for _ in range(5)),
            beta=log_uniform(1e-3, 0.999),
            sigma_q2=log_uniform(1e-8, 1e12),
        )
        terms = gaussian_regions(
            params, (SchemeId.GQF,), params.beta, params.sigma_q2
        )[SchemeId.GQF].terms
        exact = _exact_gqf_terms(params, mpmath)
        assert sorted(terms) == sorted(exact)
        for name, value in exact.items():
            error = abs(float(terms[name]) - value)
            worst = max(worst, error)
            assert error <= 1e-14, (name, params, float(error))
    assert worst > 0.0  # the float64 forms are compared, not echoed


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
    baseline = no_relay_rates(config.channel.h11, config.channel.h21, p1, p2)
    for k, value in enumerate(result.values):
        if config.swept == "sigma_q2":
            gqf_point = cf_point = replace(config.channel, sigma_q2=value)
        else:
            point = replace(config.channel, beta=value)
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


@pytest.mark.parametrize(
    "scheme, objective",
    [
        (SchemeId.GQF, np.array(["sum", "r1"])),
        (np.array([SchemeId.GQF, SchemeId.CF]), "sum"),
        ([SchemeId.GQF], "sum"),
    ],
    ids=["objective-array", "scheme-array", "scheme-list"],
)
def test_optimize_beta_refuses_collections_with_a_typed_error(scheme, objective):
    # An array compared with == is an array, whose truth value numpy refuses.
    with pytest.raises(InvalidParams, match="must be"):
        optimize_beta(benchmark_params(), scheme, objective)


@pytest.mark.parametrize("schemes", [["GQF"], "GQF", [SchemeId.GQF, None]])
def test_gaussian_regions_refuse_a_scheme_that_is_not_a_scheme_id(schemes):
    with pytest.raises(InvalidParams, match="scheme must be a SchemeId, got"):
        gaussian_regions(benchmark_params(), schemes, 0.5)


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


def _beta_objective(params, scheme, objective, beta):
    """optimize_beta's objective over a slot-fraction grid, from the grid
    closed forms: the GQF sum is I1 at the crossing, the rest clamped."""
    bounds = gaussian_regions(params, (scheme,), beta)[scheme]
    if scheme is SchemeId.GQF and objective == "sum":
        return bounds.terms["I1"]  # the draws all have a live relay link
    r1, r2, rsum = clamp_bounds(bounds.r1, bounds.r2, bounds.rsum)
    return {"sum": rsum, "r1": r1, "r2": r2}[objective]


def _scalar_beta_objective(params, scheme, objective, beta):
    """The same objective at one slot fraction, through the scalar entries."""
    at = replace(params, beta=beta)
    if scheme is SchemeId.GQF:
        optimum = gqf_optimize_sigma(at)
        if objective == "sum":
            return optimum.sum_rate
        region = gqf_rates(replace(at, sigma_q2=optimum.sigma_q2))
    else:
        region = cf_rates(cf_operating_point(at))
    return {"sum": region.sum_max, "r1": region.r1_max, "r2": region.r2_max}[objective]


def _beta_searches(seed, draws=40):
    """(params, scheme, objective, a 2001-point grid over the searched
    interval, optimum) for every search over seeded draws."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        params = _random_params(rng)
        lo = max(BETA_RANGE[0], _smallest_beta(_powers(params)))
        dense = np.linspace(lo, BETA_RANGE[1], 2001)
        for scheme in (SchemeId.GQF, SchemeId.CF):
            for objective in ("sum", "r1", "r2"):
                optimum = optimize_beta(params, scheme, objective)
                yield params, scheme, objective, dense, optimum


def test_optimize_beta_never_loses_to_a_dense_grid():
    for params, scheme, objective, dense, optimum in _beta_searches(seed=91):
        best = _beta_objective(params, scheme, objective, dense).max()
        assert optimum.rate >= best, (params, scheme, objective)


def test_optimize_beta_rate_is_the_objective_at_its_beta_bit_for_bit():
    for params, scheme, objective, _, optimum in _beta_searches(seed=92):
        want = _scalar_beta_objective(params, scheme, objective, optimum.beta)
        assert optimum.rate == want, (params, scheme, objective)


def test_optimize_beta_returns_an_end_of_the_range_exactly():
    tops = 0
    for params, scheme, objective, dense, optimum in _beta_searches(seed=93):
        peak = int(np.argmax(_beta_objective(params, scheme, objective, dense)))
        if peak in (0, dense.size - 1):
            tops += peak > 0
            edge = BETA_RANGE[1] if peak else dense[0]
            assert optimum.beta == edge, (params, scheme, objective)
            assert optimum.rate == _beta_objective(params, scheme, objective, edge)
    assert tops > 0


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


@pytest.mark.parametrize(
    "sigma, first",
    [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (np.array([1.0, 2.0, -3.0, 0.0]), "-3.0")],
    ids=["zero", "negative", "nan", "array"],
)
def test_every_scheme_refuses_a_quantization_variance_outside_zero_to_inf(sigma, first):
    message = f"strictly inside \\(0, inf\\), got {first}"
    for params in (benchmark_params(), benchmark_params(hr1=0.0)):  # live and dead link
        for schemes in ((SchemeId.GQF,), (SchemeId.CF,), (SchemeId.GQF, SchemeId.CF)):
            with pytest.raises(OutOfRange, match=message):
                gaussian_regions(params, schemes, 0.5, sigma)


def test_slot_fractions_and_variances_that_do_not_broadcast_are_refused():
    params = benchmark_params()
    beta, sigma = np.array([0.3, 0.6]), np.array([0.5, 1.0, 2.0])
    for schemes in ((SchemeId.GQF,), (SchemeId.CF,), tuple(SchemeId)):
        with pytest.raises(DimensionMismatch, match=r"\(2,\) .* \(3,\)"):
            gaussian_regions(params, schemes, beta, sigma, no_relay=(1.5, 1.5))
    # Shapes that broadcast still give a grid.
    grid = gaussian_regions(params, (SchemeId.GQF,), beta[:, None], sigma)
    assert grid[SchemeId.GQF].rsum.shape == (2, 3)


@pytest.mark.parametrize(
    "sigma, error",
    [(0.0, OutOfRange), (-1.0, OutOfRange), (math.nan, OutOfRange),
     (np.array([0.5, 1.0, 2.0]), DimensionMismatch)],
    ids=["zero", "negative", "nan", "shape"],
)
def test_no_relay_alone_refuses_a_bad_quantization_variance(sigma, error):
    with pytest.raises(error):
        gaussian_regions(
            benchmark_params(), (SchemeId.NO_RELAY,), np.array([0.3, 0.6]), sigma,
            no_relay=(1.5, 1.5),
        )


def _count_checks(monkeypatch) -> Counter:
    """Count the calls of the gaussian module's beta and sigma_q2 checks."""
    counts = Counter()
    for name in ("validate_beta", "_variances"):
        check = getattr(hdmarc.gaussian, name)

        def counted(*args, _check=check, _name=name, **kwargs):
            counts[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(hdmarc.gaussian, name, counted)
    return counts


def test_gaussian_regions_checks_beta_and_sigma_once(monkeypatch):
    live, dead = benchmark_params(sigma_q2=1.0), benchmark_params(hr1=0.0, sigma_q2=1.0)
    counts = _count_checks(monkeypatch)
    sigma_grid, beta_grid = np.geomspace(0.1, 10.0, 7), np.linspace(0.1, 0.9, 9)
    for params in (live, dead):
        for schemes in ((SchemeId.GQF,), (SchemeId.CF,), tuple(SchemeId)):
            counts.clear()
            gaussian_regions(params, schemes, 0.5, sigma_grid, no_relay=(1.5, 1.5))
            assert counts == {"validate_beta": 1, "_variances": 1}, schemes
            counts.clear()
            gaussian_regions(params, schemes, beta_grid, no_relay=(1.5, 1.5))
            assert counts == {"validate_beta": 1}, schemes
        counts.clear()
        gqf_rates(params), cf_rates(params)
        assert counts == {"validate_beta": 2, "_variances": 2}
    # The wrappers on the checked params.beta check nothing again.
    counts.clear()
    gqf_optimize_sigma(live), cf_sigma_min(live)
    assert counts == {}


@pytest.mark.parametrize(
    "no_relay", [None, (1.0,), (1.0, 1.0, 1.0), 1.5], ids=["none", "one", "three", "float"]
)
def test_no_relay_needs_a_pair_of_powers(no_relay):
    with pytest.raises(InvalidParams, match="baseline powers"):
        gaussian_regions(benchmark_params(), (SchemeId.NO_RELAY,), 0.5, no_relay=no_relay)


def test_no_relay_powers_are_a_pair_in_order():
    # P1 then P2: a set of the two would pair them by hash order.
    params = benchmark_params()
    for no_relay in ({2.0, 1.0}, frozenset({2.0, 1.0})):
        with pytest.raises(InvalidParams, match="baseline powers must be in order"):
            gaussian_regions(params, (SchemeId.NO_RELAY,), 0.5, no_relay=no_relay)
    pair = gaussian_regions(params, (SchemeId.NO_RELAY,), 0.5, no_relay=(2.0, 1.0))
    listed = gaussian_regions(params, (SchemeId.NO_RELAY,), 0.5, no_relay=[2.0, 1.0])
    assert pair == listed
    assert pair[SchemeId.NO_RELAY].terms["r1"] == 0.5 * math.log2(1.0 + params.h11**2 * 2.0)


def test_rate_region_takes_a_single_point():
    params = benchmark_params()
    grid = gaussian_regions(params, (SchemeId.GQF,), np.array([0.3, 0.6]), 1.0)
    with pytest.raises(InvalidParams, match="single-point evaluation"):
        rate_region(grid[SchemeId.GQF])
    point = gaussian_regions(params, (SchemeId.GQF,), 0.3, 1.0)[SchemeId.GQF]
    assert rate_region(point) == gqf_rates(
        replace(params, beta=0.3, sigma_q2=1.0)
    )


# ---------------------------------------------------------------------------
# Many channels, each at its own point


def _closed_forms_channels(seed: int) -> tuple[list, list]:
    """The 100 channels of a closed-forms run at ``seed``, every seventh
    with its relay link cut: the live ones and the dead ones."""
    rng = np.random.default_rng(seed)
    drawn = [draw_gaussian_params(rng) for _ in range(100)]
    dead = [replace(params, hr1=0.0) for i, params in enumerate(drawn) if i % 7 == 3]
    return [params for i, params in enumerate(drawn) if i % 7 != 3], dead


_VARIANCES = ("drawn", "optimal", "below every threshold")
_RELAYED = (SchemeId.GQF, SchemeId.CF)


@pytest.mark.parametrize("variances", _VARIANCES)
def test_a_stack_gives_each_channel_the_bits_of_its_own_call(variances):
    # Together the three cases cover the closed-forms draws at seeds 0-49,
    # in a stack of the live links and one of the dead links.
    tiny = float(np.finfo(np.float64).tiny)
    for seed in range(_VARIANCES.index(variances), 50, len(_VARIANCES)):
        for channels in _closed_forms_channels(seed):
            sigmas = {
                "drawn": [params.sigma_q2 for params in channels],
                "optimal": None,
                "below every threshold": [tiny] * len(channels),
            }[variances]
            betas = [params.beta for params in channels]
            stack = gaussian_regions_stack(channels, _RELAYED, betas, sigmas)
            assert list(stack) == list(_RELAYED)
            for bounds in stack.values():
                assert all(value.shape == (len(channels),) for value in bounds[:3])
            for j, params in enumerate(channels):
                sigma = None if sigmas is None else sigmas[j]
                alone = gaussian_regions(params, _RELAYED, params.beta, sigma)
                for scheme, bounds in alone.items():
                    assert_same_bits(entry(stack[scheme], j), bounds)


def test_a_stack_of_one_and_an_empty_stack():
    params = benchmark_params(beta=0.4)
    stack = gaussian_regions_stack([params], (SchemeId.CF,), np.array([0.4]), [0.5])
    alone = gaussian_regions(params, (SchemeId.CF,), 0.4, 0.5)[SchemeId.CF]
    assert stack[SchemeId.CF].rsum.shape == (1,)
    assert_same_bits(entry(stack[SchemeId.CF], 0), alone)
    with pytest.raises(InvalidParams, match="^a stack needs at least one channel$"):
        gaussian_regions_stack([], (SchemeId.GQF,), [])


def test_a_stack_refuses_what_a_channel_s_own_call_refuses():
    params, schemes = benchmark_params(), (SchemeId.GQF,)
    with pytest.raises(InvalidParams, match="2 channels need as many .* got 1 and 2"):
        gaussian_regions_stack([params, params], schemes, [0.5])
    with pytest.raises(InvalidParams, match="got 2 and 3"):
        gaussian_regions_stack([params, params], schemes, [0.5, 0.6], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidParams, match="channels must be in order, got a set"):
        gaussian_regions_stack({params}, schemes, [0.5])
    with pytest.raises(InvalidParams, match="slot fractions must be in order, got a frozenset"):
        gaussian_regions_stack([params], schemes, frozenset({0.5}))
    with pytest.raises(InvalidParams, match="quantization variances must be in order"):
        gaussian_regions_stack([params], schemes, [0.5], {1.0})
    with pytest.raises(InvalidParams, match="channel must be a GaussianMarcParams, got dict"):
        gaussian_regions_stack([params, {}], schemes, [0.5, 0.5])
    with pytest.raises(OutOfRange, match="slot fraction must lie strictly inside"):
        gaussian_regions_stack([params, params], schemes, [0.5, 1.5])
    with pytest.raises(InvalidParams, match="quantization variance must be a real number, got None"):
        gaussian_regions_stack([params], schemes, [0.5], [None])
    with pytest.raises(OutOfRange, match="got -1.0"):
        gaussian_regions_stack([params], schemes, [0.5], [-1.0])


def test_a_stack_refuses_what_no_caller_sends():
    live, dead = benchmark_params(), benchmark_params(hr1=0.0)
    with pytest.raises(InvalidParams, match="^a stack evaluates GQF and CF; ask gaussian_regions for NO_RELAY$"):
        gaussian_regions_stack([live], (SchemeId.GQF, SchemeId.NO_RELAY), [0.5])
    with pytest.raises(InvalidParams, match="^a stack's relay links must be all live or all dead$"):
        gaussian_regions_stack([live, dead, live], (SchemeId.CF,), [0.5, 0.5, 0.5])


def test_a_failing_channel_of_a_stack_raises_its_own_call_s_error():
    # On this strong relay link the CF threshold at beta = 0.001 or 0.002
    # underflows; beta = 0.5 evaluates.
    live = benchmark_params()
    channels, betas = [live, live, live, live], [0.5, 0.6, 0.001, 0.002]
    with pytest.raises(OutOfRange) as alone:
        gaussian_regions(live, (SchemeId.GQF,), 0.001)
    with pytest.raises(OutOfRange) as stacked:
        gaussian_regions_stack(channels, (SchemeId.GQF,), betas)
    assert str(stacked.value) == str(alone.value)
    assert "beta=0.001 " in str(alone.value)
