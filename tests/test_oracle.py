"""Tests for the log-determinant oracle and the raw-inequality region sweep.

The covariance entries and mutual informations are checked against hand
algebra on the benchmark channel, and the closed-form rate expressions are
cross-checked term by term against the oracle on random channels.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hdmarc import (
    DimensionMismatch,
    DmChannelSpec,
    GaussianVectorModel,
    InvalidParams,
    OverlappingSets,
    SingularCovariance,
    UnknownVariable,
    build_covariance,
    build_slot1_joint,
    cf_sigma_min,
    entropy,
    gaussian_mi,
    gqf_optimize_sigma,
    gqf_rates,
    gqf_region_marc,
    gqf_region_via_ru_sweep,
    run_subject,
    validate_beta,
)
from hdmarc.oracle import SLOT1_ORDER, SLOT2_ORDER

from _support import (
    benchmark_params,
    make_random_spec,
    random_gaussian_params as _random_params,
)


# ---------------------------------------------------------------------------
# Model construction and validation


def test_model_rejects_unknown_and_duplicate_names():
    cov = np.eye(2)
    with pytest.raises(UnknownVariable):
        GaussianVectorModel(("X11", "BOGUS"), cov)
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("X11", "X11"), cov)


def test_model_rejects_malformed_covariances():
    with pytest.raises(DimensionMismatch):
        GaussianVectorModel(("X11", "X21"), np.eye(3))
    asymmetric = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("X11", "X21"), asymmetric)
    not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("X11", "X21"), not_psd)


def test_model_enforces_unit_noise_floor_on_outputs():
    # An input may have tiny variance, but an observed output cannot drop
    # below the unit channel noise.
    GaussianVectorModel(("X11",), np.array([[1e-6]]))
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("Y11",), np.array([[0.5]]))


def test_model_covariance_is_readonly():
    model = GaussianVectorModel(("X11", "Y11"), np.eye(2))
    with pytest.raises(ValueError):
        model.cov[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Covariance entries on the benchmark channel


def _entry(model, row, col):
    i = model.names.index(row)
    j = model.names.index(col)
    return model.cov[i, j]


def test_slot1_covariance_anchors():
    model = build_covariance(benchmark_params(sigma_q2=1.0), slot=1)
    assert model.names == SLOT1_ORDER
    # var(YR) = h1r^2 p11 + h2r^2 p21 + 1
    assert _entry(model, "YR", "YR") == pytest.approx(10.25, abs=1e-12)
    # cov(Y11, YR) = h11 h1r p11 + h21 h2r p21
    assert _entry(model, "Y11", "YR") == pytest.approx(3.5, abs=1e-12)
    # The quantizer adds independent noise on top of YR.
    assert _entry(model, "YhR", "YhR") == pytest.approx(11.25, abs=1e-12)
    assert _entry(model, "YhR", "YR") == pytest.approx(10.25, abs=1e-12)
    assert _entry(model, "Y11", "Y11") == pytest.approx(3.0, abs=1e-12)
    assert _entry(model, "X11", "YR") == pytest.approx(3.0, abs=1e-12)
    assert _entry(model, "X11", "X21") == 0.0


def test_slot1_covariance_with_all_gains_zero_keeps_only_the_quantizer_coupling():
    params = benchmark_params(h11=0.0, h21=0.0, h1r=0.0, h2r=0.0, hr1=0.0,
                              sigma_q2=0.7)
    model = build_covariance(params, slot=1)
    # Order: X11, X21, YR, YhR, Y11.  Everything decouples except
    # YhR = YR + quantization noise.
    expected = np.diag([1.0, 1.0, 1.0, 1.7, 1.0])
    expected[2, 3] = expected[3, 2] = 1.0
    np.testing.assert_allclose(model.cov, expected, atol=1e-15)


def test_slot2_covariance_anchors():
    model = build_covariance(benchmark_params(), slot=2)
    assert model.names == SLOT2_ORDER
    # var(Y12) = 1 + h11^2 p12 + h21^2 p22 + hr1^2 pr
    assert _entry(model, "Y12", "Y12") == pytest.approx(12.0, abs=1e-12)
    assert _entry(model, "XR", "Y12") == pytest.approx(3.0, abs=1e-12)
    assert _entry(model, "X12", "Y12") == pytest.approx(1.0, abs=1e-12)


def test_build_covariance_input_validation():
    with pytest.raises(InvalidParams):
        build_covariance(benchmark_params(), slot=1)  # sigma_q2 unset
    with pytest.raises(InvalidParams):
        build_covariance(benchmark_params(sigma_q2=1.0), slot=3)
    build_covariance(benchmark_params(), slot=2)  # slot 2 needs no sigma


# ---------------------------------------------------------------------------
# Log-det mutual information


def test_gaussian_mi_anchors_on_benchmark_channel():
    slot1 = build_covariance(benchmark_params(sigma_q2=1.0), slot=1)
    slot2 = build_covariance(benchmark_params(), slot=2)
    assert gaussian_mi(slot1, {"YR"}, {"YhR"}) == pytest.approx(
        0.5 * math.log2(11.25), abs=1e-12
    )
    assert gaussian_mi(slot1, {"X11", "X21"}, {"Y11"}) == pytest.approx(
        0.5 * math.log2(3.0), abs=1e-12
    )
    assert gaussian_mi(slot1, {"X11"}, {"Y11"}, {"X21"}) == pytest.approx(
        0.5 * math.log2(2.0), abs=1e-12
    )
    assert gaussian_mi(slot2, {"X12", "X22", "XR"}, {"Y12"}) == pytest.approx(
        0.5 * math.log2(12.0), abs=1e-12
    )
    # Relay pipe: var(Y12 | XR) = 12 - 3^2/1 = 3, so the ratio is 4.
    assert gaussian_mi(slot2, {"XR"}, {"Y12"}) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_mi_zero_for_independent_inputs():
    model = build_covariance(benchmark_params(sigma_q2=1.0), slot=1)
    assert abs(gaussian_mi(model, {"X11"}, {"X21"})) <= 1e-12


def test_gaussian_mi_set_validation():
    model = build_covariance(benchmark_params(sigma_q2=1.0), slot=1)
    with pytest.raises(OverlappingSets):
        gaussian_mi(model, {"X11"}, {"X11"})
    with pytest.raises(OverlappingSets):
        gaussian_mi(model, {"X11"}, {"Y11"}, {"Y11"})
    with pytest.raises(UnknownVariable):
        gaussian_mi(model, {"X11"}, {"Y12"})  # Y12 lives in slot 2


def test_gaussian_mi_detects_singular_submatrices():
    silent = build_covariance(benchmark_params(p11=0.0, sigma_q2=1.0), slot=1)
    with pytest.raises(SingularCovariance):
        gaussian_mi(silent, {"X11"}, {"Y11"})
    nearly_exact_quantizer = build_covariance(
        benchmark_params(sigma_q2=1e-15), slot=1
    )
    with pytest.raises(SingularCovariance):
        gaussian_mi(nearly_exact_quantizer, {"YR"}, {"YhR"})


def test_gaussian_mi_resolves_tiny_quantizer_variances():
    # YhR = YR + ZQ, so I(YR; YhR) = 1/2 log2((var(YR) + sigma) / sigma).
    # Forming the covariance loses sigma against var(YR) = 10.25 well above
    # 1e-13; the square-root factor keeps it as its own coordinate.
    for sigma in (1e-13, 1e-10, 1e-6):
        model = build_covariance(benchmark_params(sigma_q2=sigma), slot=1)
        exact = 0.5 * math.log2((10.25 + sigma) / sigma)
        assert gaussian_mi(model, {"YR"}, {"YhR"}) == pytest.approx(exact, abs=1e-12)


def test_model_from_a_bare_covariance_matches_the_factored_model():
    factored = build_covariance(benchmark_params(sigma_q2=0.5), slot=1)
    bare = GaussianVectorModel(factored.names, factored.cov)
    for a, b, c in (({"X11"}, {"Y11", "YhR"}, set()), ({"YhR"}, {"YR"}, {"X11", "Y11"})):
        assert gaussian_mi(bare, a, b, c) == pytest.approx(
            gaussian_mi(factored, a, b, c), abs=1e-12
        )
    with pytest.raises(InvalidParams):
        GaussianVectorModel(factored.names, factored.cov, factor=2.0 * factored.factor)


@pytest.mark.parametrize("seed", [5, 285, 2007])
def test_closed_forms_pass_where_the_threshold_is_tiny(seed):
    # These seeds draw CF thresholds down to 9e-9, 3e-12 and 3e-13; the
    # eigenvalues of the formed covariance FAILed cf_threshold_balance at
    # the first two and raised SingularCovariance at the third.
    report = run_subject("closed-forms", seed=seed)
    assert report.passed, report.render()


def test_gaussian_mi_properties_under_fuzz():
    rng = np.random.default_rng(71)
    for _ in range(25):
        params = _random_params(rng, sigma_q2=float(rng.uniform(0.01, 100.0)))
        model = build_covariance(params, slot=1)
        forward = gaussian_mi(model, {"X11"}, {"YR", "Y11"})
        backward = gaussian_mi(model, {"YR", "Y11"}, {"X11"})
        assert forward == backward
        assert forward >= -1e-9
        chain = gaussian_mi(model, {"X11"}, {"YR"}) + gaussian_mi(
            model, {"X11"}, {"Y11"}, {"YR"}
        )
        assert forward == pytest.approx(chain, abs=1e-9)
        # Data processing through the quantizer.
        assert gaussian_mi(model, {"X11"}, {"YhR"}) <= (
            gaussian_mi(model, {"X11"}, {"YR"}) + 1e-9
        )


# ---------------------------------------------------------------------------
# Closed forms against the oracle, term by term


def _oracle_terms(params):
    slot1 = build_covariance(params, slot=1)
    slot2 = build_covariance(params, slot=2)
    b = params.beta
    comp = 1.0 - b
    a1 = b * gaussian_mi(slot1, {"X11"}, {"X21", "Y11", "YhR"}) + comp * gaussian_mi(
        slot2, {"X12"}, {"X22", "XR", "Y12"}
    )
    b1 = b * (
        gaussian_mi(slot1, {"X11"}, {"X21", "Y11"})
        - gaussian_mi(slot1, {"YhR"}, {"YR"}, {"X11", "X21", "Y11"})
    ) + comp * gaussian_mi(slot2, {"X12", "XR"}, {"X22", "Y12"})
    i1 = b * gaussian_mi(slot1, {"X11", "X21"}, {"Y11", "YhR"}) + comp * gaussian_mi(
        slot2, {"X12", "X22"}, {"XR", "Y12"}
    )
    i2 = b * (
        gaussian_mi(slot1, {"X11", "X21", "YhR"}, {"Y11"})
        + gaussian_mi(slot1, {"X11", "X21"}, {"YhR"})
        - gaussian_mi(slot1, {"YR"}, {"YhR"})
    ) + comp * gaussian_mi(slot2, {"X12", "X22", "XR"}, {"Y12"})
    return {"a(1)": a1, "b(1)": b1, "I1": i1, "I2": i2}


def test_closed_forms_match_log_det_oracle():
    rng = np.random.default_rng(72)
    cases = [benchmark_params(sigma_q2=1.0)]
    cases += [
        _random_params(rng, sigma_q2=float(rng.uniform(0.01, 100.0)))
        for _ in range(10)
    ]
    for params in cases:
        closed = gqf_rates(params).terms
        oracle = _oracle_terms(params)
        for key, value in oracle.items():
            assert closed[key] == pytest.approx(value, abs=1e-9), key


def test_binning_threshold_balances_the_oracle_rates():
    rng = np.random.default_rng(73)
    cases = [benchmark_params()] + [_random_params(rng) for _ in range(10)]
    for params in cases:
        at_threshold = replace(params, sigma_q2=cf_sigma_min(params))
        slot1 = build_covariance(at_threshold, slot=1)
        slot2 = build_covariance(at_threshold, slot=2)
        b = params.beta
        index_rate = b * (
            gaussian_mi(slot1, {"YR"}, {"YhR"})
            - gaussian_mi(slot1, {"Y11"}, {"YhR"})
        )
        pipe = (1.0 - b) * gaussian_mi(slot2, {"XR"}, {"Y12"})
        assert index_rate == pytest.approx(pipe, abs=1e-9)


def _check(report, name):
    return next(check for check in report.checks if check.name == name)


def test_threshold_sigma_check_is_relative_at_large_thresholds():
    # Draw 9 of seed 108004 has its crossing near 4e6, where an absolute
    # 1e-9 tolerance on sigma is two float64 ulps.
    report = run_subject("closed-forms", seed=108004)
    assert _check(report, "threshold_sigma").ok


def test_threshold_sigma_check_catches_a_misplaced_optimum(monkeypatch):
    def off_by_a_millionth(params):
        optimum = gqf_optimize_sigma(params)
        return replace(optimum, sigma_q2=optimum.sigma_q2 * (1.0 + 1e-6))

    monkeypatch.setattr("hdmarc.verify.gqf_optimize_sigma", off_by_a_millionth)
    report = run_subject("closed-forms", seed=0, draws=5)
    check = _check(report, "threshold_sigma")
    assert not check.ok
    assert check.max_dev == pytest.approx(1e-6, rel=1e-3)


# ---------------------------------------------------------------------------
# Raw-inequality sweep against the simplified finite-alphabet region


def test_ru_sweep_matches_simplified_region():
    rng = np.random.default_rng(74)
    for _ in range(8):
        spec = make_random_spec(rng, {"yr": int(rng.integers(2, 4))})
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        swept = gqf_region_via_ru_sweep(spec, beta)
        direct = gqf_region_marc(spec, beta)
        assert swept.r1_max == pytest.approx(direct.r1_max, abs=1e-10)
        assert swept.r2_max == pytest.approx(direct.r2_max, abs=1e-10)
        assert swept.sum_max == pytest.approx(direct.sum_max, abs=1e-10)


def test_ru_sweep_exposes_its_raw_terms():
    rng = np.random.default_rng(75)
    spec = make_random_spec(rng)
    region = gqf_region_via_ru_sweep(spec, validate_beta(0.5))
    for key in (
        "R_U",
        "r1_plain",
        "r1_with_index",
        "r2_plain",
        "r2_with_index",
        "sum_plain",
        "sum_with_index",
    ):
        assert key in region.terms
    assert region.terms["R_U"] >= 0.0


def test_ru_sweep_index_rate_for_degenerate_quantizers():
    rng = np.random.default_rng(76)
    constant = make_random_spec(rng, {"yhr": 1})
    beta = validate_beta(0.6)
    assert gqf_region_via_ru_sweep(constant, beta).terms["R_U"] == pytest.approx(
        0.0, abs=1e-12
    )
    # An identity quantizer describes YR exactly: R_U = beta * H(YR).
    base = make_random_spec(rng, {"yr": 3, "yhr": 3})
    identity = DmChannelSpec(
        px11=base.px11,
        px21=base.px21,
        px12=base.px12,
        px22=base.px22,
        pxr=base.pxr,
        test_channel=np.eye(3),
        slot1=base.slot1,
        slot2=base.slot2,
    )
    joint1 = build_slot1_joint(identity)
    expected = 0.6 * entropy(joint1, {"YR"})
    assert gqf_region_via_ru_sweep(identity, beta).terms["R_U"] == pytest.approx(
        expected, abs=1e-12
    )


def test_ru_sweep_rejects_bad_destination():
    rng = np.random.default_rng(77)
    spec = make_random_spec(rng)
    with pytest.raises(InvalidParams):
        gqf_region_via_ru_sweep(spec, validate_beta(0.5), k=3)
