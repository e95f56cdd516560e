"""Tests for the log-determinant oracle and the raw-inequality region sweep.

The covariance entries and mutual informations are checked against hand
algebra on the benchmark channel, and the closed-form rate expressions are
cross-checked term by term against the oracle on random channels.
"""

import math
from dataclasses import replace
from itertools import accumulate, product

import numpy as np
import pytest

import hdmarc
import hdmarc.dminfo
import hdmarc.dmregions
import hdmarc.verify
from hdmarc import (
    DegenerateRelayLink,
    DimensionMismatch,
    DmChannelSpec,
    GaussianMarcParams,
    HdmarcError,
    InvalidParams,
    OutOfRange,
    OverlappingSets,
    SchemeId,
    SingularCovariance,
    TensorTooLarge,
    UnknownVariable,
    rate_region,
    run_subject,
)
from hdmarc.core import validate_beta
from hdmarc.dminfo import build_slot1_joint, build_slot2_joint, entropy
from hdmarc.dmregions import gqf_region_cmacr, gqf_region_marc, slot_terms
from hdmarc.gaussian import cf_sigma_min, gaussian_regions, gqf_rates
from hdmarc.oracle import (
    BATCH_DRAWS,
    PIVOT_TOL,
    SLOT1_ORDER,
    SLOT2_ORDER,
    GaussianVectorModel,
    build_covariance,
    closed_forms_via_log_dets,
    crossing_offset,
    gaussian_mi,
    gqf_region_via_ru_sweep,
    gqf_regions_via_ru_sweep,
    single_source_gqf_branch_pairs,
)
from hdmarc.verify import (
    DM_TOL,
    draw_dm_spec,
    draw_gaussian_params,
    draw_single_source_spec,
)

from _support import (
    assert_same_bits,
    benchmark_params,
    count_calls,
    count_joint_builds,
    entry,
    make_random_spec,
    random_gaussian_params as _random_params,
    stacked,
)


# ---------------------------------------------------------------------------
# Model construction and validation


def test_model_rejects_unknown_and_duplicate_names():
    factor = np.eye(2)
    with pytest.raises(UnknownVariable):
        GaussianVectorModel(("X11", "BOGUS"), factor)
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("X11", "X11"), factor)


def test_model_rejects_malformed_covariances():
    # The model is its square-root factor: one row per name.
    with pytest.raises(DimensionMismatch):
        GaussianVectorModel(("X11", "X21"), np.eye(3))
    with pytest.raises(DimensionMismatch):
        GaussianVectorModel(("X11", "X21"), [1.0, 1.0])


@pytest.mark.parametrize(
    "factor",
    [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [math.inf, 1.0]],
        [["1", "0"], ["0", "1"]],
        [[1.0, 0.0], [0.0]],  # ragged
        [[1.0, 0.0], [0.0, True]],
        # A square root need not be square.
        [[1.0, 0.0, 0.0], [0.0, 1.0, math.nan]],
        [["1"], ["1"]],
    ],
    ids=["nan", "inf", "strings", "ragged", "bool", "nan-factor", "string-factor"],
)
def test_model_refuses_non_finite_and_non_numeric_entries(factor):
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("X11", "Y11"), factor)


def test_model_enforces_unit_noise_floor_on_outputs():
    # An input may have tiny variance, but an observed output cannot drop
    # below the unit channel noise.  Variances are the factor's row sums of
    # squares.
    GaussianVectorModel(("X11",), np.array([[1e-3]]))
    GaussianVectorModel(("Y11",), np.array([[0.6, 0.8]]))
    with pytest.raises(InvalidParams):
        GaussianVectorModel(("Y11",), np.array([[0.5**0.5]]))


def test_model_covariance_is_readonly():
    model = GaussianVectorModel(("X11", "Y11"), np.eye(2))
    with pytest.raises(ValueError):
        model.cov[0, 0] = 5.0
    with pytest.raises(ValueError):
        model.factor[0, 0] = 5.0


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


def _one_qr_per_order_mi(model, a, b, c=()):
    """I(A; B | C) by one QR per block order, the arithmetic that
    :func:`gaussian_mi` stacks into a single QR."""
    a, b, c = set(a), set(b), set(c)
    if sorted(b) < sorted(a):
        a, b = b, a

    def log2dets(*blocks):
        names = set().union(*blocks)
        idx = [i for block in blocks for i, name in enumerate(model.names) if name in block]
        logs = [0.0]
        if idx:
            pivots = np.abs(np.linalg.qr(model.factor[idx].T, mode="raw")[0].diagonal())
            if float(pivots.min()) ** 2 <= PIVOT_TOL:
                raise SingularCovariance(
                    f"covariance of {sorted(names)} is numerically singular "
                    f"(conditional variance {float(pivots.min()) ** 2!r})"
                )
            steps = (2.0 * log for log in np.log2(pivots).tolist())
            logs = list(accumulate(steps, initial=0.0))
        return [logs[end] for end in accumulate(map(len, blocks))]

    log_c, log_ac, log_abc = log2dets(c, a, b)
    log_bc = log2dets(c, b)[1]
    return 0.5 * (log_ac + log_bc - log_c - log_abc)


def _disjoint_triples(names):
    """Every (A, B, C) of pairwise disjoint subsets of ``names`` with A and B
    non-empty."""
    triples = []
    for roles in product(range(4), repeat=len(names)):  # A, B, C or unused
        sets = [{n for n, role in zip(names, roles) if role == r} for r in range(3)]
        if sets[0] and sets[1]:
            triples.append(tuple(sets))
    return triples


@pytest.mark.parametrize("seed", [5, 285, 2007, 71])
def test_stacked_log_dets_equal_one_qr_per_order_bit_for_bit(seed):
    # The verify closed-forms draws of ``seed`` (5, 285 and 2007 reach CF
    # thresholds of 9e-9, 3e-12 and 3e-13), at the drawn sigma_q2 and at the
    # threshold.  Every model gets a random sample of all disjoint triples in
    # one batch; the model with the smallest threshold gets all of them.
    rng = np.random.default_rng(seed)
    pick = np.random.default_rng(seed + 1)
    all_triples = {1: _disjoint_triples(SLOT1_ORDER), 2: _disjoint_triples(SLOT2_ORDER)}
    tiniest = None
    for _ in range(100):
        params = draw_gaussian_params(rng)
        at_min = replace(params, sigma_q2=cf_sigma_min(params))
        if tiniest is None or at_min.sigma_q2 < tiniest.sigma_q2:
            tiniest = at_min
        for model_params, slot in ((params, 1), (at_min, 1), (params, 2)):
            model = build_covariance(model_params, slot)
            candidates = all_triples[slot]
            triples = [candidates[i] for i in pick.choice(len(candidates), 12)]
            want = [_one_qr_per_order_mi(model, *triple) for triple in triples]
            got = [gaussian_mi(model, *triple) for triple in triples]
            assert_same_bits(np.array(got), np.array(want))
    model = build_covariance(tiniest, 1)
    want = [_one_qr_per_order_mi(model, *triple) for triple in all_triples[1]]
    got = [gaussian_mi(model, *triple) for triple in all_triples[1]]
    assert_same_bits(np.array(got), np.array(want))


def test_stacked_log_dets_name_the_same_singular_submatrix():
    silent = build_covariance(benchmark_params(p11=0.0, sigma_q2=1.0), slot=1)
    fine = ({"X21"}, {"Y11"}, ())
    first = ({"X11"}, {"Y11"}, {"X21"})
    with pytest.raises(SingularCovariance) as want:
        _one_qr_per_order_mi(silent, *first)
    gaussian_mi(silent, *fine)
    with pytest.raises(SingularCovariance) as got:
        gaussian_mi(silent, *first)
    assert str(got.value) == str(want.value)
    assert "['X11', 'X21', 'Y11']" in str(got.value)

    tiny = build_covariance(benchmark_params(sigma_q2=1e-15), slot=1)
    with pytest.raises(SingularCovariance) as want:
        _one_qr_per_order_mi(tiny, {"YR"}, {"YhR"})
    with pytest.raises(SingularCovariance) as got:
        gaussian_mi(tiny, {"YR"}, {"YhR"})
    assert str(got.value) == str(want.value)


def test_stacked_log_dets_edge_cases():
    model = build_covariance(benchmark_params(sigma_q2=1.0), slot=1)
    assert gaussian_mi(model, (), ()) == 0.0
    assert gaussian_mi(model, (), {"X11"}, {"YR"}) == 0.0
    # A square root with fewer columns than coordinates: a submatrix beyond
    # its rank is singular, not an index error.
    rank_one = GaussianVectorModel(("X11", "X21"), np.ones((2, 1)))
    with pytest.raises(SingularCovariance):
        gaussian_mi(rank_one, {"X11"}, {"X21"})


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


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _extreme_channels():
    """Gains 1e-6..1e6, powers 1e-3..1e3 and sigma_q2 1e-8..1e12: a formed
    covariance loses positive semidefiniteness and symmetry to round-off
    here (about a third of these 300 draws), while its square root stays
    exact."""
    rng = np.random.default_rng(1)
    return [
        GaussianMarcParams(
            **{name: _log_uniform(rng, 1e-6, 1e6)
               for name in ("h11", "h21", "h1r", "h2r", "hr1")},
            **{name: _log_uniform(rng, 1e-3, 1e3)
               for name in ("p11", "p12", "p21", "p22", "pr")},
            beta=0.5,
            sigma_q2=_log_uniform(rng, 1e-8, 1e12),
        )
        for _ in range(300)
    ]


def test_closed_forms_match_log_det_oracle_at_extreme_channels():
    channels = _extreme_channels()
    oracle, _ = closed_forms_via_log_dets([(params, params.sigma_q2) for params in channels])
    assert len(oracle) == 6
    for row, params in enumerate(channels):
        closed = gqf_rates(params).terms
        for key, values in oracle.items():
            assert closed[key] == pytest.approx(values[row], abs=1e-8), (key, params)


def _assert_each_draw_alone_gives_the_same_bits(draws):
    terms, excess = closed_forms_via_log_dets(draws)
    assert list(terms) == ["a(1)", "b(1)", "a(2)", "b(2)", "I1", "I2"]
    assert {values.shape for values in terms.values()} == {excess.shape} == {(len(draws),)}
    for row, draw in enumerate(draws):
        want_terms, want_excess = closed_forms_via_log_dets([draw])
        assert list(want_terms) == list(terms)
        got = [values[row : row + 1] for values in terms.values()]
        assert_same_bits(got, list(want_terms.values()))
        assert_same_bits(excess[row : row + 1], want_excess)


@pytest.mark.parametrize(
    "draws",
    [None, 3, [benchmark_params(sigma_q2=1.0)], [(benchmark_params(sigma_q2=1.0),)]],
    ids=["None", "int", "bare-channel", "one-tuple"],
)
def test_closed_forms_oracle_refuses_draws_that_are_not_pairs(draws):
    with pytest.raises(InvalidParams):
        closed_forms_via_log_dets(draws)
    with pytest.raises(InvalidParams, match="at least one"):
        closed_forms_via_log_dets([])


def test_batched_closed_forms_equal_one_draw_batches_at_extreme_channels():
    channels = _extreme_channels()
    # Every draw's threshold is another draw's variance, so the threshold
    # model is not the slot-1 model of the same draw.
    sigmas = [params.sigma_q2 for params in channels]
    _assert_each_draw_alone_gives_the_same_bits(list(zip(channels, sigmas[1:] + sigmas[:1])))


def test_batched_closed_forms_equal_one_draw_batches_across_a_chunk_boundary():
    rng = np.random.default_rng(2007)
    channels = [draw_gaussian_params(rng) for _ in range(BATCH_DRAWS + 1)]
    _assert_each_draw_alone_gives_the_same_bits(
        [(params, cf_sigma_min(params)) for params in channels]
    )


def test_oracle_resolves_a_huge_interferer_gain():
    # With h21 = 1e6 the formed slot-1 covariance has an eigenvalue near
    # -5e-5; var(Y11 | no X21) = h11^2 p11 + 1 = 2.
    params = benchmark_params(h1r=1.0, h2r=1.0, hr1=1.0, h21=1e6, sigma_q2=1.0)
    model = build_covariance(params, slot=1)
    assert gaussian_mi(model, {"X21"}, {"Y11"}) == pytest.approx(
        0.5 * math.log2(1.0 + 1e12 / 2.0), abs=1e-9
    )


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


def _per_channel(production):
    """A stand-in for ``gaussian_regions_stack`` that asks ``production``,
    called as ``gaussian_regions`` is, about each channel in order, and
    answers with its bounds stacked into arrays."""

    def stack(channels, schemes, betas, sigma_q2s=None):
        sigmas = [None] * len(channels) if sigma_q2s is None else sigma_q2s
        return stacked([
            production(params, schemes, beta, sigma)
            for params, beta, sigma in zip(channels, betas, sigmas)
        ])

    return stack


def test_threshold_sigma_check_is_relative_at_large_thresholds():
    # Draw 9 of seed 108004 has its crossing near 4e6, where an absolute
    # 1e-9 tolerance on sigma is two float64 ulps.
    report = run_subject("closed-forms", seed=108004)
    assert _check(report, "threshold_sigma").ok


def test_threshold_sigma_check_catches_a_misplaced_optimum(monkeypatch):
    def off_by_a_millionth(params, schemes, beta, sigma_q2=None):
        evaluated = gaussian_regions(params, schemes, beta, sigma_q2)
        if sigma_q2 is None:  # the sum optimum
            optimum = evaluated[SchemeId.GQF]
            evaluated[SchemeId.GQF] = optimum._replace(sigma=optimum.sigma * (1.0 + 1e-6))
        return evaluated

    monkeypatch.setattr("hdmarc.verify.gaussian_regions_stack", _per_channel(off_by_a_millionth))
    report = run_subject("closed-forms", seed=0, draws=5)
    check = _check(report, "threshold_sigma")
    assert not check.ok
    assert check.max_dev == pytest.approx(1e-6, rel=1e-3)


def test_threshold_checks_catch_an_optimum_evaluated_off_the_crossing(monkeypatch):
    # The GQF optimum is moved off the crossing and evaluated there, so its
    # terms match its sigma.  The CF side works out its threshold itself,
    # so the sum rates no longer meet either.
    def off_by_a_thousandth(params, schemes, beta, sigma_q2=None):
        if sigma_q2 is None:  # the sum optimum
            sigma = gaussian_regions(params, schemes, beta)[SchemeId.GQF].sigma
            sigma_q2 = sigma * (1.0 + 1e-3)
        return gaussian_regions(params, schemes, beta, sigma_q2)

    monkeypatch.setattr("hdmarc.verify.gaussian_regions_stack", _per_channel(off_by_a_thousandth))
    report = run_subject("closed-forms", seed=0, draws=5)
    sigma_check = _check(report, "threshold_sigma")
    assert not sigma_check.ok
    assert sigma_check.max_dev == pytest.approx(1e-3, rel=1e-2)
    assert not _check(report, "threshold_sum_rate").ok


# ---------------------------------------------------------------------------
# Raw-inequality sweep against the simplified finite-alphabet region


def test_ru_sweep_matches_simplified_region():
    rng = np.random.default_rng(74)
    for _ in range(8):
        spec = make_random_spec(rng, {"yr": int(rng.integers(2, 4))})
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        regions = gqf_region_via_ru_sweep(spec, beta)
        for topology, production in (
            ("marc", gqf_region_marc),
            ("cmacr", gqf_region_cmacr),
        ):
            swept, direct = regions[topology], production(spec, beta)
            assert swept.r1_max == pytest.approx(direct.r1_max, abs=1e-10)
            assert swept.r2_max == pytest.approx(direct.r2_max, abs=1e-10)
            assert swept.sum_max == pytest.approx(direct.sum_max, abs=1e-10)


def test_ru_sweep_exposes_its_raw_terms():
    rng = np.random.default_rng(75)
    spec = make_random_spec(rng)
    region = gqf_region_via_ru_sweep(spec, validate_beta(0.5))["marc"]
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
    assert gqf_region_via_ru_sweep(constant, beta)["marc"].terms["R_U"] == pytest.approx(
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
    joint1 = build_slot1_joint(identity, 1)
    expected = 0.6 * entropy(joint1, {"YR"})
    assert gqf_region_via_ru_sweep(identity, beta)["marc"].terms["R_U"] == pytest.approx(
        expected, abs=1e-12
    )


@pytest.mark.parametrize(
    "silent, hearing",
    [((), {"1", "2"}), (("y11", "y12"), {"2"}), (("y21", "y22"), {"1"})],
    ids=["both-hear", "silent-destination-1", "silent-destination-2"],
)
def test_ru_sweep_compound_matches_the_compound_region(silent, hearing):
    rng = np.random.default_rng(79)
    for _ in range(6):
        spec = draw_dm_spec(rng, dict.fromkeys(silent, 1))
        beta = float(rng.uniform(0.1, 0.9))
        swept = gqf_region_via_ru_sweep(spec, beta)["cmacr"]
        direct = gqf_region_cmacr(spec, beta)
        for field in ("r1_max", "r2_max", "sum_max"):
            assert abs(getattr(swept, field) - getattr(direct, field)) <= DM_TOL
        # Only the destinations that hear anything leave raw terms.
        assert {name.rsplit("_", 1)[1] for name in swept.terms} == hearing


def test_ru_sweep_refuses_a_channel_where_no_destination_hears():
    spec = draw_dm_spec(
        np.random.default_rng(80), {"y11": 1, "y12": 1, "y21": 1, "y22": 1}
    )
    with pytest.raises(InvalidParams, match="no destination"):
        gqf_region_via_ru_sweep(spec, 0.5)
    with pytest.raises(InvalidParams):
        gqf_region_cmacr(spec, 0.5)


def test_dm_regions_draw_builds_each_slot_joint_once(monkeypatch):
    calls = count_joint_builds(monkeypatch)
    built, tabled = [], []

    def recording(probs):
        built.append(probs)
        return table(probs)

    def recording_stack(stack):
        tabled.append(stack)
        return tables(stack)

    table, tables = hdmarc.dminfo._entropy_table, hdmarc.dminfo._entropy_tables
    monkeypatch.setattr(hdmarc.dminfo, "_entropy_table", recording)
    monkeypatch.setattr(hdmarc.dmregions, "_entropy_tables", recording_stack)
    # A chunk: one production call for both topologies on all its draws,
    # one stacked build per slot-1 joint of each destination and one of the
    # slot-2 joint, each with every spec of the chunk.
    drawn = []
    draw = hdmarc.verify.draw_dm_spec
    monkeypatch.setattr(hdmarc.verify, "draw_dm_spec", lambda rng: drawn.append(draw(rng)) or drawn[-1])
    assert run_subject("dm-regions", seed=0, draws=7).passed
    assert calls == {
        "build_slot1_joints": [(tuple(drawn), 1, False), (tuple(drawn), 2, False)],
        "build_slot2_joints": [(tuple(drawn), False)],
    }
    # Each stacked joint builds its entropy table once, and no JointPmf is
    # made or read.
    assert len(tabled) == 3 and built == []


def test_the_dm_oracle_builds_no_joint_through_dminfo(monkeypatch):
    calls = count_joint_builds(monkeypatch)
    made = []
    monkeypatch.setattr(hdmarc.dminfo.JointPmf, "__init__", lambda *args: made.append(args))
    monkeypatch.setattr(hdmarc.dminfo, "_entropy_tables", lambda stack: made.append(stack))
    rng = np.random.default_rng(0)
    dm = [(draw_dm_spec(rng), float(rng.uniform(0.1, 0.9))) for _ in range(5)]
    single = [draw_single_source_spec(rng) for _ in range(5)]
    assert gqf_regions_via_ru_sweep(dm)["cmacr"].r1.shape == (5,)
    assert [branches.shape for branches in single_source_gqf_branch_pairs(single)] == [(5,), (5,)]
    gqf_region_via_ru_sweep(*dm[0])
    single_source_gqf_branch_pairs(single[:1])
    assert calls == {"build_slot1_joints": [], "build_slot2_joints": []} and made == []


_INDEXED = {
    "build_covariance": lambda spec, index: build_covariance(
        benchmark_params(sigma_q2=1.0), index
    ),
    "slot_terms": lambda spec, index: slot_terms(spec, (index,)),
}


@pytest.mark.parametrize("index", [True, False, 1.0, 2.0, "1", None, 0, 3, np.int64(3)])
@pytest.mark.parametrize("function", sorted(_INDEXED))
def test_slot_and_destination_indices_are_integers_1_or_2(function, index):
    spec = make_random_spec(np.random.default_rng(78))
    with pytest.raises(InvalidParams):
        _INDEXED[function](spec, index)
    # A numpy integer is an integer.
    _INDEXED[function](spec, np.int64(2))


# ---------------------------------------------------------------------------
# The reference values verify compares against, as verify assembled them
# itself before they moved into hdmarc.oracle.


def _closed_forms_as_verify_assembled(params, sigma_min):
    """The six GQF terms from one slot-1 and one slot-2 batch, and the CF
    binning balance from a slot-1 batch at ``sigma_min`` and a lone slot-2
    mutual information, in the operation order verify used."""
    model1, model2 = build_covariance(params, slot=1), build_covariance(params, slot=2)
    triples1, triples2 = [], []
    for i, j in ((1, 2), (2, 1)):
        xi1, xj1 = f"X{i}1", f"X{j}1"
        xi2, xj2 = f"X{i}2", f"X{j}2"
        triples1 += [
            ({xi1}, {xj1, "Y11", "YhR"}, ()),
            ({xi1}, {xj1, "Y11"}, ()),
            ({"YhR"}, {"YR"}, {xi1, xj1, "Y11"}),
        ]
        triples2 += [({xi2}, {xj2, "XR", "Y12"}, ()), ({xi2, "XR"}, {xj2, "Y12"}, ())]
    triples1 += [
        ({"X11", "X21"}, {"Y11", "YhR"}, ()),
        ({"X11", "X21"}, {"Y11"}, ()),
        ({"YhR"}, {"YR"}, {"X11", "X21", "Y11"}),
    ]
    triples2 += [
        ({"X12", "X22"}, {"XR", "Y12"}, ()),
        ({"X12", "X22", "XR"}, {"Y12"}, ()),
    ]
    mi1 = iter([gaussian_mi(model1, *triple) for triple in triples1])
    mi2 = iter([gaussian_mi(model2, *triple) for triple in triples2])
    b = params.beta
    comp = 1.0 - b
    values = {}
    for i in (1, 2):
        values[f"a({i})"] = b * next(mi1) + comp * next(mi2)
        values[f"b({i})"] = b * (next(mi1) - next(mi1)) + comp * next(mi2)
    values["I1"] = b * next(mi1) + comp * next(mi2)
    values["I2"] = b * (next(mi1) - next(mi1)) + comp * next(mi2)
    at_min = build_covariance(replace(params, sigma_q2=sigma_min), slot=1)
    quant_rate = gaussian_mi(at_min, {"YR"}, {"YhR"})
    side_info = gaussian_mi(at_min, {"Y11"}, {"YhR"})
    lhs = b * (quant_rate - side_info)
    rhs = (1.0 - b) * gaussian_mi(model2, {"XR"}, {"Y12"})
    return values, lhs - rhs


def _single_source_as_verify_assembled(spec, b):
    mi1 = build_slot1_joint(spec, 1).mutual_information
    mi2 = build_slot2_joint(spec).mutual_information
    plain = b * mi1({"X11"}, {"Y11", "YhR"}) + (1.0 - b) * mi2(
        {"X12"}, {"Y12"}, {"XR"}
    )
    with_index = b * (
        mi1({"X11"}, {"Y11"}) - mi1({"YhR"}, {"YR"}, {"X11", "Y11"})
    ) + (1.0 - b) * mi2({"X12", "XR"}, {"Y12"})
    return plain, with_index


@pytest.mark.parametrize("seed", [0, 2007])
def test_closed_forms_oracle_keeps_the_bits_of_the_old_assembly(seed):
    rng = np.random.default_rng(seed)
    channels = [draw_gaussian_params(rng) for _ in range(50)]
    draws = [(params, cf_sigma_min(params)) for params in channels]
    terms, excess = closed_forms_via_log_dets(draws)
    for row, (params, sigma_min) in enumerate(draws):
        want_terms, want_excess = _closed_forms_as_verify_assembled(params, sigma_min)
        assert list(terms) == list(want_terms) == ["a(1)", "b(1)", "a(2)", "b(2)", "I1", "I2"]
        assert_same_bits([values[row] for values in terms.values()], list(want_terms.values()))
        assert_same_bits(excess[row], want_excess)


@pytest.mark.parametrize("seed", [0, 2007])
def test_single_source_oracle_agrees_with_the_old_assembly(seed):
    # The oracle sums each marginal's entropy on its own from joints of its
    # own, so its bits are its own; the assembly from the spec's joints,
    # which production's entropy tables give, agrees to a few ulps.
    rng = np.random.default_rng(seed)
    draws = [draw_single_source_spec(rng) for _ in range(20)]
    pairs = np.transpose(single_source_gqf_branch_pairs(draws))
    for (spec, b), got in zip(draws, pairs):
        want = _single_source_as_verify_assembled(spec, b)
        assert_same_bits(got, np.concatenate(single_source_gqf_branch_pairs([(spec, b)])))
        assert all(abs(x - y) <= 1e-14 for x, y in zip(got, want)), (got, want)


def test_a_single_source_draw_checks_one_channel(monkeypatch):
    checked = []
    check = DmChannelSpec.__post_init__
    monkeypatch.setattr(
        DmChannelSpec, "__post_init__", lambda spec: checked.append(spec) or check(spec)
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        checked.clear()
        spec, _ = draw_single_source_spec(rng)
        assert len(checked) == 1 and checked[0] is spec


def test_a_closed_forms_chunk_builds_three_factor_stacks_and_three_qrs(monkeypatch):
    names = ("build_covariance", "_slot_factors", "_log2dets")
    calls = count_calls(monkeypatch, hdmarc.oracle, names, hdmarc.oracle, hdmarc.verify)
    for draws, chunks in ((1, [1]), (5, [5]), (BATCH_DRAWS + 1, [BATCH_DRAWS, 1])):
        for args in calls.values():
            args.clear()
        assert run_subject("closed-forms", seed=3, draws=draws).passed
        # No model object per draw: per chunk, the square roots of slot 1,
        # slot 2 and slot 1 at the threshold, each stacked over the chunk's
        # draws and factored by one stacked QR.
        assert calls["build_covariance"] == []
        assert calls["_slot_factors"] == [1, 2, 1] * len(chunks)
        assert [len(stack) for stack in calls["_log2dets"]] == [
            size for size in chunks for _ in range(3)
        ]


_FAULTS = {
    "oracle first": (8, {3: "singular", 6: "production"}),
    "production first": (8, {2: "production", 5: "singular"}),
    # Draw 6 fails the slot-1 QR, which the chunk runs before it checks
    # draw 4's threshold.
    "later stage first": (8, {4: "threshold", 6: "singular"}),
    "two of one stage": (8, {5: "singular", 6: "singular"}),
    "last draw": (8, {7: "threshold"}),
    "second chunk": (BATCH_DRAWS + 3, {BATCH_DRAWS + 1: "singular", BATCH_DRAWS + 2: "production"}),
}


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_a_failing_closed_forms_draw_raises_what_it_raises_draw_by_draw(monkeypatch, case):
    count, faults = _FAULTS[case]
    rng = np.random.default_rng(31)
    drawn = [draw_gaussian_params(rng) for _ in range(count)]
    for index, fault in faults.items():
        if fault == "singular":  # the oracle's quantizer pivot is below PIVOT_TOL
            drawn[index] = replace(drawn[index], sigma_q2=1e-16 / (index + 1))
    fault_of = {id(drawn[index]): (index, fault) for index, fault in faults.items()}

    def production(params, schemes, beta, sigma_q2=None):
        index, fault = fault_of.get(id(params), (None, None))
        if fault == "production":
            raise DegenerateRelayLink(f"injected at draw {index}")
        evaluated = gaussian_regions(params, schemes, beta, sigma_q2)
        if fault == "threshold" and SchemeId.CF in evaluated:
            evaluated[SchemeId.CF].terms["sigma_min"] = -float(index)
        return evaluated

    def first_error_draw_by_draw():
        for params in drawn:
            try:
                production(params, (SchemeId.GQF,), params.beta, params.sigma_q2)
                production(params, (SchemeId.GQF,), params.beta)
                cf = production(params, (SchemeId.CF,), params.beta, 1e-300)[SchemeId.CF]
                _closed_forms_as_verify_assembled(params, float(cf.terms["sigma_min"]))
            except HdmarcError as error:
                return error
        raise AssertionError("no draw fails")

    want = first_error_draw_by_draw()
    draws = iter(drawn)
    monkeypatch.setattr("hdmarc.verify.draw_gaussian_params", lambda rng: next(draws))
    monkeypatch.setattr("hdmarc.verify.gaussian_regions_stack", _per_channel(production))
    with pytest.raises(HdmarcError) as got:
        run_subject("closed-forms", seed=0, draws=count)
    assert (type(got.value), str(got.value)) == (type(want), str(want))


def test_crossing_offset_is_zero_at_the_reference_threshold_and_signed_off_it():
    params = benchmark_params()
    threshold = 55.5 / 27  # the reference channel's sum-optimal variance
    assert abs(crossing_offset(params, threshold)) < 1e-15
    assert crossing_offset(params, 2 * threshold) > 0.0 > crossing_offset(params, threshold / 2)


# ---------------------------------------------------------------------------
# The finite-alphabet oracle: chunks, and independence from production


def test_a_dm_oracle_chunk_gives_each_draw_its_one_draw_bits():
    # Mixed shapes share padded stacks; a long axis stacks only with its own
    # shape.  Every value keeps the bits of its draw alone.
    rng = np.random.default_rng(81)
    dm, single = [], []
    for sizes in ({}, {"y11": 9}, {"y11": 9, "yhr": 1}, {"y21": 1, "y22": 1}, {"yr": 7}):
        for _ in range(4):
            dm.append((draw_dm_spec(rng, sizes), float(rng.uniform(0.1, 0.9))))
            single.append(draw_single_source_spec(rng))
    # Draws that hear different destinations are asked in separate chunks.
    for hearing in (dm[:12] + dm[16:], dm[12:16]):
        regions = gqf_regions_via_ru_sweep(hearing)
        for row, (spec, beta) in enumerate(hearing):
            alone = gqf_regions_via_ru_sweep([(spec, beta)])
            for topology, bounds in regions.items():
                assert_same_bits(entry(bounds, row), entry(alone[topology], 0))
    pairs = np.transpose(single_source_gqf_branch_pairs(single))
    for (spec, beta), pair in zip(single, pairs):
        assert_same_bits(pair, np.concatenate(single_source_gqf_branch_pairs([(spec, beta)])))


def test_the_dm_oracle_refuses_draws_that_hear_different_destinations():
    # As a production stack refuses specs whose cMACr reaches different
    # destinations; the single-source branches read destination 1 alone.
    rng = np.random.default_rng(84)
    both = (draw_dm_spec(rng), 0.3)
    first_only = (draw_dm_spec(rng, {"y21": 1, "y22": 1}), 0.4)
    message = r"same destinations; draws\[0\] hears \(1, 2\) and draws\[2\] hears \(1,\)$"
    with pytest.raises(InvalidParams, match=message):
        gqf_regions_via_ru_sweep([both, both, first_only])
    deaf = draw_dm_spec(rng, dict.fromkeys(("y11", "y12", "y21", "y22"), 1))
    with pytest.raises(InvalidParams, match="no destination"):
        gqf_regions_via_ru_sweep([both, (deaf, 0.3)])


def test_the_one_draw_ru_sweep_is_draw_0_clamped():
    rng = np.random.default_rng(85)
    for silent in ((), ("y11", "y12"), ("y21", "y22")):
        spec, beta = draw_dm_spec(rng, dict.fromkeys(silent, 1)), float(rng.uniform(0.1, 0.9))
        regions = gqf_regions_via_ru_sweep([(spec, beta)])
        assert {bounds.sigma for bounds in regions.values()} == {None}
        for topology, region in gqf_region_via_ru_sweep(spec, beta).items():
            assert region == rate_region(entry(regions[topology], 0))


def test_the_dm_oracle_reads_its_draws_as_pairs_and_caps_its_joints():
    spec = make_random_spec(np.random.default_rng(82))
    for draws in ([spec], [(spec, 0.3, 1)], {(spec, 0.3)}):
        with pytest.raises(InvalidParams):
            gqf_regions_via_ru_sweep(draws)
        with pytest.raises(InvalidParams):
            single_source_gqf_branch_pairs(draws)
    with pytest.raises(OutOfRange):
        gqf_regions_via_ru_sweep([(spec, 0.3), (spec, 1.5)])
    for entry_point in (gqf_regions_via_ru_sweep, single_source_gqf_branch_pairs):
        with pytest.raises(InvalidParams, match="at least one"):
            entry_point([])
    big = make_random_spec(
        np.random.default_rng(83), {"x11": 4, "x21": 4, "yr": 16, "y11": 64, "y21": 4, "yhr": 32}
    )
    with pytest.raises(TensorTooLarge, match="slot-1 joint of destination 1 would hold 524288"):
        gqf_region_via_ru_sweep(big, 0.3)


@pytest.mark.parametrize("subject", ["dm-regions", "reductions"])
def test_an_entropy_table_in_nats_fails_the_dm_subjects(monkeypatch, subject):
    # The oracle computes its entropies itself: production's tables in nats
    # move every production term and no oracle value, so the check fails.
    assert run_subject(subject, seed=0, draws=20).passed
    tables = hdmarc.dminfo._entropy_tables
    monkeypatch.setattr(hdmarc.dmregions, "_entropy_tables", lambda stack: tables(stack) * math.log(2))
    assert not run_subject(subject, seed=0, draws=20).passed


def test_a_slot1_product_with_the_source_pmfs_swapped_fails_dm_regions(monkeypatch):
    # The oracle builds its joints itself: production's slot-1 joints with
    # p(x11) and p(x21) on each other's axes fail the check.  Both sources
    # have two letters, so the swapped joints are still pmfs.
    draw = hdmarc.verify.draw_dm_spec
    monkeypatch.setattr(hdmarc.verify, "draw_dm_spec", lambda rng: draw(rng, {"x11": 2, "x21": 2}))
    assert run_subject("dm-regions", seed=0, draws=20).passed
    product = hdmarc.dminfo._slot1_product
    monkeypatch.setattr(
        hdmarc.dminfo, "_slot1_product", lambda tc, slot1, px21, px11: product(tc, slot1, px11, px21)
    )
    assert not run_subject("dm-regions", seed=0, draws=20).passed


_DM_FAULTS = {
    # A fault of the oracle or of production, by draw.  Run on the whole
    # chunk, the oracle's comes first; draw by draw, the first draw's.
    "oracle first": (8, {3: "oracle", 6: "production"}),
    "production first": (8, {2: "production", 5: "oracle"}),
    "two of one kind": (8, {5: "production", 6: "production"}),
    "last draw": (8, {7: "oracle"}),
    "second chunk": (BATCH_DRAWS + 3, {BATCH_DRAWS + 1: "production", BATCH_DRAWS + 2: "oracle"}),
}


@pytest.mark.parametrize("subject", ["dm-regions", "reductions"])
@pytest.mark.parametrize("case", sorted(_DM_FAULTS))
def test_a_failing_dm_draw_raises_what_it_raises_draw_by_draw(monkeypatch, subject, case):
    count, faults = _DM_FAULTS[case]
    drawn = []
    draw_name, oracle_name = {
        "dm-regions": ("draw_dm_spec", "gqf_regions_via_ru_sweep"),
        "reductions": ("draw_single_source_spec", "single_source_gqf_branch_pairs"),
    }[subject]
    draw = getattr(hdmarc.verify, draw_name)

    def recording(rng):
        value = draw(rng)
        drawn.append(value[0] if isinstance(value, tuple) else value)
        return value

    def faulty(function, kind):
        def call(values, *args):
            for value in values:
                spec = value[0] if isinstance(value, tuple) else value
                index = next((i for i, other in enumerate(drawn) if other is spec), None)
                if faults.get(index) == kind:
                    raise DegenerateRelayLink(f"{kind} fault at draw {index}")
            return function(values, *args)

        return call

    monkeypatch.setattr(hdmarc.verify, draw_name, recording)
    oracle = getattr(hdmarc.verify, oracle_name)
    monkeypatch.setattr(hdmarc.verify, oracle_name, faulty(oracle, "oracle"))
    production = hdmarc.verify.dm_regions_stack
    monkeypatch.setattr(hdmarc.verify, "dm_regions_stack", faulty(production, "production"))
    first = min(faults)
    with pytest.raises(DegenerateRelayLink, match=f"^{faults[first]} fault at draw {first}$"):
        run_subject(subject, seed=0, draws=count)
