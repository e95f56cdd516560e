"""Tests for shared domain types: slot fractions, scheme tags, region clamping."""

import math

import numpy as np
import pytest

from hdmarc import (
    OutOfRange,
    RateRegion,
    SchemeId,
    clamp_region,
    validate_beta,
)


def test_slot_fraction_accepts_interior_values():
    for beta in (1e-9, 0.25, 0.5, 0.99, 1 - 1e-12):
        assert validate_beta(beta) == float(beta)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan, math.inf, -math.inf])
def test_slot_fraction_rejects_endpoints_and_nonfinite(bad):
    with pytest.raises(OutOfRange):
        validate_beta(bad)


@pytest.mark.parametrize("bad", ["0.5", None, True, [0.5]])
def test_slot_fraction_rejects_non_numbers(bad):
    with pytest.raises(OutOfRange):
        validate_beta(bad)


def test_validate_beta_returns_floats():
    beta = validate_beta(0.4)
    assert type(beta) is float
    assert beta == 0.4
    with pytest.raises(OutOfRange):
        validate_beta(1.0)


def test_validate_beta_returns_float64_arrays():
    grid = validate_beta(np.array([0.25, 0.5], dtype=np.float32))
    assert grid.dtype == np.float64 and grid.tolist() == [0.25, 0.5]
    assert type(validate_beta(np.float32(0.25))) is float
    with pytest.raises(OutOfRange, match="inside \\(0, 1\\), got nan"):
        validate_beta(np.array([0.5, np.nan, 2.0]))
    with pytest.raises(OutOfRange, match="must be a real number, got array"):
        validate_beta(np.array([0.5]), allow_array=False)


def test_scheme_ids_round_trip_their_names():
    assert SchemeId("GQF") is SchemeId.GQF
    assert SchemeId("CF") is SchemeId.CF
    assert SchemeId("NO_RELAY") is SchemeId.NO_RELAY
    assert {s.value for s in SchemeId} == {"GQF", "CF", "NO_RELAY"}


def test_clamp_region_passes_consistent_bounds_through():
    region = clamp_region(0.8, 0.6, 1.1)
    assert region == RateRegion(0.8, 0.6, 1.1, True, {})


def test_clamp_region_lifts_negative_rate_to_zero():
    region = clamp_region(-0.2, 0.6, 0.4)
    assert region.r1_max == 0.0
    assert region.r2_max == 0.6
    assert region.sum_max == 0.4


def test_clamp_region_caps_sum_at_rate_total():
    region = clamp_region(0.8, 0.6, 1.9)
    assert region.sum_max == pytest.approx(1.4, abs=0.0)
    assert region.r1_max == 0.8
    assert region.r2_max == 0.6


def test_clamp_region_negative_sum_becomes_zero():
    region = clamp_region(0.5, 0.5, -1.0)
    assert region.sum_max == 0.0


def test_clamp_region_preserves_flag_and_terms():
    terms = {"a_1(1)": -0.25, "I1": 2.0}
    region = clamp_region(-0.25, 1.0, 2.0, feasible=False, terms=terms)
    assert region.feasible is False
    assert region.terms == terms
    # The stored terms are a copy, not an alias.
    terms["I1"] = 99.0
    assert region.terms["I1"] == 2.0


def test_clamp_region_is_idempotent_under_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(500):
        r1, r2, rsum = rng.uniform(-2.0, 4.0, size=3)
        region = clamp_region(r1, r2, rsum)
        again = clamp_region(region.r1_max, region.r2_max, region.sum_max)
        assert again.r1_max == region.r1_max
        assert again.r2_max == region.r2_max
        assert again.sum_max == region.sum_max
        assert region.r1_max >= 0.0
        assert region.r2_max >= 0.0
        assert 0.0 <= region.sum_max <= region.r1_max + region.r2_max
