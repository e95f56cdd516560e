"""Tests for sweep configuration, CSV/plot emission, and the command line."""

import copy
import hashlib
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdmarc.dmregions
from hdmarc import (
    ConfigError,
    DmChannelSpec,
    HdmarcError,
    InvalidParams,
    OutOfRange,
    SchemeId,
    cf_region_cmacr,
    cf_region_marc,
    cf_rates,
    cf_sigma_min,
    config_from_dict,
    gqf_optimize_sigma,
    gqf_rates,
    gqf_region_cmacr,
    gqf_region_marc,
    gqf_region_via_ru_sweep,
    no_relay_region_cmacr,
    no_relay_region_marc,
    rate_region,
    run_subject,
    run_sweep,
    validate_beta,
)
from hdmarc.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from hdmarc.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    GridSpec,
    SweepConfig,
    evaluate,
    gaussian_point_from_dict,
    region_config_from_dict,
    render_csv,
    render_plot_script,
)
from hdmarc.dmregions import dm_regions
from hdmarc.gaussian import cf_bounds, gaussian_regions, gqf_bounds
from hdmarc.verify import Check, Report, draw_dm_spec

from _support import assert_same_bits, benchmark_params, make_random_spec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: SHA-256 of the CSV each shipped config writes (numpy 2.4.6, Python 3.11.7).
SHIPPED_CSV_SHA256 = {
    "dm_beta_sweep": "fa486577653120625d1f3363c93e4afba86e19008a51576a878b1279e8a00240",
    "gaussian_beta_sweep": "53a537d4b4da71146cc87bd1c1f967476be4af676cf739f01a6b883ff0341104",
    "gaussian_sigma_sweep": "071fb30ca7dee7a0739aa61e9eedcb406d014fff6236a9353b78ea908d75c480",
}

#: The public single-point DM region functions, by topology and scheme.
DM_REGION_FUNCTIONS = {
    ("marc", SchemeId.GQF): gqf_region_marc,
    ("marc", SchemeId.CF): cf_region_marc,
    ("marc", SchemeId.NO_RELAY): no_relay_region_marc,
    ("cmacr", SchemeId.GQF): gqf_region_cmacr,
    ("cmacr", SchemeId.CF): cf_region_cmacr,
    ("cmacr", SchemeId.NO_RELAY): no_relay_region_cmacr,
}

#: Seed of a random spec whose CF points are feasible at some of the nine
#: betas in [0.1, 0.9] and infeasible at the others, on both topologies.
MIXED_CF_SEED = 93


def _gaussian_sweep_doc():
    return {
        "schema_version": 1,
        "model": "gaussian",
        "swept": "sigma_q2",
        "grid": {"min": 0.5, "max": 8.0, "points": 5, "spacing": "log"},
        "schemes": ["GQF", "CF", "NO_RELAY"],
        "channel": {
            "gains": {"h11": 1.0, "h21": 1.0, "h1R": 3.0, "h2R": 0.5, "hR1": 3.0},
            "powers": {"P11": 1.0, "P12": 1.0, "P21": 1.0, "P22": 1.0, "PR": 1.0},
            "beta": 0.5,
        },
        "no_relay": {"P1": 1.5, "P2": 1.5},
    }


def _channel_doc(spec):
    return {
        "p_x11": spec.px11.tolist(),
        "p_x21": spec.px21.tolist(),
        "p_x12": spec.px12.tolist(),
        "p_x22": spec.px22.tolist(),
        "p_xr": spec.pxr.tolist(),
        "test_channel": spec.test_channel.tolist(),
        "slot1": spec.slot1.tolist(),
        "slot2": spec.slot2.tolist(),
    }


def _dm_sweep_doc():
    rng = np.random.default_rng(81)
    return {
        "schema_version": 1,
        "model": "dm",
        "swept": "beta",
        "grid": {"min": 0.2, "max": 0.8, "points": 4},
        "schemes": ["GQF", "CF", "NO_RELAY"],
        "channel": _channel_doc(make_random_spec(rng)),
    }


# ---------------------------------------------------------------------------
# Grid and config validation


def test_grid_values_linear_and_log():
    linear = GridSpec(lo=0.0, hi=1.0, points=5, spacing="linear").values()
    np.testing.assert_allclose(linear, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    log = GridSpec(lo=0.1, hi=100.0, points=4, spacing="log").values()
    assert log[0] == pytest.approx(0.1, rel=1e-12)
    assert log[-1] == pytest.approx(100.0, rel=1e-12)
    ratios = [log[i + 1] / log[i] for i in range(3)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)
    assert all(a < b for a, b in zip(log, log[1:]))


def test_grid_points_are_capped():
    GridSpec(lo=0.1, hi=0.9, points=MAX_GRID_POINTS, spacing="linear")
    with pytest.raises(ConfigError, match=f"2 to {MAX_GRID_POINTS} points"):
        GridSpec(lo=0.1, hi=0.9, points=MAX_GRID_POINTS + 1, spacing="linear")
    doc = _dm_sweep_doc()
    doc["grid"]["points"] = 10**12
    with pytest.raises(ConfigError, match="points"):
        config_from_dict(doc)


def test_grid_rejects_malformed_ranges():
    with pytest.raises(ConfigError):
        GridSpec(lo=1.0, hi=1.0, points=5, spacing="linear")
    with pytest.raises(ConfigError):
        GridSpec(lo=0.0, hi=1.0, points=1, spacing="linear")
    with pytest.raises(ConfigError):
        GridSpec(lo=0.0, hi=1.0, points=5, spacing="cubic")
    with pytest.raises(ConfigError):
        GridSpec(lo=0.0, hi=1.0, points=5, spacing="log")


def test_config_accepts_the_reference_document():
    config = config_from_dict(_gaussian_sweep_doc())
    assert config.model == "gaussian"
    assert config.swept == "sigma_q2"
    assert config.schemes == (SchemeId.GQF, SchemeId.CF, SchemeId.NO_RELAY)
    assert config.no_relay == (1.5, 1.5)
    assert config.gaussian.h1r == 3.0
    assert config.gaussian.sigma_q2 is None  # set per grid point


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema_version=2),
        lambda d: d.pop("schema_version"),
        lambda d: d.update(surprise=1),
        lambda d: d.update(model="analog"),
        lambda d: d.update(swept="pr"),
        lambda d: d["grid"].update(points=1),
        lambda d: d["grid"].update(min=9.0),
        lambda d: d["grid"].update(resolution=3),
        lambda d: d.update(schemes=[]),
        lambda d: d.update(schemes=["GQF", "GQF"]),
        lambda d: d.update(schemes=["GQF", "AF"]),
        lambda d: d["channel"]["gains"].pop("h1R"),
        lambda d: d["channel"]["gains"].update(h99=1.0),
        lambda d: d["channel"]["powers"].pop("PR"),
        lambda d: d["channel"].pop("beta"),
        lambda d: d["channel"].update(sigma_q2=1.0),
        lambda d: d.update(topology="marc"),
        lambda d: d.pop("no_relay"),
        lambda d: d["no_relay"].update(P3=1.0),
        lambda d: d.update(output=7),
        lambda d: d["channel"]["gains"].update(h11="one"),
    ],
)
def test_config_rejects_malformed_gaussian_documents(mutate):
    doc = _gaussian_sweep_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_beta_sweep_forbids_fixed_beta_and_checks_grid():
    doc = _gaussian_sweep_doc()
    doc["swept"] = "beta"
    doc["grid"] = {"min": 0.1, "max": 0.9, "points": 3}
    with pytest.raises(ConfigError):  # beta still fixed in the channel block
        config_from_dict(doc)
    del doc["channel"]["beta"]
    config = config_from_dict(doc)
    assert config.swept == "beta"
    bad = copy.deepcopy(doc)
    bad["grid"] = {"min": 0.0, "max": 0.9, "points": 3}
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad["grid"] = {"min": 0.1, "max": 1.0, "points": 3}
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_config_rejects_malformed_dm_documents():
    doc = _dm_sweep_doc()
    sigma_swept = copy.deepcopy(doc)
    sigma_swept["swept"] = "sigma_q2"
    sigma_swept["grid"] = {"min": 0.5, "max": 2.0, "points": 3}
    with pytest.raises(ConfigError):
        config_from_dict(sigma_swept)
    with_powers = copy.deepcopy(doc)
    with_powers["no_relay"] = {"P1": 1.0, "P2": 1.0}
    with pytest.raises(ConfigError):
        config_from_dict(with_powers)
    bad_topology = copy.deepcopy(doc)
    bad_topology["topology"] = "ring"
    with pytest.raises(ConfigError):
        config_from_dict(bad_topology)
    broken_channel = copy.deepcopy(doc)
    broken_channel["channel"]["p_x11"] = [0.7, 0.7]
    with pytest.raises(ConfigError):
        config_from_dict(broken_channel)


def test_dm_config_accepts_both_topologies():
    doc = _dm_sweep_doc()
    assert config_from_dict(doc).topology == "marc"
    doc["topology"] = "cmacr"
    assert config_from_dict(doc).topology == "cmacr"


def test_gaussian_point_parser_requires_both_knobs():
    channel = _gaussian_sweep_doc()["channel"]
    with pytest.raises(ConfigError):
        gaussian_point_from_dict(channel)  # sigma_q2 missing
    channel = dict(channel, sigma_q2=2.0)
    params = gaussian_point_from_dict(channel)
    assert params.sigma_q2 == 2.0
    assert params.beta == 0.5
    del channel["beta"]
    with pytest.raises(ConfigError):
        gaussian_point_from_dict(channel)


# ---------------------------------------------------------------------------
# Sweep execution and CSV shape


def test_sigma_sweep_rows_match_single_point_evaluations():
    config = config_from_dict(_gaussian_sweep_doc())
    result = run_sweep(config)
    values = config.grid.values()
    assert result.values == values
    for scheme in config.schemes:
        assert len(result.columns[scheme].rsum) == len(values)
    gqf = result.columns[SchemeId.GQF]
    for value, rsum, sigma in zip(values, gqf.rsum, gqf.sigma):
        point = gqf_rates(benchmark_params(sigma_q2=value))
        assert rsum == point.sum_max
        assert sigma == value
    threshold = cf_sigma_min(benchmark_params())
    cf = result.columns[SchemeId.CF]
    for value, rsum, feasible in zip(values, cf.rsum, cf.feasible):
        point = cf_rates(benchmark_params(sigma_q2=value))
        assert rsum == point.sum_max
        assert feasible == (value > threshold)
    baseline = result.columns[SchemeId.NO_RELAY]
    assert len(set(zip(baseline.r1, baseline.r2, baseline.rsum))) == 1
    assert baseline.sigma[0] is None
    assert baseline.rsum[0] == pytest.approx(1.0, abs=1e-12)


def test_beta_sweep_reoptimizes_sigma_per_point():
    doc = _gaussian_sweep_doc()
    doc["swept"] = "beta"
    doc["grid"] = {"min": 0.3, "max": 0.7, "points": 3}
    del doc["channel"]["beta"]
    result = run_sweep(config_from_dict(doc))
    gqf = result.columns[SchemeId.GQF]
    for value, rsum, sigma in zip(result.values, gqf.rsum, gqf.sigma):
        optimum = gqf_optimize_sigma(benchmark_params(beta=value))
        assert sigma == optimum.sigma_q2
        at_opt = gqf_rates(benchmark_params(beta=value, sigma_q2=optimum.sigma_q2))
        assert rsum == at_opt.sum_max
        # The row reports min(I1, I2) at the crossing, the optimizer the
        # falling branch I1; at the closed-form crossing they agree to
        # rounding.
        assert rsum == pytest.approx(optimum.sum_rate, abs=1e-12)
    cf = result.columns[SchemeId.CF]
    for value, sigma, feasible in zip(result.values, cf.sigma, cf.feasible):
        threshold = cf_sigma_min(benchmark_params(beta=value))
        assert sigma == pytest.approx(threshold, rel=1e-8)
        assert sigma > threshold
        assert feasible is True


def test_beta_sweep_names_the_beta_whose_threshold_overflows():
    doc = _gaussian_sweep_doc()
    doc["swept"] = "beta"
    doc["grid"] = {"min": 0.001, "max": 0.5, "points": 3}
    del doc["channel"]["beta"]
    config = config_from_dict(doc)
    for schemes in ((SchemeId.GQF,), (SchemeId.CF,)):
        with pytest.raises(HdmarcError, match=r"beta=0\.001\b"):
            run_sweep(replace(config, schemes=schemes))


def test_sweep_error_names_the_first_grid_point_that_overflows():
    doc = _gaussian_sweep_doc()
    doc["channel"]["gains"]["h11"] = 3.0
    doc["grid"] = {"min": 1e-3, "max": 1e308, "points": 3, "spacing": "log"}
    # 10 * sigma_q2 overflows at the last point only.
    with pytest.raises(HdmarcError, match=r"at beta=0\.5, sigma_q2=1e\+308$"):
        run_sweep(config_from_dict(doc))


def _swap_sources(config):
    """The same configuration with sources 1 and 2 exchanged."""
    if config.model == "gaussian":
        g = config.gaussian
        params = replace(g, h11=g.h21, h21=g.h11, h1r=g.h2r, h2r=g.h1r,
                         p11=g.p21, p21=g.p11, p12=g.p22, p22=g.p12)
        return replace(config, gaussian=params, no_relay=config.no_relay[::-1])
    s = config.dm_spec
    spec = DmChannelSpec(
        px11=s.px21, px21=s.px11, px12=s.px22, px22=s.px12, pxr=s.pxr,
        test_channel=s.test_channel,
        slot1=s.slot1.transpose(1, 0, 2, 3, 4),
        slot2=s.slot2.transpose(1, 0, 2, 3, 4),
    )
    return replace(config, dm_spec=spec)


def test_swapping_the_sources_swaps_their_rates_on_both_models():
    rng = np.random.default_rng(97)
    betas = np.linspace(0.1, 0.9, 9)
    gaussian = config_from_dict(_gaussian_sweep_doc())
    dm = config_from_dict(_dm_sweep_doc())
    configs = []
    for _ in range(10):
        gains = dict(zip(("h11", "h21", "h1r", "h2r", "hr1"), rng.uniform(0.1, 5.0, 5)))
        powers = dict(zip(("p11", "p12", "p21", "p22", "pr"), rng.uniform(0.1, 5.0, 5)))
        params = replace(gaussian.gaussian, **gains, **powers)
        configs.append(replace(gaussian, gaussian=params, no_relay=tuple(rng.uniform(0.1, 5.0, 2))))
        spec = make_random_spec(rng, {"x11": 3, "y12": 2})
        for topology in ("marc", "cmacr"):
            configs.append(replace(dm, dm_spec=spec, topology=topology))
    feasible = set()
    for config in configs:
        original = evaluate(config, betas)
        swapped = evaluate(_swap_sources(config), betas)
        for scheme in config.schemes:
            one, two = original[scheme], swapped[scheme]
            np.testing.assert_allclose(two.r1, one.r2, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(two.r2, one.r1, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(two.rsum, one.rsum, rtol=0.0, atol=1e-12)
            assert np.array_equal(two.feasible, one.feasible)
        feasible.update(np.ravel(original[SchemeId.CF].feasible).tolist())
    assert feasible == {True, False}


@pytest.mark.parametrize("bad", [1.5, 1.0, 0.0, -0.2, math.nan, math.inf])
def test_model_entries_reject_slot_fractions_outside_the_unit_interval(bad):
    params = benchmark_params()
    spec = make_random_spec(np.random.default_rng(5))
    named = re.escape(f"got {bad!r}")
    for beta in (bad, np.array([0.3, bad, 0.7, -5.0])):
        for schemes in ((SchemeId.NO_RELAY,), tuple(SchemeId)):
            with pytest.raises(OutOfRange, match=named):
                gaussian_regions(params, schemes, beta, no_relay=(1.5, 1.5))
            for topology in ("marc", "cmacr"):
                with pytest.raises(OutOfRange, match=named):
                    dm_regions(spec, topology, schemes, beta)


#: The six single-point DM functions and the (topology, scheme) each evaluates.
DM_POINT_FUNCTIONS = {
    gqf_region_marc: ("marc", SchemeId.GQF),
    gqf_region_cmacr: ("cmacr", SchemeId.GQF),
    cf_region_marc: ("marc", SchemeId.CF),
    cf_region_cmacr: ("cmacr", SchemeId.CF),
    no_relay_region_marc: ("marc", SchemeId.NO_RELAY),
    no_relay_region_cmacr: ("cmacr", SchemeId.NO_RELAY),
}


def test_single_point_entries_take_a_plain_float():
    spec = make_random_spec(np.random.default_rng(MIXED_CF_SEED))
    for beta in (0.1, 0.4, 0.9):
        for function, (topology, scheme) in DM_POINT_FUNCTIONS.items():
            expected = rate_region(dm_regions(spec, topology, (scheme,), beta)[scheme])
            assert function(spec, beta) == expected, (function.__name__, beta)
        region = gqf_region_via_ru_sweep(spec, beta)
        assert abs(region.sum_max - gqf_region_marc(spec, beta).sum_max) <= 1e-10


def test_numpy_typed_slot_fractions_compute_in_float64():
    params = benchmark_params()
    spec = draw_dm_spec(np.random.default_rng(1))
    single = np.float32(0.3)
    grid = np.array([0.3, 0.55, 0.8], dtype=np.float32)
    for typed, plain in ((single, float(single)), (grid, grid.astype(np.float64))):
        got = gaussian_regions(params, tuple(SchemeId), typed, no_relay=(1.5, 1.5))
        want = gaussian_regions(params, tuple(SchemeId), plain, no_relay=(1.5, 1.5))
        for scheme in SchemeId:
            assert_same_bits(got[scheme], want[scheme])
        for topology in ("marc", "cmacr"):
            got = dm_regions(spec, topology, tuple(SchemeId), typed)
            want = dm_regions(spec, topology, tuple(SchemeId), plain)
            for scheme in SchemeId:
                assert_same_bits(got[scheme], want[scheme])
    # A numpy float is a real number at the single-point entries too.
    assert type(benchmark_params(beta=single).beta) is float
    assert gqf_region_marc(spec, single) == gqf_region_marc(spec, float(single))
    # An integer is a number: it is refused for its range, not its type.
    for integer in (np.int64(1), np.array([0, 1], dtype=np.int64)):
        with pytest.raises(OutOfRange, match="strictly inside"):
            gaussian_regions(params, (SchemeId.GQF,), integer)
        with pytest.raises(OutOfRange, match="strictly inside"):
            dm_regions(spec, "marc", (SchemeId.GQF,), integer)


def _beta_entries(spec, params):
    """Every public entry that takes a slot fraction, as ``beta -> call``."""
    entries = {
        "GaussianMarcParams": lambda beta: benchmark_params(beta=beta),
        "gqf_bounds": lambda beta: gqf_bounds(params, beta, 1.0),
        "gqf_bounds(sigma_q2=None)": lambda beta: gqf_bounds(params, beta),
        "cf_bounds": lambda beta: cf_bounds(params, beta, 1.0),
        "cf_bounds(sigma_q2=None)": lambda beta: cf_bounds(params, beta),
        "gqf_region_via_ru_sweep": lambda beta: gqf_region_via_ru_sweep(spec, beta),
    }
    for schemes in ((SchemeId.NO_RELAY,), tuple(SchemeId)):
        entries[f"gaussian_regions{schemes}"] = lambda beta, schemes=schemes: (
            gaussian_regions(params, schemes, beta, no_relay=(1.5, 1.5))
        )
        for topology in ("marc", "cmacr"):
            entries[f"dm_regions{topology, schemes}"] = (
                lambda beta, topology=topology, schemes=schemes: (
                    dm_regions(spec, topology, schemes, beta)
                )
            )
    for function in DM_POINT_FUNCTIONS:
        entries[function.__name__] = lambda beta, function=function: function(spec, beta)
    return entries


@pytest.mark.parametrize(
    "bad",
    ["0.5", None, True, np.True_, [0.5], np.array(["0.5"]), np.array([True]),
     np.array([0.5], dtype=object)],
    ids=["str", "None", "bool", "numpy-bool", "list", "str-array", "bool-array",
         "object-array"],
)
def test_every_beta_entry_rejects_non_numbers(bad):
    spec = make_random_spec(np.random.default_rng(5))
    entries = _beta_entries(spec, benchmark_params(sigma_q2=1.0))
    entries["dead-link cf_bounds"] = lambda beta: cf_bounds(
        benchmark_params(hr1=0.0), beta
    )
    for name, call in entries.items():
        with pytest.raises(OutOfRange, match="slot fraction must be a real number"):
            call(bad)
            pytest.fail(name)


def test_single_point_entries_reject_an_array_beta():
    spec = make_random_spec(np.random.default_rng(5))
    single_point = [benchmark_params, gqf_region_via_ru_sweep, *DM_POINT_FUNCTIONS]
    for beta in (np.array([0.3, 0.4]), np.array(0.3), np.array([0.3])):
        for function in single_point:
            args = (beta,) if function is benchmark_params else (spec, beta)
            with pytest.raises(OutOfRange, match="must be a real number, got array"):
                function(*args)


def test_sigma_grid_must_be_positive_and_finite():
    doc = _gaussian_sweep_doc()
    doc["grid"] = {"min": 0.0, "max": 4.0, "points": 5}  # linear from zero
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    with pytest.raises(ConfigError):
        GridSpec(lo=0.5, hi=math.inf, points=5, spacing="log")


def test_dm_sweep_runs_both_topologies():
    doc = _dm_sweep_doc()
    single = run_sweep(config_from_dict(doc))
    doc["topology"] = "cmacr"
    compound = run_sweep(config_from_dict(doc))
    for scheme in (SchemeId.GQF, SchemeId.NO_RELAY):
        one, both = single.columns[scheme], compound.columns[scheme]
        for one_sum, both_sum, sigma in zip(one.rsum, both.rsum, one.sigma):
            assert both_sum <= one_sum + 1e-12
            assert sigma is None


def _dm_sweep_configs():
    """The shipped DM config and a spec with mixed CF feasibility, both topologies."""
    shipped = config_from_dict(json.loads((CONFIG_DIR / "dm_beta_sweep.json").read_text()))
    mixed = SweepConfig(
        model="dm",
        swept="beta",
        grid=GridSpec(lo=0.1, hi=0.9, points=9, spacing="linear"),
        schemes=tuple(SchemeId),
        dm_spec=make_random_spec(np.random.default_rng(MIXED_CF_SEED)),
    )
    for config in (shipped, mixed):
        for topology in ("marc", "cmacr"):
            yield replace(config, topology=topology)


def test_dm_sweep_rows_equal_scalar_regions_bit_for_bit():
    feasible = set()
    for config in _dm_sweep_configs():
        result = run_sweep(config)
        for scheme in config.schemes:
            evaluate = DM_REGION_FUNCTIONS[(config.topology, scheme)]
            rows = zip(result.values, *result.columns[scheme][:4])
            for value, *got in rows:
                region = evaluate(config.dm_spec, validate_beta(value))
                want = [region.r1_max, region.r2_max, region.sum_max, region.feasible]
                assert repr(got) == repr(want), (config.topology, scheme, value)
                if scheme is SchemeId.CF:
                    feasible.add(got[3])
    assert feasible == {True, False}  # both CF branches were exercised


@pytest.mark.parametrize("points", [2, 9, 40])
@pytest.mark.parametrize(
    "schemes", [("GQF",), ("CF",), ("NO_RELAY",), ("GQF", "CF", "NO_RELAY")]
)
def test_dm_sweep_and_region_build_each_joint_once_per_spec(
    monkeypatch, tmp_path, points, schemes
):
    calls = []
    build = hdmarc.dmregions.build_slot1_joint

    def counting(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(hdmarc.dmregions, "build_slot1_joint", counting)
    channel = _dm_sweep_doc()["channel"]
    for topology in ("marc", "cmacr"):
        doc = dict(_dm_sweep_doc(), topology=topology, schemes=list(schemes))
        doc["grid"] = {"min": 0.1, "max": 0.9, "points": points}
        calls.clear()
        run_sweep(config_from_dict(doc))
        # The relay spec, plus the silenced spec for NO_RELAY or failed CF.
        assert 1 <= len(calls) <= 2
        if schemes == ("GQF",):
            assert len(calls) == 1

        region = {"model": "dm", "beta": 0.5, "topology": topology,
                  "schemes": list(schemes), "channel": channel}
        calls.clear()
        config_path = _write_json(tmp_path / "region.json", region)
        assert main(["region", "--config", config_path]) == EXIT_OK
        assert 1 <= len(calls) <= 2


def test_shipped_configs_write_the_pinned_csv_bytes(tmp_path, capsys):
    for name, digest in SHIPPED_CSV_SHA256.items():
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_csv_layout_and_formatting():
    config = config_from_dict(_gaussian_sweep_doc())
    result = run_sweep(config)
    text = render_csv(result)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 5
    # Rows are grouped by scheme, sweeping the grid inside each group.
    assert [line.split(",")[1] for line in lines[1:6]] == ["GQF"] * 5
    assert [line.split(",")[1] for line in lines[6:11]] == ["CF"] * 5
    assert [line.split(",")[1] for line in lines[11:16]] == ["NO_RELAY"] * 5
    first = lines[1].split(",")
    assert first[0] == format(result.values[0], ".12g")
    assert first[2] == format(result.columns[SchemeId.GQF].r1[0], ".12g")
    assert first[6] == format(result.values[0], ".12g")  # diagnostic sigma
    assert lines[11].split(",")[6] == ""  # no quantizer in the baseline
    feasibles = {line.split(",")[5] for line in lines[1:]}
    assert feasibles <= {"true", "false"}
    assert text.endswith("\n")


def test_sweep_and_csv_are_deterministic():
    doc = _gaussian_sweep_doc()
    first = render_csv(run_sweep(config_from_dict(doc)))
    second = render_csv(run_sweep(config_from_dict(_gaussian_sweep_doc())))
    assert first == second


def test_plot_script_structure(tmp_path):
    config = config_from_dict(_gaussian_sweep_doc())
    result = run_sweep(config)
    script = render_plot_script(
        result,
        str(tmp_path / "out" / "plot.gp"),
        str(tmp_path / "out" / "data.csv"),
    )
    assert "set datafile separator ','" in script
    assert "set xlabel 'sigma_q2'" in script
    assert "set logscale x" in script
    assert "csv = 'data.csv'" in script  # relative to the script location
    for scheme in ("GQF", "CF", "NO_RELAY"):
        assert f"strcol(2) eq '{scheme}'" in script
    linear = _gaussian_sweep_doc()
    linear["grid"]["spacing"] = "linear"
    no_log = render_plot_script(
        run_sweep(config_from_dict(linear)),
        str(tmp_path / "plot.gp"),
        str(tmp_path / "data.csv"),
    )
    assert "set logscale x" not in no_log


# ---------------------------------------------------------------------------
# Command line


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_cli_sweep_end_to_end(tmp_path, capsys):
    config_path = _write_json(tmp_path / "sweep.json", _gaussian_sweep_doc())
    out = tmp_path / "out" / "rates.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK
    assert out.exists()
    script = tmp_path / "out" / "rates.gp"
    assert script.exists()
    first = out.read_bytes()
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first  # byte-identical rerun
    banner = capsys.readouterr().out
    assert "15 rows" in banner


def test_cli_sweep_uses_config_output_path(tmp_path, monkeypatch):
    doc = _gaussian_sweep_doc()
    doc["output"] = "nested/rates.csv"
    config_path = _write_json(tmp_path / "sweep.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path]) == EXIT_OK
    assert (tmp_path / "nested" / "rates.csv").exists()
    assert (tmp_path / "nested" / "rates.gp").exists()


def test_cli_sweep_without_output_is_a_config_error(tmp_path):
    config_path = _write_json(tmp_path / "sweep.json", _gaussian_sweep_doc())
    assert main(["sweep", "--config", config_path]) == EXIT_CONFIG


def test_cli_reports_bad_json_and_missing_files(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["sweep", "--config", str(broken)]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == EXIT_IO


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_gaussian_sweep_doc()).encode("utf-16-le"))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cli_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["region", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cli_usage_errors_exit_with_config_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nonsense-subject"])
    assert excinfo.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_CONFIG


def test_cli_region_gaussian(tmp_path, capsys):
    doc = {
        "model": "gaussian",
        "schemes": ["GQF", "CF", "NO_RELAY"],
        "channel": dict(_gaussian_sweep_doc()["channel"], sigma_q2=3.0),
        "no_relay": {"P1": 1.5, "P2": 1.5},
    }
    config_path = _write_json(tmp_path / "region.json", doc)
    assert main(["region", "--config", config_path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"GQF", "CF", "NO_RELAY"}
    expected = gqf_rates(benchmark_params(sigma_q2=3.0))
    assert payload["GQF"]["sum_max"] == pytest.approx(expected.sum_max, abs=1e-12)
    assert payload["CF"]["feasible"] is True
    assert payload["NO_RELAY"]["sum_max"] == pytest.approx(1.0, abs=1e-12)


def test_cli_region_rejects_misplaced_fields(tmp_path):
    base = {
        "model": "gaussian",
        "schemes": ["GQF"],
        "channel": dict(_gaussian_sweep_doc()["channel"], sigma_q2=3.0),
    }
    with_beta = dict(base, beta=0.5)
    assert main(["region", "--config", _write_json(tmp_path / "a.json", with_beta)]) == EXIT_CONFIG
    with_extra = dict(base, extra=1)
    assert main(["region", "--config", _write_json(tmp_path / "b.json", with_extra)]) == EXIT_CONFIG
    needs_baseline = dict(base, schemes=["NO_RELAY"])
    assert main(["region", "--config", _write_json(tmp_path / "c.json", needs_baseline)]) == EXIT_CONFIG


@pytest.mark.parametrize("power", ["abc", True])
def test_cli_region_type_checks_no_relay_powers(tmp_path, capsys, power):
    doc = {
        "model": "gaussian",
        "schemes": ["NO_RELAY"],
        "channel": dict(_gaussian_sweep_doc()["channel"], sigma_q2=3.0),
        "no_relay": {"P1": power, "P2": 1.5},
    }
    config_path = _write_json(tmp_path / "region.json", doc)
    assert main(["region", "--config", config_path]) == EXIT_CONFIG
    assert "error: no_relay.P1 must be a number" in capsys.readouterr().err


def test_cli_region_small_beta_is_a_config_error_not_a_traceback(tmp_path):
    doc = {
        "model": "gaussian",
        "schemes": ["GQF", "CF"],
        "channel": dict(_gaussian_sweep_doc()["channel"], beta=0.001, sigma_q2=1.0),
    }
    config_path = _write_json(tmp_path / "region.json", doc)
    completed = subprocess.run(
        [sys.executable, "-m", "hdmarc.cli", "region", "--config", config_path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == EXIT_CONFIG
    assert completed.stderr.startswith("error: ")
    assert "beta=0.001" in completed.stderr
    assert "Traceback" not in completed.stderr


def test_cli_region_overflowing_gain_is_a_config_error_not_a_traceback(tmp_path):
    channel = _gaussian_sweep_doc()["channel"]
    doc = {
        "model": "gaussian",
        "schemes": ["GQF", "CF"],
        "channel": dict(
            channel, gains=dict(channel["gains"], h11=1e200), sigma_q2=1.0
        ),
    }
    config_path = _write_json(tmp_path / "region.json", doc)
    completed = subprocess.run(
        [sys.executable, "-m", "hdmarc.cli", "region", "--config", config_path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == EXIT_CONFIG
    assert completed.stderr.startswith("error: ")
    assert "h11=1e+200" in completed.stderr
    assert "Traceback" not in completed.stderr


def test_cli_region_dm(tmp_path, capsys):
    doc = {
        "model": "dm",
        "schemes": ["GQF", "CF"],
        "beta": 0.5,
        "topology": "cmacr",
        "channel": _dm_sweep_doc()["channel"],
    }
    out = tmp_path / "region.json"
    config_path = _write_json(tmp_path / "config.json", doc)
    assert main(["region", "--config", config_path, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"GQF", "CF"}
    assert payload["GQF"]["r1_max"] >= 0.0
    assert "terms" in payload["GQF"]


def _region_docs():
    """Region documents for both models and every scheme: Gaussian CF above
    and below its threshold and on a dead relay link, DM CF feasible at some
    of the slot fractions and not at others, on both topologies."""
    channel = _gaussian_sweep_doc()["channel"]
    for sigma, hr1 in ((3.0, 3.0), (1.0, 3.0), (1.0, 0.0)):
        yield {
            "model": "gaussian",
            "channel": dict(channel, gains=dict(channel["gains"], hR1=hr1), sigma_q2=sigma),
            "no_relay": {"P1": 1.5, "P2": 1.5},
        }
    spec = make_random_spec(np.random.default_rng(MIXED_CF_SEED))
    for topology in ("marc", "cmacr"):
        for beta in (0.1, 0.5, 0.9):
            yield {"model": "dm", "beta": beta, "topology": topology,
                   "channel": _channel_doc(spec)}


def test_cli_region_prints_the_one_point_evaluation(tmp_path, capsys):
    cf_feasible = set()
    for doc in _region_docs():
        config = region_config_from_dict(doc)
        expected = {
            scheme.value: rate_region(bounds)
            for scheme, bounds in evaluate(config, config.beta, config.sigma_q2).items()
        }
        assert main(["region", "--config", _write_json(tmp_path / "r.json", doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"GQF", "CF", "NO_RELAY"}
        for name, region in expected.items():
            terms = {k: v if math.isfinite(v) else None for k, v in region.terms.items()}
            assert payload[name] == {
                "r1_max": region.r1_max,
                "r2_max": region.r2_max,
                "sum_max": region.sum_max,
                "feasible": region.feasible,
                "terms": terms,
            }, (doc["model"], name)
        cf_feasible.add((doc["model"], payload["CF"]["feasible"]))
    assert cf_feasible == {(model, ok) for model in ("gaussian", "dm") for ok in (True, False)}


def test_cli_region_rejects_duplicate_schemes(tmp_path, capsys):
    for doc in _region_docs():
        doc["schemes"] = ["GQF", "CF", "GQF"]
        assert main(["region", "--config", _write_json(tmp_path / "r.json", doc)]) == EXIT_CONFIG
        assert "duplicates" in capsys.readouterr().err


def test_cli_region_no_relay_overflow_is_an_error_not_infinity(tmp_path, capsys):
    channel = _gaussian_sweep_doc()["channel"]
    doc = {
        "model": "gaussian",
        "schemes": ["NO_RELAY"],
        "channel": dict(channel, gains=dict(channel["gains"], h11=1e10), sigma_q2=1.0),
        "no_relay": {"P1": 1e300, "P2": 1.0},
    }
    assert main(["region", "--config", _write_json(tmp_path / "r.json", doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflow" in captured.err


def test_cli_verify_passes_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["verify", "reductions", "--draws", "3", "--out", str(out)]) == EXIT_OK
    first = capsys.readouterr().out
    assert first.strip().endswith("RESULT: PASS")
    assert out.read_text() == first
    assert main(["verify", "reductions", "--draws", "3"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_cli_verify_maps_failures_to_their_own_exit_code(monkeypatch, capsys):
    failing = Report(
        subject="closed-forms",
        seed=0,
        draws=1,
        checks=(Check(name="broken", max_dev=1.0, tol=1e-9),),
    )
    monkeypatch.setattr("hdmarc.cli.run_subject", lambda *a, **k: failing)
    assert main(["verify", "closed-forms"]) == EXIT_VERIFY
    assert "RESULT: FAIL" in capsys.readouterr().out


def test_cli_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "hdmarc.cli", "verify", "reductions", "--draws", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "RESULT: PASS" in completed.stdout


def test_verify_rejects_bad_draw_counts():
    with pytest.raises(InvalidParams):
        run_subject("closed-forms", draws=0)
    with pytest.raises(InvalidParams):
        run_subject("everything")


def test_verify_rejects_bad_seeds_and_non_integer_draws(capsys):
    for kwargs in (
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "1"},
        {"draws": 2.5},
        {"draws": "3"},
    ):
        with pytest.raises(InvalidParams):
            run_subject("reductions", **kwargs)
    assert main(["verify", "closed-forms", "--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed")


def test_cli_region_rejects_non_numeric_dm_tables(tmp_path, capsys):
    doc = {"model": "dm", "beta": 0.5, "channel": _dm_sweep_doc()["channel"]}
    doc["channel"]["p_x11"] = ["0.5", "0.5"]
    doc["channel"]["p_x21"] = [True, False]
    assert main(["region", "--config", _write_json(tmp_path / "r.json", doc)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "p_x11" in captured.err
