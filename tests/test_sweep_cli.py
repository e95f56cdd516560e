"""Tests for sweep configuration, CSV/plot emission, and the command line."""

import copy
import hashlib
import importlib
import inspect
import json
import math
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hdmarc import (
    Bounds,
    ConfigError,
    DmChannelSpec,
    GaussianMarcParams,
    HdmarcError,
    InvalidParams,
    OutOfRange,
    SchemeId,
    config_from_dict,
    emit_csv,
    emit_plot_script,
    rate_region,
    run_subject,
    run_sweep,
)
from hdmarc.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from hdmarc.core import read_schemes, validate_beta
from hdmarc.dmregions import (
    cf_region_cmacr,
    cf_region_marc,
    gqf_region_cmacr,
    gqf_region_marc,
    no_relay_region_cmacr,
    no_relay_region_marc,
)
from hdmarc.gaussian import cf_rates, cf_sigma_min, gqf_optimize_sigma, gqf_rates
from hdmarc.oracle import gqf_region_via_ru_sweep
from hdmarc.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    GridSpec,
    RegionConfig,
    SweepConfig,
    SweepResult,
    evaluate,
    gaussian_point_from_dict,
    region_config_from_dict,
    render_csv,
    render_plot_script,
)
from hdmarc.dmregions import dm_regions
from hdmarc.gaussian import gaussian_regions
from hdmarc.verify import MAX_DRAWS, SUBJECTS, Check, Report, _check_run, _Worst, draw_dm_spec

from _support import (
    MIXED_CF_SEED,
    assert_same_bits,
    benchmark_params,
    count_joint_builds,
    make_random_spec,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: SHA-256 of the CSV each shipped config writes (numpy 2.4.6, Python 3.11.7).
SHIPPED_CSV_SHA256 = {
    "dm_beta_sweep": "fa486577653120625d1f3363c93e4afba86e19008a51576a878b1279e8a00240",
    "gaussian_beta_sweep": "53a537d4b4da71146cc87bd1c1f967476be4af676cf739f01a6b883ff0341104",
    "gaussian_sigma_sweep": "071fb30ca7dee7a0739aa61e9eedcb406d014fff6236a9353b78ea908d75c480",
}

#: SHA-256 of the gnuplot script each shipped config writes beside its CSV.
SHIPPED_GP_SHA256 = {
    "dm_beta_sweep": "fc6b2504e1011ed0ba76da485f700b8cbdab554eee3c4cba7816614b687c8dd2",
    "gaussian_beta_sweep": "198842854292f81faa19f6502572f23ce0826ec1cce1e3338d9d198d42d1cc72",
    "gaussian_sigma_sweep": "2a2a3091b9512f5918b5d9c29945672ff2a687d868cbdd41b17a1933e8e30f22",
}

#: SHA-256 of each verify subject's report at seeds 0 and 2007 (numpy 2.4.6,
#: Python 3.11.7).
VERIFY_REPORT_SHA256 = {
    ("closed-forms", 0): "1675720a3430921cb4a97cb6a8811fc5d7ded21641c11881e64f7188e8661a4a",
    ("closed-forms", 2007): "14c283741cbed9397d0e015eec679f496aad9893a4633d2cebfae4c62c170963",
    ("dm-regions", 0): "355e3145b8f042d75cf9b25b282e898d9d22dd0daa2037fd0bf461c01f09d43a",
    ("dm-regions", 2007): "455e56241eec529503c9527d311d7e6a4cba8a4f4afbe5eb2b8f09f4bd42229c",
    ("reductions", 0): "e6216fe4c58b952ab8d13e80fdac7a13b81b6332317f5f146884658394047229",
    ("reductions", 2007): "19366d832f79a1f763ace33168a19ed5e818ece8114c02bfc1682873a1ab5f34",
}

#: SHA-256 of ``hdmarc region`` on each of ``_region_docs()``, in order
#: (numpy 2.4.6, Python 3.11.7).
REGION_SHA256 = (
    "0f07296fbb92689cdd9674bff255efa23517fcde829575c838405ecd924794dd",
    "2ca4608f671b0a8e4ff5b6b6ac5e8c1eafd4d1d9028b11b79e02444758a7e2f6",
    "340b5e401925993dd7cdc519a994793f682e03b9413c50808a86b252ee3e4a95",
    "a631b1982d8e03280f939ebd9f838900f5e27662d5dc00d1f11597aa15abf864",
    "520623d31e7769bb5423f79d1b1af06977433a96e9f00c55ebefd873eb08e858",
    "7166ac54bf6a2f6b1cce42a2d25d8871be73b61c22c78df5145dd6680c28ba58",
    "a0935ec11ba6ad18494d34c8bbfbf4d214eeb175cfd9f8d5ec07da3f44387d2e",
    "9fe055f8201c3d4d5dcb7a9df13b155c87873f442ff9bba0a995767b4e4d6ac2",
    "ab13e744ad357d5851113f74d622449a0d213e0e5f89844e44ade14ac147803a",
)

#: The public single-point DM region functions, by topology and scheme.
DM_REGION_FUNCTIONS = {
    ("marc", SchemeId.GQF): gqf_region_marc,
    ("marc", SchemeId.CF): cf_region_marc,
    ("marc", SchemeId.NO_RELAY): no_relay_region_marc,
    ("cmacr", SchemeId.GQF): gqf_region_cmacr,
    ("cmacr", SchemeId.CF): cf_region_cmacr,
    ("cmacr", SchemeId.NO_RELAY): no_relay_region_cmacr,
}

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


@pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
def test_a_sweep_computes_its_grid_once(monkeypatch, name):
    spaced = {"geomspace": [], "linspace": []}
    for function, calls in spaced.items():

        def counting(*args, calls=calls, original=getattr(np, function), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, function, counting)
    config = config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    result = run_sweep(config)
    want = {"geomspace": 0, "linspace": 0}
    want["geomspace" if config.grid.spacing == "log" else "linspace"] = 1
    assert {function: len(calls) for function, calls in spaced.items()} == want
    assert result.values == config.grid.values()


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
    with pytest.raises(ConfigError, match=f"grid.points must be at most {MAX_GRID_POINTS}"):
        GridSpec(lo=0.1, hi=0.9, points=MAX_GRID_POINTS + 1, spacing="linear")
    doc = _dm_sweep_doc()
    doc["grid"]["points"] = 10**12
    with pytest.raises(ConfigError, match="points"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(points="5"), "grid.points must be an integer, got '5'"),
        (dict(points=5.5), "grid.points must be an integer, got 5.5"),
        (dict(points=True), "grid.points must be an integer, got True"),
        (dict(lo="a"), "grid.min must be a number, got 'a'"),
        (dict(hi=None), "grid.max must be a number, got None"),
        (dict(hi=10**400), "grid.max is an integer too large for a float64"),
        (dict(lo=math.nan), "grid.min must be finite, got nan"),
    ],
)
def test_grid_rejects_non_numbers_with_a_config_error(kwargs, message):
    fields = dict(dict(lo=0.1, hi=0.9, points=5, spacing="linear"), **kwargs)
    with pytest.raises(ConfigError, match=re.escape(message)):
        GridSpec(**fields)


def test_grid_takes_numpy_integers_and_strs_and_refuses_arrays():
    grid = GridSpec(lo=0.1, hi=0.9, points=np.int64(5), spacing=np.str_("log"))
    assert (type(grid.points), type(grid.spacing)) == (int, str)
    assert grid == GridSpec(lo=0.1, hi=0.9, points=5, spacing="log")
    with pytest.raises(ConfigError, match="grid.spacing must be 'linear' or 'log', got array"):
        GridSpec(lo=0.1, hi=0.9, points=5, spacing=np.array(["log", "linear"]))
    with pytest.raises(ConfigError, match="grid.points must be an integer, got array"):
        GridSpec(lo=0.1, hi=0.9, points=np.array([5]), spacing="linear")


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
    assert type(config.channel) is GaussianMarcParams
    assert config.swept == "sigma_q2"
    assert config.schemes == (SchemeId.GQF, SchemeId.CF, SchemeId.NO_RELAY)
    assert config.no_relay == (1.5, 1.5)
    assert config.channel.h1r == 3.0
    assert config.channel.sigma_q2 is None  # set per grid point


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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("grid"), "config is missing fields ['grid']"),
        (lambda d: [d.pop(k) for k in ("grid", "model")], "config is missing fields ['grid', 'model']"),
        (lambda d: d["grid"].update(resolution=3), "grid has unknown fields ['resolution']"),
        (lambda d: d["channel"].update(gains=[1.0]), "channel.gains must be an object, got list"),
        (lambda d: d["no_relay"].clear(), "no_relay is missing fields ['P1', 'P2']"),
        (lambda d: d["grid"].update(max="8"), "grid.max must be a number, got '8'"),
    ],
)
def test_config_errors_name_the_document_and_its_keys(mutate, message):
    doc = _gaussian_sweep_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as caught:
        config_from_dict(doc)
    assert str(caught.value) == message


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


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("schemes", [["GQF", "CF"], ["GQF", "CF", "NO_RELAY"]])
def test_no_relay_powers_are_checked_when_parsed(tmp_path, value, schemes):
    # Whether or not NO_RELAY is asked for, a baseline power that is not
    # finite and non-negative is an error of the document, not of a sweep.
    sweep = dict(_gaussian_sweep_doc(), schemes=schemes, no_relay={"P1": value, "P2": 1.5})
    region = dict(next(_region_docs()), schemes=schemes, no_relay={"P1": value, "P2": 1.5})
    message = r"^no_relay\.P1 must be finite and non-negative, got"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(sweep)
    with pytest.raises(ConfigError, match=message):
        region_config_from_dict(region)
    sweep_path = _write_json(tmp_path / "s.json", sweep)
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "s.csv")]) == EXIT_CONFIG
    assert main(["region", "--config", _write_json(tmp_path / "r.json", region)]) == EXIT_CONFIG
    assert not (tmp_path / "s.csv").exists()


def test_a_config_holds_its_model_as_the_type_of_its_channel():
    assert [field.name for field in fields(SweepConfig)] == [
        "swept", "grid", "schemes", "channel", "no_relay", "topology", "output"
    ]
    assert [field.name for field in fields(RegionConfig)] == [
        "schemes", "channel", "beta", "no_relay", "topology"
    ]
    assert list(inspect.signature(evaluate).parameters) == ["config"]
    assert type(config_from_dict(_dm_sweep_doc()).channel) is DmChannelSpec
    regions = [region_config_from_dict(doc) for doc in _region_docs()]
    assert {type(config.channel) for config in regions} == {GaussianMarcParams, DmChannelSpec}
    # A hand-built config with a channel of neither type is refused, typed.
    sweep = config_from_dict(_dm_sweep_doc())
    neither = "channel must be a GaussianMarcParams or a DmChannelSpec, got"
    for channel in ("dm", None, _gaussian_sweep_doc()["channel"]):
        with pytest.raises(InvalidParams, match=f"{neither} {type(channel).__name__}$"):
            evaluate(replace(sweep, channel=channel))
        with pytest.raises(InvalidParams, match=f"^sweep failed .*: {neither}"):
            run_sweep(replace(sweep, channel=channel))
        with pytest.raises(InvalidParams, match=neither):
            evaluate(replace(regions[0], channel=channel))
    # A sigma_q2 sweep runs at the beta of a Gaussian channel.
    with pytest.raises(InvalidParams, match="channel must be a GaussianMarcParams, got Dm"):
        run_sweep(replace(sweep, swept="sigma_q2"))


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
    if isinstance(config.channel, GaussianMarcParams):
        g = config.channel
        params = replace(g, h11=g.h21, h21=g.h11, h1r=g.h2r, h2r=g.h1r,
                         p11=g.p21, p21=g.p11, p12=g.p22, p22=g.p12)
        return replace(config, channel=params, no_relay=config.no_relay[::-1])
    s = config.channel
    spec = DmChannelSpec(
        px11=s.px21, px21=s.px11, px12=s.px22, px22=s.px12, pxr=s.pxr,
        test_channel=s.test_channel,
        slot1=s.slot1.transpose(1, 0, 2, 3, 4),
        slot2=s.slot2.transpose(1, 0, 2, 3, 4),
    )
    return replace(config, channel=spec)


def test_swapping_the_sources_swaps_their_rates_on_both_models():
    rng = np.random.default_rng(97)
    betas = GridSpec(lo=0.1, hi=0.9, points=9, spacing="linear")
    gaussian = replace(config_from_dict(_gaussian_sweep_doc()), swept="beta", grid=betas)
    dm = replace(config_from_dict(_dm_sweep_doc()), grid=betas)
    configs = []
    for _ in range(10):
        gains = dict(zip(("h11", "h21", "h1r", "h2r", "hr1"), rng.uniform(0.1, 5.0, 5)))
        powers = dict(zip(("p11", "p12", "p21", "p22", "pr"), rng.uniform(0.1, 5.0, 5)))
        params = replace(gaussian.channel, **gains, **powers)
        configs.append(replace(gaussian, channel=params, no_relay=tuple(rng.uniform(0.1, 5.0, 2))))
        spec = make_random_spec(rng, {"x11": 3, "y12": 2})
        for topology in ("marc", "cmacr"):
            configs.append(replace(dm, channel=spec, topology=topology))
    feasible = set()
    for config in configs:
        original = evaluate(config)
        swapped = evaluate(_swap_sources(config))
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
                    dm_regions(spec, (topology,), schemes, beta)


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
            evaluated = dm_regions(spec, (topology,), (scheme,), beta)
            expected = rate_region(evaluated[topology][scheme])
            assert function(spec, beta) == expected, (function.__name__, beta)
        region = gqf_region_via_ru_sweep(spec, beta)["marc"]
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
        got = dm_regions(spec, ("marc", "cmacr"), tuple(SchemeId), typed)
        want = dm_regions(spec, ("marc", "cmacr"), tuple(SchemeId), plain)
        for topology in ("marc", "cmacr"):
            for scheme in SchemeId:
                assert_same_bits(got[topology][scheme], want[topology][scheme])
    # A numpy float is a real number at the single-point entries too.
    assert type(benchmark_params(beta=single).beta) is float
    assert gqf_region_marc(spec, single) == gqf_region_marc(spec, float(single))
    # An integer is a number: it is refused for its range, not its type.
    for integer in (np.int64(1), np.array([0, 1], dtype=np.int64)):
        with pytest.raises(OutOfRange, match="strictly inside"):
            gaussian_regions(params, (SchemeId.GQF,), integer)
        with pytest.raises(OutOfRange, match="strictly inside"):
            dm_regions(spec, ("marc",), (SchemeId.GQF,), integer)


def test_model_entries_read_a_generator_of_schemes_once():
    spec, params = make_random_spec(np.random.default_rng(5)), benchmark_params()
    schemes = (SchemeId.GQF, SchemeId.CF)
    entries = {
        "gaussian_regions": lambda schemes: gaussian_regions(params, schemes, 0.5),
        "dm_regions": lambda schemes: dm_regions(spec, ("marc",), schemes, 0.5)["marc"],
    }
    for name, entry in entries.items():
        want = entry(schemes)
        got = entry(scheme for scheme in schemes)
        assert list(got) == list(schemes), name
        for scheme in schemes:
            assert_same_bits(got[scheme], want[scheme])
        assert list(entry(iter([SchemeId.GQF]))) == [SchemeId.GQF], name


@pytest.mark.parametrize("schemes", [SchemeId.GQF, None, 3], ids=["scheme", "None", "int"])
def test_model_entries_refuse_schemes_that_are_not_iterable(schemes):
    spec, params = make_random_spec(np.random.default_rng(5)), benchmark_params()
    with pytest.raises(InvalidParams, match="schemes must be iterable"):
        gaussian_regions(params, schemes, 0.5)
    with pytest.raises(InvalidParams, match="schemes must be iterable"):
        dm_regions(spec, ("marc",), schemes, 0.5)


def _beta_entries(spec, params):
    """Every public entry that takes a slot fraction, as ``beta -> call``."""
    entries = {
        "GaussianMarcParams": lambda beta: benchmark_params(beta=beta),
        "gqf_region_via_ru_sweep": lambda beta: gqf_region_via_ru_sweep(spec, beta),
    }
    for schemes in ((SchemeId.NO_RELAY,), tuple(SchemeId)):
        entries[f"gaussian_regions{schemes}"] = lambda beta, schemes=schemes: (
            gaussian_regions(params, schemes, beta, no_relay=(1.5, 1.5))
        )
        for topology in ("marc", "cmacr"):
            entries[f"dm_regions{topology, schemes}"] = (
                lambda beta, topology=topology, schemes=schemes: (
                    dm_regions(spec, (topology,), schemes, beta)
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
    entries["dead-link CF"] = lambda beta: gaussian_regions(
        benchmark_params(hr1=0.0), (SchemeId.CF,), beta
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
        swept="beta",
        grid=GridSpec(lo=0.1, hi=0.9, points=9, spacing="linear"),
        schemes=tuple(SchemeId),
        channel=make_random_spec(np.random.default_rng(MIXED_CF_SEED)),
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
                region = evaluate(config.channel, validate_beta(value))
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
    calls = count_joint_builds(monkeypatch)["build_slot1_joints"]
    channel = _dm_sweep_doc()["channel"]

    def built_specs(destinations):
        """The channels built (the spec, then the relay-silenced one), each
        a stack of the one spec with one slot-1 joint per destination."""
        specs = [(specs, silenced) for specs, k, silenced in calls if k == destinations[0]]
        assert [(specs, silenced) for specs, _, silenced in calls] == [
            built for built in specs for _ in destinations
        ]
        assert [k for _, k, _ in calls] == [k for _ in specs for k in destinations]
        flags = [silenced for _, silenced in specs]
        assert flags == sorted(set(flags))  # each channel once, the spec first
        assert all(len(stack) == 1 and stack[0] is specs[0][0][0] for stack, _ in specs)
        return specs

    for topology, destinations in (("marc", (1,)), ("cmacr", (1, 2))):
        doc = dict(_dm_sweep_doc(), topology=topology, schemes=list(schemes))
        doc["grid"] = {"min": 0.1, "max": 0.9, "points": points}
        calls.clear()
        run_sweep(config_from_dict(doc))
        # The relay spec, plus the silenced spec for NO_RELAY or failed CF.
        assert 1 <= len(built_specs(destinations)) <= 2
        if schemes == ("GQF",):
            assert len(built_specs(destinations)) == 1

        region = {"model": "dm", "beta": 0.5, "topology": topology,
                  "schemes": list(schemes), "channel": channel}
        calls.clear()
        config_path = _write_json(tmp_path / "region.json", region)
        assert main(["region", "--config", config_path]) == EXIT_OK
        assert 1 <= len(built_specs(destinations)) <= 2


def test_shipped_configs_write_the_pinned_csv_bytes(tmp_path, capsys):
    for name, digest in SHIPPED_CSV_SHA256.items():
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_shipped_configs_write_the_pinned_plot_script_bytes(tmp_path, capsys):
    assert set(SHIPPED_GP_SHA256) == set(SHIPPED_CSV_SHA256)
    for name, digest in SHIPPED_GP_SHA256.items():
        argv = ["sweep", "--config", str(CONFIG_DIR / f"{name}.json"),
                "--out", str(tmp_path / f"{name}.csv")]
        assert main(argv) == EXIT_OK
        script = (tmp_path / f"{name}.gp").read_bytes()
        assert hashlib.sha256(script).hexdigest() == digest, name


def test_verify_reports_have_the_pinned_bytes(capsys):
    assert {subject for subject, _ in VERIFY_REPORT_SHA256} == set(SUBJECTS)
    for (subject, seed), digest in VERIFY_REPORT_SHA256.items():
        assert main(["verify", subject, "--seed", str(seed)]) == EXIT_OK
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == digest, (subject, seed)


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


def _render_csv_by_fstring(result):
    """The CSV text as render_csv once built it, one f-string with nested
    format specs per row: the reference for its bytes."""
    g = ".12g"
    lines = [CSV_HEADER]
    for scheme, bounds in result.columns.items():
        name = scheme.value
        for value, r1, r2, rsum, feasible, sigma in zip(result.values, *bounds[:5]):
            diag = "" if sigma is None else f"{sigma:{g}}"
            lines.append(
                f"{value:{g}},{name},{r1:{g}},{r2:{g}},{rsum:{g}},"
                f"{'true' if feasible else 'false'},{diag}"
            )
    return "\n".join(lines) + "\n"


def test_render_csv_bytes_equal_the_fstring_rendering():
    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, -1e300,
                2.0, -7.0, 1e16, 123456789012.0, 1234567890123.0, 0.1, 1 / 3]
    n = len(specials)
    rotated = specials[3:] + specials[:3]
    columns = {
        SchemeId.GQF: Bounds(specials, rotated, specials[::-1], [True] * n, rotated, {}),
        SchemeId.CF: Bounds(rotated, specials, rotated, [i % 2 == 0 for i in range(n)],
                            [None if i % 3 else v for i, v in enumerate(specials)], {}),
        SchemeId.NO_RELAY: Bounds(specials, specials, specials, [False] * n, [None] * n, {}),
    }
    result = SweepResult(config_from_dict(_gaussian_sweep_doc()), tuple(specials), columns)
    text = render_csv(result)
    assert text.encode() == _render_csv_by_fstring(result).encode()
    assert "\ninf,GQF,inf,-0," in text and ",nan," in text and "\n2,GQF,2," in text
    assert "4.94065645841e-324" in text and "-1e+300" in text and "1e+16" in text
    for doc in (_gaussian_sweep_doc(), _dm_sweep_doc()):
        result = run_sweep(config_from_dict(doc))
        assert render_csv(result) == _render_csv_by_fstring(result)


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


def test_plot_script_escapes_a_quote_in_the_csv_path(tmp_path, capsys):
    config_path = _write_json(tmp_path / "sweep.json", _gaussian_sweep_doc())
    out = tmp_path / "it's.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK
    script = (tmp_path / "it's.gp").read_text(encoding="utf-8")
    assert "csv = 'it''s.csv'" in script  # gnuplot's escape inside single quotes
    assert out.exists()


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


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_grid_bounds_beyond_int64_are_floats(tmp_path, spacing):
    grid = GridSpec(lo=1, hi=2**70, points=3, spacing=spacing)
    assert (type(grid.lo), type(grid.hi)) == (float, float)
    assert all(type(value) is float for value in grid.values())
    assert grid.values()[-1] == float(2**70)
    doc = _gaussian_sweep_doc()
    doc["grid"] = {"min": 1, "max": 2**70, "points": 3, "spacing": spacing}
    config_path = _write_json(tmp_path / "sweep.json", doc)
    out = tmp_path / "rates.csv"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == EXIT_OK


def test_cli_sweep_uses_config_output_path(tmp_path, monkeypatch):
    doc = _gaussian_sweep_doc()
    doc["output"] = "nested/rates.csv"
    config_path = _write_json(tmp_path / "sweep.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path]) == EXIT_OK
    assert (tmp_path / "nested" / "rates.csv").exists()
    assert (tmp_path / "nested" / "rates.gp").exists()


@pytest.mark.parametrize("where", ["--out", "output"])
def test_cli_sweep_refuses_a_csv_path_the_plot_script_would_overwrite(
    tmp_path, monkeypatch, capsys, where
):
    doc, argv = _gaussian_sweep_doc(), []
    if where == "output":
        doc["output"] = "rates.gp"
    else:
        argv = ["--out", "rates.gp"]
    config_path = _write_json(tmp_path / "sweep.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path, *argv]) == EXIT_CONFIG
    assert "'rates.gp' ends in .gp" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sweep.json"]


@pytest.mark.parametrize("path", ["nl/a\nb.csv", "a.csv\n", "a\rb.csv"], ids=["lf", "end", "cr"])
@pytest.mark.parametrize("where", ["--out", "output"])
def test_cli_sweep_refuses_a_csv_path_with_a_line_break(
    tmp_path, monkeypatch, capsys, where, path
):
    # The plot script quotes the CSV path in one line of gnuplot.
    doc, argv = _gaussian_sweep_doc(), []
    if where == "output":
        doc["output"] = path
    else:
        argv = ["--out", path]
    config_path = _write_json(tmp_path / "sweep.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path, *argv]) == EXIT_CONFIG
    assert f"{path!r} has a line break" in capsys.readouterr().err
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["sweep.json"]


#: Paths no file can have: a NUL character, and a lone surrogate that the
#: file system encoding cannot write (JSON can carry one as "\ud800").
_UNNAMEABLE = {"nul": "out/a\0.csv", "surrogate": "out/a\ud800.csv"}


@pytest.mark.parametrize("name", _UNNAMEABLE)
@pytest.mark.parametrize("where", ["--out", "output"])
def test_cli_sweep_refuses_a_path_that_cannot_name_a_file(
    tmp_path, monkeypatch, capsys, where, name
):
    path = _UNNAMEABLE[name]
    doc, argv = _gaussian_sweep_doc(), []
    if where == "output":
        doc["output"] = path
    else:
        argv = ["--out", path]
    config_path = _write_json(tmp_path / "sweep.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", config_path, *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: path {path!r} cannot name a file\n"
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["sweep.json"]


@pytest.mark.parametrize("command", ["sweep", "region"])
def test_cli_refuses_a_config_path_with_a_nul(capsys, command):
    assert main([command, "--config", "sweep\0.json"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: path 'sweep\\x00.json' cannot name a file\n"


def test_cli_region_and_verify_refuse_an_out_path_with_a_nul(tmp_path, monkeypatch, capsys):
    doc = next(_region_docs())
    config_path = _write_json(tmp_path / "region.json", doc)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["region", "--config", config_path, "--out", "x\0.json"],
        ["verify", "reductions", "--draws", "2", "--out", "v\0.txt"],
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # verify prints no report
        assert captured.err.startswith("error: path ") and "cannot name a file" in captured.err
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["region.json"]


def test_an_empty_config_path_is_a_config_error_and_an_empty_out_is_none(
    tmp_path, monkeypatch, capsys
):
    assert main(["sweep", "--config", ""]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: path '' cannot name a file\n"
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "reductions", "--draws", "2", "--out", ""]) == EXIT_OK
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", [True, 1, None, b"rates.csv", "", "rates\0.csv"])
def test_the_writers_refuse_a_path_that_cannot_name_a_file(tmp_path, monkeypatch, capsys, path):
    # open(True) would write to file descriptor 1 and then close it.
    monkeypatch.chdir(tmp_path)
    result = run_sweep(config_from_dict(_gaussian_sweep_doc()))
    with pytest.raises(ConfigError, match="path"):
        emit_csv(result, path)
    with pytest.raises(ConfigError, match="path"):
        emit_plot_script(result, path, "rates.csv")
    with pytest.raises(ConfigError, match="path"):
        emit_plot_script(result, "rates.gp", path)
    print("stdout still open")
    assert capsys.readouterr().out == "stdout still open\n"
    assert list(tmp_path.iterdir()) == []


def test_the_plot_script_writer_refuses_a_csv_path_with_a_line_break(tmp_path):
    result = run_sweep(config_from_dict(_gaussian_sweep_doc()))
    script, path = tmp_path / "rates.gp", "a\nb.csv"
    with pytest.raises(ConfigError, match=re.escape(f"{path!r} has a line break")):
        emit_plot_script(result, script, path)
    assert not script.exists()


def test_sweep_entries_refuse_objects_of_the_wrong_kind():
    config = config_from_dict(_gaussian_sweep_doc())
    with pytest.raises(InvalidParams, match="bounds must be a Bounds, got NoneType"):
        rate_region(None)
    with pytest.raises(InvalidParams, match="config must be a SweepConfig, got NoneType"):
        run_sweep(None)
    with pytest.raises(InvalidParams, match="swept must be 'sigma_q2' or 'beta', got 'bogus'"):
        run_sweep(replace(config, swept="bogus"))
    with pytest.raises(InvalidParams, match="grid must be a GridSpec, got tuple"):
        run_sweep(replace(config, grid=(0.1, 1.0, 5, "linear")))
    with pytest.raises(InvalidParams, match="scheme must be a SchemeId, got str"):
        run_sweep(replace(config, schemes=("GQF",)))
    with pytest.raises(InvalidParams, match="result must be a SweepResult, got NoneType"):
        render_csv(None)


def test_every_entry_refuses_a_repeated_scheme():
    gqf, cf = SchemeId.GQF, SchemeId.CF
    params = GaussianMarcParams(1.0, 1.0, 3.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, beta=0.5)
    spec = make_random_spec(np.random.default_rng(5))
    config = config_from_dict(_gaussian_sweep_doc())
    for call in (
        lambda: read_schemes([gqf, cf, gqf]),
        lambda: gaussian_regions(params, [gqf, gqf], 0.5),
        lambda: dm_regions(spec, ("marc",), (gqf, cf, gqf), 0.5),
        lambda: run_sweep(replace(config, schemes=(gqf, gqf))),
    ):
        with pytest.raises(InvalidParams, match="schemes lists GQF more than once"):
            call()


def test_a_sweep_refuses_a_set_of_schemes():
    # The CSV groups its rows by scheme in config order; a set's order
    # changes with the hash seed.
    for doc in (_gaussian_sweep_doc(), _dm_sweep_doc()):
        config = replace(config_from_dict(doc), schemes=set(SchemeId))
        for call in (run_sweep, evaluate):
            with pytest.raises(InvalidParams, match="^schemes must be in order, got a set$"):
                call(config)


def test_run_sweep_refuses_an_empty_scheme_list():
    for doc in (_gaussian_sweep_doc(), _dm_sweep_doc()):
        config = config_from_dict(doc)
        with pytest.raises(InvalidParams, match="a sweep needs at least one scheme"):
            run_sweep(replace(config, schemes=()))


def test_evaluate_refuses_a_config_with_no_scheme():
    # The parsers refuse an empty scheme list; a hand-built config gets the
    # same answer from evaluate, not an empty dict.
    for doc in (_gaussian_sweep_doc(), _dm_sweep_doc()):
        config = replace(config_from_dict(doc), schemes=())
        with pytest.raises(InvalidParams, match="^a sweep needs at least one scheme$"):
            evaluate(config)
    for doc in _region_docs():
        config = replace(region_config_from_dict(doc), schemes=())
        with pytest.raises(InvalidParams, match="^a region needs at least one scheme$"):
            evaluate(config)


@pytest.mark.parametrize("topology", ["cmacr", "bogus", None])
def test_a_gaussian_channel_has_the_marc_topology_only(topology):
    sweep = config_from_dict(_gaussian_sweep_doc())
    region = region_config_from_dict(next(_region_docs()))
    match = "the topology of a Gaussian channel must be 'marc'"
    with pytest.raises(InvalidParams, match=match):
        run_sweep(replace(sweep, topology=topology))
    with pytest.raises(InvalidParams, match=match):
        evaluate(replace(region, topology=topology))


def test_a_dm_channel_takes_no_no_relay_powers():
    sweep = config_from_dict(_dm_sweep_doc())
    region = region_config_from_dict(next(doc for doc in _region_docs() if doc["model"] == "dm"))
    match = "no_relay powers apply to a Gaussian channel only"
    with pytest.raises(InvalidParams, match=match):
        run_sweep(replace(sweep, no_relay=(1.0, 1.0)))
    with pytest.raises(InvalidParams, match=match):
        evaluate(replace(region, no_relay=(1.0, 1.0)))


def test_a_gaussian_region_is_evaluated_at_its_channel_point_only():
    region = region_config_from_dict(next(_region_docs()))
    channel = region.channel
    assert region.beta is None and (channel.beta, channel.sigma_q2) == (0.5, 3.0)
    want = gaussian_regions(
        channel, region.schemes, channel.beta, channel.sigma_q2, region.no_relay
    )
    got = evaluate(region)
    assert list(got) == list(want)
    for scheme, bounds in got.items():
        assert_same_bits(bounds, want[scheme])
    # The point is the channel's alone: a beta of the config's own is
    # refused, even one equal to the channel's.
    match = r"^a Gaussian region's beta is its channel's, not the config's$"
    for beta in (0.3, 0.5, math.nan, np.array([0.5, 0.5])):
        with pytest.raises(InvalidParams, match=match):
            evaluate(replace(region, beta=beta))


def _bad_results(result):
    """Sweep results the writers cannot render, built from the good ``result``
    of two grid values, by what is wrong with them."""
    gqf = result.columns[SchemeId.GQF]
    one_entry = Bounds(*(field[:1] for field in gqf[:5]), gqf.terms)
    return {
        "config None": replace(result, config=None),
        "config a dict": replace(result, config={"swept": "beta"}),
        "values str": replace(result, values=("0.1", "0.2")),
        "values bool": replace(result, values=(True, False)),
        "values one number": replace(result, values=0.1),
        "values nested": replace(result, values=((0.1, 0.2),)),
        "columns empty": replace(result, columns={}),
        "columns a list": replace(result, columns=[gqf]),
        "column None": replace(result, columns={SchemeId.GQF: None}),
        "column a tuple": replace(result, columns={SchemeId.GQF: tuple(gqf)}),
        "column keyed by str": replace(result, columns={"GQF": gqf}),
        "column of one entry": replace(result, columns={SchemeId.GQF: one_entry}),
        "column field a float": replace(result, columns={SchemeId.GQF: gqf._replace(r1=0.5)}),
        "column field too long": replace(
            result, columns={SchemeId.GQF: gqf._replace(sigma=[*gqf.sigma, 1.0])}
        ),
    }


def test_the_sweep_writers_refuse_a_result_they_cannot_render():
    doc = dict(_gaussian_sweep_doc(), swept="beta", grid={"min": 0.1, "max": 0.2, "points": 2})
    doc["channel"] = {key: doc["channel"][key] for key in ("gains", "powers")}
    writers = {
        "render_csv": render_csv,
        "render_plot_script": lambda result: render_plot_script(result, "r.gp", "r.csv"),
    }
    faults = []
    for case, result in _bad_results(run_sweep(config_from_dict(doc))).items():
        for name, writer in writers.items():
            try:
                writer(result)
            except InvalidParams:
                continue
            except Exception as exc:  # noqa: BLE001 - any other type is the fault
                faults.append(f"{name}, {case}: {type(exc).__name__}: {exc}")
            else:
                faults.append(f"{name}, {case}: rendered")
    assert not faults, "\n".join(faults)


def test_render_csv_refuses_an_entry_that_is_not_a_number():
    result = run_sweep(config_from_dict(_gaussian_sweep_doc()))
    gqf = result.columns[SchemeId.GQF]
    for bad in (gqf._replace(r1=["0.5"] * 5), gqf._replace(feasible=[np.ones(2)] * 5)):
        with pytest.raises(InvalidParams, match="a sweep result entry is not a number"):
            render_csv(replace(result, columns={SchemeId.GQF: bad}))


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


def test_an_integer_too_large_for_a_float64_is_a_config_error(tmp_path, capsys):
    channel = _gaussian_sweep_doc()["channel"]
    gains = dict(channel["gains"], h11=10**400)
    gaussian = {"model": "gaussian", "schemes": ["GQF", "CF"],
                "channel": dict(channel, gains=gains, sigma_q2=1.0)}
    dm = {"model": "dm", "beta": 10**400, "channel": _dm_sweep_doc()["channel"]}
    for name, doc in (("gaussian", gaussian), ("dm", dm)):
        config_path = _write_json(tmp_path / f"{name}.json", doc)
        assert "1" + "0" * 400 + "," in Path(config_path).read_text()
        assert main(["region", "--config", config_path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("is an integer too large for a float64\n")


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


@pytest.mark.parametrize("beta", [1.5, 0.0, math.nan])
def test_dm_region_beta_outside_the_open_interval_is_a_config_error(
    tmp_path, capsys, beta
):
    doc = {"model": "dm", "beta": beta, "channel": _dm_sweep_doc()["channel"]}
    with pytest.raises(ConfigError, match="region config beta: slot fraction"):
        region_config_from_dict(doc)
    config_path = _write_json(tmp_path / "region.json", doc)
    assert main(["region", "--config", config_path]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: region config beta: ")


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
            for scheme, bounds in evaluate(config).items()
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


def test_cli_region_output_has_the_pinned_bytes(tmp_path, capsys):
    # Unlike the test above, which compares the CLI with the same evaluation,
    # this catches a change of the evaluation itself, such as a term of
    # destination 2 in a "marc" region.
    docs = list(_region_docs())
    assert len(docs) == len(REGION_SHA256)
    for doc, digest in zip(docs, REGION_SHA256):
        assert main(["region", "--config", _write_json(tmp_path / "r.json", doc)]) == EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest, (doc["model"], doc.get("topology"))


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


@pytest.mark.parametrize("devs", [(1e-12, math.nan), (math.nan, 1e-12)])
def test_a_nan_deviation_fails_its_check(devs):
    worst = _Worst()
    for dev in devs:
        worst.record("draw", dev, 1e-9)
    report = Report("closed-forms", 0, len(devs), worst.checks())
    assert not report.checks[0].ok and not report.passed
    assert "max dev nan" in report.render() and "RESULT: FAIL" in report.render()


#: Runs each argv of the JSON list in sys.argv[1] through one main() in one
#: process and prints [exit code, stdout, stderr] per call as JSON.
_RUN_MAIN_CALLS = """
import contextlib, io, json, sys
from hdmarc.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_main_calls(calls):
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN_CALLS, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def test_repeated_main_calls_in_one_process_match_first_calls(tmp_path):
    # The parser is built once per process; a usage error or --help must
    # leave nothing behind that changes a later call.
    out = str(tmp_path / "rates.csv")
    sweep = _write_json(tmp_path / "sweep.json", _gaussian_sweep_doc())
    region = _write_json(tmp_path / "region.json", {
        "model": "dm", "beta": 0.4, "channel": _dm_sweep_doc()["channel"]})
    calls = [
        ["sweep"],
        ["sweep", "--help"],
        ["sweep", "--config", sweep, "--out", out],
        ["region", "--config", region],
        ["verify", "reductions", "--draws", "2"],
    ]
    together = _run_main_calls(calls)
    csv_together = Path(out).read_bytes()
    alone = [_run_main_calls([argv])[0] for argv in calls]
    assert together == alone
    assert Path(out).read_bytes() == csv_together
    assert [code for code, _, _ in together] == [EXIT_CONFIG, 0, EXIT_OK, EXIT_OK, EXIT_OK]
    assert "error: the following arguments are required: --config" in together[0][2]
    assert together[1][1].startswith("usage: hdmarc sweep")


def test_cli_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "hdmarc.cli", "verify", "reductions", "--draws", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "RESULT: PASS" in completed.stdout


def test_console_script_target_runs(monkeypatch, capsys):
    # The [project.scripts] target that an install puts on PATH as hdmarc,
    # called as its wrapper calls it: no arguments, the command line in argv.
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["hdmarc"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["hdmarc", "verify", "reductions", "--draws", "2"])
    assert entry() == EXIT_OK
    assert "RESULT: PASS" in capsys.readouterr().out


def test_verify_rejects_bad_draw_counts():
    with pytest.raises(InvalidParams):
        run_subject("closed-forms", draws=0)
    with pytest.raises(InvalidParams):
        run_subject("everything")


@pytest.mark.parametrize("subject", [["closed-forms"], np.array(["reductions"])], ids=["list", "array"])
def test_verify_refuses_a_subject_that_is_not_a_name(subject):
    with pytest.raises(InvalidParams, match="verification subject must be 'closed-forms', "):
        run_subject(subject)


def test_verify_caps_the_draw_count(capsys):
    _check_run(0, MAX_DRAWS)
    for draws in (MAX_DRAWS + 1, 10**12):
        with pytest.raises(InvalidParams, match=f"at most {MAX_DRAWS}"):
            _check_run(0, draws)
    assert main(["verify", "closed-forms", "--draws", str(10**12)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: draw count must be at most")


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
