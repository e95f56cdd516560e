"""Tests for shared domain types: slot fractions, scheme tags, region
clamping, the GQF reduction, and the gates for fixed choices, counts,
collections and model objects."""

import math
import types

import numpy as np
import pytest

import hdmarc.dminfo
import hdmarc.dmregions
import hdmarc.gaussian
import hdmarc.oracle
from hdmarc import (
    Bounds,
    ConfigError,
    InvalidParams,
    OutOfRange,
    RateRegion,
    SchemeId,
    rate_region,
)
from hdmarc.core import (
    clamp_bounds,
    clamp_region,
    gqf_bounds,
    instance_of,
    integer,
    one_of,
    read_collection,
    read_names,
    validate_beta,
)
from hdmarc.dminfo import JointPmf
from hdmarc.dmregions import _branches, active_destinations, dm_regions, slot_terms
from hdmarc.gaussian import BRANCHES, cf_operating_point, gaussian_regions
from hdmarc.oracle import closed_forms_via_log_dets, single_source_gqf_branch_pairs

from _support import benchmark_params, make_random_spec


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


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_slot_fraction_rejects_an_integer_beyond_float64(huge):
    with pytest.raises(OutOfRange, match="integer too large for a float64"):
        validate_beta(huge)


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


def test_clamp_region_has_the_bits_of_the_array_clamp():
    # The scalar clamp and clamp_bounds, on every triple of edge values: NaN
    # and -0.0 clamp to +0.0, infinities stay or drop, a slack sum is cut.
    edges = [math.nan, 0.0, -0.0, math.inf, -math.inf, -1.5, 5e-324, 0.25, 0.7, 2.0]
    for r1 in edges:
        for r2 in edges:
            for rsum in edges:
                region = clamp_region(r1, r2, rsum)
                got = (region.r1_max, region.r2_max, region.sum_max)
                want = tuple(float(v) for v in clamp_bounds(r1, r2, rsum))
                assert repr(got) == repr(want), (r1, r2, rsum)
                assert all(type(v) is float for v in got)
    region = clamp_region(-0.0, math.nan, 0.5)
    assert repr((region.r1_max, region.r2_max, region.sum_max)) == "(0.0, 0.0, 0.0)"
    assert clamp_region(0.25, 0.7, 2.0).sum_max == 0.25 + 0.7


# ---------------------------------------------------------------------------
# The gates of fixed choices and counts

#: One value of each kind an entry may be handed, all reading "1".
_KINDS = {
    "bool": True,
    "float": 1.0,
    "str": "1",
    "None": None,
    "list": [1],
    "array-0d": np.array(1),
    "array-1d": np.array([1]),
    "np.int64": np.int64(1),
    "np.str_": np.str_("1"),
}


@pytest.mark.parametrize("kind", _KINDS)
def test_an_int_choice_takes_python_and_numpy_integers_only(kind):
    value = _KINDS[kind]
    if kind == "np.int64":
        chosen = one_of(value, "slot", (1, 2))
        assert chosen == 1 and type(chosen) is int
    else:
        with pytest.raises(InvalidParams) as caught:
            one_of(value, "slot", (1, 2))
        assert str(caught.value) == f"slot must be 1 or 2, got {value!r}"


@pytest.mark.parametrize("kind", _KINDS)
def test_a_str_choice_takes_strs_only(kind):
    value = _KINDS[kind]
    if kind in ("str", "np.str_"):
        chosen = one_of(value, "name", ("1", "2"), ConfigError)
        assert chosen == "1" and type(chosen) is str
    else:
        with pytest.raises(ConfigError) as caught:
            one_of(value, "name", ("1", "2"), ConfigError)
        assert str(caught.value) == f"name must be '1' or '2', got {value!r}"


@pytest.mark.parametrize("kind", _KINDS)
def test_integer_takes_python_and_numpy_integers_only(kind):
    value = _KINDS[kind]
    if kind == "np.int64":
        count = integer(value, "count", 0)
        assert count == 1 and type(count) is int
    else:
        with pytest.raises(InvalidParams) as caught:
            integer(value, "count", 0)
        assert str(caught.value) == f"count must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "choices, message",
    [
        ((1,), "label must be 1, got 3"),
        ((1, 2), "label must be 1 or 2, got 3"),
        (("a", "b", "c"), "label must be 'a', 'b' or 'c', got 3"),
        ((SchemeId.GQF, SchemeId.CF), "label must be SchemeId.GQF or SchemeId.CF, got 3"),
    ],
)
def test_one_of_lists_every_choice(choices, message):
    with pytest.raises(InvalidParams) as caught:
        one_of(3, "label", choices)
    assert str(caught.value) == message


def test_one_of_returns_the_choice_itself():
    assert one_of(SchemeId.CF, "scheme", (SchemeId.GQF, SchemeId.CF)) is SchemeId.CF
    with pytest.raises(InvalidParams):
        one_of("CF", "scheme", (SchemeId.GQF, SchemeId.CF))


def test_integer_names_the_bound_it_breaks():
    assert integer(10**6, "grid.points", 2, 10**6, ConfigError) == 10**6
    with pytest.raises(ConfigError) as caught:
        integer(1, "grid.points", 2, 10**6, ConfigError)
    assert str(caught.value) == "grid.points must be an integer >= 2, got 1"
    above = np.int64(10**6 + 1)
    with pytest.raises(ConfigError) as caught:
        integer(above, "grid.points", 2, 10**6, ConfigError)
    assert str(caught.value) == f"grid.points must be at most 1000000, got {above!r}"


#: Every entry that takes a model object, called with ``model`` in its place.
_MODEL_ENTRIES = {
    "gaussian_regions": lambda model: gaussian_regions(model, (SchemeId.GQF,), 0.5),
    "gqf_rates": hdmarc.gaussian.gqf_rates,
    "cf_rates": hdmarc.gaussian.cf_rates,
    "gqf_optimize_sigma": hdmarc.gaussian.gqf_optimize_sigma,
    "cf_sigma_min": hdmarc.gaussian.cf_sigma_min,
    "cf_operating_point": cf_operating_point,
    "optimize_beta": lambda model: hdmarc.optimize_beta(model, SchemeId.GQF),
    "dm_regions": lambda model: dm_regions(model, ("marc",), (SchemeId.GQF,), 0.5),
    "dm_regions no scheme": lambda model: dm_regions(model, ("marc",), (), 0.5),
    **{
        name: lambda model, name=name: getattr(hdmarc.dmregions, name)(model, 0.5)
        for name in (
            "gqf_region_marc",
            "gqf_region_cmacr",
            "cf_region_marc",
            "cf_region_cmacr",
            "no_relay_region_marc",
            "no_relay_region_cmacr",
        )
    },
    "slot_terms": lambda model: slot_terms(model, (1,)),
    "active_destinations": active_destinations,
    "degenerate_relay_spec": hdmarc.dmregions.degenerate_relay_spec,
    "build_slot1_joint": lambda model: hdmarc.dminfo.build_slot1_joint(model, 1),
    "build_slot2_joint": hdmarc.dminfo.build_slot2_joint,
    "entropy": lambda model: hdmarc.dminfo.entropy(model, ("X11",)),
    "marginalize": lambda model: hdmarc.dminfo.marginalize(model, ("X11",)),
    "mutual_information": lambda model: hdmarc.dminfo.mutual_information(model, ("X11",), ("Y11",)),
    "build_covariance": lambda model: hdmarc.oracle.build_covariance(model, 1),
    "gaussian_mi": lambda model: hdmarc.oracle.gaussian_mi(model, ("XR",), ("Y12",)),
    "gqf_region_via_ru_sweep": lambda model: hdmarc.oracle.gqf_region_via_ru_sweep(model, 0.5),
    "closed_forms_via_log_dets": lambda model: closed_forms_via_log_dets([(model, 1.0)]),
    "single_source_gqf_branch_pairs": lambda model: single_source_gqf_branch_pairs([(model, 0.3)])[0],
}

#: Wrong model objects: none, a huge array, and each right object in the
#: wrong place (every entry above takes exactly one of these kinds).
_WRONG_MODELS = {
    "None": None,
    "array": np.zeros((500, 500)),
    "Gaussian channel": benchmark_params(sigma_q2=1.0),
    "channel spec": make_random_spec(np.random.default_rng(0)),
}


#: The entries above that take a Gaussian channel; the others (but the
#: information measures of a joint or a Gaussian model) take a channel spec.
_GAUSSIAN_ENTRIES = {
    "gaussian_regions", "gqf_rates", "cf_rates", "gqf_optimize_sigma", "cf_sigma_min",
    "cf_operating_point", "optimize_beta", "build_covariance", "closed_forms_via_log_dets",
}
_MODEL_MEASURES = {"entropy", "marginalize", "mutual_information", "gaussian_mi"}


@pytest.mark.parametrize("wrong", _WRONG_MODELS)
@pytest.mark.parametrize("entry", _MODEL_ENTRIES)
def test_a_wrong_model_object_is_refused_by_type(entry, wrong):
    value = _WRONG_MODELS[wrong]
    takes = None if entry in _MODEL_MEASURES else (
        "Gaussian channel" if entry in _GAUSSIAN_ENTRIES else "channel spec"
    )
    if wrong == takes:
        _MODEL_ENTRIES[entry](value)
        return
    with pytest.raises(InvalidParams) as caught:
        _MODEL_ENTRIES[entry](value)
    message = str(caught.value)
    assert message.endswith(f", got {type(value).__name__}"), message
    assert " must be a " in message and len(message) < 80


def test_instance_of_names_the_label_and_both_types():
    assert instance_of(3, int, "count") == 3
    with pytest.raises(InvalidParams) as caught:
        instance_of(np.ones(10**4), RateRegion, "region")
    assert str(caught.value) == "region must be a RateRegion, got ndarray"


def _bad_bounds():
    """Single-point bounds :func:`rate_region` cannot read, by what is wrong
    with them, each with the field its error must name."""
    good = Bounds(0.1, 0.2, 0.3, True, None, {"I1": 0.3})
    return {
        "r1 nan": ("r1", good._replace(r1=math.nan)),
        "r1 inf": ("r1", good._replace(r1=math.inf)),
        "r1 a 0-d nan": ("r1", good._replace(r1=np.array(math.nan))),
        "r1 a str": ("r1", good._replace(r1="0.1")),
        "r1 None": ("r1", good._replace(r1=None)),
        "r1 a bool": ("r1", good._replace(r1=True)),
        "r1 two entries": ("r1", good._replace(r1=np.array([0.1, 0.2]))),
        "r2 -inf": ("r2", good._replace(r2=-math.inf)),
        "r2 a list": ("r2", good._replace(r2=[0.2])),
        "rsum nan": ("rsum", good._replace(rsum=math.nan)),
        "rsum a str": ("rsum", good._replace(rsum="abc")),
        "feasible two entries": ("feasible", good._replace(feasible=np.array([True, False]))),
        "feasible None": ("feasible", good._replace(feasible=None)),
        "feasible a float": ("feasible", good._replace(feasible=1.0)),
        "feasible a str": ("feasible", good._replace(feasible="true")),
        "terms None": ("terms", good._replace(terms=None)),
        "terms a list": ("terms", good._replace(terms=[("I1", 0.3)])),
        "term a str": ("'I1'", good._replace(terms={"I1": "abc"})),
        "term None": ("'I1'", good._replace(terms={"I1": None})),
        "term two entries": ("'I1'", good._replace(terms={"I1": np.array([0.1, 0.2])})),
        "term named by an int": ("terms", good._replace(terms={1: 0.3})),
    }


def test_rate_region_refuses_malformed_bounds_naming_the_field():
    faults = []
    for case, (field, bounds) in _bad_bounds().items():
        try:
            rate_region(bounds)
        except InvalidParams as exc:
            if field not in str(exc):
                faults.append(f"{case}: the error does not name {field}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type is the fault
            faults.append(f"{case}: {type(exc).__name__}: {exc}")
        else:
            faults.append(f"{case}: read")
    assert not faults, "\n".join(faults)


def test_rate_region_reads_0d_arrays_and_an_infinite_term():
    # The CF fallback of dm_regions gives 0-d arrays, and a dead relay link
    # an infinite CF threshold.
    want = RateRegion(0.1, 0.2, 0.25, False, {"I1": 0.25, "sigma_min": math.inf})
    plain = Bounds(0.1, 0.2, 0.25, False, None, dict(want.terms))
    arrays = Bounds(
        np.array(0.1), np.float64(0.2), np.array(0.25), np.array(False), None,
        {"I1": np.array(0.25), "sigma_min": np.float64(math.inf)},
    )
    for bounds in (plain, arrays, arrays._replace(feasible=np.False_)):
        region = rate_region(bounds)
        assert region == want
        assert {type(value) for value in (region.r1_max, region.r2_max, region.sum_max)} == {float}
        assert type(region.feasible) is bool
        assert {type(value) for value in region.terms.values()} == {float}


def test_a_read_into_an_ordered_collection_refuses_a_set():
    # A set's order changes with the hash seed, so where order carries
    # meaning no set is read; a read into a set still takes one.
    params = benchmark_params(sigma_q2=1.0)
    spec = make_random_spec(np.random.default_rng(5))
    calls = {
        "schemes": lambda: gaussian_regions(params, {SchemeId.GQF}, 0.5),
        "topologies": lambda: dm_regions(spec, frozenset({"marc"}), (SchemeId.GQF,), 0.5),
        "destination indices": lambda: slot_terms(spec, {1, 2}),
        "draws": lambda: closed_forms_via_log_dets({(params, 1.0)}),
        "variable names of the joint pmf": lambda: JointPmf({"X11"}, [0.5, 0.5]),
    }
    for label, call in calls.items():
        with pytest.raises(InvalidParams, match=f"^{label} must be in order, got a (frozen)?set$"):
            call()
    assert read_collection([2, 1], "values", int, list) == [2, 1]
    assert read_collection({2, 1}, "values", int, set) == {1, 2}
    assert read_names(frozenset({"X11"}), "names") == {"X11"}


def test_a_read_refuses_a_mapping():
    # Iterating over a mapping yields its keys, so no mapping is read, with
    # or without an order: {1.0: 5.0, 2.0: 7.0} as the baseline powers gave
    # the MAC bounds at powers (1, 2), not (5, 7).
    params = benchmark_params(sigma_q2=1.0)
    spec = make_random_spec(np.random.default_rng(5))
    joint = hdmarc.dminfo.build_slot1_joint(spec, 1)
    calls = {
        "the NO_RELAY baseline powers": lambda: gaussian_regions(
            params, (SchemeId.NO_RELAY,), 0.4, no_relay={1.0: 5.0, 2.0: 7.0}
        ),
        "schemes": lambda: gaussian_regions(params, {SchemeId.GQF: 1}, 0.5),
        "topologies": lambda: dm_regions(spec, {"marc": 1}, (SchemeId.GQF,), 0.5),
        "destination indices": lambda: slot_terms(spec, {1: 1, 2: 2}),
        "names": lambda: joint.entropy({"X11": 1}),
        "set A": lambda: joint.mutual_information({"X11": 1}, {"Y11"}),
    }
    for label, call in calls.items():
        with pytest.raises(InvalidParams, match=f"^{label} must not be a mapping, got a dict$"):
            call()
    proxy = types.MappingProxyType({1: 2})
    for kind in (tuple, list, set):
        with pytest.raises(InvalidParams, match="^values must not be a mapping, got a mappingproxy"):
            read_collection(proxy, "values", int, kind)


#: Each reduction table, by name, and the terms its model builds, in order
#: (the DM terms of both destinations, as for both topologies at once).
_DM_TERMS = tuple(slot_terms(make_random_spec(np.random.default_rng(1)), (1, 2)))
_TABLES = {
    "gaussian": (BRANCHES, ("a(1)", "b(1)", "a(2)", "b(2)", "I1", "I2")),
    "dm (1,)": (_branches((1,)), _DM_TERMS),
    "dm (1, 2)": (_branches((1, 2)), _DM_TERMS),
}


def _minimum_chain(terms: dict, names: tuple):
    bound = terms[names[0]]
    for name in names[1:]:
        bound = np.minimum(bound, terms[name])
    return bound


@pytest.mark.parametrize("table", sorted(_TABLES))
@pytest.mark.parametrize("shape", [None, (), (3,), (2, 3)], ids=["float", "0-d", "grid", "2-d grid"])
def test_gqf_bounds_is_the_minimum_chain_of_each_bound_s_branches(table, shape):
    names_per_bound, built = _TABLES[table]
    rng = np.random.default_rng(7)
    terms = {name: rng.normal(size=shape) for name in built}
    if shape is None:
        terms = {name: float(value) for name, value in terms.items()}
    sigma = np.full(shape or (), 2.0)
    bounds = gqf_bounds(terms, names_per_bound, sigma)
    for got, names in zip(bounds[:3], names_per_bound):
        want = _minimum_chain(terms, names)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert bounds.feasible is True and bounds.sigma is sigma
    named = {name for names in names_per_bound for name in names}
    assert list(bounds.terms) == [name for name in built if name in named]
    assert all(bounds.terms[name] is terms[name] for name in named)


def test_the_reduction_tables_name_each_destination_s_two_branches():
    assert _branches((1,)) == (("a_1(1)", "b_1(1)"), ("a_1(2)", "b_1(2)"), ("c_1", "d_1"))
    assert _branches((1, 2))[2] == ("c_1", "d_1", "c_2", "d_2")
    assert _branches((1, 2)) is _branches((1, 2))  # built once per destinations
    assert gqf_bounds({"x": 0.5}, (("x",),) * 3) == Bounds(0.5, 0.5, 0.5, True, None, {"x": 0.5})


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_a_nan_branch_gives_a_nan_bound_that_rate_region_refuses(table):
    # A NaN term is a fault upstream: the bound it reaches must stay NaN,
    # where a clamp would make it rate 0, so rate_region refuses it.
    names_per_bound, built = _TABLES[table]
    for bound, names in enumerate(names_per_bound):
        for name in names:
            terms = dict.fromkeys(built, 0.25)
            terms[name] = math.nan
            bounds = gqf_bounds(terms, names_per_bound)
            assert [math.isnan(value) for value in bounds[:3]] == [i == bound for i in range(3)]
            field = bounds._fields[bound]
            with pytest.raises(InvalidParams, match=f"^bounds {field} must be finite, got nan$"):
                rate_region(bounds)
