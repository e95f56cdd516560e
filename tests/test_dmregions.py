"""Tests for the finite-alphabet GQF and CF regions.

Every bound ingredient is recomputed inside the tests with an independent
log-ratio mutual-information evaluator (see ``_support.mi_ratio``) before
being compared against the package's entropy-combination version.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from hdmarc import DmChannelSpec, InvalidParams, SchemeId
from hdmarc.core import clamp_bounds, rate_region, validate_beta
from hdmarc.dminfo import (
    MAX_CELLS,
    SLOT2_VARS,
    JointPmf,
    build_slot1_joint,
    build_slot2_joint,
    entropy,
)
from hdmarc.dmregions import (
    CF_MARGIN,
    TOPOLOGIES,
    active_destinations,
    cf_region_cmacr,
    cf_region_marc,
    degenerate_relay_spec,
    dm_regions,
    gqf_region_cmacr,
    gqf_region_marc,
    no_relay_region_cmacr,
    no_relay_region_marc,
    slot_terms,
)
from hdmarc.oracle import gqf_region_via_ru_sweep
from hdmarc.verify import draw_dm_spec

from _support import (
    MIXED_CF_SEED,
    assert_same_bits,
    count_joint_builds,
    entropy_as_summed_per_set,
    make_random_spec,
    mi_ratio,
)


def _local_terms(spec, beta, k):
    """Recompute the four raw bounds with the independent MI evaluator."""
    joint1 = build_slot1_joint(spec, k)
    joint2 = build_slot2_joint(spec)
    y1, y2 = ("Y11", "Y12") if k == 1 else ("Y21", "Y22")
    comp = 1.0 - beta
    out = {}
    for i, j in ((1, 2), (2, 1)):
        xi1, xj1 = f"X{i}1", f"X{j}1"
        xi2, xj2 = f"X{i}2", f"X{j}2"
        out[f"a({i})"] = beta * mi_ratio(
            joint1, [xi1], [xj1, y1, "YhR"]
        ) + comp * mi_ratio(joint2, [xi2], [xj2, "XR", y2])
        out[f"b({i})"] = beta * (
            mi_ratio(joint1, [xi1], [xj1, y1])
            - mi_ratio(joint1, ["YhR"], ["YR"], [xi1, xj1, y1])
        ) + comp * mi_ratio(joint2, [xi2, "XR"], [xj2, y2])
    out["c"] = beta * mi_ratio(
        joint1, ["X11", "X21"], [y1, "YhR"]
    ) + comp * mi_ratio(joint2, ["X12", "X22"], ["XR", y2])
    out["d"] = beta * (
        mi_ratio(joint1, ["X11", "X21", "YhR"], [y1])
        + mi_ratio(joint1, ["X11", "X21"], ["YhR"])
        - mi_ratio(joint1, ["YR"], ["YhR"])
    ) + comp * mi_ratio(joint2, ["X12", "X22", "XR"], [y2])
    return out


def _cf_sides(spec, beta, ks):
    """Binning constraint sides, recomputed independently."""
    joint2 = build_slot2_joint(spec)
    lhs = []
    for k in ks:
        joint1 = build_slot1_joint(spec, k)
        quant_rate = mi_ratio(joint1, ["YR"], ["YhR"])
        lhs.append(beta * (quant_rate - mi_ratio(joint1, [f"Y{k}1"], ["YhR"])))
    rhs = min(
        (1.0 - beta) * mi_ratio(joint2, ["XR"], ["Y12" if k == 1 else "Y22"])
        for k in ks
    )
    return max(lhs), rhs


# ---------------------------------------------------------------------------
# Raw terms against the independent evaluator


def test_gqf_terms_match_independent_evaluator():
    rng = np.random.default_rng(41)
    for _ in range(10):
        spec = make_random_spec(rng, {"yr": int(rng.integers(2, 4))})
        beta = float(rng.uniform(0.2, 0.8))
        for k in (1, 2):
            terms = gqf_region_cmacr(spec, validate_beta(beta)).terms
            local = _local_terms(spec, beta, k)
            for i in (1, 2):
                assert terms[f"a_{k}({i})"] == pytest.approx(local[f"a({i})"], abs=1e-10)
                assert terms[f"b_{k}({i})"] == pytest.approx(local[f"b({i})"], abs=1e-10)
            assert terms[f"c_{k}"] == pytest.approx(local["c"], abs=1e-10)
            assert terms[f"d_{k}"] == pytest.approx(local["d"], abs=1e-10)


def test_gqf_terms_rejects_bad_destination():
    rng = np.random.default_rng(42)
    spec = make_random_spec(rng)
    with pytest.raises(InvalidParams):
        slot_terms(spec, (3,))


@pytest.mark.parametrize(
    "ks, message",
    [
        (None, "destination indices must be iterable, got None"),
        (1, "destination indices must be iterable, got 1"),
        ((1, None), "destination index must be 1 or 2, got None"),
    ],
)
def test_slot_terms_refuse_destinations_that_are_not_indices(ks, message):
    spec = make_random_spec(np.random.default_rng(42))
    with pytest.raises(InvalidParams, match=f"^{message}$"):
        slot_terms(spec, ks)


def test_region_terms_destinations():
    # Terms exist exactly for the destinations that were evaluated.
    def destinations(region):
        return tuple(sorted({int(name[2]) for name in region.terms if name[0] in "abcd"}))

    spec = make_random_spec(np.random.default_rng(42))
    assert destinations(gqf_region_cmacr(spec, validate_beta(0.5))) == (1, 2)
    assert destinations(gqf_region_marc(spec, validate_beta(0.5))) == (1,)


def test_entropy_table_matches_public_entropy_and_the_per_set_sums(monkeypatch):
    seen = []
    tabled = JointPmf.mutual_information

    def recording(pmf, a, b, c=frozenset()):
        value = tabled(pmf, a, b, c)
        seen.append((pmf, frozenset(a), frozenset(b), frozenset(c), value))
        return value

    monkeypatch.setattr(JointPmf, "mutual_information", recording)
    rng = np.random.default_rng(53)
    for sizes in ({}, {"yhr": 1}, {"y21": 1, "y22": 1}, {"yr": 4, "y12": 1}):
        spec = make_random_spec(rng, sizes)
        for source in (spec, degenerate_relay_spec(spec)):
            slot_terms(source, (1, 2))
    monkeypatch.undo()
    # Every variable set the slot terms use, on both joints of every spec.
    sets = {(pmf, names) for pmf, a, b, c, _ in seen for names in (a | c, b | c, c, a | b | c)}
    assert len(sets) > 8 * 20
    for pmf, names in sets:
        value = pmf.entropy(names)
        assert repr(value) == repr(entropy(pmf, names)), sorted(names)
        assert abs(value - entropy_as_summed_per_set(pmf, names)) <= 1e-14, sorted(names)
    # Each mutual information is its four entropies, bit for bit.
    for pmf, a, b, c, value in seen:
        h = pmf.entropy
        assert repr(value) == repr(h(a | c) + h(b | c) - h(c) - h(a | b | c))


def _exact_integers(table):
    """``table`` as integers over one denominator, ``(numerators, d)``: each
    float64 is an integer over a power of two, so this is exact."""
    ratios = [value.as_integer_ratio() for value in table.ravel().tolist()]
    denominator = max(d for _, d in ratios)
    numerators = [n * (denominator // d) for n, d in ratios]
    return np.array(numerators, dtype=object).reshape(table.shape), denominator


class _ExactJoint:
    """A joint pmf held as Python integers over one denominator, with its
    measures in bits in 50-digit mpmath arithmetic."""

    def __init__(self, mpmath, names, counts, denominator):
        self.mpmath, self.names, self.counts, self.denominator = mpmath, names, counts, denominator

    def entropy(self, keep):
        drop = tuple(i for i, name in enumerate(self.names) if name not in keep)
        marginal = np.ravel(self.counts.sum(axis=drop) if drop else self.counts).tolist()
        log, total = self.mpmath.log, self.denominator
        return sum(n * (log(total) - log(n)) for n in marginal if n) / total / log(2)

    def mi(self, a, b, c=frozenset()):
        h = self.entropy
        return h(a | c) + h(b | c) - h(c) - h(a | b | c)


def _exact_slot_terms(spec, mpmath):
    """Every (S1, S2) pair of :func:`slot_terms` at destinations 1 and 2,
    as written in its docstring, from destination k's joint and the slot-2
    joint summed exactly from the spec's own tables."""
    (n11, d11), (n21, d21), (n12, d12), (n22, d22), (nr, dr), (nt, dt), (s1, d1), (s2, d2) = (
        _exact_integers(getattr(spec, name))
        for name in ("px11", "px21", "px12", "px22", "pxr", "test_channel", "slot1", "slot2")
    )
    slot2 = n12[:, None, None, None, None] * n22[None, :, None, None, None] * (
        nr[None, None, :, None, None] * s2
    )
    mi2 = _ExactJoint(mpmath, SLOT2_VARS, slot2, d12 * d22 * dr * d2).mi
    terms = {}
    for k in (1, 2):
        heard = s1.sum(axis=5 - k)  # p(yR, yk1 | x11, x21), exactly
        slot1 = n11[:, None, None, None, None] * n21[None, :, None, None, None] * (
            heard[..., None] * nt[None, None, :, None, :]
        )
        names = ("X11", "X21", "YR", f"Y{k}1", "YhR")
        mi1 = _ExactJoint(mpmath, names, slot1, d11 * d21 * d1 * dt).mi
        yk1, yk2 = frozenset({f"Y{k}1"}), frozenset({f"Y{k}2"})
        yr, yhr, xr = frozenset({"YR"}), frozenset({"YhR"}), frozenset({"XR"})
        x1, x2 = frozenset({"X11", "X21"}), frozenset({"X12", "X22"})
        for i, j in ((1, 2), (2, 1)):
            xi1, xj1 = frozenset({f"X{i}1"}), frozenset({f"X{j}1"})
            xi2, xj2 = frozenset({f"X{i}2"}), frozenset({f"X{j}2"})
            terms[f"a_{k}({i})"] = (mi1(xi1, xj1 | yk1 | yhr), mi2(xi2, xj2 | xr | yk2))
            terms[f"b_{k}({i})"] = (
                mi1(xi1, xj1 | yk1) - mi1(yhr, yr, xi1 | xj1 | yk1),
                mi2(xi2 | xr, xj2 | yk2),
            )
        terms[f"c_{k}"] = (mi1(x1, yk1 | yhr), mi2(x2, xr | yk2))
        terms[f"d_{k}"] = (
            mi1(x1 | yhr, yk1) + mi1(x1, yhr) - mi1(yr, yhr),
            mi2(x2 | xr, yk2),
        )
        terms[f"cf_lhs_{k}"] = (mi1(yr, yhr) - mi1(yk1, yhr), 0)
        terms[f"cf_rhs_{k}"] = (0, mi2(xr, yk2))
    return terms


def test_every_slot_term_is_within_1e_14_bits_of_the_exact_channel():
    # The pair-level accuracy contract: each half of each pair, against the
    # same term summed in integers from the spec's tables and evaluated in
    # 50-digit arithmetic.  Six drawn channels, one with its relay silenced
    # (exact zeros in its slot-2 joint), and one with |Y11| != |Y21|.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2032)
    specs = [draw_dm_spec(rng) for _ in range(6)]
    specs += [degenerate_relay_spec(specs[0]), draw_dm_spec(rng, {"y11": 4, "y21": 2})]
    halves = 0
    with mpmath.workdps(50):
        for spec in specs:
            exact = _exact_slot_terms(spec, mpmath)
            got = slot_terms(spec, (1, 2))
            assert list(got) == list(exact)
            for name, pair in got.items():
                for half, value in enumerate(pair):
                    error = abs(value - exact[name][half])
                    assert error <= 1e-14, (name, half, float(error))
                    halves += 1
    assert halves == len(specs) * 16 * 2


def test_a_destination_s_pairs_do_not_depend_on_the_other_destination():
    rng = np.random.default_rng(59)
    specs = [draw_dm_spec(rng) for _ in range(4)]
    specs += [draw_dm_spec(rng, {"y11": 4, "y21": 2}), make_random_spec(rng, {"y21": 1, "y22": 1})]
    for spec in specs:
        both = slot_terms(spec, (1, 2))
        for k in (1, 2):
            # A fresh spec of the same tables builds destination k's joints anew.
            alone = slot_terms(replace(spec), (k,))
            mine = {name: pair for name, pair in both.items() if f"_{k}" in name}
            assert list(alone) == list(mine) and len(mine) == 8
            assert_same_bits(np.array(list(alone.values())), np.array(list(mine.values())))


def test_a_channel_whose_joint_over_both_destinations_exceeds_the_cap_is_evaluated():
    # |YR| = 16, |Y11| = |Y21| = 64, |YhR| = 4: one slot-1 table over both
    # destinations' outputs would hold 2**20 cells, each destination's 2**14.
    sizes = dict(x11=2, x21=2, yr=16, y11=64, y21=64, yhr=4)
    spec = make_random_spec(np.random.default_rng(60), sizes)
    assert spec.slot1.size * spec.test_channel.shape[1] == 1048576 > MAX_CELLS
    beta = 0.4
    evaluated = dm_regions(spec, TOPOLOGIES, tuple(SchemeId), beta)
    assert [spec.joints(k)[0].probs.size for k in (1, 2)] == [16384, 16384]
    for topology in TOPOLOGIES:
        for scheme in SchemeId:
            region = rate_region(evaluated[topology][scheme])
            assert 0.0 <= region.sum_max <= region.r1_max + region.r2_max
    # The GQF terms agree with the independent log-ratio evaluator.
    terms = evaluated["cmacr"][SchemeId.GQF].terms
    for k in (1, 2):
        local = _local_terms(spec, beta, k)
        for name in ("a(1)", "b(1)", "a(2)", "b(2)", "c", "d"):
            indexed = f"{name[0]}_{k}{name[1:]}"
            assert terms[indexed] == pytest.approx(local[name], abs=1e-10), indexed


# ---------------------------------------------------------------------------
# Region assembly


def test_gqf_region_is_min_of_branches():
    rng = np.random.default_rng(43)
    for _ in range(10):
        spec = make_random_spec(rng)
        beta = validate_beta(float(rng.uniform(0.2, 0.8)))
        region = gqf_region_marc(spec, beta)
        terms = gqf_region_cmacr(spec, beta).terms  # destination 1's entries
        r1 = min(terms["a_1(1)"], terms["b_1(1)"])
        r2 = min(terms["a_1(2)"], terms["b_1(2)"])
        rsum = min(terms["c_1"], terms["d_1"])
        assert region.r1_max == max(0.0, r1)
        assert region.r2_max == max(0.0, r2)
        assert region.sum_max == min(max(0.0, rsum), region.r1_max + region.r2_max)
        assert region.feasible is True
        assert region.terms["a_1(1)"] == terms["a_1(1)"]


def test_compound_region_is_worst_case_over_destinations():
    rng = np.random.default_rng(44)
    for _ in range(10):
        spec = make_random_spec(rng)
        beta = validate_beta(0.5)
        compound = gqf_region_cmacr(spec, beta)
        t = compound.terms
        r1 = min(min(t[f"a_{k}(1)"], t[f"b_{k}(1)"]) for k in (1, 2))
        r2 = min(min(t[f"a_{k}(2)"], t[f"b_{k}(2)"]) for k in (1, 2))
        rsum = min(min(t[f"c_{k}"], t[f"d_{k}"]) for k in (1, 2))
        assert compound.r1_max == pytest.approx(max(0.0, r1), abs=1e-12)
        assert compound.r2_max == pytest.approx(max(0.0, r2), abs=1e-12)
        assert compound.r1_max <= gqf_region_marc(spec, beta).r1_max + 1e-12
        expected_sum = min(max(0.0, rsum), max(0.0, r1) + max(0.0, r2))
        assert compound.sum_max == pytest.approx(expected_sum, abs=1e-12)


def test_compound_equals_single_destination_when_second_observes_nothing():
    rng = np.random.default_rng(45)
    for _ in range(10):
        spec = make_random_spec(rng, {"y21": 1, "y22": 1})
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        assert active_destinations(spec) == (1,)
        marc = gqf_region_marc(spec, beta)
        compound = gqf_region_cmacr(spec, beta)
        assert compound == marc  # same code path, bit-identical
        cf_marc = cf_region_marc(spec, beta)
        cf_compound = cf_region_cmacr(spec, beta)
        assert cf_compound == cf_marc


def test_compound_with_twin_destinations_matches_single():
    # Destination 2 observes an exact copy of destination 1's outputs.
    rng = np.random.default_rng(46)
    base = make_random_spec(rng, {"y21": 1, "y22": 1})
    n_y11, n_y12 = base.slot1.shape[3], base.slot2.shape[3]
    slot1 = np.zeros(base.slot1.shape[:3] + (n_y11, n_y11))
    for u in range(n_y11):
        slot1[:, :, :, u, u] = base.slot1[:, :, :, u, 0]
    slot2 = np.zeros(base.slot2.shape[:3] + (n_y12, n_y12))
    for u in range(n_y12):
        slot2[:, :, :, u, u] = base.slot2[:, :, :, u, 0]
    twin = DmChannelSpec(
        px11=base.px11,
        px21=base.px21,
        px12=base.px12,
        px22=base.px22,
        pxr=base.pxr,
        test_channel=base.test_channel,
        slot1=slot1,
        slot2=slot2,
    )
    beta = validate_beta(0.4)
    marc = gqf_region_marc(twin, beta)
    compound = gqf_region_cmacr(twin, beta)
    assert compound.r1_max == pytest.approx(marc.r1_max, abs=1e-12)
    assert compound.r2_max == pytest.approx(marc.r2_max, abs=1e-12)
    assert compound.sum_max == pytest.approx(marc.sum_max, abs=1e-12)


#: The variable behind each axis of each spec table.
_TABLE_AXES = {
    "px11": ("x11",),
    "px21": ("x21",),
    "px12": ("x12",),
    "px22": ("x22",),
    "pxr": ("xr",),
    "test_channel": ("yr", "yhr"),
    "slot1": ("x11", "x21", "yr", "y11", "y21"),
    "slot2": ("x12", "x22", "xr", "y12", "y22"),
}


def _relabel(spec, perms):
    """``spec`` with the letters of each variable in ``perms`` permuted, the
    same way in every table that has an axis for that variable."""
    tables = {}
    for field, axes in _TABLE_AXES.items():
        table = getattr(spec, field)
        for axis, var in enumerate(axes):
            if var in perms:
                table = table.take(perms[var], axis=axis)
        tables[field] = table
    return DmChannelSpec(**tables)


def test_relabelling_letters_leaves_every_rate_unchanged():
    # A different alphabet size per variable, so that a table axis mixed
    # up with another one cannot go unnoticed.  The second spec drawn has
    # CF feasible at the smallest slot fractions and infeasible at the rest.
    sizes = dict(x11=4, x21=5, x12=6, x22=7, xr=12, yr=3, yhr=2, y11=8, y21=9, y12=11, y22=10)
    betas = np.array([0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.95])
    rng = np.random.default_rng(61)
    cf_feasible = set()
    for _ in range(3):
        spec = make_random_spec(rng, sizes)
        perms = {var: rng.permutation(n) for var, n in sizes.items()}
        # The first letter of XR is the silent relay of NO_RELAY and of the
        # CF fallback, so only GQF sees XR relabelled.
        fixed_xr = dict(perms, xr=np.arange(sizes["xr"]))
        relabelled = {
            SchemeId.GQF: _relabel(spec, perms),
            SchemeId.CF: _relabel(spec, fixed_xr),
            SchemeId.NO_RELAY: _relabel(spec, fixed_xr),
        }
        for topology in ("marc", "cmacr"):
            want = dm_regions(spec, (topology,), tuple(SchemeId), betas)[topology]
            for scheme, other in relabelled.items():
                got = dm_regions(other, (topology,), (scheme,), betas)[topology][scheme]
                for field in ("r1", "r2", "rsum"):
                    np.testing.assert_allclose(
                        getattr(got, field), getattr(want[scheme], field), rtol=0.0, atol=1e-12
                    )
                assert np.array_equal(got.feasible, want[scheme].feasible)
                assert got.terms.keys() == want[scheme].terms.keys()
                for name, value in want[scheme].terms.items():
                    np.testing.assert_allclose(
                        got.terms[name], value, rtol=0.0, atol=1e-12, err_msg=name
                    )
            cf_feasible.update(want[SchemeId.CF].feasible.tolist())
    assert cf_feasible == {True, False}


def test_compound_region_does_not_depend_on_which_destination_is_which():
    # Axes 3 and 4 of both slot tables are the outputs of destinations 1
    # and 2; swapping them swaps the destinations.
    betas = np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.95])
    rng = np.random.default_rng(67)
    cf_feasible = set()
    for _ in range(50):
        spec = draw_dm_spec(rng)
        swapped = replace(
            spec, slot1=spec.slot1.swapaxes(3, 4), slot2=spec.slot2.swapaxes(3, 4)
        )
        want = dm_regions(spec, ("cmacr",), tuple(SchemeId), betas)["cmacr"]
        got = dm_regions(swapped, ("cmacr",), tuple(SchemeId), betas)["cmacr"]
        for scheme in SchemeId:
            for field in ("r1", "r2", "rsum"):
                np.testing.assert_allclose(
                    getattr(got[scheme], field), getattr(want[scheme], field),
                    rtol=0.0, atol=1e-14, err_msg=f"{scheme} {field}",
                )
            assert np.array_equal(got[scheme].feasible, want[scheme].feasible)
        cf_feasible.update(want[SchemeId.CF].feasible.tolist())
    assert cf_feasible == {True, False}


def test_dm_regions_rejects_unknown_topology():
    spec = make_random_spec(np.random.default_rng(54))
    with pytest.raises(InvalidParams, match="topology"):
        dm_regions(spec, ("mesh",), (SchemeId.GQF,), 0.5)


@pytest.mark.parametrize("schemes", [["GQF"], "GQF", [SchemeId.GQF, None]])
def test_dm_regions_refuse_a_scheme_that_is_not_a_scheme_id(schemes):
    spec = make_random_spec(np.random.default_rng(55))
    with pytest.raises(InvalidParams, match="scheme must be a SchemeId, got"):
        dm_regions(spec, ("marc",), schemes, 0.5)


@pytest.mark.parametrize(
    "topologies, message",
    [
        ("marc", "topologies must be a collection of names .* got the str 'marc'"),
        ("cmacr", "topologies must be a collection of names .* got the str 'cmacr'"),
        (None, "topologies must be iterable, got None"),
        (3, "topologies must be iterable, got 3"),
        (SchemeId.GQF, "topologies must be iterable"),
        (("marc", "mesh"), "topology must be 'marc' or 'cmacr', got 'mesh'"),
        (["m", "a", "r", "c"], "topology must be 'marc' or 'cmacr', got 'm'"),
        ((("marc",),), r"topology must be 'marc' or 'cmacr', got \('marc',\)"),
    ],
    ids=["str-marc", "str-cmacr", "None", "int", "scheme", "unknown", "letters", "nested"],
)
def test_dm_regions_refuse_topologies_that_are_not_names(topologies, message):
    spec = make_random_spec(np.random.default_rng(56))
    with pytest.raises(InvalidParams, match=message):
        dm_regions(spec, topologies, (SchemeId.GQF,), 0.5)


def test_dm_regions_read_a_generator_of_topologies_once():
    spec = make_random_spec(np.random.default_rng(56))
    got = dm_regions(spec, (t for t in ("cmacr", "marc")), (SchemeId.GQF,), 0.5)
    assert list(got) == ["cmacr", "marc"]
    assert dm_regions(spec, (), (SchemeId.GQF,), 0.5) == {}


def test_only_cmacr_needs_a_destination_that_hears():
    deaf = make_random_spec(
        np.random.default_rng(57), {"y11": 1, "y12": 1, "y21": 1, "y22": 1}
    )
    marc = dm_regions(deaf, ("marc",), tuple(SchemeId), 0.5)["marc"]
    assert list(marc) == list(SchemeId)
    for topologies in (("cmacr",), ("marc", "cmacr"), ("cmacr", "marc")):
        with pytest.raises(InvalidParams, match="no destination"):
            dm_regions(deaf, topologies, (SchemeId.GQF,), 0.5)


def test_both_topologies_equal_each_topology_alone_bit_for_bit():
    rng = np.random.default_rng(58)
    specs = [
        make_random_spec(np.random.default_rng(MIXED_CF_SEED)),
        make_random_spec(rng, {"y21": 1, "y22": 1}),  # destination 2 silent
        make_random_spec(rng, {"y11": 1, "y12": 1}),  # destination 1 silent
        *(draw_dm_spec(rng) for _ in range(4)),
    ]
    scheme_sets = (tuple(SchemeId), (SchemeId.CF,), (SchemeId.NO_RELAY, SchemeId.GQF))
    cf_feasible = set()
    for spec in specs:
        for beta in (np.linspace(0.1, 0.9, 9), 0.3):
            for schemes in scheme_sets:
                both = dm_regions(spec, ("marc", "cmacr"), schemes, beta)
                assert list(both) == ["marc", "cmacr"]
                for topology, evaluated in both.items():
                    alone = dm_regions(spec, (topology,), schemes, beta)[topology]
                    assert list(evaluated) == list(alone) == list(schemes)
                    for scheme in schemes:
                        got, want = evaluated[scheme], alone[scheme]
                        assert list(got.terms) == list(want.terms), (topology, scheme)
                        assert_same_bits(got, want)
                if SchemeId.CF in schemes:
                    cf_feasible.update(np.ravel(both["cmacr"][SchemeId.CF].feasible).tolist())
    assert cf_feasible == {True, False}  # both CF branches were exercised


def test_one_call_for_both_topologies_builds_each_joint_once(monkeypatch):
    calls = count_joint_builds(monkeypatch)
    spec = make_random_spec(np.random.default_rng(MIXED_CF_SEED))
    silenced = degenerate_relay_spec(spec)
    betas = np.linspace(0.1, 0.9, 9)
    # Silenced spec: none for GQF; one for NO_RELAY, and for CF, which fails
    # its binning test at some of these betas on both topologies.
    for schemes, silenced_builds in (
        ((SchemeId.GQF,), 0),
        ((SchemeId.CF,), 1),
        (tuple(SchemeId), 1),
    ):
        fresh = replace(spec)  # the same channel, with no table built yet
        for specs in calls.values():
            specs.clear()
        dm_regions(fresh, ("marc", "cmacr"), schemes, betas)
        slot1 = calls["build_slot1_joint"]
        # One slot-1 build per (spec, destination), one slot-2 build per spec.
        assert len({(id(s), d) for s, d in slot1}) == len(slot1)
        builds = {
            f"build_slot1_joint, destination {k}": [s for s, d in slot1 if d == k]
            for k in (1, 2)
        }
        builds["build_slot2_joint"] = calls["build_slot2_joint"]
        for name, specs in builds.items():
            assert len(specs) == 1 + silenced_builds, (name, schemes)
            assert specs[0] is fresh
            for other in specs[1:]:
                assert np.array_equal(other.pxr, silenced.pxr)
                assert np.array_equal(other.test_channel, silenced.test_channel)


def test_a_spec_made_from_another_reads_only_its_own_tables():
    # A spec keeps its joints and their entropies.  One made by replace or
    # degenerate_relay_spec is a new channel: it must build its own joints,
    # never read those its parent filled.
    rng = np.random.default_rng(MIXED_CF_SEED)
    spec, other = make_random_spec(rng), make_random_spec(rng)
    betas = np.linspace(0.1, 0.9, 9)
    schemes = tuple(SchemeId)
    parent = dm_regions(spec, TOPOLOGIES, schemes, betas)  # fills the parent's joints
    children = [
        replace(spec),
        replace(spec, pxr=other.pxr),
        replace(spec, test_channel=other.test_channel),
        replace(spec, slot1=other.slot1),
        replace(spec, slot2=other.slot2),
        degenerate_relay_spec(spec),
    ]
    for child in children:
        fresh = DmChannelSpec(**{field.name: getattr(child, field.name) for field in fields(child)})
        got = dm_regions(child, TOPOLOGIES, schemes, betas)
        want = dm_regions(fresh, TOPOLOGIES, schemes, betas)
        for topology in TOPOLOGIES:
            for scheme in schemes:
                assert_same_bits(got[topology][scheme], want[topology][scheme])
        assert gqf_region_via_ru_sweep(child, 0.3) == gqf_region_via_ru_sweep(fresh, 0.3)
        for k in (1, 2):
            for mine, parents in zip(child.joints(k), spec.joints(k)):
                assert mine is not parents
    again = dm_regions(spec, TOPOLOGIES, schemes, betas)
    for topology in TOPOLOGIES:
        for scheme in schemes:
            assert_same_bits(again[topology][scheme], parent[topology][scheme])


def test_active_destinations_variants():
    rng = np.random.default_rng(47)
    assert active_destinations(make_random_spec(rng)) == (1, 2)
    assert active_destinations(make_random_spec(rng, {"y21": 1, "y22": 1})) == (1,)
    assert active_destinations(make_random_spec(rng, {"y11": 1, "y12": 1})) == (2,)
    # One active slot is enough to keep a destination in play.
    assert active_destinations(make_random_spec(rng, {"y21": 1}))[1] == 2
    blind = make_random_spec(rng, {"y11": 1, "y12": 1, "y21": 1, "y22": 1})
    with pytest.raises(InvalidParams):
        active_destinations(blind)


# ---------------------------------------------------------------------------
# Quantizer degeneracies


def test_constant_quantizer_drops_all_index_terms():
    rng = np.random.default_rng(48)
    spec = make_random_spec(rng, {"yhr": 1})
    beta = 0.6
    terms = gqf_region_marc(spec, validate_beta(beta)).terms
    joint1 = build_slot1_joint(spec, 1)
    joint2 = build_slot2_joint(spec)
    comp = 1.0 - beta
    # With a single-letter quantizer output the index carries nothing:
    # every bound collapses to its plain two-slot form.
    a1 = beta * mi_ratio(joint1, ["X11"], ["X21", "Y11"]) + comp * mi_ratio(
        joint2, ["X12"], ["X22", "XR", "Y12"]
    )
    assert terms["a_1(1)"] == pytest.approx(a1, abs=1e-12)
    b1 = beta * mi_ratio(joint1, ["X11"], ["X21", "Y11"]) + comp * mi_ratio(
        joint2, ["X12", "XR"], ["X22", "Y12"]
    )
    assert terms["b_1(1)"] == pytest.approx(b1, abs=1e-12)
    c = beta * mi_ratio(joint1, ["X11", "X21"], ["Y11"]) + comp * mi_ratio(
        joint2, ["X12", "X22"], ["XR", "Y12"]
    )
    assert terms["c_1"] == pytest.approx(c, abs=1e-12)


def test_identity_quantizer_forwards_the_full_observation():
    rng = np.random.default_rng(49)
    n_yr = 3
    spec = make_random_spec(rng, {"yr": n_yr, "yhr": n_yr})
    spec = DmChannelSpec(
        px11=spec.px11,
        px21=spec.px21,
        px12=spec.px12,
        px22=spec.px22,
        pxr=spec.pxr,
        test_channel=np.eye(n_yr),
        slot1=spec.slot1,
        slot2=spec.slot2,
    )
    beta = 0.5
    terms = gqf_region_marc(spec, validate_beta(beta)).terms
    joint1 = build_slot1_joint(spec, 1)
    joint2 = build_slot2_joint(spec)
    # The index-decoded branch now sees YR itself.
    a1 = beta * mi_ratio(joint1, ["X11"], ["X21", "Y11", "YR"]) + (
        1.0 - beta
    ) * mi_ratio(joint2, ["X12"], ["X22", "XR", "Y12"])
    assert terms["a_1(1)"] == pytest.approx(a1, abs=1e-12)


# ---------------------------------------------------------------------------
# Relay-silenced channel and the no-relay baseline


def test_degenerate_relay_spec_structure():
    rng = np.random.default_rng(50)
    spec = make_random_spec(rng, {"xr": 3, "yhr": 2})
    silenced = degenerate_relay_spec(spec)
    np.testing.assert_array_equal(silenced.pxr, [1.0, 0.0, 0.0])
    assert silenced.test_channel.shape == (spec.test_channel.shape[0], 1)
    np.testing.assert_array_equal(silenced.test_channel, 1.0)
    np.testing.assert_array_equal(silenced.slot1, spec.slot1)
    np.testing.assert_array_equal(silenced.slot2, spec.slot2)


def test_no_relay_region_branches_coincide():
    # With the relay silenced there is no index to decode, so the two
    # branches of every bound must agree.
    rng = np.random.default_rng(51)
    for _ in range(5):
        spec = make_random_spec(rng)
        beta = validate_beta(float(rng.uniform(0.2, 0.8)))
        terms = gqf_region_marc(degenerate_relay_spec(spec), beta).terms
        for i in (1, 2):
            assert terms[f"a_1({i})"] == pytest.approx(terms[f"b_1({i})"], abs=1e-12)
        assert terms["c_1"] == pytest.approx(terms["d_1"], abs=1e-12)


def test_no_relay_region_ignores_relay_tables():
    rng = np.random.default_rng(52)
    spec = make_random_spec(rng)
    other_quantizer = DmChannelSpec(
        px11=spec.px11,
        px21=spec.px21,
        px12=spec.px12,
        px22=spec.px22,
        pxr=np.array([0.1, 0.9]),
        test_channel=np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]),
        slot1=spec.slot1,
        slot2=spec.slot2,
    )
    beta = validate_beta(0.3)
    assert no_relay_region_marc(spec, beta) == no_relay_region_marc(
        other_quantizer, beta
    )
    assert no_relay_region_cmacr(spec, beta) == no_relay_region_cmacr(
        other_quantizer, beta
    )


# ---------------------------------------------------------------------------
# CF feasibility and fallback


def test_cf_flag_matches_direct_inequality():
    rng = np.random.default_rng(53)
    seen_feasible = 0
    for _ in range(40):
        spec = make_random_spec(rng)
        beta = float(rng.uniform(0.1, 0.9))
        region = cf_region_marc(spec, validate_beta(beta))
        lhs, rhs = _cf_sides(spec, beta, (1,))
        assert region.terms["cf_lhs"] == pytest.approx(lhs, abs=1e-10)
        assert region.terms["cf_rhs"] == pytest.approx(rhs, abs=1e-10)
        assert region.feasible == ((rhs - lhs) > CF_MARGIN)
        seen_feasible += int(region.feasible)
    assert seen_feasible > 0


def test_cf_feasible_region_uses_index_decoded_branches_only():
    # Noiseless slot-2 pipe (Y12 reveals both the message pair and XR) with
    # a short listening slot makes binning comfortably feasible.
    rng = np.random.default_rng(54)
    base = make_random_spec(rng, {"y22": 1})
    slot2 = np.zeros((2, 2, 2, 4, 1))
    for x12, x22, xr in np.ndindex(2, 2, 2):
        slot2[x12, x22, xr, 2 * (x12 ^ x22) + xr, 0] = 1.0
    spec = DmChannelSpec(
        px11=base.px11,
        px21=base.px21,
        px12=base.px12,
        px22=base.px22,
        pxr=np.array([0.5, 0.5]),
        test_channel=base.test_channel,
        slot1=base.slot1,
        slot2=slot2,
    )
    beta = validate_beta(0.2)
    region = cf_region_marc(spec, beta)
    assert region.feasible is True
    terms = gqf_region_marc(spec, beta).terms
    assert region.r1_max == pytest.approx(max(0.0, terms["a_1(1)"]), abs=1e-12)
    assert region.r2_max == pytest.approx(max(0.0, terms["a_1(2)"]), abs=1e-12)
    expected_sum = min(max(0.0, terms["c_1"]), region.r1_max + region.r2_max)
    assert region.sum_max == pytest.approx(expected_sum, abs=1e-12)


def test_cf_feasible_region_dominates_gqf():
    # When binning clears its constraint, dropping the index-as-noise
    # branches can only enlarge every bound.
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(40):
        spec = make_random_spec(rng)
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        cf = cf_region_marc(spec, beta)
        if not cf.feasible:
            continue
        gqf = gqf_region_marc(spec, beta)
        assert cf.r1_max >= gqf.r1_max - 1e-10
        assert cf.r2_max >= gqf.r2_max - 1e-10
        assert cf.sum_max >= gqf.sum_max - 1e-10
        checked += 1
    assert checked > 0


def test_cf_infeasible_when_relay_link_is_severed():
    # Slot 2 ignores XR entirely, so nothing can carry the bin index.
    rng = np.random.default_rng(56)
    base = make_random_spec(rng, {"yr": 2, "yhr": 2})
    no_link = np.broadcast_to(
        base.slot2[:, :, :1, :, :],
        base.slot2.shape,
    ).copy()
    spec = DmChannelSpec(
        px11=base.px11,
        px21=base.px21,
        px12=base.px12,
        px22=base.px22,
        pxr=base.pxr,
        test_channel=np.eye(2),
        slot1=base.slot1,
        slot2=no_link,
    )
    beta = validate_beta(0.5)
    region = cf_region_marc(spec, beta)
    assert region.feasible is False
    assert region.terms["cf_rhs"] == pytest.approx(0.0, abs=1e-12)
    assert region.terms["cf_lhs"] > 0.0


def test_cf_fallback_reports_relay_silenced_bounds():
    rng = np.random.default_rng(57)
    found = 0
    for _ in range(60):
        spec = make_random_spec(rng)
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        region = cf_region_marc(spec, beta)
        if region.feasible:
            continue
        silenced = gqf_region_marc(degenerate_relay_spec(spec), beta)
        assert region.r1_max == silenced.r1_max
        assert region.r2_max == silenced.r2_max
        assert region.sum_max == silenced.sum_max
        assert "no_relay_a_1(1)" in region.terms
        found += 1
    assert found > 0


def test_cf_compound_needs_every_destination_to_clear_the_constraint():
    rng = np.random.default_rng(58)
    # Destination 1 gets a perfect slot-2 pipe, destination 2 a severed one.
    slot2 = np.zeros((2, 2, 2, 4, 1))
    for x12, x22, xr in np.ndindex(2, 2, 2):
        slot2[x12, x22, xr, 2 * (x12 ^ x22) + xr, 0] = 1.0
    base = make_random_spec(rng, {"y22": 1})
    spec = DmChannelSpec(
        px11=base.px11,
        px21=base.px21,
        px12=base.px12,
        px22=base.px22,
        pxr=np.array([0.5, 0.5]),
        test_channel=base.test_channel,
        slot1=base.slot1,
        slot2=slot2,
    )
    beta = validate_beta(0.2)
    assert cf_region_marc(spec, beta).feasible is True
    # Both destinations are active (Y21 is binary in slot 1), but the
    # second one's slot-2 output is a singleton: its pipe rate is zero.
    assert active_destinations(spec) == (1, 2)
    compound = cf_region_cmacr(spec, beta)
    assert compound.feasible is False


def test_compound_region_lies_inside_each_single_destination_region():
    # CF is left out: where binning fails, the compound CF region falls back
    # to the relay-silenced channel, which can exceed a single-destination
    # CF region that still relays.
    rng = np.random.default_rng(83)
    betas = np.linspace(0.05, 0.95, 7)
    schemes = (SchemeId.GQF, SchemeId.NO_RELAY)
    for _ in range(100):
        spec = draw_dm_spec(rng)
        assert active_destinations(spec) == (1, 2)
        # Destination 2 seen as destination 1: swap the Y11/Y21 and Y12/Y22 axes.
        dest2 = replace(
            spec, slot1=np.swapaxes(spec.slot1, 3, 4), slot2=np.swapaxes(spec.slot2, 3, 4)
        )
        compound = dm_regions(spec, ("cmacr",), schemes, betas)["cmacr"]
        for destination in (spec, dest2):
            single = dm_regions(destination, ("marc",), schemes, betas)["marc"]
            for scheme in schemes:
                inner = clamp_bounds(*compound[scheme][:3])
                outer = clamp_bounds(*single[scheme][:3])
                for a, b in zip(inner, outer):
                    assert np.all(a <= b + 1e-12), scheme


def test_dm_regions_refuses_a_repeated_topology():
    # As a repeated scheme is: the answer has one entry per topology.
    spec = make_random_spec(np.random.default_rng(5))
    for topologies, named in ((("marc", "marc"), "marc"), (["cmacr", "marc", "cmacr"], "cmacr")):
        with pytest.raises(InvalidParams, match=f"^topologies lists {named} more than once$"):
            dm_regions(spec, topologies, (SchemeId.GQF,), 0.5)
