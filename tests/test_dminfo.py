"""Tests for exact finite-alphabet information measures and channel specs.

Reference values are recomputed inside the tests by brute-force loops over
the full joint tensors, independently of the vectorized implementations.
"""

import copy
import json
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import hdmarc.dminfo
from hdmarc import (
    ConfigError,
    DimensionMismatch,
    DmChannelSpec,
    InvalidParams,
    OverlappingSets,
    TensorTooLarge,
    UnknownVariable,
    spec_from_dict,
)
from hdmarc.cli import _load_json
from hdmarc.dminfo import (
    MAX_CELLS,
    MAX_TABLE_CELLS,
    SLOT1_VARS_BY_DESTINATION,
    SLOT2_VARS,
    VAR_NAMES,
    ZERO_EPS,
    JointPmf,
    build_slot1_joint,
    build_slot2_joint,
    entropy,
    marginalize,
    mutual_information,
)
from hdmarc.dmregions import degenerate_relay_spec
from hdmarc.oracle import build_covariance, gaussian_mi
from hdmarc.verify import draw_dm_spec

from _support import (
    assert_same_bits,
    benchmark_params,
    entropy_as_summed_per_set,
    make_random_spec as _random_spec,
)


# ---------------------------------------------------------------------------
# JointPmf construction


def test_joint_pmf_rejects_unknown_names():
    with pytest.raises(UnknownVariable):
        JointPmf(("X99",), np.array([0.5, 0.5]))
    with pytest.raises(UnknownVariable):
        JointPmf(("X11", "X99"), np.full((2, 2), 0.25))


def test_joint_pmf_rejects_empty_axes():
    # An alphabet size is an axis length; a zero-length axis holds no
    # probability mass, so it fails normalization.
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.zeros(0))
    with pytest.raises(InvalidParams):
        JointPmf(("X11", "Y11"), np.zeros((2, 0)))
    with pytest.raises(InvalidParams):
        JointPmf(("X11", "Y11"), np.zeros((0, 3)))


def test_joint_pmf_rejects_duplicate_names():
    probs = np.full((2, 2), 0.25)
    with pytest.raises(InvalidParams):
        JointPmf(("X11", "X11"), probs)


def test_joint_pmf_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        JointPmf(("X11", "Y11", "YR"), np.full((2, 2), 0.25))
    with pytest.raises(DimensionMismatch):
        JointPmf(("X11",), np.full((2, 2), 0.25))


def test_joint_pmf_rejects_negative_and_unnormalized():
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.array([1.2, -0.2]))
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.array([0.6, 0.5]))


def test_joint_pmf_rejects_oversized_tensors():
    sizes = (513, 512)  # product just above the cell cap
    assert sizes[0] * sizes[1] > MAX_CELLS
    probs = np.full(sizes, 1.0 / (sizes[0] * sizes[1]))
    with pytest.raises(TensorTooLarge):
        JointPmf(("YR", "Y11"), probs)


def test_joint_pmf_stores_readonly_copy():
    source = np.array([0.5, 0.5])
    pmf = JointPmf(("X11",), source)
    source[0] = 0.9
    assert pmf.probs[0] == 0.5
    with pytest.raises(ValueError):
        pmf.probs[0] = 0.1
    # Nor can the array be swapped under the pmf's entropy memo.
    with pytest.raises(AttributeError):
        pmf.probs = np.array([0.9, 0.1])
    assert entropy(pmf, ("X11",)) == 1.0


# ---------------------------------------------------------------------------
# marginalize / entropy / mutual_information


def _pair_joint(matrix):
    return JointPmf(("X11", "Y11"), matrix)


def test_marginalize_keep_all_is_identity():
    pmf = _pair_joint(np.array([[0.1, 0.2], [0.3, 0.4]]))
    same = marginalize(pmf, ("X11", "Y11"))
    assert same.names() == pmf.names()
    np.testing.assert_array_equal(same.probs, pmf.probs)


def test_marginalize_matches_manual_sum():
    matrix = np.array([[0.1, 0.2], [0.3, 0.4]])
    pmf = _pair_joint(matrix)
    x_only = marginalize(pmf, ("X11",))
    np.testing.assert_allclose(x_only.probs, matrix.sum(axis=1), rtol=1e-15)
    y_only = marginalize(pmf, ("Y11",))
    np.testing.assert_allclose(y_only.probs, matrix.sum(axis=0), rtol=1e-15)


def test_marginalize_preserves_axis_order_not_request_order():
    pmf = _pair_joint(np.array([[0.1, 0.2], [0.3, 0.4]]))
    both = marginalize(pmf, ("Y11", "X11"))
    assert both.names() == ("X11", "Y11")


def test_marginalize_rejects_unknown_names():
    pmf = _pair_joint(np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(UnknownVariable):
        marginalize(pmf, ("XR",))


def test_entropy_anchors():
    uniform_pair = _pair_joint(np.full((2, 2), 0.25))
    assert entropy(uniform_pair, ("X11",)) == pytest.approx(1.0, abs=1e-15)
    assert entropy(uniform_pair, ("X11", "Y11")) == pytest.approx(2.0, abs=1e-15)
    point_mass = _pair_joint(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert entropy(point_mass, ("X11", "Y11")) == 0.0
    assert entropy(uniform_pair, ()) == 0.0


def test_the_entropy_of_a_lone_positive_cell_is_positive_zero():
    # -(1.0 * log2 1.0) is -0.0; the entropy is +0.0 on every path to it.
    point_mass = _pair_joint(np.array([[1.0, 0.0], [0.0, 0.0]]))
    values = [
        entropy(point_mass, {"X11"}),
        point_mass.entropy(["Y11"]),
        point_mass.entropy({"X11", "Y11"}),
        entropy(_pair_joint(np.full((2, 2), 0.25)), set()),
        mutual_information(point_mass, {"X11"}, {"Y11"}),
    ]
    assert [math.copysign(1.0, value) for value in values] == [1.0] * len(values)
    assert values == [0.0] * len(values)


def test_entropy_of_biased_coin():
    pmf = JointPmf(("X11",), np.array([0.9, 0.1]))
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert entropy(pmf, ("X11",)) == pytest.approx(expected, abs=1e-15)


def test_mutual_information_matches_brute_force_on_binary_symmetric_channel():
    # Uniform binary input through a symmetric flip-with-0.1 channel.
    joint = np.array([[0.45, 0.05], [0.05, 0.45]])
    pmf = _pair_joint(joint)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    brute = 0.0
    for x in range(2):
        for y in range(2):
            brute += joint[x, y] * math.log2(joint[x, y] / (px[x] * py[y]))
    value = mutual_information(pmf, ("X11",), ("Y11",))
    assert value == pytest.approx(brute, abs=1e-15)
    assert value == pytest.approx(0.5310044064107188, abs=1e-15)


def test_mutual_information_zero_for_independent_variables():
    joint = np.outer([0.3, 0.7], [0.6, 0.4])
    value = mutual_information(_pair_joint(joint), ("X11",), ("Y11",))
    assert abs(value) <= 1e-15


def test_mutual_information_rejects_overlapping_sets():
    pmf = _pair_joint(np.full((2, 2), 0.25))
    with pytest.raises(OverlappingSets):
        mutual_information(pmf, ("X11",), ("X11",))
    with pytest.raises(OverlappingSets):
        mutual_information(pmf, ("X11",), ("Y11",), ("Y11",))


def test_the_methods_refuse_what_the_functions_refuse():
    joint = build_slot1_joint(_random_spec(np.random.default_rng(5)), 1)
    overlapping = [(["X11"], ["X11"], []), ({"X11"}, {"X11"}, set()), ({"X11"}, {"Y11"}, {"Y11"})]
    for a, b, c in overlapping:
        with pytest.raises(OverlappingSets):
            joint.mutual_information(a, b, c)
    for names in ([3, "Z"], [["X11"]], "X11", {3, "Z"}, 5):
        with pytest.raises(InvalidParams):
            joint.entropy(names)
    with pytest.raises(InvalidParams, match="^names must hold str names, got a int$"):
        joint.mutual_information({3}, {"Y11"})
    for names in (["X12"], {"X12", "Y11"}):
        with pytest.raises(UnknownVariable, match=r"^variables \['X12'\] are not part"):
            joint.entropy(names)
    # Any iterable of names is read, to the bits of the set.
    triple = ({"X11"}, {"Y11", "YhR"}, {"X21"})
    want = joint.mutual_information(*triple)
    assert_same_bits(joint.mutual_information(*(sorted(s) for s in triple)), want)
    assert_same_bits(joint.mutual_information(*(iter(s) for s in triple)), want)
    assert_same_bits(joint.entropy(name for name in ("X11", "Y11")), joint.entropy({"X11", "Y11"}))


def test_a_set_of_names_of_the_pmf_is_not_read_name_by_name(monkeypatch):
    reads = []

    def recording(values, label, *args):
        reads.append(label)
        return read_names(values, label, *args)

    joint = build_slot1_joint(_random_spec(np.random.default_rng(12)), 1)
    read_names = hdmarc.dminfo.read_names
    monkeypatch.setattr(hdmarc.dminfo, "read_names", recording)
    first = joint.mutual_information({"X11"}, {"Y11"}, {"X21"})
    again = joint.mutual_information({"X11"}, {"Y11"}, {"X21"})
    assert reads == []
    assert_same_bits(again, first)
    # Another collection is read on every call, and a set once it holds a
    # name the pmf lacks.
    joint.mutual_information(("X11",), {"Y11"}, {"X21"})
    assert reads == ["set A", "set B", "set C"]
    with pytest.raises(UnknownVariable):
        joint.entropy({"X11", "X12"})
    assert reads == ["set A", "set B", "set C", "names"]


def test_mutual_information_properties_under_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = _random_spec(rng)
        joint = build_slot1_joint(spec, 1)
        sym_ab = mutual_information(joint, ("X11",), ("YR", "Y11"))
        sym_ba = mutual_information(joint, ("YR", "Y11"), ("X11",))
        assert sym_ab == sym_ba  # identical entropy terms, exact equality
        assert sym_ab >= -1e-12
        cond = mutual_information(joint, ("X11",), ("Y11",), ("YR",))
        assert cond >= -1e-12
        # Chain rule: I(A; B,C) = I(A; B) + I(A; C | B).
        lhs = mutual_information(joint, ("X11",), ("YR", "Y11"))
        rhs = mutual_information(joint, ("X11",), ("YR",)) + mutual_information(
            joint, ("X11",), ("Y11",), ("YR",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_repeated_mutual_informations_on_one_pmf_build_its_table_once(monkeypatch):
    built = []

    def recording(probs):
        built.append(probs)
        return table(probs)

    table = hdmarc.dminfo._entropy_table
    monkeypatch.setattr(hdmarc.dminfo, "_entropy_table", recording)
    joint = build_slot1_joint(_random_spec(np.random.default_rng(12)), 1)
    assert built == []  # nothing is computed before the first lookup
    triples = [
        (("X11",), ("Y11",), ()),
        (("X11",), ("Y11",), ("X21",)),
        (("X11", "X21"), ("Y11",), ()),
    ]
    first = [mutual_information(joint, *triple) for triple in triples]
    again = [mutual_information(joint, *triple) for triple in triples]
    assert_same_bits(again, first)
    assert len(built) == 1 and built[0] is joint.probs
    # Each is the four entropies of its sets, read from the same table.
    h = joint.entropy
    assert_same_bits(
        [h({*a, *c}) + h({*b, *c}) - h(set(c)) - h({*a, *b, *c}) for a, b, c in triples], first
    )
    assert len(built) == 1
    # A fresh pmf of the same table builds its own, to the same bits.
    fresh = JointPmf(joint.names(), joint.probs)
    assert_same_bits([mutual_information(fresh, *triple) for triple in triples], first)
    assert len(built) == 2


def _assert_every_subset_matches_the_per_set_sums(pmf):
    """Each subset's entropy, read from the table, lies within 1e-14 bits of
    the same marginal summed on its own; an entropy of 0 is +0.0 on both."""
    names = pmf.names()
    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            value, want = pmf.entropy(set(subset)), entropy_as_summed_per_set(pmf, subset)
            assert abs(value - want) <= 1e-14, (subset, value, want)
            assert value != 0.0 or math.copysign(1.0, value) == 1.0, subset


@pytest.mark.parametrize(
    "sizes",
    [{"yhr": 1}, {"x21": 1, "y21": 1, "x22": 1}, {"yr": 1, "y11": 1, "xr": 1, "y12": 1},
     {"x11": 3, "yr": 4, "y11": 1, "y22": 1}],
)
def test_the_table_of_a_slot_joint_with_one_letter_axes_holds_every_subset(sizes):
    spec = _random_spec(np.random.default_rng(61), sizes)
    joints = (*spec.joints(1), spec.joints(2)[0])
    assert any(1 in joint.probs.shape for joint in joints)
    for joint in joints:
        _assert_every_subset_matches_the_per_set_sums(joint)


def test_the_table_drops_cells_and_marginals_at_zero_eps_and_keeps_those_above():
    above = np.nextafter(ZERO_EPS, 1.0)
    probs = np.zeros((2, 2, 2))
    # Row x = 1 holds tiny cells: two halves of ZERO_EPS, whose marginal over
    # YR is ZERO_EPS exactly, and a cell just above ZERO_EPS beside one at it.
    probs[1] = [[ZERO_EPS / 2, ZERO_EPS / 2], [above, ZERO_EPS]]
    probs[0] = np.random.default_rng(62).dirichlet(np.ones(4)).reshape(2, 2) * (1 - probs[1].sum())
    pmf = JointPmf(("X11", "Y11", "YR"), probs)
    _assert_every_subset_matches_the_per_set_sums(pmf)
    # What is dropped shows: the cell above ZERO_EPS counts, the one at it not.
    kept = probs[0].ravel().tolist() + [above]
    assert pmf.entropy({"X11", "Y11", "YR"}) == pytest.approx(
        -sum(p * math.log2(p) for p in kept), abs=1e-15
    )


def test_the_table_of_a_lone_positive_cell_is_positive_zero_on_every_subset():
    probs = np.zeros((2, 3, 1, 2))
    probs[1, 2, 0, 0] = 1.0
    pmf = JointPmf(("X11", "YR", "YhR", "Y11"), probs)
    _assert_every_subset_matches_the_per_set_sums(pmf)
    values = [pmf.entropy(set(s)) for n in range(5) for s in combinations(pmf.names(), n)]
    values.append(pmf.mutual_information({"X11"}, {"YR"}, {"Y11"}))
    assert [math.copysign(1.0, value) for value in values] == [1.0] * 17
    assert values == [0.0] * 17


def test_the_table_of_one_axis_and_of_all_eleven_axes():
    _assert_every_subset_matches_the_per_set_sums(JointPmf(("XR",), [0.2, 0.3, 0.5]))
    _assert_every_subset_matches_the_per_set_sums(JointPmf(("XR",), [1.0]))
    shape = (2, 3, 1, 2, 2, 2, 1, 2, 3, 2, 2)
    probs = np.random.default_rng(63).dirichlet(np.ones(math.prod(shape))).reshape(shape)
    pmf = JointPmf(sorted(VAR_NAMES), probs)
    _assert_every_subset_matches_the_per_set_sums(pmf)


def test_a_pmf_whose_entropy_table_would_pass_the_cap_is_refused():
    # prod(size + 1) over the axes of more than one letter: 4**9 * 8 is the
    # cap itself, 4**9 * 9 is past it; both hold far fewer than MAX_CELLS.
    names = sorted(VAR_NAMES)[:10]
    at_cap = (3,) * 9 + (7,)
    assert math.prod(size + 1 for size in at_cap) == MAX_TABLE_CELLS
    JointPmf(names, np.full(at_cap, 1.0 / math.prod(at_cap)))
    past = (3,) * 9 + (8,)
    with pytest.raises(TensorTooLarge, match="entropy table .* the cap is 2097152$"):
        JointPmf(names, np.full(past, 1.0 / math.prod(past)))
    # Eleven axes at MAX_CELLS would take 3**10 * 257 = 15.2 million cells.
    near = (2,) * 10 + (256,)
    assert math.prod(near) == MAX_CELLS
    with pytest.raises(TensorTooLarge, match="entropy table"):
        JointPmf(sorted(VAR_NAMES), np.full(near, 1.0 / MAX_CELLS))


def test_the_largest_slot_joint_under_the_cell_cap_builds_its_table():
    # Four binary axes and a 16384-letter quantizer: 2**18 cells, and the
    # most table cells a five-axis joint under MAX_CELLS can need.
    spec = _random_spec(np.random.default_rng(64), {"yr": 2, "y21": 1, "yhr": 16384})
    joint = spec.joints(1)[0]
    assert joint.probs.shape == (2, 2, 2, 2, 16384) and joint.probs.size == MAX_CELLS
    assert math.prod(size + 1 for size in joint.probs.shape) == 1327185 <= MAX_TABLE_CELLS
    _assert_every_subset_matches_the_per_set_sums(joint)


def test_a_spec_equals_and_hashes_as_itself_only():
    spec = _random_spec(np.random.default_rng(65))
    twin = replace(spec)
    assert spec == spec and spec != twin
    assert len({spec, twin, spec}) == 2 and hash(spec) == hash(spec)


def _exact_entropies(pmf, mpmath):
    """``{names: (entropy, dropped)}`` for every marginal of ``pmf``: its
    entropy in bits in 50-digit mpmath arithmetic, with no cell dropped,
    and how many of its float64 cells are at or below ZERO_EPS.  Each
    float64 cell is an integer over a power of two, so over one common
    denominator the marginals sum exactly, as Python integers."""
    ratios = [cell.as_integer_ratio() for cell in pmf.probs.ravel().tolist()]
    denominator = max(d for _, d in ratios)
    counts = np.array([n * (denominator // d) for n, d in ratios], dtype=object)
    counts = counts.reshape(pmf.probs.shape)
    names = pmf.names()
    exact = {}
    with mpmath.workdps(50):
        log_total = mpmath.log(denominator)
        for size in range(len(names) + 1):
            for keep in combinations(range(len(names)), size):
                drop = tuple(axis for axis in range(len(names)) if axis not in keep)
                marginal = np.ravel(counts.sum(axis=drop) if drop else counts).tolist()
                # -sum p log2 p with p = n / denominator, over n > 0.
                nats = sum(n * (log_total - mpmath.log(n)) for n in marginal if n)
                floats = pmf.probs.sum(axis=drop) if drop else pmf.probs
                exact[frozenset(names[axis] for axis in keep)] = (
                    nats / denominator / mpmath.log(2),
                    int((floats <= ZERO_EPS).sum()),
                )
    return exact


def test_every_marginal_entropy_is_within_1e_14_bits_of_the_exact_entropy():
    # The absolute accuracy contract of the DM entropies, on the three joints
    # (a slot-1 joint per destination and the slot-2 joint) of eight drawn
    # channels and of one with its relay silenced, whose slot-2 joint holds
    # exact zeros.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2014)
    specs = [draw_dm_spec(rng) for _ in range(8)]
    specs.append(degenerate_relay_spec(specs[0]))
    checked = 0
    for spec in specs:
        slot1 = [spec.joints(k)[0] for k in (1, 2)]
        for joint in (*slot1, spec.joints(1)[1]):
            for names, (value, _) in _exact_entropies(joint, mpmath).items():
                error = abs(joint.entropy(names) - value)
                assert error <= 1e-14, (sorted(names), float(error))
                checked += 1
    assert checked == len(specs) * 3 * 2**5  # every subset of each joint's 5 names


def test_each_cell_dropped_at_zero_eps_costs_at_most_5e_14_bits():
    # A cell at or below ZERO_EPS counts as zero; the most one can carry is
    # -ZERO_EPS * log2(ZERO_EPS), under 5e-14 bits.  Tiny cells of several
    # sizes are moved off the largest cell of a drawn slot-1 joint.
    mpmath = pytest.importorskip("mpmath")
    probs = draw_dm_spec(np.random.default_rng(2015)).joints(1)[0].probs.copy()
    flat = probs.reshape(-1)
    tiny = [ZERO_EPS, 7e-16, 1e-16, 3e-18, 1e-30]
    smallest = np.argsort(flat)[: len(tiny)]
    flat[np.argmax(flat)] += flat[smallest].sum() - sum(tiny)
    flat[smallest] = tiny
    joint = JointPmf(SLOT1_VARS_BY_DESTINATION[1], probs)
    worst = 0.0
    for names, (value, dropped) in _exact_entropies(joint, mpmath).items():
        error = value - joint.entropy(names)  # a dropped cell lowers the entropy
        assert -1e-14 <= error <= 1e-14 + 5e-14 * dropped, (sorted(names), float(error))
        worst = max(worst, float(error))
    assert worst > 1e-14  # the drop shows: the cell at ZERO_EPS alone costs 5e-14


def test_quantizer_output_is_a_degraded_view_of_the_relay_input():
    rng = np.random.default_rng(12)
    for _ in range(25):
        spec = _random_spec(rng)
        for k in (1, 2):
            joint = build_slot1_joint(spec, k)
            # Data processing: the quantizer output cannot say more about the
            # sources than the relay observation it was computed from.
            assert mutual_information(joint, ("X11",), ("YhR",)) <= (
                mutual_information(joint, ("X11",), ("YR",)) + 1e-10
            )
            # Quantization acts on YR alone, so conditioned on YR the output
            # is independent of everything else the destination's joint holds.
            leak = mutual_information(joint, ("YhR",), ("X11", "X21", f"Y{k}1"), ("YR",))
            assert abs(leak) <= 1e-10


# ---------------------------------------------------------------------------
# Joint construction against nested-loop oracles


def test_slot1_joint_matches_nested_loop_oracle():
    rng = np.random.default_rng(21)
    spec = _random_spec(rng, {"yr": 3, "yhr": 3, "y21": 3})
    for k in (1, 2):
        joint = build_slot1_joint(spec, k)
        assert joint.names() == SLOT1_VARS_BY_DESTINATION[k]
        shape = spec.slot1.shape + spec.test_channel.shape[1:]
        oracle = np.zeros(shape[:3] + (shape[2 + k], shape[5]))
        for a, b, r, u, v, h in np.ndindex(shape):
            # Destination k hears u (k = 1) or v (k = 2); the other is summed.
            oracle[a, b, r, (u, v)[k - 1], h] += (
                spec.px11[a]
                * spec.px21[b]
                * spec.slot1[a, b, r, u, v]
                * spec.test_channel[r, h]
            )
        np.testing.assert_allclose(joint.probs, oracle, rtol=1e-13, atol=1e-300)
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_slot2_joint_matches_nested_loop_oracle():
    rng = np.random.default_rng(22)
    spec = _random_spec(rng, {"xr": 3, "y12": 4})
    joint = build_slot2_joint(spec)
    assert joint.names() == SLOT2_VARS
    shape = spec.slot2.shape
    oracle = np.zeros(shape)
    for a, b, c, u, v in np.ndindex(shape):
        oracle[a, b, c, u, v] = (
            spec.px12[a] * spec.px22[b] * spec.pxr[c] * spec.slot2[a, b, c, u, v]
        )
    np.testing.assert_allclose(joint.probs, oracle, rtol=1e-13, atol=1e-300)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)


def _joints_by_optimized_einsum(spec, k):
    """Destination k's slot-1 joint and the slot-2 joint the way the
    builders would compute them if they asked np.einsum for a contraction
    path: the reference for their bits."""
    slot1 = np.einsum(
        "a,b,abru,rh->abruh",
        spec.px11, spec.px21, spec.slot1.sum(axis=5 - k), spec.test_channel, optimize=True,
    )
    slot2 = np.einsum(
        "a,b,c,abcuv->abcuv",
        spec.px12, spec.px22, spec.pxr, spec.slot2, optimize=True,
    )
    return slot1, slot2


def test_joint_builders_equal_the_optimized_einsum_bit_for_bit():
    rng = np.random.default_rng(24)
    names = ("x11", "x21", "x12", "x22", "xr", "yr", "yhr", "y11", "y21", "y12", "y22")
    # Every alphabet size 1-6 on every axis, then mixed sizes.
    draws = [dict.fromkeys(names, size) for size in range(1, 7)]
    draws += [{name: int(rng.integers(1, 7)) for name in names} for _ in range(200)]
    # The large dm-sweep channels: slot-1 joints of 4096 and 2048 cells.
    draws.append(dict(x11=2, x21=2, yr=16, y11=32, y21=16, yhr=2,
                      x12=2, x22=2, xr=2, y12=16, y22=16))
    for sizes in draws:
        spec = _random_spec(rng, sizes)
        cells = []
        for k in (1, 2):
            slot1, slot2 = _joints_by_optimized_einsum(spec, k)
            assert_same_bits(build_slot1_joint(spec, k).probs, slot1)
            assert_same_bits(build_slot2_joint(spec).probs, slot2)
            cells.append(slot1.size)
    assert cells == [4096, 2048]


def test_slot_joint_builders_reject_oversized_results():
    # Tables are individually modest but their product exceeds the cap:
    # destination 1's slot-1 joint holds 4*4*16*64*32 = 2**19 cells, and
    # destination 2's, with a 4-letter Y21, 2**15.
    n = {"x11": 4, "x21": 4, "yr": 16, "y11": 64, "y21": 4, "yhr": 32}
    rng = np.random.default_rng(23)
    spec = _random_spec(rng, n)
    with pytest.raises(TensorTooLarge, match="^slot-1 joint of destination 1 would hold 524288"):
        build_slot1_joint(spec, 1)
    with pytest.raises(TensorTooLarge):
        spec.joints(1)
    assert build_slot1_joint(spec, 2).probs.size == 2**15 < MAX_CELLS


# ---------------------------------------------------------------------------
# DmChannelSpec validation and JSON loading


def _spec_doc(rng):
    spec = _random_spec(rng)
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


def test_spec_rejects_unnormalized_conditional_rows():
    rng = np.random.default_rng(31)
    spec = _random_spec(rng)
    bad = spec.slot1.copy()
    bad[0, 0] *= 1.5
    with pytest.raises(InvalidParams):
        DmChannelSpec(
            px11=spec.px11,
            px21=spec.px21,
            px12=spec.px12,
            px22=spec.px22,
            pxr=spec.pxr,
            test_channel=spec.test_channel,
            slot1=bad,
            slot2=spec.slot2,
        )
    # Rows over an empty output alphabet hold no mass at all.
    with pytest.raises(InvalidParams):
        replace(spec, test_channel=np.zeros((spec.test_channel.shape[0], 0)))
    with pytest.raises(InvalidParams):
        replace(spec, slot2=np.zeros(spec.slot2.shape[:4] + (0,)))


@pytest.mark.parametrize(
    "table",
    ["px11", "px21", "px12", "px22", "pxr", "test_channel", "slot1", "slot2"],
)
def test_spec_rejects_nan_tables(table):
    # NaN compares False both ways, so it must fail the checks rather than
    # slip through them into entropies that drop it silently.
    spec = _random_spec(np.random.default_rng(33))
    nan_table = np.full_like(getattr(spec, table), np.nan)
    with pytest.raises(InvalidParams):
        replace(spec, **{table: nan_table})
    one_nan = getattr(spec, table).copy()
    one_nan.flat[0] = np.nan
    with pytest.raises(InvalidParams):
        replace(spec, **{table: one_nan})


def test_joint_pmf_rejects_nan_and_infinite_entries():
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.array([np.nan, np.nan]))
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.array([1.0, np.nan]))
    with pytest.raises(InvalidParams):
        JointPmf(("X11",), np.array([1.0, np.inf]))


def test_python_tables_refuse_strings_and_ragged_nesting_with_typed_errors():
    spec = _random_spec(np.random.default_rng(36))
    for table in ("ab", ["0.5", "0.5"], [[0.5], 0.5], [None, 1.0]):
        with pytest.raises(InvalidParams, match="px11"):
            replace(spec, px11=table)
        with pytest.raises(InvalidParams, match="joint pmf"):
            JointPmf(("X11",), table)


def test_spec_rejects_cross_table_size_mismatch():
    rng = np.random.default_rng(32)
    spec = _random_spec(rng)
    with pytest.raises(DimensionMismatch):
        DmChannelSpec(
            px11=np.array([0.2, 0.3, 0.5]),  # slot1 expects a binary x11 axis
            px21=spec.px21,
            px12=spec.px12,
            px22=spec.px22,
            pxr=spec.pxr,
            test_channel=spec.test_channel,
            slot1=spec.slot1,
            slot2=spec.slot2,
        )


def test_spec_rejects_relay_alphabet_mismatch():
    rng = np.random.default_rng(33)
    spec = _random_spec(rng)
    # test_channel rows indexed by a smaller yR alphabet than slot1 produces
    with pytest.raises(DimensionMismatch):
        DmChannelSpec(
            px11=spec.px11,
            px21=spec.px21,
            px12=spec.px12,
            px22=spec.px22,
            pxr=spec.pxr,
            test_channel=spec.test_channel[:2],
            slot1=spec.slot1,
            slot2=spec.slot2,
        )


def test_spec_from_dict_missing_and_extra_fields():
    rng = np.random.default_rng(34)
    doc = _spec_doc(rng)
    incomplete = {k: v for k, v in doc.items() if k != "p_xr"}
    with pytest.raises(ConfigError):
        spec_from_dict(incomplete)
    extra = dict(doc)
    extra["unexpected"] = 1
    with pytest.raises(ConfigError):
        spec_from_dict(extra)
    with pytest.raises(ConfigError):
        spec_from_dict(["not", "an", "object"])


def test_spec_from_dict_rejects_non_numeric_tables():
    rng = np.random.default_rng(35)
    doc = _spec_doc(rng)
    for key, table in (
        ("p_x11", ["a", "b"]),
        ("p_x11", ["0.5", "0.5"]),  # strings that would parse as numbers
        ("p_x21", [True, False]),
        ("test_channel", [[True, False]] * len(doc["test_channel"])),
        ("p_xr", [None, 1.0]),
        ("p_x12", {"0": 0.5, "1": 0.5}),
    ):
        with pytest.raises(ConfigError, match=key):
            spec_from_dict(dict(doc, **{key: table}))
    # Integer entries are numbers: they give the same tables as floats.
    spec = spec_from_dict(dict(doc, p_x11=[1, 0], test_channel=np.eye(3, dtype=int).tolist()))
    assert spec.px11.tolist() == [1.0, 0.0]
    assert spec.test_channel.dtype == np.float64


def test_spec_from_dict_rejects_booleans_among_numbers():
    rng = np.random.default_rng(35)
    doc = _spec_doc(rng)
    slot1 = copy.deepcopy(doc["slot1"])
    slot1[-1][-1][-1][-1][-1] = True  # a 1.0 spelled as a bool, deep inside
    for key, table in (
        ("p_x11", [0.0, True]),
        ("p_xr", [np.True_, 0.0]),
        ("test_channel", [[False, *row[1:]] for row in doc["test_channel"]]),
        ("slot1", slot1),
    ):
        with pytest.raises(ConfigError, match=f"{key}.*bool"):
            spec_from_dict(dict(doc, **{key: table}))
    # Numbers alone keep converting to the same float64 bits.
    spec = spec_from_dict(json.loads(json.dumps(doc)))
    for key, field in (("p_x11", "px11"), ("test_channel", "test_channel"), ("slot1", "slot1")):
        assert getattr(spec, field).tobytes() == np.array(doc[key], dtype=np.float64).tobytes()


def test_dm_spec_json_round_trip(tmp_path):
    rng = np.random.default_rng(36)
    doc = _spec_doc(rng)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    spec = spec_from_dict(json.loads(path.read_text()))
    np.testing.assert_allclose(spec.px11, doc["p_x11"], rtol=1e-15)
    np.testing.assert_allclose(spec.slot2, doc["slot2"], rtol=1e-15)
    assert spec.test_channel.shape[0] == len(doc["test_channel"])


def test_channel_file_with_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        _load_json(path)


def test_garbling_the_test_channel_never_raises_the_quantizer_information():
    # YR -> YhR -> YhR' is a Markov chain, so I(YR; YhR') <= I(YR; YhR).
    rng = np.random.default_rng(89)
    for _ in range(200):
        yr, yhr, garbled_yhr = (int(n) for n in rng.integers([2, 2, 1], 5))
        spec = _random_spec(rng, {"yr": yr, "yhr": yhr})
        garble = rng.dirichlet(np.ones(garbled_yhr), size=yhr)  # row-stochastic
        garbled = replace(spec, test_channel=spec.test_channel @ garble)
        before = mutual_information(build_slot1_joint(spec, 1), {"YR"}, {"YhR"})
        after = mutual_information(build_slot1_joint(garbled, 1), {"YR"}, {"YhR"})
        assert after <= before + 1e-12


# ---------------------------------------------------------------------------
# Sets of variable names


def _name_set_calls():
    joint = build_slot1_joint(_random_spec(np.random.default_rng(5)), 1)
    model = build_covariance(benchmark_params(), slot=2)
    return {
        "mutual_information a": (lambda v: mutual_information(joint, v, {"Y11"}), "set A"),
        "mutual_information b": (lambda v: mutual_information(joint, {"X11"}, v), "set B"),
        "mutual_information c": (
            lambda v: mutual_information(joint, {"X11"}, {"Y11"}, v), "set C"
        ),
        "entropy": (lambda v: entropy(joint, v), "names"),
        "JointPmf.mutual_information a": (
            lambda v: joint.mutual_information(v, {"Y11"}), "set A"
        ),
        "JointPmf.mutual_information b": (
            lambda v: joint.mutual_information({"X11"}, v), "set B"
        ),
        "JointPmf.mutual_information c": (
            lambda v: joint.mutual_information({"X11"}, {"Y11"}, v), "set C"
        ),
        "JointPmf.entropy": (lambda v: joint.entropy(v), "names"),
        "marginalize": (lambda v: marginalize(joint, v), "keep"),
        "gaussian_mi": (lambda v: gaussian_mi(model, {"XR"}, v), "set B"),
        "JointPmf": (lambda v: JointPmf(v, np.ones(3) / 3), "variable names of the joint pmf"),
    }


@pytest.mark.parametrize("call", sorted(_name_set_calls()))
def test_a_lone_str_is_refused_as_a_set_of_names(call):
    function, label = _name_set_calls()[call]
    for name in ("YR", "Y12", "X11"):  # "X11" would read as {"X", "1"}
        with pytest.raises(InvalidParams, match=f"^{label} must be a collection of names"):
            function(name)
    with pytest.raises(InvalidParams, match=f"^{label} must be iterable, got 5"):
        function(5)


@pytest.mark.parametrize("call", sorted(_name_set_calls()))
def test_a_name_that_is_not_a_str_is_refused_naming_the_set(call):
    # A list inside the names cannot go into a set; a number or None is no
    # name.  Each is refused by type, not left to a bare TypeError.
    function, label = _name_set_calls()[call]
    for names, kind in (([["X11"]], "list"), ([1], "int"), (["X11", None], "NoneType")):
        with pytest.raises(InvalidParams, match=f"^{label} must hold str names, got a {kind}$"):
            function(names)



def test_a_joint_pmf_refuses_a_set_of_names():
    # The names give the axes in order; a set's order changes with the hash
    # seed, which read these probabilities as H(X11) = 0.971 or 0.722 bits.
    probs = [[0.5, 0.3], [0.1, 0.1]]
    for names in ({"Y11", "X11"}, frozenset({"Y11", "X11"})):
        with pytest.raises(InvalidParams, match="names of the joint pmf must be in order"):
            JointPmf(names, probs)
    pmf = JointPmf(("X11", "Y11"), probs)
    assert pmf.entropy({"X11"}) == pytest.approx(-0.8 * math.log2(0.8) - 0.2 * math.log2(0.2))
    # A set of names to sum over carries no order, and is still read.
    assert entropy(pmf, frozenset({"X11"})) == pmf.entropy(("X11",))
    assert mutual_information(pmf, {"X11"}, {"Y11"}) == pmf.mutual_information(["X11"], ["Y11"])
    assert marginalize(pmf, {"Y11"}).names() == ("Y11",)
