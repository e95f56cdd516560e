"""Shared helpers for the test suite.

The mutual-information evaluator here intentionally uses the log-ratio sum
rather than entropy combinations, so region tests compare two genuinely
different computations of the same quantity.
"""

import numpy as np

import hdmarc.dminfo
from hdmarc import Bounds, DmChannelSpec, GaussianMarcParams

_POS_EPS = 1e-15

#: Seed of a ``make_random_spec`` spec whose CF points are feasible at some
#: of the nine betas in [0.1, 0.9] and infeasible at the others, on both
#: topologies.
MIXED_CF_SEED = 93


def make_random_spec(rng, sizes=None):
    """Random valid finite-alphabet channel spec with dirichlet tables."""
    n = dict(
        x11=2, x21=2, x12=2, x22=2, xr=2, yr=3, yhr=2, y11=2, y21=2, y12=3, y22=2
    )
    if sizes:
        n.update(sizes)

    def pmf(size):
        return rng.dirichlet(np.ones(size))

    def cond(row_shape, out_shape):
        cells = int(np.prod(out_shape))
        flat = rng.dirichlet(np.ones(cells), size=row_shape)
        return flat.reshape(*row_shape, *out_shape)

    return DmChannelSpec(
        px11=pmf(n["x11"]),
        px21=pmf(n["x21"]),
        px12=pmf(n["x12"]),
        px22=pmf(n["x22"]),
        pxr=pmf(n["xr"]),
        test_channel=cond((n["yr"],), (n["yhr"],)),
        slot1=cond((n["x11"], n["x21"]), (n["yr"], n["y11"], n["y21"])),
        slot2=cond((n["x12"], n["x22"], n["xr"]), (n["y12"], n["y22"])),
    )


def entropy_as_summed_per_set(pmf, names):
    """The entropy of one marginal as ``JointPmf.entropy`` summed it before
    its entropy table: numpy's sum over the dropped axes, the entries above
    ZERO_EPS, 0.0 - (p * log2 p).sum() (the 0.0 makes the entropy of a lone
    positive cell +0.0, not -0.0)."""
    drop = tuple(i for i, name in enumerate(pmf.names()) if name not in names)
    flat = (pmf.probs.sum(axis=drop) if drop else pmf.probs).ravel()
    positive = flat[flat > hdmarc.dminfo.ZERO_EPS]
    return float(0.0 - (positive * np.log2(positive)).sum()) if positive.size else 0.0


def mi_ratio(pmf, a, b, c=()):
    """I(A; B | C) in bits via sum of p * log(p ratio), not entropies."""
    names = pmf.names()
    probs = pmf.probs

    def broadcast_marginal(keep):
        drop = tuple(i for i, name in enumerate(names) if name not in keep)
        reduced = probs.sum(axis=drop) if drop else probs
        shape = [size if name in keep else 1 for name, size in zip(names, probs.shape)]
        return reduced.reshape(shape)

    a, b, c = set(a), set(b), set(c)
    pabc = broadcast_marginal(a | b | c)
    pac = broadcast_marginal(a | c)
    pbc = broadcast_marginal(b | c)
    pc = broadcast_marginal(c)
    mask = pabc > _POS_EPS
    numer = np.where(mask, pabc * pc, 1.0)
    denom = np.where(mask, pac * pbc, 1.0)
    terms = np.where(mask, pabc, 0.0) * np.log2(numer / denom)
    return float(terms.sum())


def random_gaussian_params(rng, beta=None, sigma_q2=None):
    """Random channel draw over the documented verification ranges."""
    return GaussianMarcParams(
        h11=float(rng.uniform(0.1, 5.0)),
        h21=float(rng.uniform(0.1, 5.0)),
        h1r=float(rng.uniform(0.1, 5.0)),
        h2r=float(rng.uniform(0.1, 5.0)),
        hr1=float(rng.uniform(0.1, 5.0)),
        p11=float(rng.uniform(0.1, 5.0)),
        p12=float(rng.uniform(0.1, 5.0)),
        p21=float(rng.uniform(0.1, 5.0)),
        p22=float(rng.uniform(0.1, 5.0)),
        pr=float(rng.uniform(0.1, 5.0)),
        beta=beta if beta is not None else float(rng.uniform(0.1, 0.9)),
        sigma_q2=sigma_q2,
    )


def benchmark_params(beta=0.5, sigma_q2=None, **overrides):
    """The symmetric unit-power channel used as the numeric benchmark.

    Direct gains 1, source-1-to-relay gain 3, source-2-to-relay gain 0.5,
    relay-to-destination gain 3, every power 1.
    """
    fields = dict(
        h11=1.0,
        h21=1.0,
        h1r=3.0,
        h2r=0.5,
        hr1=3.0,
        p11=1.0,
        p12=1.0,
        p21=1.0,
        p22=1.0,
        pr=1.0,
    )
    fields.update(overrides)
    return GaussianMarcParams(beta=beta, sigma_q2=sigma_q2, **fields)


def assert_same_bits(got, want):
    """Two float64 arrays of one shape, or two :class:`hdmarc.Bounds` field
    by field and term by term (``sigma`` may be None in both), hold the same
    bits."""
    if not isinstance(want, Bounds):
        a, b = np.asarray(got), np.asarray(want)
        assert a.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        return
    for name in ("r1", "r2", "rsum", "sigma"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None
            continue
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes(), name
    assert np.array_equal(got.feasible, want.feasible)
    assert got.terms.keys() == want.terms.keys()
    for name, value in got.terms.items():
        a, b = np.asarray(value), np.asarray(want.terms[name])
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes(), name


def entry(bounds, j):
    """Entry ``j`` of ``bounds`` whose values are arrays over a stack (or
    one value for all of it), as the :class:`hdmarc.Bounds` of one point."""
    shape = np.shape(bounds.rsum)

    def at(value):
        return None if value is None else np.broadcast_to(value, shape)[j]

    return Bounds(*map(at, bounds[:5]), {name: at(value) for name, value in bounds.terms.items()})


def stacked(regions):
    """The ``{scheme: Bounds}`` of each point of ``regions`` as one
    ``{scheme: Bounds}`` whose values are arrays over the points, as a
    stack entry answers."""

    def column(values):
        return None if values[0] is None else np.array(values)

    return {
        scheme: Bounds(
            *(column([region[scheme][i] for region in regions]) for i in range(5)),
            {name: column([region[scheme].terms[name] for region in regions]) for name in bounds.terms},
        )
        for scheme, bounds in regions[0].items()
    }


def count_calls(monkeypatch, source, names, *modules, arguments=1):
    """Record every call that ``modules`` make to the functions ``names`` of
    the module ``source``: the returned ``{name: [...]}`` lists the first
    argument of each call (a tuple of the first ``arguments`` positional
    ones, if more than 1), in order, as the calls happen.  A module that
    does not import a function makes no call to it."""
    calls = {name: [] for name in names}
    for name, args in calls.items():
        function = getattr(source, name)

        def counting(*positional, args=args, function=function, **kwargs):
            args.append(positional[0] if arguments == 1 else positional[:arguments])
            return function(*positional, **kwargs)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def count_joint_builds(monkeypatch):
    """Record every stacked slot-joint build that the program makes (a
    spec's joints and the model entries in ``dminfo`` and ``dmregions``, or
    any other module that would import a builder): the returned
    ``{"build_slot1_joints": [...], "build_slot2_joints": [...]}`` lists
    the ``(specs, destination, silenced)`` of each slot-1 build and the
    ``(specs, silenced)`` of each slot-2 build, ``specs`` a tuple, in
    order, as the calls happen."""
    modules = (hdmarc.dminfo, hdmarc.dmregions, hdmarc.oracle, hdmarc.verify)
    calls = {"build_slot1_joints": [], "build_slot2_joints": []}
    slot1, slot2 = hdmarc.dminfo.build_slot1_joints, hdmarc.dminfo.build_slot2_joints

    def counting_slot1(specs, k, silenced=False):
        specs = tuple(specs)
        calls["build_slot1_joints"].append((specs, k, silenced))
        return slot1(specs, k, silenced)

    def counting_slot2(specs, silenced=False):
        specs = tuple(specs)
        calls["build_slot2_joints"].append((specs, silenced))
        return slot2(specs, silenced)

    for module in modules:
        for name, counting in (
            ("build_slot1_joints", counting_slot1), ("build_slot2_joints", counting_slot2)
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls
