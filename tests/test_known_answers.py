"""Known-answer tests of the finite-alphabet model: every ``slot_terms``
pair of two parametric channel families against closed forms in the binary
entropy (``_known_answers``), which build no joint and read no entropy of
the package.  They check the joint builders and the entropy arithmetic
that the oracles of ``hdmarc verify`` share with the code they check."""

import numpy as np

from hdmarc import DmChannelSpec
from hdmarc.dmregions import slot_terms

from _known_answers import erasure_terms, xor_terms

#: Largest deviation allowed from a closed form, in bits.
TOL = 1e-12

#: Draws per family.
DRAWS = 100


def _bsc(p: float) -> np.ndarray:
    """Binary symmetric channel of crossover ``p``, rows the input."""
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def _bec(e: float) -> np.ndarray:
    """Binary erasure channel of erasure ``e``; output 2 is the erasure."""
    return np.array([[1.0 - e, 0.0, e], [0.0, 1.0 - e, e]])


def _probabilities(rng, count: int) -> list[float]:
    """``count`` probabilities in [0.01, 0.49]: crossovers, erasures, input biases."""
    return rng.uniform(0.01, 0.49, count).tolist()


def _xor_spec(n_r, q, n, m, ell) -> DmChannelSpec:
    """The XOR family (see ``_known_answers``); Yk2 = (u, v) is letter 2u + v."""
    uniform = np.full(2, 0.5)
    bits = np.arange(2)
    total = bits[:, None] ^ bits[None, :]  # x11 + x21, and x12 + x22, mod 2
    slot1 = np.einsum("ar,abu,abv->abruv", _bsc(n_r), _bsc(n[0])[total], _bsc(n[1])[total])
    heard = [  # p(yk2 | x12, x22, xR)
        np.einsum("abu,cv->abcuv", _bsc(m[k])[total], _bsc(ell[k])).reshape(2, 2, 2, 4)
        for k in (0, 1)
    ]
    return DmChannelSpec(
        px11=uniform, px21=uniform, px12=uniform, px22=uniform, pxr=uniform,
        test_channel=_bsc(q), slot1=slot1,
        slot2=np.einsum("abcu,abcv->abcuv", heard[0], heard[1]),
    )


def _erasure_spec(pi1, pi2, e_r, q, e, f) -> DmChannelSpec:
    """The erasure family (see ``_known_answers``); Yk1 = (u, v) is letter
    3u + v, u the erased X11 and v the erased X21."""
    px1, px2 = np.array([1.0 - pi1, pi1]), np.array([1.0 - pi2, pi2])
    heard = [
        np.einsum("au,bv->abuv", _bec(e[k]), _bec(f[k])).reshape(2, 2, 9) for k in (0, 1)
    ]
    slot1 = np.einsum("ar,abu,abv->abruv", _bec(e_r), heard[0], heard[1])
    quantizer = np.array([[1.0 - q, 0.0, q], [0.0, 1.0 - q, q], [0.0, 0.0, 1.0]])
    return DmChannelSpec(
        px11=px1, px21=px2, px12=px1, px22=px2, pxr=np.full(2, 0.5),
        test_channel=quantizer, slot1=slot1, slot2=np.ones((2, 2, 2, 1, 1)),
    )


def _deviations(spec: DmChannelSpec, want: dict) -> dict:
    """The largest deviation of each ``slot_terms`` pair of ``spec`` from
    ``want``; every pair must have a closed form."""
    got = slot_terms(spec, (1, 2))
    assert got.keys() == want.keys()
    return {
        name: max(abs(got[name][0] - want[name][0]), abs(got[name][1] - want[name][1]))
        for name in got
    }


def test_every_slot_term_of_the_xor_family_has_its_closed_form():
    rng = np.random.default_rng(4091)
    worst = {}
    for _ in range(DRAWS):
        n_r, q, n1, n2, m1, m2, ell1, ell2 = _probabilities(rng, 8)
        args = (n_r, q, (n1, n2), (m1, m2), (ell1, ell2))
        for name, dev in _deviations(_xor_spec(*args), xor_terms(*args)).items():
            worst[name] = max(worst.get(name, 0.0), dev)
    assert len(worst) == 16
    assert max(worst.values()) <= TOL, worst


def test_every_slot_term_of_the_erasure_family_has_its_closed_form():
    rng = np.random.default_rng(4093)
    worst = {}
    for _ in range(DRAWS):
        pi1, pi2, e_r, q, e1, e2, f1, f2 = _probabilities(rng, 8)
        args = (pi1, pi2, e_r, q, (e1, e2), (f1, f2))
        for name, dev in _deviations(_erasure_spec(*args), erasure_terms(*args)).items():
            worst[name] = max(worst.get(name, 0.0), dev)
    assert len(worst) == 16
    assert max(worst.values()) <= TOL, worst
