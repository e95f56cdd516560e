"""Closed forms, in bits, of every ``slot_terms`` pair of two parametric
finite-alphabet channel families.

The values are written from the channels' structure with the binary entropy
``h`` alone: nothing here builds a joint pmf or sums an entropy, so a fault
in the joint builders or the entropy arithmetic cannot reach them.  This
module imports only :mod:`math`, which ``tests/test_layering.py`` pins.

XOR family: uniform binary inputs; the relay hears ``YR = X11 + NR`` and
quantizes it to ``YhR = YR + Q``; destination k hears ``Yk1 = X11 + X21 +
Nk`` in slot 1 and ``Yk2 = (X12 + X22 + Mk, XR + Lk)`` in slot 2, all sums
mod 2 with independent Bernoulli noises.

Erasure family: ``X11 ~ Bernoulli(pi1)`` and ``X21 ~ Bernoulli(pi2)``; the
relay hears X11 through an erasure channel of probability ``e_r`` and
quantizes by erasing again with probability ``q`` (an erasure stays one);
destination k hears X11 and X21 through erasure channels of probabilities
``e[k-1]`` and ``f[k-1]``; the slot-2 outputs have one letter, so every
slot-2 term is 0.
"""

import math


def h(p: float) -> float:
    """Binary entropy of ``p``, strictly inside (0, 1), in bits."""
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def conv(a: float, b: float) -> float:
    """Crossover probability of two binary symmetric channels in cascade."""
    return a * (1.0 - b) + b * (1.0 - a)


def xor_terms(n_r, q, n, m, ell) -> dict:
    """Every ``slot_terms`` pair of the XOR family at destinations 1 and 2,
    with ``n``, ``m`` and ``ell`` the pairs of the destinations' crossover
    probabilities of Nk, Mk and Lk."""
    r = conv(n_r, q)  # YhR is X11 through a binary symmetric channel of r
    terms = {}
    for k in (1, 2):
        nk, mk, lk = n[k - 1], m[k - 1], ell[k - 1]
        side = h(r) - h(q)  # I(YhR; YR | X11)
        for i in (1, 2):
            # Source 1 is heard twice, by Yk1 and YhR; source 2 by Yk1 only.
            slot1 = 1.0 + h(conv(nk, r)) - h(nk) - h(r) if i == 1 else 1.0 - h(nk)
            terms[f"a_{k}({i})"] = (slot1, 1.0 - h(mk))
            terms[f"b_{k}({i})"] = (1.0 - h(nk) - side, 2.0 - h(mk) - h(lk))
        terms[f"c_{k}"] = (2.0 - h(nk) - h(r), 1.0 - h(mk))
        # I(X; Yk1 | YhR) + I(X; YhR) - I(YR; YhR), X both sources.
        terms[f"d_{k}"] = (1.0 - h(nk) + (1.0 - h(r)) - (1.0 - h(q)), 2.0 - h(mk) - h(lk))
        terms[f"cf_lhs_{k}"] = (1.0 - h(q), 0.0)  # Yk1 tells nothing of YhR
        terms[f"cf_rhs_{k}"] = (0.0, 1.0 - h(lk))
    return terms


def erasure_terms(pi1, pi2, e_r, q, e, f) -> dict:
    """Every ``slot_terms`` pair of the erasure family at destinations 1
    and 2, with ``e`` and ``f`` the pairs of the destinations' erasure
    probabilities of X11 and of X21."""
    eps = 1.0 - (1.0 - e_r) * (1.0 - q)  # YhR erases X11 with probability eps
    h1, h2 = h(pi1), h(pi2)
    side = h(eps) - (1.0 - e_r) * h(q)  # I(YhR; YR | X11)
    quant = h(eps) + (1.0 - eps) * h1 - (1.0 - e_r) * h(q)  # I(YR; YhR)
    terms = {}
    for k in (1, 2):
        ek, fk = e[k - 1], f[k - 1]
        heard = {1: h1 * (1.0 - ek), 2: h2 * (1.0 - fk)}  # I(Xi1; Yk1 | Xj1)
        terms[f"a_{k}(1)"] = (h1 * (1.0 - ek * eps), 0.0)
        terms[f"a_{k}(2)"] = (heard[2], 0.0)
        for i in (1, 2):
            terms[f"b_{k}({i})"] = (heard[i] - side, 0.0)
        terms[f"c_{k}"] = (h1 * (1.0 - ek * eps) + heard[2], 0.0)
        terms[f"d_{k}"] = (heard[1] + heard[2] + h1 * (1.0 - eps) - quant, 0.0)
        terms[f"cf_lhs_{k}"] = (quant - h1 * (1.0 - ek) * (1.0 - eps), 0.0)
        terms[f"cf_rhs_{k}"] = (0.0, 0.0)
    return terms
