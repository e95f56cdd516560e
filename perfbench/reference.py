"""Output checks against references that share no code with the program.

* Gaussian rows, regions and ``optimize_beta`` results are compared with an
  mpmath evaluation of the closed forms written here.  The sum-optimal GQF
  quantization variance is the exact CF threshold (the two sum branches
  cross there), so no root finding is needed.
* DM rows and regions are compared with numpy log-ratio mutual informations
  on joints built here.
* Verify reports are parsed and checked for consistency.

Every deviation beyond tolerance is a :class:`Failure`.  A failure that
matches the signature of a known program defect carries its tag, so a run
can tell them apart from anything new:

* ``(a)`` the GQF quantization variance comes from a bisection with an
  absolute tolerance of 1e-9, so at small beta, where the optimum is far
  below 1e-9, the chosen variance is wrong.  Signature: the output equals
  the closed forms at the program's own variance, and that variance lies
  within 1e-9 of the exact one.
* ``(b)`` ``verify closed-forms`` FAILs on ``cf_threshold_balance`` because
  its float64 log-det oracle cannot resolve variances near 1e-9 (below
  about 1e-12 it raises SingularCovariance and the subject exits with 1).
  Signature: at every offending draw the program's threshold balances in
  mpmath.
* ``(c)`` ``verify closed-forms`` FAILs on ``threshold_sigma`` when the
  threshold is above about 2e6: its absolute 1e-9 tolerance is then a few
  float64 ulps.  Signature: the optimized variance is within 16 ulps of the
  exact threshold.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mpf
from mpmath.libmp import fone, mpf_add, mpf_div, mpf_log, mpf_mul

from workloads import GAINS, POWERS, gaussian_params

mpmath.mp.dps = 20

#: Tolerances, the values the package's verify subjects use.
GAUSSIAN_TOL = 1e-9
DM_TOL = 1e-10

#: Relative tolerance on quantization variances reported beside the rates.
SIGMA_REL_TOL = 1e-9

#: Absolute bracket width at which the program's sigma bisection stops.
SIGMA_BISECTION_TOL = 1e-9

#: The relative nudge above the CF threshold that sweeps and optimize_beta
#: use for the CF operating point.
CF_SIGMA_NUDGE = 1e-9

#: The DM binning constraint is strict by this margin; feasibility flags
#: within AMBIGUOUS of it may fall either way.
CF_MARGIN = 1e-12
AMBIGUOUS = 1e-10

_TWO_LN2 = 2 * mpmath.log(2)


@dataclass
class Failure:
    where: str
    detail: str
    dev: float
    defect: str | None = None  # "a", "b" or None for an unexplained failure

    def line(self) -> str:
        tag = f"defect ({self.defect})" if self.defect else "UNEXPLAINED"
        return f"{tag} {self.where}: {self.detail} (deviation {self.dev:.3e})"


@dataclass
class Checked:
    """The result of checking one op."""

    failures: list = field(default_factory=list)
    rate_err_max_bits: float = 0.0
    rows_out_of_tol: int = 0
    sigma_opt_rel_err_max: float = 0.0

    def note_rate(self, dev: float) -> None:
        self.rate_err_max_bits = max(self.rate_err_max_bits, dev)


def _clamp(r1: float, r2: float, rsum: float) -> tuple:
    """The program's clamping of raw bounds into a region (in float64)."""
    r1c, r2c = max(0.0, r1), max(0.0, r2)
    return r1c, r2c, min(max(0.0, rsum), r1c + r2c)


# ---------------------------------------------------------------------------
# Gaussian closed forms in mpmath.


class GaussianRef:
    """Closed-form rates of one Gaussian channel at any (beta, sigma_q2)."""

    def __init__(self, ch: dict) -> None:
        g, p = ch["gains"], ch["powers"]
        h11, h21, h1r, h2r, hr1 = (mpf(g[k]) for k in GAINS)
        p11, p12, p21, p22, pr = (mpf(p[k]) for k in POWERS)
        self.a_in = {1: 1 + h11**2 * p11, 2: 1 + h21**2 * p21}
        self.a_relay = {1: h1r**2 * p11, 2: h2r**2 * p21}
        self.s1 = 1 + h11**2 * p11 + h21**2 * p21
        s2 = 1 + h11**2 * p12 + h21**2 * p22
        self.view = (h11 * h2r - h1r * h21) ** 2 * p11 * p21 + self.a_relay[1] + self.a_relay[2]
        link = hr1**2 * pr
        log = mpmath.log
        self.log_a_in = {i: log(v) for i, v in self.a_in.items()}
        self.log_s1 = log(self.s1)
        self.slot2 = {
            "a(1)": log(1 + h11**2 * p12),
            "a(2)": log(1 + h21**2 * p22),
            "b(1)": log(1 + h11**2 * p12 + link),
            "b(2)": log(1 + h21**2 * p22 + link),
            "I1": log(s2),
            "I2": log(s2 + link),
        }
        self.log_pipe = mpmath.log1p(link / s2)
        nr = ch["no_relay"]
        q1, q2 = mpf(nr["P1"]), mpf(nr["P2"])
        self.no_relay = {
            "r1": log(1 + h11**2 * q1) / _TWO_LN2,
            "r2": log(1 + h21**2 * q2) / _TWO_LN2,
            "sum": log(1 + h11**2 * q1 + h21**2 * q2) / _TWO_LN2,
        }
        self._beta_cache: dict = {}
        self._raw = {
            "a_in": {i: v._mpf_ for i, v in self.a_in.items()},
            "a_relay": {i: v._mpf_ for i, v in self.a_relay.items()},
            "s1": self.s1._mpf_,
            "view": self.view._mpf_,
        }
        # Inputs of the threshold-balance identity checked in verify reports.
        self._h = (h11, h21, h1r, h2r, hr1)
        self._p = (p11, p12, p21, p22, pr)

    def _per_beta(self, beta) -> tuple:
        """Slot weights and the sigma-free parts of every term at ``beta``,
        as raw mpmath values for :meth:`terms`."""
        hit = self._beta_cache.get(beta)
        if hit is None:
            kb = beta / _TWO_LN2
            kc = (1 - beta) / _TWO_LN2
            const = {name: kc * value for name, value in self.slot2.items()}
            const["b(1)"] += kb * self.log_a_in[1]
            const["b(2)"] += kb * self.log_a_in[2]
            const["I2"] += kb * self.log_s1
            hit = self._beta_cache[beta] = (kb._mpf_, {k: v._mpf_ for k, v in const.items()})
        return hit

    def terms(self, beta, sigma) -> dict:
        """The six unclamped GQF terms a(i), b(i), I1, I2.

        Evaluated on raw mpmath values (mpmath.libmp) at the working
        precision: the same arithmetic as mpf objects, without their
        per-operation overhead, since a sweep check evaluates it per row.
        """
        kb, const = self._per_beta(beta)
        prec, rnd = mpmath.mp.prec, "n"
        s = sigma._mpf_
        u = mpf_div(fone, mpf_add(fone, s, prec, rnd), prec, rnd)
        w = mpf_mul(kb, mpf_log(mpf_mul(s, u, prec, rnd), prec, rnd), prec, rnd)

        def index_term(a, b, name):
            inner = mpf_add(a, mpf_mul(b, u, prec, rnd), prec, rnd)
            return mpf_add(mpf_mul(kb, mpf_log(inner, prec, rnd), prec, rnd), const[name], prec, rnd)

        make = mpmath.mp.make_mpf
        a_in, a_relay = self._raw["a_in"], self._raw["a_relay"]
        return {
            "a(1)": make(index_term(a_in[1], a_relay[1], "a(1)")),
            "b(1)": make(mpf_add(w, const["b(1)"], prec, rnd)),
            "a(2)": make(index_term(a_in[2], a_relay[2], "a(2)")),
            "b(2)": make(mpf_add(w, const["b(2)"], prec, rnd)),
            "I1": make(index_term(self._raw["s1"], self._raw["view"], "I1")),
            "I2": make(mpf_add(w, const["I2"], prec, rnd)),
        }

    def sigma_min(self, beta):
        """CF threshold, which is also the sum-optimal GQF variance."""
        return (1 + self.view / self.s1) / mpmath.expm1((1 - beta) / beta * self.log_pipe)

    # Terms are exact to 20 digits; the clamped bounds are compared in float64.
    @staticmethod
    def gqf_bounds(t: dict) -> tuple:
        return _clamp(float(min(t["a(1)"], t["b(1)"])), float(min(t["a(2)"], t["b(2)"])),
                      float(min(t["I1"], t["I2"])))

    @staticmethod
    def cf_bounds(t: dict) -> tuple:
        return _clamp(float(t["a(1)"]), float(t["a(2)"]), float(t["I1"]))

    def gqf_opt_sum(self, beta):
        """The optimize_beta GQF objective: the sum bound at the crossing."""
        return self.terms(beta, self.sigma_min(beta))["I1"]

    def cf_nudged_sum(self, beta):
        """The optimize_beta CF objective: sum bound just above the threshold."""
        sigma = self.sigma_min(beta) * (1 + mpf(CF_SIGMA_NUDGE))
        return self.cf_bounds(self.terms(beta, sigma))[2]

    def threshold_balance(self, beta, sigma):
        """b*[I(YR;YhR) - I(Y11;YhR)] - (1-b)*I(XR;Y12) at sigma, in bits."""
        h11, h21, h1r, h2r, hr1 = self._h
        p11, p12, p21, p22, pr = self._p
        var_yr = 1 + h1r**2 * p11 + h2r**2 * p21
        var_yh = var_yr + sigma
        var_y11 = 1 + h11**2 * p11 + h21**2 * p21
        cov = h11 * h1r * p11 + h21 * h2r * p21
        i_r = mpmath.log(var_yh / sigma)
        i_1 = mpmath.log(var_y11 * var_yh / (var_y11 * var_yh - cov**2))
        s2 = 1 + h11**2 * p12 + h21**2 * p22 + hr1**2 * pr
        i_xr = mpmath.log(s2 / (s2 - hr1**2 * pr))
        return (beta * (i_r - i_1) - (1 - beta) * i_xr) / _TWO_LN2


def _grid(grid: dict) -> list:
    lo, hi, n = mpf(grid["min"]), mpf(grid["max"]), grid["points"]
    if grid.get("spacing", "linear") == "log":
        return [lo * (hi / lo) ** (mpf(k) / (n - 1)) for k in range(n)]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


# ---------------------------------------------------------------------------
# CSV and JSON parsing shared by both models.

CSV_HEADER = "swept,scheme,r1,r2,sum,feasible,diag_sigma"


def parse_csv(data: bytes, schemes: list, points: int, where: str, out: Checked):
    """Rows by scheme as lists of (swept, r1, r2, sum, feasible, diag)."""
    lines = data.decode("utf-8").splitlines()
    rows = {s: [] for s in schemes}
    if not lines or lines[0] != CSV_HEADER:
        out.failures.append(Failure(where, "bad CSV header", math.inf))
        return None
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 7 or cells[1] not in rows or cells[5] not in ("true", "false"):
            out.failures.append(Failure(where, f"malformed CSV row {line!r}", math.inf))
            return None
        diag = float(cells[6]) if cells[6] else None
        rows[cells[1]].append(
            (float(cells[0]), float(cells[2]), float(cells[3]), float(cells[4]),
             cells[5] == "true", diag)
        )
    order = [line.split(",")[1] for line in lines[1:]]
    expected = [s for s in schemes for _ in range(points)]
    if order != expected:
        out.failures.append(Failure(where, "CSV rows not grouped by scheme in config order", math.inf))
        return None
    return rows


def check_plot_script(data: bytes, csv_name: str, schemes: list, where: str, out: Checked) -> None:
    text = data.decode("utf-8")
    wanted = [f"csv = '{csv_name}'"] + [f"title '{s}'" for s in schemes]
    missing = [w for w in wanted if w not in text]
    if missing:
        out.failures.append(Failure(where, f"plot script lacks {missing}", math.inf))


def _dev(prog: float, ref) -> float:
    return abs(prog - float(ref))


def _rel_dev(prog: float, ref) -> float:
    return abs(prog - float(ref)) / abs(float(ref))


# ---------------------------------------------------------------------------
# Gaussian study.


def _rate_dev(prog, ref, out: Checked) -> float:
    """Max deviation of (r1, r2, sum) from the reference, noted in ``out``."""
    dev = max(_dev(p, r) for p, r in zip(prog, ref))
    out.note_rate(dev)
    return dev


def check_sigma_sweep(data: bytes, ref: GaussianRef, beta: float, grid: dict, out: Checked) -> None:
    where = "sigma sweep"
    rows = parse_csv(data, ["GQF", "CF", "NO_RELAY"], grid["points"], where, out)
    if rows is None:
        return
    b = mpf(beta)
    smin = ref.sigma_min(b)
    at_min = ref.cf_bounds(ref.terms(b, smin))
    nr = _clamp(*map(float, ref.no_relay.values()))
    bad_rows = 0
    for k, sigma in enumerate(_grid(grid)):
        t = ref.terms(b, sigma)
        gqf, cf, nor = rows["GQF"][k], rows["CF"][k], rows["NO_RELAY"][k]
        feasible = sigma > smin
        ambiguous = abs(sigma / smin - 1) < 1e-12
        cf_ref = ref.cf_bounds(t) if (cf[4] if ambiguous else feasible) else at_min
        sigma = float(sigma)
        problems = []
        for scheme, row, bounds, feas, diag in (
            ("GQF", gqf, ref.gqf_bounds(t), True, sigma),
            ("CF", cf, cf_ref, cf[4] if ambiguous else feasible, sigma),
            ("NO_RELAY", nor, nr, True, None),
        ):
            dev = _rate_dev(row[1:4], bounds, out)
            if dev > GAUSSIAN_TOL:
                problems.append(Failure(where, f"{scheme} row sigma_q2={row[0]:.6g}", dev))
            if _rel_dev(row[0], sigma) > SIGMA_REL_TOL or row[4] != feas or (
                (row[5] is None) != (diag is None)
                or (diag is not None and _rel_dev(row[5], diag) > SIGMA_REL_TOL)
            ):
                problems.append(Failure(where, f"{scheme} row sigma_q2={row[0]:.6g} swept/feasible/diag_sigma", math.inf))
        if cf[4]:
            dev = max(g - c for g, c in zip(gqf[1:4], cf[1:4]))
            if dev > GAUSSIAN_TOL:
                problems.append(Failure(where, f"CF below GQF while feasible at sigma_q2={gqf[0]:.6g}", dev))
        bad_rows += bool(problems)
        out.failures.extend(problems)
    out.rows_out_of_tol += bad_rows


def _defect_a_row(ref: GaussianRef, b, sigma_prog: float, sigma_star, prog_rates) -> bool:
    """Signature (a): right formulas at the program's variance, which sits
    within the absolute bisection tolerance of the exact one."""
    if abs(mpf(sigma_prog) - sigma_star) > SIGMA_BISECTION_TOL:
        return False
    at_prog = ref.gqf_bounds(ref.terms(b, mpf(sigma_prog)))
    return max(_dev(p, r) for p, r in zip(prog_rates, at_prog)) <= GAUSSIAN_TOL


def check_beta_sweep(data: bytes, ref: GaussianRef, grid: dict, out: Checked) -> None:
    where = "beta sweep"
    rows = parse_csv(data, ["GQF", "CF", "NO_RELAY"], grid["points"], where, out)
    if rows is None:
        return
    nr = _clamp(*map(float, ref.no_relay.values()))
    bad_rows = 0
    for k, b in enumerate(_grid(grid)):
        gqf, cf, nor = rows["GQF"][k], rows["CF"][k], rows["NO_RELAY"][k]
        star = ref.sigma_min(b)
        nudged = star * (1 + mpf(CF_SIGMA_NUDGE))
        problems = []
        gqf_defect = None
        if gqf[5] is not None:
            out.sigma_opt_rel_err_max = max(out.sigma_opt_rel_err_max, _rel_dev(gqf[5], star))
        dev = _rate_dev(gqf[1:4], ref.gqf_bounds(ref.terms(b, star)), out)
        if dev > GAUSSIAN_TOL:
            gqf_defect = "a" if gqf[5] is not None and _defect_a_row(ref, b, gqf[5], star, gqf[1:4]) else None
            sigma_text = f"diag_sigma {gqf[5]!r} vs exact {mpmath.nstr(star, 6)}"
            problems.append(Failure(where, f"GQF row beta={gqf[0]:.6g}: {sigma_text}", dev, gqf_defect))
        dev = _rate_dev(cf[1:4], ref.cf_bounds(ref.terms(b, nudged)), out)
        if dev > GAUSSIAN_TOL:
            problems.append(Failure(where, f"CF row beta={cf[0]:.6g}", dev))
        dev = _rate_dev(nor[1:4], nr, out)
        if dev > GAUSSIAN_TOL:
            problems.append(Failure(where, f"NO_RELAY row beta={nor[0]:.6g}", dev))
        for scheme, row, feas, diag in (("GQF", gqf, True, None), ("CF", cf, True, nudged),
                                        ("NO_RELAY", nor, True, None)):
            diag_ok = (row[5] is None) == (scheme == "NO_RELAY") and (
                diag is None or _rel_dev(row[5], diag) <= SIGMA_REL_TOL
            )
            if _rel_dev(row[0], b) > SIGMA_REL_TOL or row[4] != feas or not diag_ok:
                problems.append(Failure(where, f"{scheme} row beta={row[0]:.6g} swept/feasible/diag_sigma", math.inf))
        dev = max(g - c for g, c in zip(gqf[1:4], cf[1:4]))
        if dev > GAUSSIAN_TOL:
            problems.append(Failure(where, f"CF below GQF while feasible at beta={gqf[0]:.6g}", dev, gqf_defect))
        bad_rows += bool(problems)
        out.failures.extend(problems)
    out.rows_out_of_tol += bad_rows


def check_gaussian_region(data: bytes, ref: GaussianRef, ch: dict, out: Checked) -> None:
    where = "region"
    try:
        doc = json.loads(data)
    except ValueError:
        out.failures.append(Failure(where, "output is not JSON", math.inf))
        return
    b, sigma = mpf(ch["beta"]), mpf(ch["sigma_q2"])
    t = ref.terms(b, sigma)
    smin = ref.sigma_min(b)
    feasible = sigma > smin
    used = sigma if feasible else smin
    cf_t = ref.terms(b, used)
    expected = {
        "GQF": (ref.gqf_bounds(t), True, dict(t), {}),
        "CF": (ref.cf_bounds(cf_t), feasible,
               {k: cf_t[k] for k in ("a(1)", "a(2)", "I1")},
               {"sigma_min": smin, "sigma_used": used}),
        "NO_RELAY": (_clamp(*map(float, ref.no_relay.values())), True, dict(ref.no_relay), {}),
    }
    if sorted(doc) != sorted(expected):
        out.failures.append(Failure(where, f"schemes {sorted(doc)}", math.inf))
        return
    for scheme, (bounds, feas, bits, sigmas) in expected.items():
        got = doc[scheme]
        if set(got.get("terms", {})) != set(bits) | set(sigmas):
            out.failures.append(Failure(where, f"{scheme} term names {sorted(got.get('terms', {}))}", math.inf))
            out.rows_out_of_tol += 1
            continue
        dev = _rate_dev((got["r1_max"], got["r2_max"], got["sum_max"]), bounds, out)
        dev = max([dev] + [_dev(got["terms"][k], v) for k, v in bits.items()])
        out.note_rate(dev)
        rel = max([0.0] + [_rel_dev(got["terms"][k], v) for k, v in sigmas.items()])
        problems = []
        if dev > GAUSSIAN_TOL:
            problems.append(Failure(where, f"{scheme} region", dev))
        if rel > SIGMA_REL_TOL or got["feasible"] is not feas:
            problems.append(Failure(where, f"{scheme} feasible/sigma terms", max(rel, 0.0)))
        out.rows_out_of_tol += bool(problems)
        out.failures.extend(problems)


#: Slot fractions at which optimize_beta's result must be at least as good:
#: every fourth seed of its own 33-point grid over [0.01, 0.99].
BETA_PROBES = [mpf("0.01") + mpf("0.1225") * k for k in range(9)]

#: The optimizer's resolution in beta (its golden-section stopping width).
BETA_RESOLUTION = mpf("1e-6")


def check_optimize_beta(result, scheme: str, ref: GaussianRef, ch: dict, out: Checked) -> None:
    """The returned rate is the objective at the returned beta, and no worse
    than the best of coarse probes of the searched interval, up to what the
    objective changes within the optimizer's beta resolution of that probe."""
    where = f"optimize_beta {scheme}"
    beta, rate = result
    if not 0.01 <= beta <= 0.99:
        out.failures.append(Failure(where, f"beta {beta!r} outside [0.01, 0.99]", math.inf))
        out.rows_out_of_tol += 1
        return
    objective = ref.gqf_opt_sum if scheme == "GQF" else ref.cf_nudged_sum
    dev = _dev(rate, objective(mpf(beta)))
    out.note_rate(dev)
    defect = "a" if dev > GAUSSIAN_TOL and scheme == "GQF" and _defect_a_optimum(ref, ch, beta, rate) else None
    problems = []
    if dev > GAUSSIAN_TOL:
        problems.append(Failure(where, f"rate {rate!r} at beta={beta:.9g} vs objective", dev, defect))
    best, probe = max((objective(p), p) for p in BETA_PROBES)
    near = [q for q in (probe - BETA_RESOLUTION, probe + BETA_RESOLUTION) if 0.01 <= q <= 0.99]
    slack = max(abs(best - objective(q)) for q in near)
    shortfall = float(best - slack) - rate
    if shortfall > GAUSSIAN_TOL:
        problems.append(Failure(where, f"rate {rate!r} below a probe's {mpmath.nstr(best, 12)}", shortfall, defect))
    out.rows_out_of_tol += bool(problems)
    out.failures.extend(problems)


def _defect_a_optimum(ref: GaussianRef, ch: dict, beta: float, rate: float) -> bool:
    """Signature (a) for an optimize_beta GQF result: the rate is the sum
    bound at the variance the program's bisection picks at that beta."""
    from hdmarc.gaussian import gqf_optimize_sigma

    sigma = mpf(gqf_optimize_sigma(gaussian_params(ch, beta)).sigma_q2)
    b = mpf(beta)
    if abs(sigma - ref.sigma_min(b)) > SIGMA_BISECTION_TOL:
        return False
    t = ref.terms(b, sigma)
    return min(_dev(rate, t["I1"]), _dev(rate, min(t["I1"], t["I2"]))) <= GAUSSIAN_TOL


# ---------------------------------------------------------------------------
# DM model: joints and log-ratio mutual informations built here.

SLOT1 = ("X11", "X21", "YR", "Y11", "Y21", "YhR")
SLOT2 = ("X12", "X22", "XR", "Y12", "Y22")


def dm_joints(ch: dict):
    j1 = (
        ch["p_x11"][:, None, None, None, None, None]
        * ch["p_x21"][None, :, None, None, None, None]
        * ch["slot1"][..., None]
        * ch["test_channel"][None, None, :, None, None, :]
    )
    j2 = (
        ch["p_x12"][:, None, None, None, None]
        * ch["p_x22"][None, :, None, None, None]
        * ch["p_xr"][None, None, :, None, None]
        * ch["slot2"]
    )
    return j1, j2


def silenced(ch: dict) -> dict:
    """The channel with XR pinned to its first letter and a one-letter quantizer."""
    pxr = np.zeros_like(ch["p_xr"])
    pxr[0] = 1.0
    return {**ch, "p_xr": pxr, "test_channel": np.ones((ch["slot1"].shape[2], 1))}


def mi(joint: np.ndarray, order: tuple, a, b, c=()) -> float:
    """I(A; B | C) in bits as the expectation of the log ratio."""
    a_ax = tuple(order.index(n) for n in a)
    b_ax = tuple(order.index(n) for n in b)
    keep = set(a_ax) | set(b_ax) | {order.index(n) for n in c}
    p_abc = joint.sum(axis=tuple(i for i in range(joint.ndim) if i not in keep), keepdims=True)
    p_ac = p_abc.sum(axis=b_ax, keepdims=True)
    p_bc = p_abc.sum(axis=a_ax, keepdims=True)
    p_c = p_ac.sum(axis=a_ax, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (p_abc * p_c) / (p_ac * p_bc)
    mask = p_abc > 0
    return float(np.sum(p_abc[mask] * np.log2(ratio[mask])))


def slot_terms(ch: dict) -> dict:
    """Beta-independent slot-1 and slot-2 parts of every DM bound, per destination."""
    j1, j2 = dm_joints(ch)
    i_yr_yhr = mi(j1, SLOT1, ["YR"], ["YhR"])
    pair = mi(j1, SLOT1, ["X11", "X21"], ["YhR"])
    out = {}
    for k in (1, 2):
        yk1, yk2 = f"Y{k}1", f"Y{k}2"
        for i, j in ((1, 2), (2, 1)):
            xi1, xj1, xi2, xj2 = f"X{i}1", f"X{j}1", f"X{i}2", f"X{j}2"
            out[("a", k, i)] = (mi(j1, SLOT1, [xi1], [xj1, yk1, "YhR"]),
                                mi(j2, SLOT2, [xi2], [xj2, "XR", yk2]))
            out[("b", k, i)] = (
                mi(j1, SLOT1, [xi1], [xj1, yk1]) - mi(j1, SLOT1, ["YhR"], ["YR"], [xi1, xj1, yk1]),
                mi(j2, SLOT2, [xi2, "XR"], [xj2, yk2]),
            )
        out[("c", k)] = (mi(j1, SLOT1, ["X11", "X21"], [yk1, "YhR"]),
                         mi(j2, SLOT2, ["X12", "X22"], ["XR", yk2]))
        out[("d", k)] = (mi(j1, SLOT1, ["X11", "X21", "YhR"], [yk1]) + pair - i_yr_yhr,
                         mi(j2, SLOT2, ["X12", "X22", "XR"], [yk2]))
        out[("lhs", k)] = i_yr_yhr - mi(j1, SLOT1, [yk1], ["YhR"])
        out[("rhs", k)] = mi(j2, SLOT2, ["XR"], [yk2])
    return out


class DmRef:
    """Reference regions of one DM channel at any beta."""

    def __init__(self, ch: dict) -> None:
        self.terms = slot_terms(ch)
        self.silent = slot_terms(silenced(ch))
        s1, s2 = ch["slot1"].shape, ch["slot2"].shape
        self.active = tuple(
            k for k, (n1, n2) in ((1, (s1[3], s2[3])), (2, (s1[4], s2[4]))) if n1 > 1 or n2 > 1
        )

    @staticmethod
    def _flat(terms: dict, beta: float, ks) -> dict:
        def mix(pair):
            return beta * pair[0] + (1.0 - beta) * pair[1]

        flat = {}
        for k in ks:
            for i in (1, 2):
                flat[f"a_{k}({i})"] = mix(terms[("a", k, i)])
                flat[f"b_{k}({i})"] = mix(terms[("b", k, i)])
            flat[f"c_{k}"] = mix(terms[("c", k)])
            flat[f"d_{k}"] = mix(terms[("d", k)])
        return flat

    @staticmethod
    def _gqf(flat: dict, ks):
        return _clamp(
            min(min(flat[f"a_{k}(1)"], flat[f"b_{k}(1)"]) for k in ks),
            min(min(flat[f"a_{k}(2)"], flat[f"b_{k}(2)"]) for k in ks),
            min(min(flat[f"c_{k}"], flat[f"d_{k}"]) for k in ks),
        )

    def regions(self, beta: float, topology: str, cf_hint: bool | None = None) -> dict:
        """scheme -> (bounds, feasible, flat terms) at ``beta``.

        ``cf_hint`` settles a CF feasibility margin too close to call.
        """
        ks = (1,) if topology == "marc" else self.active
        flat = self._flat(self.terms, beta, ks)
        silent = self._flat(self.silent, beta, ks)
        lhs = max(beta * self.terms[("lhs", k)] for k in ks)
        rhs = min((1.0 - beta) * self.terms[("rhs", k)] for k in ks)
        feasible = rhs - lhs > CF_MARGIN
        if cf_hint is not None and abs(rhs - lhs - CF_MARGIN) < AMBIGUOUS:
            feasible = cf_hint
        cf_flat = {**flat, "cf_lhs": lhs, "cf_rhs": rhs}
        if feasible:
            cf = _clamp(min(flat[f"a_{k}(1)"] for k in ks), min(flat[f"a_{k}(2)"] for k in ks),
                          min(flat[f"c_{k}"] for k in ks))
        else:
            cf = self._gqf(silent, ks)
            cf_flat.update({f"no_relay_{key}": v for key, v in silent.items()})
        return {
            "GQF": (self._gqf(flat, ks), True, flat),
            "CF": (cf, feasible, cf_flat),
            "NO_RELAY": (self._gqf(silent, ks), True, silent),
        }


def check_dm_sweep(data: bytes, ref: DmRef, topology: str, grid: dict, out: Checked) -> None:
    where = f"{topology} sweep"
    rows = parse_csv(data, ["GQF", "CF", "NO_RELAY"], grid["points"], where, out)
    if rows is None:
        return
    for k, beta in enumerate(_grid(grid)):
        beta = float(beta)
        gqf, cf, nor = rows["GQF"][k], rows["CF"][k], rows["NO_RELAY"][k]
        expected = ref.regions(beta, topology, cf_hint=cf[4])
        for scheme, row in (("GQF", gqf), ("CF", cf), ("NO_RELAY", nor)):
            bounds, feasible, _ = expected[scheme]
            dev = max(abs(p - r) for p, r in zip(row[1:4], bounds))
            if dev > DM_TOL:
                out.failures.append(Failure(where, f"{scheme} row beta={row[0]:.6g}", dev))
            if abs(row[0] - beta) > 1e-12 or row[4] != feasible or row[5] is not None:
                out.failures.append(Failure(where, f"{scheme} row beta={row[0]:.6g} swept/feasible/diag_sigma", math.inf))
        if cf[4]:
            dev = max(g - c for g, c in zip(gqf[1:4], cf[1:4]))
            if dev > DM_TOL:
                out.failures.append(Failure(where, f"CF below GQF while feasible at beta={beta:.6g}", dev))
        else:
            dev = max(abs(c - n) for c, n in zip(cf[1:4], nor[1:4]))
            if dev > DM_TOL:
                out.failures.append(Failure(where, f"infeasible CF differs from NO_RELAY at beta={beta:.6g}", dev))


def check_dm_region(data: bytes, ref: DmRef, beta: float, topology: str, out: Checked) -> None:
    where = f"{topology} region beta={beta:.6g}"
    try:
        doc = json.loads(data)
    except ValueError:
        out.failures.append(Failure(where, "output is not JSON", math.inf))
        return
    if sorted(doc) != ["CF", "GQF", "NO_RELAY"]:
        out.failures.append(Failure(where, f"schemes {sorted(doc)}", math.inf))
        return
    expected = ref.regions(beta, topology, cf_hint=doc["CF"].get("feasible"))
    for scheme, (bounds, feasible, flat) in expected.items():
        got = doc[scheme]
        if set(got.get("terms", {})) != set(flat):
            out.failures.append(Failure(where, f"{scheme} term names {sorted(got.get('terms', {}))}", math.inf))
            continue
        values = [(got["r1_max"], bounds[0]), (got["r2_max"], bounds[1]), (got["sum_max"], bounds[2])]
        values += [(got["terms"][key], v) for key, v in flat.items()]
        dev = max(abs(p - r) for p, r in values)
        if dev > DM_TOL:
            out.failures.append(Failure(where, f"{scheme} region", dev))
        if got["feasible"] is not feasible:
            out.failures.append(Failure(where, f"{scheme} feasible flag", math.inf))


# ---------------------------------------------------------------------------
# Verify reports.

#: Checks each subject must report, with their tolerances.
VERIFY_CHECKS = {
    "closed-forms": {name: GAUSSIAN_TOL for name in (
        "gqf_term_a(1)", "gqf_term_b(1)", "gqf_term_a(2)", "gqf_term_b(2)",
        "gqf_term_I1", "gqf_term_I2", "cf_threshold_balance", "threshold_sigma",
        "threshold_sum_rate")},
    "dm-regions": {name: DM_TOL for name in (
        "marc_r1", "marc_r2", "marc_sum", "cmacr_r1", "cmacr_r2", "cmacr_sum")},
    "reductions": {
        "gqf_r1_eq_sum": DM_TOL, "gqf_branch_plain": DM_TOL, "gqf_branch_with_index": DM_TOL,
        "gqf_r1_eq_min_branches": DM_TOL, "cf_feasible": 0.0, "cf_r1_eq_sum": DM_TOL,
        "cf_r1_eq_formula": DM_TOL, "gqf_silent_dest2_exact": 0.0, "cf_silent_dest2_exact": 0.0,
    },
}
VERIFY_DRAWS = {"closed-forms": 100, "dm-regions": 50, "reductions": 50}

_CHECK_LINE = re.compile(r"^\s+(\S+)\s+max dev (\S+)\s+tol (\S+)\s+(ok|FAIL)\b")


def check_verify_report(code: int, text: str, errors: str, subject: str, seed: int,
                        out: Checked) -> None:
    where = f"verify {subject} --seed {seed}"
    if code == 1 and subject == "closed-forms" and "numerically singular" in errors:
        out.failures.extend(diagnose_closed_forms(seed, None, where))
        return
    if code not in (0, 2):
        out.failures.append(Failure(where, f"exit code {code}: {errors.strip()}", math.inf))
        return
    lines = text.splitlines()
    header = [f"subject: {subject}", f"seed: {seed}", f"draws: {VERIFY_DRAWS[subject]}"]
    if lines[:3] != header:
        out.failures.append(Failure(where, f"report header {lines[:3]}", math.inf))
        return
    checks = {}
    for line in lines[3:]:
        match = _CHECK_LINE.match(line)
        if match:
            name, dev, tol, verdict = match.groups()
            checks[name] = (float(dev), float(tol), verdict == "ok")
    expected = VERIFY_CHECKS[subject]
    missing = sorted(set(expected) - set(checks))
    if missing:
        out.failures.append(Failure(where, f"report lacks checks {missing}", math.inf))
        return
    inconsistent = []
    for name, (dev, tol, ok) in checks.items():
        # Printed deviations carry four significant digits.
        if name in expected and tol != expected[name]:
            inconsistent.append(f"{name} tol {tol}")
        if ok and dev > tol * (1 + 1e-3) or not ok and dev < tol * (1 - 1e-3):
            inconsistent.append(f"{name} verdict")
    passed = all(ok for _, _, ok in checks.values())
    result = "RESULT: PASS" if passed else "RESULT: FAIL"
    if result not in lines or code != (0 if passed else 2):
        inconsistent.append(f"{result} with exit code {code}")
    if inconsistent:
        out.failures.append(Failure(where, f"inconsistent report: {inconsistent}", math.inf))
        return
    failing = sorted(name for name, (_, _, ok) in checks.items() if not ok)
    if not failing:
        return
    if subject == "closed-forms" and set(failing) <= set(_THRESHOLD_CHECKS):
        reported = {name: checks[name][0] for name in failing}
        out.failures.extend(diagnose_closed_forms(seed, reported, where))
        return
    for name in failing:
        out.failures.append(Failure(where, f"check {name} FAIL", checks[name][0]))


#: closed-forms checks whose failures the replay below can attribute.
_THRESHOLD_CHECKS = ("cf_threshold_balance", "threshold_sigma")


def diagnose_closed_forms(seed: int, reported: dict | None, where: str) -> list:
    """Name the draws behind failed threshold checks of ``verify closed-forms``.

    Replays the subject's documented draws (gains, powers, beta, sigma_q2
    from ``default_rng(seed)``) and, at each, the program's threshold, its
    float64 oracle balance and its optimized variance.  An offending draw
    is tagged when the program's own numbers are right in mpmath:

    * (b) ``cf_threshold_balance``: the program's threshold balances to
      1e-12 in mpmath, so the float64 log-det oracle is at fault;
    * (c) ``threshold_sigma``: the optimized variance is within 16 ulps of
      the exact threshold, but the check's absolute 1e-9 tolerance is finer
      than float64 resolves at that size.

    ``reported`` maps each failing check to the report's max deviation, or
    is None when the subject stopped with the oracle's SingularCovariance
    error (exit code 1); the replay must reproduce either.
    """
    from dataclasses import replace

    from hdmarc.core import SingularCovariance
    from hdmarc.gaussian import GaussianMarcParams, cf_sigma_min, gqf_optimize_sigma
    from hdmarc.oracle import build_covariance, gaussian_mi

    rng = np.random.default_rng(seed)
    failures = []
    worst = dict.fromkeys(_THRESHOLD_CHECKS, 0.0)
    singular = False
    for draw in range(VERIFY_DRAWS["closed-forms"]):
        h = rng.uniform(0.1, 5.0, size=5)
        p = rng.uniform(0.1, 5.0, size=5)
        beta = float(rng.uniform(0.1, 0.9))
        rng.uniform(0.01, 100.0)  # the draw's sigma_q2, unused here
        params = GaussianMarcParams(*map(float, h), *map(float, p), beta=beta)
        sigma = cf_sigma_min(params)
        optimum = gqf_optimize_sigma(params).sigma_q2
        at_min = replace(params, sigma_q2=sigma)
        m1, m2 = build_covariance(at_min, 1), build_covariance(at_min, 2)
        try:
            oracle = beta * (
                gaussian_mi(m1, {"YR"}, {"YhR"}) - gaussian_mi(m1, {"Y11"}, {"YhR"})
            ) - (1.0 - beta) * gaussian_mi(m2, {"XR"}, {"Y12"})
        except SingularCovariance as exc:
            singular, oracle, what = True, math.inf, f"float64 oracle raised: {exc}"
        else:
            what = f"float64 oracle {oracle:.3e}"
            worst["cf_threshold_balance"] = max(worst["cf_threshold_balance"], abs(oracle))
        worst["threshold_sigma"] = max(worst["threshold_sigma"], abs(optimum - sigma))
        if abs(oracle) <= GAUSSIAN_TOL and abs(optimum - sigma) <= GAUSSIAN_TOL:
            continue
        ch = {"gains": dict(zip(GAINS, map(float, h))), "powers": dict(zip(POWERS, map(float, p))),
              "no_relay": {"P1": 1.0, "P2": 1.0}}
        ref = GaussianRef(ch)
        exact = ref.sigma_min(mpf(beta))
        rel = _rel_dev(sigma, exact)
        if abs(oracle) > GAUSSIAN_TOL:
            balance = abs(ref.threshold_balance(mpf(beta), mpf(sigma)))
            failures.append(Failure(
                where,
                f"cf_threshold_balance draw {draw}: {what} at sigma_min {sigma:.6e} "
                f"(mpmath balance {mpmath.nstr(balance, 3)}, threshold rel err {rel:.1e})",
                abs(oracle), "b" if balance <= 1e-12 and rel <= 1e-12 else None))
        if abs(optimum - sigma) > GAUSSIAN_TOL:
            ulps = abs(optimum - float(exact)) / np.spacing(float(exact))
            failures.append(Failure(
                where,
                f"threshold_sigma draw {draw}: optimized sigma {optimum!r} vs threshold "
                f"{sigma!r} (exact {mpmath.nstr(exact, 17)}, {ulps:.0f} ulps off)",
                abs(optimum - sigma), "c" if ulps <= 16 and rel <= 1e-12 else None))
        if singular:
            break
    if reported is None:
        reproduced = singular
    else:
        flagged = {name for name, dev in worst.items() if dev > GAUSSIAN_TOL}
        reproduced = not singular and flagged == set(reported) and all(
            abs(worst[name] - dev) <= 1e-3 * dev for name, dev in reported.items())
    if not reproduced:
        failures.append(Failure(where, f"replayed draws do not reproduce the report "
                                       f"(reported {reported}, replayed {worst})", math.inf))
    return failures
