"""End-to-end acceptance checks.

One test per headline guarantee of the package.  Each test prints a single
``PASS``/``FAIL`` line with the measured deviation and the tolerance it was
held to, so a plain ``pytest tests/test_acceptance.py -s`` reads as a
checklist.  Tolerances here are the contract; the per-module test files
probe the same code paths in more detail.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from hdmarc import SchemeId, optimize_beta
from hdmarc.core import validate_beta
from hdmarc.dmregions import cf_region_cmacr, cf_region_marc, gqf_region_cmacr, gqf_region_marc
from hdmarc.gaussian import (
    cf_operating_point,
    cf_rates,
    cf_sigma_min,
    gqf_optimize_sigma,
    gqf_rates,
    no_relay_rates,
)
from hdmarc.sweep import config_from_dict, render_csv, render_plot_script, run_sweep
from hdmarc.verify import (
    draw_dm_spec,
    draw_gaussian_params,
    draw_silent_dest2_spec,
    run_subject,
)

from _support import benchmark_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(label: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict for a criterion, then enforce it."""
    print(f"{'PASS' if ok else 'FAIL'} — {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _subject_detail(report) -> str:
    worst = max(check.max_dev for check in report.checks)
    tols = sorted({check.tol for check in report.checks})
    tol_text = "/".join(f"{tol:.0e}" for tol in tols)
    return (
        f"{report.draws} draws, {len(report.checks)} checks, "
        f"largest deviation {worst:.3e} (tolerances {tol_text})"
    )


def test_gaussian_closed_forms_match_log_det_oracle():
    # 100 seeded random channels; every closed-form information bracket is
    # recomputed from covariance matrices via log-determinants and must
    # agree to 1e-9, including the feasibility-threshold identity.
    report = run_subject("closed-forms", seed=0, draws=100)
    _verdict(
        "Gaussian closed forms vs log-det oracle",
        report.passed,
        _subject_detail(report),
    )


def test_dm_bounds_match_codebook_rate_sweep():
    # 50 seeded finite-alphabet channels; the simplified two-branch bounds
    # must match the raw inequality system with the quantization-codebook
    # rate eliminated by sweeping it out, to 1e-10 per bound.
    report = run_subject("dm-regions", seed=0, draws=50)
    _verdict(
        "finite-alphabet bounds vs codebook-rate sweep",
        report.passed,
        _subject_detail(report),
    )


def test_single_source_reduction_collapses_bounds():
    # 50 seeded channels with source 2 degenerate: the single-user and sum
    # bounds must coincide (1e-10) and the CF bound must equal the classic
    # single-source compress-and-forward expression.
    report = run_subject("reductions", seed=0, draws=50)
    _verdict(
        "single-source and silent-destination reductions",
        report.passed,
        _subject_detail(report),
    )


def test_silent_second_destination_drops_out_of_compound_region():
    # A destination with singleton outputs in both slots carries no
    # information; the compound region must equal the single-destination
    # region through the same code path — identical floats, no tolerance.
    rng = np.random.default_rng(4)
    draws = 50
    exact = 0
    for _ in range(draws):
        spec = draw_silent_dest2_spec(rng)
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        gqf_pair = (gqf_region_cmacr(spec, beta), gqf_region_marc(spec, beta))
        cf_pair = (cf_region_cmacr(spec, beta), cf_region_marc(spec, beta))
        same = all(
            compound.r1_max == single.r1_max
            and compound.r2_max == single.r2_max
            and compound.sum_max == single.sum_max
            and compound.feasible == single.feasible
            for compound, single in (gqf_pair, cf_pair)
        )
        exact += same
    _verdict(
        "silent second destination drops out exactly",
        exact == draws,
        f"{exact}/{draws} draws bit-identical for GQF and CF",
    )


def test_sum_branches_move_monotonically_in_quantizer_noise():
    # On the reference channel the index-decoded sum branch must strictly
    # decrease and the index-as-noise branch strictly increase over 200
    # log-spaced quantization variances spanning 1e-3 .. 1e3.
    sigmas = np.logspace(-3.0, 3.0, 200)
    i1 = np.empty(sigmas.size)
    i2 = np.empty(sigmas.size)
    for idx, sigma in enumerate(sigmas):
        terms = gqf_rates(benchmark_params(sigma_q2=float(sigma))).terms
        i1[idx] = terms["I1"]
        i2[idx] = terms["I2"]
    d1 = np.diff(i1)
    d2 = np.diff(i2)
    ok = bool(np.all(d1 < -1e-12) and np.all(d2 > 1e-12))
    _verdict(
        "sum branches strictly monotone in quantizer noise",
        ok,
        f"200 points, max I1 step {d1.max():.3e} (< -1e-12 required), "
        f"min I2 step {d2.min():.3e} (> 1e-12 required)",
    )


def test_quantizer_crossing_matches_binning_threshold_on_reference_channel():
    # Reference channel, equal slots: the sum-optimal quantization variance,
    # the CF feasibility threshold, and the meeting point of both schemes'
    # sum rates must all line up with the hand-derived values.
    params = benchmark_params(beta=0.5)
    optimum = gqf_optimize_sigma(params)
    sigma_dev = abs(optimum.sigma_q2 - 55.5 / 27.0)
    sum_dev = abs(optimum.sum_rate - 1.1495)
    threshold_dev = abs(optimum.sigma_q2 - cf_sigma_min(params))
    cf_at_threshold = cf_rates(cf_operating_point(params))
    scheme_gap = abs(optimum.sum_rate - cf_at_threshold.sum_max)
    ok = (
        optimum.crossing
        and sigma_dev <= 1e-6
        and sum_dev <= 1e-4
        and threshold_dev <= 1e-9
        and cf_at_threshold.feasible
        and scheme_gap <= 1e-6
    )
    _verdict(
        "quantizer crossing equals binning threshold on the reference channel",
        ok,
        f"sigma dev {sigma_dev:.3e} (tol 1e-6), sum dev {sum_dev:.3e} "
        f"(tol 1e-4), threshold dev {threshold_dev:.3e} (tol 1e-9), "
        f"scheme gap {scheme_gap:.3e} (tol 1e-6)",
    )


def test_relay_gains_over_the_no_relay_baseline():
    # With the relay silenced, both full-power sources reach sum rate 1.0 on
    # the reference channel.  Optimizing the slot split must buy both
    # schemes at least 0.01 bit/use on top of that.
    baseline = no_relay_rates(1.0, 1.0, 1.5, 1.5).sum_max
    params = benchmark_params(beta=0.5)
    gqf_best = optimize_beta(params, SchemeId.GQF, objective="sum")
    cf_best = optimize_beta(params, SchemeId.CF, objective="sum")
    ok = (
        abs(baseline - 1.0) <= 1e-12
        and gqf_best.rate >= baseline + 0.01
        and cf_best.rate >= baseline + 0.01
    )
    _verdict(
        "relay beats the no-relay baseline",
        ok,
        f"baseline {baseline:.6f}, GQF {gqf_best.rate:.6f} "
        f"(beta {gqf_best.beta:.4f}), CF {cf_best.rate:.6f} "
        f"(beta {cf_best.beta:.4f}), margin required 0.01",
    )


def test_binning_never_beats_joint_decoding_when_feasible():
    # Wherever the binning constraint holds, the CF bounds must dominate
    # the GQF bounds computed at the same operating point (slack 1e-10):
    # 100 feasible Gaussian draws and 50 feasible finite-alphabet draws.
    slack = 1e-10
    rng = np.random.default_rng(800)
    gaussian_margin = np.inf
    found = 0
    for _ in range(2000):
        if found == 100:
            break
        params = draw_gaussian_params(rng)
        cf = cf_rates(params)
        if not cf.feasible:
            continue
        found += 1
        gqf = gqf_rates(params)
        gaussian_margin = min(
            gaussian_margin,
            cf.r1_max - gqf.r1_max,
            cf.r2_max - gqf.r2_max,
            cf.sum_max - gqf.sum_max,
        )
    gaussian_ok = found == 100 and gaussian_margin >= -slack

    rng = np.random.default_rng(801)
    dm_margin = np.inf
    dm_found = 0
    for _ in range(3000):
        if dm_found == 50:
            break
        spec = draw_dm_spec(rng)
        beta = validate_beta(float(rng.uniform(0.1, 0.9)))
        cf = cf_region_marc(spec, beta)
        if not cf.feasible:
            continue
        dm_found += 1
        gqf = gqf_region_marc(spec, beta)
        dm_margin = min(
            dm_margin,
            cf.r1_max - gqf.r1_max,
            cf.r2_max - gqf.r2_max,
            cf.sum_max - gqf.sum_max,
        )
    dm_ok = dm_found == 50 and dm_margin >= -slack

    _verdict(
        "binning dominates joint decoding wherever feasible",
        gaussian_ok and dm_ok,
        f"{found} feasible Gaussian draws (worst margin {gaussian_margin:.3e}), "
        f"{dm_found} feasible finite-alphabet draws (worst margin "
        f"{dm_margin:.3e}), slack {slack:.0e}",
    )


def test_shipped_sweep_configs_reproduce_quickly_and_deterministically():
    # Every shipped sweep config must run end to end in under 10 s, give
    # byte-identical CSV and plot script on a rerun, and on the slot-split
    # sweep the GQF and CF sum-rate columns must agree to 1e-6 pointwise.
    names = (
        "gaussian_sigma_sweep.json",
        "gaussian_beta_sweep.json",
        "dm_beta_sweep.json",
    )
    timings = {}
    deterministic = True
    for name in names:
        doc = json.loads((CONFIG_DIR / name).read_text())
        start = time.perf_counter()
        result = run_sweep(config_from_dict(doc))
        csv_text = render_csv(result)
        script = render_plot_script(result, "sweep.gp", "sweep.csv")
        timings[name] = time.perf_counter() - start

        doc_again = json.loads((CONFIG_DIR / name).read_text())
        result_again = run_sweep(config_from_dict(doc_again))
        deterministic = deterministic and (
            render_csv(result_again) == csv_text
            and render_plot_script(result_again, "sweep.gp", "sweep.csv") == script
        )

    beta_doc = json.loads((CONFIG_DIR / "gaussian_beta_sweep.json").read_text())
    beta_result = run_sweep(config_from_dict(beta_doc))
    gqf_sums = beta_result.columns[SchemeId.GQF].rsum
    cf_sums = beta_result.columns[SchemeId.CF].rsum
    beta_gap = max(
        abs(g - c) for g, c in zip(gqf_sums, cf_sums)
    )

    slowest = max(timings.values())
    ok = slowest < 10.0 and deterministic and beta_gap <= 1e-6
    _verdict(
        "shipped sweep configs reproduce quickly and deterministically",
        ok,
        f"slowest config {slowest:.2f}s (limit 10s), reruns byte-identical: "
        f"{deterministic}, GQF/CF sum gap over slot-split sweep "
        f"{beta_gap:.3e} (tol 1e-6)",
    )
