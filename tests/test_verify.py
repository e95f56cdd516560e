"""The verify subjects on a chunk at once: production asked once per chunk
per question, each check recorded once per chunk from an array of
deviations, each row checked against its own draw, and the error of the
first failing draw."""

import math

import numpy as np
import pytest

import hdmarc.verify
from hdmarc import DegenerateRelayLink, InvalidParams, SingularCovariance
from hdmarc.cli import EXIT_CONFIG, main
from hdmarc.oracle import BATCH_DRAWS
from hdmarc.verify import SUBJECTS, _Worst, run_subject

#: Each subject's checks, in the order its report lists them.
CHECK_NAMES = {
    "closed-forms": [
        "gqf_term_a(1)",
        "gqf_term_b(1)",
        "gqf_term_a(2)",
        "gqf_term_b(2)",
        "gqf_term_I1",
        "gqf_term_I2",
        "cf_threshold_balance",
        "threshold_sigma",
        "threshold_sum_rate",
    ],
    "dm-regions": ["marc_r1", "marc_r2", "marc_sum", "cmacr_r1", "cmacr_r2", "cmacr_sum"],
    "reductions": [
        "gqf_r1_eq_sum",
        "gqf_branch_plain",
        "gqf_branch_with_index",
        "gqf_r1_eq_min_branches",
        "cf_feasible",
        "cf_r1_eq_sum",
        "cf_r1_eq_formula",
        "gqf_silent_dest2_exact",
        "cf_silent_dest2_exact",
    ],
}

#: The production entry each subject asks, and how many times per chunk.
PRODUCTION_CALLS = {
    "closed-forms": ("gaussian_regions_stack", 3),
    "dm-regions": ("dm_regions_stack", 1),
    "reductions": ("dm_regions_stack", 2),
}


def _counting(monkeypatch, name: str) -> list:
    """Record the first argument of every call verify makes to ``name``."""
    calls = []
    entry = getattr(hdmarc.verify, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return entry(first, *args, **kwargs)

    monkeypatch.setattr(hdmarc.verify, name, counted)
    return calls


@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_subject_asks_once_per_chunk_and_records_each_check_once(monkeypatch, subject):
    recorded = []
    record = _Worst.record
    monkeypatch.setattr(
        _Worst, "record", lambda worst, name, devs, tol: recorded.append(name) or record(worst, name, devs, tol)
    )
    name, per_chunk = PRODUCTION_CALLS[subject]
    calls = _counting(monkeypatch, name)
    report = run_subject(subject, seed=1, draws=BATCH_DRAWS + 1)
    assert report.passed
    assert [check.name for check in report.checks] == CHECK_NAMES[subject]
    assert recorded == CHECK_NAMES[subject] * 2
    assert [len(first) for first in calls] == [BATCH_DRAWS] * per_chunk + [1] * per_chunk


def test_a_nan_deviation_in_one_draw_of_a_chunk_fails_its_check():
    worst = _Worst()
    worst.record("check", np.array([1e-12, math.nan, 0.0]), 1e-9)
    worst.record("check", np.array([2e-12]), 1e-9)
    (check,) = worst.checks()
    assert math.isnan(check.max_dev) and not check.ok
    worst.record("other", np.array([-3e-12, 1e-12]), 1e-9)
    assert worst.checks()[1].max_dev == 3e-12


def test_a_nan_branch_fails_the_min_branches_check(monkeypatch):
    # max(0.0, min(plain, nan)) was plain, which hid the NaN; the array
    # form keeps it, and the check fails.
    pairs = hdmarc.verify.single_source_gqf_branch_pairs

    def with_a_nan(draws):
        plain, with_index = pairs(draws)
        if len(with_index) > 2:
            with_index[2] = math.nan
        return plain, with_index

    monkeypatch.setattr(hdmarc.verify, "single_source_gqf_branch_pairs", with_a_nan)
    report = run_subject("reductions", seed=0, draws=5)
    failed = {check.name for check in report.checks if not check.ok}
    assert failed == {"gqf_branch_with_index", "gqf_r1_eq_min_branches"}
    assert not report.passed


@pytest.mark.parametrize(
    "subject, field", [("dm-regions", "r2"), ("reductions", "rsum"), ("closed-forms", "rsum")]
)
def test_a_non_finite_production_bound_raises_rate_region_s_error(monkeypatch, subject, field):
    name, _ = PRODUCTION_CALLS[subject]
    entry = getattr(hdmarc.verify, name)

    def broken(*args, **kwargs):
        answer = entry(*args, **kwargs)
        regions = answer if subject == "closed-forms" else next(iter(answer.values()))
        scheme = next(iter(regions))
        values = getattr(regions[scheme], field).copy()
        values[-1] = math.inf  # the chunk's last draw
        regions[scheme] = regions[scheme]._replace(**{field: values})
        return answer

    monkeypatch.setattr(hdmarc.verify, name, broken)
    with pytest.raises(InvalidParams, match=f"^bounds {field} must be finite, got inf$"):
        run_subject(subject, seed=0, draws=4)


@pytest.mark.parametrize("topology", ["marc", "cmacr"])
def test_a_nan_oracle_bound_raises_rate_region_s_error(monkeypatch, topology):
    # Both sides of dm-regions are clamped alike, so a NaN in the oracle's
    # bound is refused as a production NaN is, not clamped to 0.0.
    oracle = hdmarc.verify.gqf_regions_via_ru_sweep

    def with_a_nan(draws):
        regions = oracle(draws)
        values = regions[topology].r1.copy()
        values[1] = math.nan
        regions[topology] = regions[topology]._replace(r1=values)
        return regions

    monkeypatch.setattr(hdmarc.verify, "gqf_regions_via_ru_sweep", with_a_nan)
    with pytest.raises(InvalidParams, match="^bounds r1 must be finite, got nan$"):
        run_subject("dm-regions", seed=0, draws=4)


def test_rows_in_another_channel_s_order_fail_closed_forms(monkeypatch):
    # Production's answers for the chunk reversed: each row then belongs to
    # another draw, and every check of a row against its own draw fails.
    # threshold_sum_rate compares production with itself, row by row.
    entry = hdmarc.verify.gaussian_regions_stack

    def reversed_rows(channels, schemes, betas, sigma_q2s=None):
        sigmas = None if sigma_q2s is None else sigma_q2s[::-1]
        return entry(channels[::-1], schemes, betas[::-1], sigmas)

    assert run_subject("closed-forms", seed=0, draws=5).passed
    monkeypatch.setattr(hdmarc.verify, "gaussian_regions_stack", reversed_rows)
    report = run_subject("closed-forms", seed=0, draws=5)
    assert not report.passed
    failed = [check.name for check in report.checks if not check.ok]
    assert failed == CHECK_NAMES["closed-forms"][:-1]


@pytest.mark.parametrize("first", ["oracle", "production"])
def test_adjacent_failing_draws_of_a_stacked_chunk_raise_the_earlier_one(monkeypatch, first):
    # Draw 4 fails first and draw 5 fails second, one in the oracle and one
    # in production; production is asked for the whole chunk at once.
    drawn = []
    draw = hdmarc.verify.draw_gaussian_params

    def recording(rng):
        drawn.append(draw(rng))
        return drawn[-1]

    at = {"oracle": 4, "production": 5} if first == "oracle" else {"production": 4, "oracle": 5}
    entry = hdmarc.verify.gaussian_regions_stack
    oracle = hdmarc.verify.closed_forms_via_log_dets

    def production(channels, *args, **kwargs):
        if any(params is drawn[at["production"]] for params in channels):
            raise DegenerateRelayLink(f"production fault at draw {at['production']}")
        return entry(channels, *args, **kwargs)

    def singular(draws):
        if any(params is drawn[at["oracle"]] for params, _ in draws):
            raise SingularCovariance(f"oracle fault at draw {at['oracle']}")
        return oracle(draws)

    monkeypatch.setattr(hdmarc.verify, "draw_gaussian_params", recording)
    monkeypatch.setattr(hdmarc.verify, "gaussian_regions_stack", production)
    monkeypatch.setattr(hdmarc.verify, "closed_forms_via_log_dets", singular)
    error = SingularCovariance if first == "oracle" else DegenerateRelayLink
    with pytest.raises(error, match=f"^{first} fault at draw 4$"):
        run_subject("closed-forms", seed=0, draws=8)


def test_the_known_closed_forms_failure_keeps_its_exit_code_and_message(capsys):
    # Draw 97 of seed 384004 has a CF threshold variance below the oracle's
    # pivot tolerance; the benchmark replays this failure and expects it.
    assert main(["verify", "closed-forms", "--seed", "384004"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: covariance of ['YR', 'YhR'] is numerically singular "
        "(conditional variance 7.817818160838318e-15)\n"
    )
    with pytest.raises(SingularCovariance):
        run_subject("closed-forms", seed=384004)
