"""Tests for the package namespace: its exact names, the names that live in
their own modules, the version, the README's Python blocks, and an entry
table that feeds every exported callable wrong values."""

import importlib
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hdmarc
from hdmarc import DmChannelSpec, GaussianMarcParams, HdmarcError, SchemeId
from hdmarc import dminfo, dmregions, gaussian, oracle

from _support import make_random_spec

ROOT = Path(__file__).resolve().parent.parent

#: The product: what ``from hdmarc import *`` gives.
NAMESPACE = [
    "BetaOptimum",
    "Bounds",
    "ConfigError",
    "DegenerateRelayLink",
    "DimensionMismatch",
    "DmChannelSpec",
    "GaussianMarcParams",
    "HdmarcError",
    "InvalidParams",
    "OutOfRange",
    "OverlappingSets",
    "RateRegion",
    "Report",
    "SchemeId",
    "SingularCovariance",
    "SweepConfig",
    "SweepResult",
    "TensorTooLarge",
    "UnknownVariable",
    "config_from_dict",
    "dm_regions",
    "emit_csv",
    "emit_plot_script",
    "gaussian_regions",
    "optimize_beta",
    "rate_region",
    "region_config_from_dict",
    "run_subject",
    "run_sweep",
    "spec_from_dict",
]

#: Names that live only in their own module, not in the namespace.
MODULE_NAMES = {
    "core": ("clamp_region", "validate_beta"),
    "dminfo": (
        "JointPmf",
        "build_slot1_joint",
        "build_slot1_joints",
        "build_slot2_joint",
        "build_slot2_joints",
        "entropy",
        "marginalize",
        "mutual_information",
    ),
    "dmregions": (
        "cf_region_cmacr",
        "cf_region_marc",
        "degenerate_relay_spec",
        "dm_regions_stack",
        "gqf_region_cmacr",
        "gqf_region_marc",
        "no_relay_region_cmacr",
        "no_relay_region_marc",
    ),
    "gaussian": (
        "SigmaOptimum",
        "cf_rates",
        "cf_sigma_min",
        "gaussian_regions_stack",
        "gqf_optimize_sigma",
        "gqf_rates",
        "no_relay_rates",
    ),
    "oracle": (
        "GaussianVectorModel",
        "build_covariance",
        "gaussian_mi",
        "gqf_region_via_ru_sweep",
        "gqf_regions_via_ru_sweep",
        "single_source_gqf_branch_pairs",
    ),
}


def test_the_namespace_is_exactly_the_product():
    assert sorted(hdmarc.__all__) == NAMESPACE
    assert all(hasattr(hdmarc, name) for name in NAMESPACE)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in MODULE_NAMES.items() for name in names]
)
def test_a_module_name_imports_from_its_module_only(module, name):
    assert hasattr(importlib.import_module(f"hdmarc.{module}"), name)
    assert not hasattr(hdmarc, name)


def test_the_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == hdmarc.__version__


# ---------------------------------------------------------------------------
# README


def _readme_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def _tree() -> set[Path]:
    """Every file and directory of the checkout but caches and git's own."""
    skip = {".git", "__pycache__", ".pytest_cache"}
    return {path for path in ROOT.rglob("*") if skip.isdisjoint(path.relative_to(ROOT).parts)}


def test_the_readme_has_python_blocks():
    assert len(_readme_blocks()) >= 3


@pytest.mark.parametrize("index", range(len(_readme_blocks())))
def test_a_readme_python_block_runs_on_its_own(index, monkeypatch):
    block = _readme_blocks()[index]
    monkeypatch.chdir(ROOT)
    before = _tree()
    exec(compile(block, f"README.md python block {index + 1}", "exec"), {"__name__": "__readme__"})
    assert _tree() == before


# ---------------------------------------------------------------------------
# Entry table: every exported callable, from a valid cheap call, with each
# argument in turn replaced by each wrong value, returns or raises an
# HdmarcError.

#: Exported callables that only hold values (no checks to feed), and the errors.
PLAIN = {
    "BetaOptimum",
    "Bounds",
    "RateRegion",
    "Report",
    "SchemeId",
    "SweepConfig",
    "SweepResult",
}
ERRORS = {
    "ConfigError",
    "DegenerateRelayLink",
    "DimensionMismatch",
    "HdmarcError",
    "InvalidParams",
    "OutOfRange",
    "OverlappingSets",
    "SingularCovariance",
    "TensorTooLarge",
    "UnknownVariable",
}

_GAINS_POWERS = (1.0, 1.0, 3.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0)

_SWEEP_DOC = {
    "schema_version": 1,
    "model": "gaussian",
    "swept": "sigma_q2",
    "grid": {"min": 0.5, "max": 5.0, "points": 3, "spacing": "log"},
    "schemes": ["GQF", "CF", "NO_RELAY"],
    "channel": {
        "gains": {"h11": 1.0, "h21": 1.0, "h1R": 3.0, "h2R": 0.5, "hR1": 3.0},
        "powers": {"P11": 1.0, "P12": 1.0, "P21": 1.0, "P22": 1.0, "PR": 1.0},
        "beta": 0.5,
    },
    "no_relay": {"P1": 1.5, "P2": 1.5},
}


def _region_doc() -> dict:
    channel = dict(_SWEEP_DOC["channel"], sigma_q2=1.0)
    return {"model": "gaussian", "channel": channel, "no_relay": _SWEEP_DOC["no_relay"]}


def _valid_calls() -> dict[str, tuple]:
    """A valid, cheap call of every checked export, as its arguments."""
    params = GaussianMarcParams(*_GAINS_POWERS, 0.5, 1.0)
    spec = make_random_spec(np.random.default_rng(3))
    tables = tuple(getattr(spec, field.name) for field in fields(DmChannelSpec))
    keys = ("p_x11", "p_x21", "p_x12", "p_x22", "p_xr", "test_channel", "slot1", "slot2")
    config = hdmarc.config_from_dict(_SWEEP_DOC)
    result = hdmarc.run_sweep(config)
    return {
        "rate_region": (hdmarc.gaussian_regions(params, (SchemeId.GQF,), 0.5)[SchemeId.GQF],),
        "GaussianMarcParams": (*_GAINS_POWERS, 0.5, 1.0),
        "DmChannelSpec": tables,
        "gaussian_regions": (params, tuple(SchemeId), 0.5, 1.0, (1.5, 1.5)),
        "dm_regions": (spec, ("marc", "cmacr"), tuple(SchemeId), 0.5),
        "optimize_beta": (params, SchemeId.CF, "sum"),
        "config_from_dict": (_SWEEP_DOC,),
        "region_config_from_dict": (_region_doc(),),
        "spec_from_dict": ({key: table.tolist() for key, table in zip(keys, tables)},),
        "run_sweep": (config,),
        "emit_csv": (result, "rates.csv"),
        "emit_plot_script": (result, "rates.gp", "rates.csv"),
        "run_subject": ("closed-forms", 0, 1),
    }


def _wrong_values() -> dict[str, object]:
    return {
        "None": None,
        "True": True,
        "''": "",
        "'0.5'": "0.5",
        "[]": [],
        "{}": {},
        "{1.5: 1.5, 2.0: 2.0}": {1.5: 1.5, 2.0: 2.0},
        "nan": math.nan,
        "inf": math.inf,
        "10**400": 10**400,
        "2**63": 2**63,
        "object()": object(),
        "np.array([0.5])": np.array([0.5]),
        "str with NUL": "rates\0.csv",
    }


def test_every_export_is_in_the_entry_table_or_plain():
    callables = {name for name in NAMESPACE if callable(getattr(hdmarc, name))}
    assert callables == set(_valid_calls()) | PLAIN | ERRORS
    assert all(issubclass(getattr(hdmarc, name), HdmarcError) for name in ERRORS)


def _faults(entry, args: tuple) -> list[str]:
    """What ``entry`` does, under warnings-as-errors, with each argument of
    the valid call ``args`` in turn replaced by each wrong value, other
    than to return or to raise an ``HdmarcError``."""
    faults = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry(*args)
        for position in range(len(args)):
            for label, value in _wrong_values().items():
                try:
                    entry(*args[:position], value, *args[position + 1:])
                except HdmarcError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other type is the fault
                    faults.append(f"argument {position} = {label}: {type(exc).__name__}: {exc}")
    return faults


@pytest.mark.parametrize("name", sorted(set(NAMESPACE) - PLAIN - ERRORS))
def test_an_export_returns_or_refuses_each_wrong_argument(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the writers' relative paths land here
    faults = _faults(getattr(hdmarc, name), _valid_calls()[name])
    assert not faults, "\n".join(faults)


def _module_calls() -> dict[str, tuple]:
    """A valid, cheap call of each public entry that lives in its own
    module, by ``module.name``, as the entry and its arguments; the
    ``JointPmf`` methods are bound to the seeded joint."""
    spec = make_random_spec(np.random.default_rng(3))
    params = GaussianMarcParams(*_GAINS_POWERS, 0.5, 1.0)
    joint = dminfo.build_slot1_joint(spec, 1)
    mi_sets = (("X11",), ("Y11", "YhR"), ("X21",))
    model = oracle.build_covariance(params, 2)
    one_channel = {
        f"gaussian.{name}": (getattr(gaussian, name), (params,))
        for name in (
            "gqf_rates", "gqf_optimize_sigma", "cf_sigma_min", "cf_rates", "cf_operating_point"
        )
    }
    one_spec = {
        f"dmregions.{scheme}_region_{topology}": (
            getattr(dmregions, f"{scheme}_region_{topology}"), (spec, 0.4)
        )
        for scheme in ("gqf", "cf", "no_relay")
        for topology in ("marc", "cmacr")
    }
    return one_channel | one_spec | {
        "dmregions.active_destinations": (dmregions.active_destinations, (spec,)),
        "dmregions.degenerate_relay_spec": (dmregions.degenerate_relay_spec, (spec,)),
        "dminfo.check_names": (dminfo.check_names, (("X11", "YR"), "model")),
        "dminfo.disjoint_sets": (dminfo.disjoint_sets, mi_sets),
        "dminfo.JointPmf": (dminfo.JointPmf, (("X11", "Y11"), np.full((2, 2), 0.25))),
        "dminfo.marginalize": (dminfo.marginalize, (joint, ("X11", "YR"))),
        "dminfo.entropy": (dminfo.entropy, (joint, ("X11", "Y11"))),
        "dminfo.build_slot2_joint": (dminfo.build_slot2_joint, (spec,)),
        "oracle.GaussianVectorModel": (oracle.GaussianVectorModel, (model.names, model.factor)),
        "oracle.build_covariance": (oracle.build_covariance, (params, 1)),
        "oracle.gaussian_mi": (oracle.gaussian_mi, (model, ("X12",), ("Y12",), ("XR",))),
        "oracle.closed_forms_via_log_dets": (oracle.closed_forms_via_log_dets, ([(params, 1.0)],)),
        "oracle.crossing_offset": (oracle.crossing_offset, (params, 1.0)),
        "oracle.gqf_region_via_ru_sweep": (oracle.gqf_region_via_ru_sweep, (spec, 0.4)),
        "dminfo.build_slot1_joint": (dminfo.build_slot1_joint, (spec, 2)),
        "dmregions.slot_terms": (dmregions.slot_terms, (spec, (1, 2))),
        "dmregions.dm_regions_stack": (
            dmregions.dm_regions_stack, ([spec, spec], ("marc", "cmacr"), (SchemeId.CF,), [0.3, 0.6])
        ),
        "dminfo.build_slot1_joints": (dminfo.build_slot1_joints, ([spec, spec], 2, True)),
        "dminfo.build_slot2_joints": (dminfo.build_slot2_joints, ([spec], False)),
        "oracle.gqf_regions_via_ru_sweep": (oracle.gqf_regions_via_ru_sweep, ([(spec, 0.4)],)),
        "oracle.single_source_gqf_branch_pairs": (
            oracle.single_source_gqf_branch_pairs, ([(spec, 0.4), (spec, 0.5)],)
        ),
        "gaussian.no_relay_rates": (gaussian.no_relay_rates, (1.0, 1.0, 1.5, 1.5)),
        "gaussian.gaussian_regions_stack": (
            gaussian.gaussian_regions_stack,
            ([params, params], (SchemeId.GQF, SchemeId.CF), [0.3, 0.6], [1.0, 2.0]),
        ),
        "dminfo.mutual_information": (dminfo.mutual_information, (joint, *mi_sets)),
        "JointPmf.entropy": (joint.entropy, (("X11", "Y11"),)),
        "JointPmf.mutual_information": (joint.mutual_information, mi_sets),
    }


#: Public callables of the model modules that only hold values, with why.
UNCHECKED = {
    "gaussian.SigmaOptimum": "the result of gqf_optimize_sigma: it holds values and checks none",
    "gaussian.BetaOptimum": "the result of optimize_beta: it holds values and checks none",
}


def test_every_public_callable_of_the_model_modules_is_in_a_harness_table():
    exported, covered = set(_valid_calls()), set(_module_calls()) | set(UNCHECKED)
    missing = [
        f"{module}.{name}"
        for module in ("gaussian", "dmregions", "dminfo", "oracle")
        for name, value in vars(getattr(hdmarc, module)).items()
        if not name.startswith("_") and callable(value) and value.__module__ == f"hdmarc.{module}"
        if name not in exported and f"{module}.{name}" not in covered
    ]
    assert not missing


@pytest.mark.parametrize("name", sorted(_module_calls()))
def test_a_module_entry_returns_or_refuses_each_wrong_argument(name):
    entry, args = _module_calls()[name]
    faults = _faults(entry, args)
    assert not faults, "\n".join(faults)


def _outcome(entry, args: tuple):
    """The value ``entry(*args)`` returns, or the type of error it raises."""
    try:
        return entry(*args)
    except HdmarcError as exc:
        return type(exc)


@pytest.mark.parametrize("measure", ["entropy", "mutual_information"])
def test_a_joint_pmf_method_and_its_dminfo_function_agree_on_each_wrong_argument(measure):
    method, valid = _module_calls()[f"JointPmf.{measure}"]
    function = getattr(dminfo, measure)
    for position in range(len(valid)):
        for label, value in _wrong_values().items():
            wrong = (*valid[:position], value, *valid[position + 1:])
            got = _outcome(method, wrong)
            want = _outcome(function, (method.__self__, *wrong))
            assert repr(got) == repr(want), f"argument {position} = {label}"
