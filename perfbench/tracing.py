"""Span tracer that wraps the public functions of the ``hdmarc`` modules.

The program is not modified: :meth:`Tracer.install` rebinds every module
attribute of the ``hdmarc`` package that refers to a wrapped function, so
calls between layers (``sweep`` calling ``gaussian``, ``verify`` calling
``oracle.dm_mi`` which is ``dminfo.mutual_information``) go through the
wrappers too.  Spans are kept in memory as parallel lists and written out
once, at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

#: Functions recorded as spans, by module.
SPANNED = {
    "cli": ("main",),
    "sweep": (
        "config_from_dict",
        "gaussian_point_from_dict",
        "run_sweep",
        "render_csv",
        "emit_csv",
        "emit_plot_script",
    ),
    "dminfo": (
        "spec_from_dict",
        "build_slot1_joint",
        "build_slot2_joint",
        "marginalize",
        "entropy",
        "mutual_information",
    ),
    "dmregions": (
        "gqf_region_marc",
        "gqf_region_cmacr",
        "cf_region_marc",
        "cf_region_cmacr",
        "no_relay_region_marc",
        "no_relay_region_cmacr",
        "degenerate_relay_spec",
    ),
    "gaussian": (
        "gqf_rates",
        "cf_rates",
        "no_relay_rates",
        "gqf_optimize_sigma",
        "cf_sigma_min",
        "cf_operating_point",
        "optimize_beta",
    ),
    "oracle": ("build_covariance", "gaussian_mi", "gqf_region_via_ru_sweep"),
    "verify": (
        "run_subject",
        "draw_gaussian_params",
        "draw_dm_spec",
        "draw_single_source_spec",
    ),
}

#: Functions only counted: they are called too often for a span each.
COUNTED = {"core": ("clamp_region", "validate_beta")}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        # Parallel span columns: name id, start ns, end ns, parent span, op id.
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = {f"core.{fn}": 0 for fn in COUNTED["core"]}
        self.joint_cells = 0
        self.entropy_calls = 0
        self.entropy_distinct = 0
        self.cf_calls = 0
        self.cf_feasible = 0
        self.verify_draws = 0
        self.verify_fail_reports = 0
        self._op_keys: set = set()
        self._fingerprints: dict[int, tuple[object, bytes]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start a new op: distinct-entropy bookkeeping is per op."""
        self.op_id = op_id
        self._op_keys = set()
        self._fingerprints = {}

    def _fingerprint(self, pmf) -> bytes:
        # Keyed by id() while a strong reference is held for the op, so an
        # id cannot be reused by another joint within the op.
        hit = self._fingerprints.get(id(pmf))
        if hit is None:
            digest = hashlib.blake2b(pmf.probs.tobytes(), digest_size=16)
            digest.update(repr(pmf.names()).encode())
            hit = (pmf, digest.digest())
            self._fingerprints[id(pmf)] = hit
        return hit[1]

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        name_id = self._ids[name]
        clock = time.perf_counter_ns
        stack = self._stack
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.name_id)
            self.name_id.append(name_id)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_joint(self, args, kwargs, result) -> None:
        self.joint_cells += int(result.probs.size)

    def _after_entropy(self, args, kwargs, result) -> None:
        pmf = args[0] if args else kwargs["pmf"]
        names = args[1] if len(args) > 1 else kwargs["names"]
        key = (self._fingerprint(pmf), frozenset(names))
        self.entropy_calls += 1
        if key not in self._op_keys:
            self._op_keys.add(key)
            self.entropy_distinct += 1

    def _after_cf(self, args, kwargs, result) -> None:
        self.cf_calls += 1
        self.cf_feasible += bool(result.feasible)

    def _after_subject(self, args, kwargs, result) -> None:
        self.verify_draws += int(result.draws)
        self.verify_fail_reports += not result.passed

    _after = {
        "dminfo.build_slot1_joint": _after_joint,
        "dminfo.build_slot2_joint": _after_joint,
        "dminfo.entropy": _after_entropy,
        "dmregions.cf_region_marc": _after_cf,
        "dmregions.cf_region_cmacr": _after_cf,
        "verify.run_subject": _after_subject,
    }

    def install(self) -> None:
        """Rebind every ``hdmarc`` module attribute that names a wrapped function."""
        if self._rebound:
            return
        replacements = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, fns in table.items():
                module = sys.modules[f"hdmarc.{mod}"]
                for fn in fns:
                    original = getattr(module, fn)
                    replacements[id(original)] = (original, make(f"{mod}.{fn}", original))
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "hdmarc" or name.startswith("hdmarc."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int32),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls, inclusive ms and self ms, plus the counters."""
        cols = self.spans()
        duration = cols["end_ns"] - cols["start_ns"]
        has_parent = cols["parent"] >= 0
        child_time = np.zeros(len(duration), dtype=np.int64)
        np.add.at(child_time, cols["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        n = len(self.names)
        calls = np.bincount(cols["name_id"], minlength=n)
        total = np.bincount(cols["name_id"], weights=duration, minlength=n)
        own = np.bincount(cols["name_id"], weights=self_time, minlength=n)
        metrics: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = (int(calls[i]), "count")
            metrics[f"{name}.ms"] = (float(total[i]) / 1e6, "ms")
            metrics[f"{name}.self_ms"] = (float(own[i]) / 1e6, "ms")
        for name, value in self.counts.items():
            metrics[f"{name}.calls"] = (value, "count")
        metrics["dminfo.joint_cells"] = (self.joint_cells, "count")
        metrics["dminfo.entropy_useful_ratio"] = (
            self.entropy_distinct / self.entropy_calls if self.entropy_calls else 0.0,
            "ratio",
        )
        metrics["dmregions.cf_feasible_ratio"] = (
            self.cf_feasible / self.cf_calls if self.cf_calls else 0.0,
            "ratio",
        )
        metrics["verify.draws"] = (self.verify_draws, "count")
        metrics["verify.fail_reports"] = (self.verify_fail_reports, "count")
        return metrics

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.spans())
