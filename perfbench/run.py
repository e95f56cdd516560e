"""hdmarc benchmark: three study workloads, reference-checked outputs, traced layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gaussian-study --seed 1 --seconds 15 --trace 0

A single-process, single-client closed loop: the next op starts when the
previous one returns.  Each op runs in process through the public entry
points ``hdmarc.cli.main`` and ``hdmarc.gaussian.optimize_beta``, so
interpreter start-up is not timed.  ``hdmarc`` is imported from the
checkout's ``src/``.  Inputs come from ``--seed`` and the op index only.
A run does a fixed number of ops, whole rotations of op kinds: about
``--seconds`` of op time for the program as it was when this benchmark was
added, on a shared 2-CPU host (see ``workloads.op_count``).  The same seed
gives the same ops, so the attempted and failed counts repeat exactly
whatever the speed of the host or of the commit measured.

Workloads:

* ``gaussian-study`` -- per op one random Gaussian channel: a 280-point
  sigma_q2 sweep and a 91-point beta sweep (0.05-0.95) with all three
  schemes, one region, and optimize_beta for GQF and CF.  Uses gaussian,
  sweep and cli; the per-point closed forms and the optimizers each take
  about half of an op.
* ``dm-sweep`` -- per op one random DM channel: a 5-point beta sweep with
  all schemes for marc and for cmacr, and one region.  Every fourth channel
  is large (slot-1 joint of 65536 cells, about 0.8 MB of JSON), the rest
  have 2-3 letter alphabets.  One spec is evaluated at many beta values.
* ``verify`` -- per op one ``hdmarc verify <subject>`` at its default draw
  count, subjects rotating, seed 1000 * seed + op + 1.  Many distinct
  small specs at one beta each; dominated by the oracle.

Every op's output is checked outside the timed region against references
that share no code with the program (see ``reference.py``).  An op fails on
a non-zero exit code, a ``RESULT: FAIL`` report, or any number outside
tolerance; every failure is printed.  ``correct`` is false when a failure
does not match one of the two known program defects, or when the harness's
own checks fail (determinism of one op re-run, and a self-test that a 1e-6
change to one output is caught).

With ``--trace 0`` the last line reports setup_s, ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb.  With ``--trace 1`` the same ops run untraced
and then again with every public function of the package wrapped (see
``tracing.py``); the last line reports per-function calls, ms and self ms,
the layer counters, output-accuracy figures, error_rate and
trace.overhead_ratio.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread, pinned before numpy is first imported (set-up probes
# inherit this environment).
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BETA_GRID, DM_BETA_GRID, SIGMA_GRID, WORKLOADS, clear_outputs, make_op, op_count, read_outputs, run_calls,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Fresh processes timed from start to the end of the warm-up op.
SETUP_PROBES = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import hdmarc from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hdmarc
    except ImportError as exc:
        raise SystemExit(f"cannot import hdmarc from {ROOT / 'src'}: {exc}")
    if not Path(hdmarc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hdmarc was imported from {hdmarc.__file__}, not from {ROOT / 'src'}")
    return hdmarc


def _environment(hdmarc) -> dict:
    import mpmath
    import numpy

    commit = "unknown (not a git checkout)"
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except OSError:
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    return {
        "hdmarc": hdmarc.__file__,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "loadavg": os.getloadavg(),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
    }


def _setup_probes(calls: list, workdir: Path) -> list:
    """Seconds from process start to the end of the warm-up op, per probe."""
    calls_path = workdir / "warmup_calls.json"
    calls_path.write_text(json.dumps(calls), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(ROOT), str(calls_path)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "done" or code != 0:
            raise SystemExit(f"set-up probe failed (exit code {code})")
        times.append(elapsed)
    return times


class Runner:
    """Generates, runs and records the ops of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = str(workdir)

    def make(self, index: int):
        return make_op(self.workload, self.seed, index, self.workdir)

    def run(self, op, tracer=None):
        """Time one op; returns (seconds, call results, output bytes).

        Garbage of earlier ops is collected and the harness's own objects
        are frozen first, so the op's collections scan only what it allocates,
        as in a one-shot CLI process.
        """
        clear_outputs(op)
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.begin_op(op.index)
        t0 = time.perf_counter()
        results = run_calls(op.calls)
        elapsed = time.perf_counter() - t0
        return elapsed, results, read_outputs(op)

    def loop(self, count: int, check: bool) -> tuple[list, tuple]:
        """Closed loop over ops 0 .. ``count`` - 1.

        With ``check`` each op's outputs are checked right after it, outside
        its timing, and then dropped, so memory does not grow with the op
        count.  Returns the records and op 0 with its results and outputs.
        """
        records = []
        first = None
        for index in range(count):
            op = self.make(index)
            elapsed, results, outputs = self.run(op)
            checked = check_op(self.workload, op, results, outputs) if check else None
            records.append(Record(op.index, op.kind, elapsed, _digest(results, outputs), checked))
            first = first or (op, results, outputs)
        return records, first


@dataclass
class Record:
    """What a run keeps of one op."""

    index: int
    kind: str
    elapsed: float
    digest: bytes  # of the call results and output bytes
    checked: ref.Checked | None


def _digest(results: list, outputs: dict) -> bytes:
    digest = hashlib.blake2b(repr(results).encode())
    for label in sorted(outputs):
        digest.update(label.encode())
        digest.update(outputs[label])
    return digest.digest()


def check_op(workload: str, op, results: list, outputs: dict):
    """Check one op's outputs; returns a reference.Checked."""
    out = ref.Checked()
    crashed = [f"call {i}: {value}" for i, (value, *_) in enumerate(results) if isinstance(value, str)]
    if workload != "verify":
        crashed += [f"call {i}: exit code {value}: {err.strip()}" for i, (value, _, err) in enumerate(results)
                    if op.calls[i][0] == "cli" and value != 0]
    if crashed:
        out.failures.append(ref.Failure("calls", "; ".join(crashed), float("inf")))
        return out
    if workload == "verify":
        ref.check_verify_report(*results[0], op.inputs["subject"], op.inputs["seed"], out)
        return out
    if workload == "gaussian-study":
        ch = op.inputs["channel"]
        gref = ref.GaussianRef(ch)
        ref.check_sigma_sweep(outputs["sigma"], gref, ch["beta"], SIGMA_GRID, out)
        ref.check_beta_sweep(outputs["beta"], gref, BETA_GRID, out)
        ref.check_gaussian_region(outputs["region"], gref, ch, out)
        ref.check_optimize_beta(results[3][0], "GQF", gref, ch, out)
        ref.check_optimize_beta(results[4][0], "CF", gref, ch, out)
        labels = ("sigma", "beta")
    else:
        dref = ref.DmRef(op.inputs["channel"])
        for topology in ("marc", "cmacr"):
            ref.check_dm_sweep(outputs[topology], dref, topology, DM_BETA_GRID, out)
        ref.check_dm_region(outputs["region"], dref, op.inputs["region_beta"],
                            op.inputs["region_topology"], out)
        labels = ("marc", "cmacr")
    for label in labels:
        csv_name = os.path.basename(op.outputs[label])
        ref.check_plot_script(outputs[f"{label}.gp"], csv_name, ["GQF", "CF", "NO_RELAY"],
                              f"{label} plot script", out)
    return out


def self_test(workload: str, op, results: list, outputs: dict) -> str | None:
    """Perturb one output number of a checked op by 1e-6; the checks must fail.

    Returns a harness error message, or None when the perturbation is caught.
    """
    if workload == "verify":
        code, text, errors = results[0]
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if "max dev" in line and line.rstrip().endswith("ok"):
                tol = float(line.split("tol")[1].split()[0])
                head, rest = line.split("max dev", 1)
                lines[i] = f"{head}max dev {tol + 1e-6:.3e}  tol{rest.split('tol', 1)[1]}"
                break
        results = [(code, "".join(lines), errors)]
    else:
        label = "sigma" if workload == "gaussian-study" else "marc"
        rows = outputs[label].decode().split("\n")
        cells = rows[1].split(",")
        cells[2] = format(float(cells[2]) + 1e-6, ".12g")
        rows[1] = ",".join(cells)
        outputs = {**outputs, label: "\n".join(rows).encode()}
    caught = check_op(workload, op, results, outputs).failures
    return None if caught else "self-test: a 1e-6 change to one output was not caught"


def _tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = _parse_args(argv)
    # A terminated run still stops its probe and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hdmarc = _import_program()
    env = _environment(hdmarc)
    print("environment: " + json.dumps(env))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir: Path) -> int:
    stages = {}
    clock = time.perf_counter()
    runner = Runner(args.workload, args.seed, workdir)
    count = op_count(args.workload, args.seconds)
    warm = runner.make(-1)
    setup_times = [] if args.trace else _setup_probes(warm.calls, workdir)
    runner.run(warm)
    stages["setup"], clock = time.perf_counter() - clock, time.perf_counter()

    harness_errors = []
    tracer = None
    if args.trace:
        untraced, _ = runner.loop(count, check=False)
        stages["loop"], clock = time.perf_counter() - clock, time.perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            raw = []
            for record in untraced:
                op = runner.make(record.index)
                raw.append((op, *runner.run(op, tracer)))
        finally:
            tracer.uninstall()
        stages["traced loop"], clock = time.perf_counter() - clock, time.perf_counter()
        records = [Record(op.index, op.kind, elapsed, _digest(results, outputs),
                          check_op(args.workload, op, results, outputs))
                   for op, elapsed, results, outputs in raw]
        if any(a.digest != b.digest for a, b in zip(untraced, records)):
            harness_errors.append("determinism: traced and untraced outputs differ")
        overhead = sum(r.elapsed for r in records) / sum(r.elapsed for r in untraced)
        first = raw[0][0], raw[0][2], raw[0][3]
    else:
        records, first = runner.loop(count, check=True)
        stages["loop and checks"], clock = time.perf_counter() - clock, time.perf_counter()
        op0 = runner.make(0)
        _, results, outputs = runner.run(op0)
        if _digest(results, outputs) != records[0].digest:
            harness_errors.append("determinism: op 0 gave different bytes when re-run")
    error = self_test(args.workload, *first)
    if error:
        harness_errors.append(error)
    stages["checks"] = time.perf_counter() - clock
    print("harness stages (s): " + " ".join(f"{k} {v:.2f}" for k, v in stages.items()))
    failed_ops = 0
    unexplained = 0
    for record in records:
        if not record.checked.failures:
            continue
        failed_ops += 1
        for failure in record.checked.failures:
            unexplained += failure.defect is None
            print(f"FAILED workload={args.workload} seed={args.seed} op={record.index} "
                  f"({record.kind}) {failure.line()}")
    for error in harness_errors:
        print(f"HARNESS FAILURE: {error}")
    attempted = len(records)
    error_rate = failed_ops / attempted
    print(f"ops attempted {attempted}, failed {failed_ops} (error_rate {error_rate:.4f}), "
          f"unexplained failures {unexplained}")

    latencies = [r.elapsed for r in records]
    kinds: dict[str, list] = {}
    for record in records:
        kinds.setdefault(record.kind, []).append(record.elapsed)
    print("op kinds: " + "; ".join(
        f"{kind} n={len(v)} p50={statistics.median(v) * 1e3:.2f} ms" for kind, v in kinds.items()))
    checked = [r.checked for r in records]
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["gaussian.rate_err_max_bits"] = (max(c.rate_err_max_bits for c in checked), "bits")
        metrics["gaussian.rows_out_of_tol"] = (sum(c.rows_out_of_tol for c in checked), "count")
        metrics["gaussian.sigma_opt_rel_err_max"] = (
            max(c.sigma_opt_rel_err_max for c in checked), "ratio")
        metrics["error_rate"] = (error_rate, "ratio")
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        spans_path = OUT / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        print(f"wrote {len(tracer.name_id)} spans to {spans_path}")
    else:
        tail, pct = _tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print("setup probes (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"op_tail_ms is p{pct:.1f} over {attempted} ops")
        print(f"error_rate = {error_rate:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not harness_errors and unexplained == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
