"""Seeded inputs of the three workloads and the code that runs one op.

An op is a list of calls into the program's public entry points:
``("cli", argv)`` runs ``hdmarc.cli.main(argv)`` and ``("optimize_beta",
channel, scheme)`` runs ``hdmarc.gaussian.optimize_beta``.  Inputs are made
from the workload seed and the op index only, so the same seed gives the same
configs; the program sees nothing but the written configs and the ``--seed``
values on the verify command lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gaussian-study", "dm-sweep", "verify")

#: Ops of one rotation; runs stop only at the end of a rotation, so every
#: run holds the same mix of op kinds.
CYCLE = {"gaussian-study": 1, "dm-sweep": 4, "verify": 3}

#: Ops per second of ``--seconds`` a run does: about the rate of the program,
#: as it was when this benchmark was added, on a shared 2-CPU host.  Fixed, so that a run's op count, and with
#: it its attempted and failed counts, depend on the seed and ``--seconds``
#: only, never on the speed of the commit measured or of the host.
NOMINAL_OPS_PER_S = {"gaussian-study": 20.0, "dm-sweep": 64 / 15, "verify": 48 / 15}

#: Fewest rotations of op kinds in a run.  With this many ops of each kind
#: the tail latency (ten samples beyond it) stays among the slowest kind.
MIN_ROTATIONS = 16


def op_count(workload: str, seconds: float) -> int:
    """Ops of one run: whole rotations, about ``seconds`` of op time at the nominal rate."""
    cycle = CYCLE[workload]
    rotations = round(seconds * NOMINAL_OPS_PER_S[workload] / cycle)
    return cycle * max(MIN_ROTATIONS, rotations)

SCHEMES = ["GQF", "CF", "NO_RELAY"]

#: Gaussian study grids.  The sigma grid size makes the per-point closed
#: forms about half of an op; the beta sweep and optimize_beta are the rest.
SIGMA_GRID = {"min": 1e-3, "max": 1e3, "points": 280, "spacing": "log"}
BETA_GRID = {"min": 0.05, "max": 0.95, "points": 91, "spacing": "linear"}

#: DM sweeps evaluate one spec at several slot fractions.
DM_BETA_GRID = {"min": 0.1, "max": 0.9, "points": 5, "spacing": "linear"}

#: Alphabet sizes of the large DM channels: a slot-1 joint of 65536 cells
#: and about 0.8 MB of JSON.
DM_LARGE_SIZES = dict(
    x11=2, x21=2, yr=16, y11=32, y21=16, yhr=2, x12=2, x22=2, xr=2, y12=16, y22=16
)

#: Verify subjects, rotated by op index.
VERIFY_SUBJECTS = ("closed-forms", "dm-regions", "reductions")

_SIZE_NAMES = ("x11", "x21", "x12", "x22", "xr", "yr", "yhr", "y11", "y21", "y12", "y22")
GAINS = ("h11", "h21", "h1R", "h2R", "hR1")
POWERS = ("P11", "P12", "P21", "P22", "PR")
_TAG = {"gaussian-study": 1, "dm-sweep": 2, "verify": 3}


@dataclass
class Op:
    """One generated op: its calls, the files it writes, and its inputs."""

    index: int
    kind: str
    calls: list
    outputs: dict = field(default_factory=dict)  # label -> path
    inputs: dict = field(default_factory=dict)  # what the checks need


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAG[workload], index + 1])


# ---------------------------------------------------------------------------
# Gaussian study.


def gaussian_channel(rng: np.random.Generator) -> dict:
    gains = {k: float(v) for k, v in zip(GAINS, rng.uniform(0.1, 5.0, 5))}
    powers = {k: float(v) for k, v in zip(POWERS, rng.uniform(0.1, 5.0, 5))}
    return {
        "gains": gains,
        "powers": powers,
        "beta": float(rng.uniform(0.1, 0.9)),
        "sigma_q2": float(10.0 ** rng.uniform(-2.0, 2.0)),
        "no_relay": {"P1": float(rng.uniform(0.1, 5.0)), "P2": float(rng.uniform(0.1, 5.0))},
    }


def _gaussian_op(index: int, rng, workdir: str) -> Op:
    ch = gaussian_channel(rng)
    base = {"gains": ch["gains"], "powers": ch["powers"]}
    sweep = {"schema_version": 1, "model": "gaussian", "schemes": SCHEMES, "no_relay": ch["no_relay"]}
    docs = {
        "sigma": {**sweep, "swept": "sigma_q2", "grid": SIGMA_GRID,
                  "channel": {**base, "beta": ch["beta"]}},
        "beta": {**sweep, "swept": "beta", "grid": BETA_GRID, "channel": base},
        "region": {"model": "gaussian", "schemes": SCHEMES, "no_relay": ch["no_relay"],
                   "channel": {**base, "beta": ch["beta"], "sigma_q2": ch["sigma_q2"]}},
    }
    paths = _write_configs(workdir, "g", docs)
    outputs = {
        "sigma": os.path.join(workdir, "g_sigma.csv"),
        "beta": os.path.join(workdir, "g_beta.csv"),
        "region": os.path.join(workdir, "g_region.json"),
    }
    calls = [
        ("cli", ["sweep", "--config", paths["sigma"], "--out", outputs["sigma"]]),
        ("cli", ["sweep", "--config", paths["beta"], "--out", outputs["beta"]]),
        ("cli", ["region", "--config", paths["region"], "--out", outputs["region"]]),
        ("optimize_beta", ch, "GQF"),
        ("optimize_beta", ch, "CF"),
    ]
    outputs["sigma.gp"] = outputs["sigma"][:-4] + ".gp"
    outputs["beta.gp"] = outputs["beta"][:-4] + ".gp"
    return Op(index, "gaussian", calls, outputs, {"channel": ch})


# ---------------------------------------------------------------------------
# DM sweep.


def dm_channel(rng: np.random.Generator, sizes: dict) -> dict:
    """A random channel; peaked Dirichlet rows give rates well above zero."""

    def conditional(rows: tuple, cols: int, alpha: float) -> np.ndarray:
        table = rng.dirichlet(np.full(cols, alpha), size=int(np.prod(rows)))
        return table.reshape(*rows, cols)

    s = sizes
    slot1 = conditional((s["x11"], s["x21"]), s["yr"] * s["y11"] * s["y21"], 0.3)
    slot2 = conditional((s["x12"], s["x22"], s["xr"]), s["y12"] * s["y22"], 0.3)
    return {
        "p_x11": rng.dirichlet(np.ones(s["x11"])),
        "p_x21": rng.dirichlet(np.ones(s["x21"])),
        "p_x12": rng.dirichlet(np.ones(s["x12"])),
        "p_x22": rng.dirichlet(np.ones(s["x22"])),
        "p_xr": rng.dirichlet(np.ones(s["xr"])),
        "test_channel": conditional((s["yr"],), s["yhr"], 0.3),
        "slot1": slot1.reshape(s["x11"], s["x21"], s["yr"], s["y11"], s["y21"]),
        "slot2": slot2.reshape(s["x12"], s["x22"], s["xr"], s["y12"], s["y22"]),
    }


def _dm_op(index: int, rng, workdir: str) -> Op:
    # Every fourth op is large; the warm-up op (index -1) is small.
    large = index % CYCLE["dm-sweep"] == CYCLE["dm-sweep"] - 1 and index >= 0
    if large:
        sizes = DM_LARGE_SIZES
    elif index < 0:
        sizes = dict.fromkeys(_SIZE_NAMES, 2)  # a warm-up op of fixed size
    else:
        sizes = {name: int(rng.integers(2, 4)) for name in _SIZE_NAMES}
    channel = dm_channel(rng, sizes)
    doc_channel = {key: value.tolist() for key, value in channel.items()}
    region_beta = float(rng.uniform(0.1, 0.9))
    region_topology = ("marc", "cmacr")[int(rng.integers(0, 2))]
    sweep = {"schema_version": 1, "model": "dm", "swept": "beta", "grid": DM_BETA_GRID,
             "schemes": SCHEMES, "channel": doc_channel}
    docs = {
        "marc": {**sweep, "topology": "marc"},
        "cmacr": {**sweep, "topology": "cmacr"},
        "region": {"model": "dm", "beta": region_beta, "topology": region_topology,
                   "schemes": SCHEMES, "channel": doc_channel},
    }
    paths = _write_configs(workdir, "d", docs)
    outputs = {
        "marc": os.path.join(workdir, "d_marc.csv"),
        "cmacr": os.path.join(workdir, "d_cmacr.csv"),
        "region": os.path.join(workdir, "d_region.json"),
    }
    calls = [
        ("cli", ["sweep", "--config", paths["marc"], "--out", outputs["marc"]]),
        ("cli", ["sweep", "--config", paths["cmacr"], "--out", outputs["cmacr"]]),
        ("cli", ["region", "--config", paths["region"], "--out", outputs["region"]]),
    ]
    outputs["marc.gp"] = outputs["marc"][:-4] + ".gp"
    outputs["cmacr.gp"] = outputs["cmacr"][:-4] + ".gp"
    inputs = {"channel": channel, "large": large, "region_beta": region_beta,
              "region_topology": region_topology}
    return Op(index, "dm-large" if large else "dm-small", calls, outputs, inputs)


# ---------------------------------------------------------------------------
# Verify.


def _verify_op(index: int, seed: int) -> Op:
    # The warm-up op (index -1) runs the quickest subject.
    subject = VERIFY_SUBJECTS[max(index, 0) % len(VERIFY_SUBJECTS)]
    vseed = 1000 * seed + index + 1
    calls = [("cli", ["verify", subject, "--seed", str(vseed)])]
    return Op(index, subject, calls, {}, {"subject": subject, "seed": vseed})


# ---------------------------------------------------------------------------


def _write_configs(workdir: str, prefix: str, docs: dict) -> dict:
    paths = {}
    for label, doc in docs.items():
        path = os.path.join(workdir, f"{prefix}_{label}.config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        paths[label] = path
    return paths


def make_op(workload: str, seed: int, index: int, workdir: str) -> Op:
    """Generate op ``index`` of ``workload`` and write its config files.

    Index -1 is the warm-up op.
    """
    if workload == "verify":
        return _verify_op(index, seed)
    rng = _rng(workload, seed, index)
    if workload == "gaussian-study":
        return _gaussian_op(index, rng, workdir)
    return _dm_op(index, rng, workdir)


def gaussian_params(ch: dict, beta: float):
    """The program's parameter object for a generated Gaussian channel."""
    from hdmarc.gaussian import GaussianMarcParams

    g, p = ch["gains"], ch["powers"]
    return GaussianMarcParams(
        h11=g["h11"], h21=g["h21"], h1r=g["h1R"], h2r=g["h2R"], hr1=g["hR1"],
        p11=p["P11"], p12=p["P12"], p21=p["P21"], p22=p["P22"], pr=p["PR"], beta=beta,
    )


def run_calls(calls: list) -> list:
    """Run an op's calls in process.

    Returns one (value, stdout, stderr) triple per call: the exit code of a
    CLI call or the (beta, rate) of an optimize_beta call.  An exception escaping the
    program is recorded as its repr string, so a crash counts as a failed op
    instead of ending the run.
    """
    from hdmarc import cli
    from hdmarc.core import SchemeId
    from hdmarc.gaussian import optimize_beta

    results = []
    for call in calls:
        sink, errors = io.StringIO(), io.StringIO()
        try:
            if call[0] == "cli":
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                    value = cli.main(call[1])
            else:
                _, ch, scheme = call
                optimum = optimize_beta(gaussian_params(ch, ch["beta"]), SchemeId(scheme))
                value = (optimum.beta, optimum.rate)
        except Exception as exc:  # a crash is a failed op, reported by the checks
            value = f"exception: {exc!r}"
        results.append((value, sink.getvalue(), errors.getvalue()))
    return results


def clear_outputs(op: Op) -> None:
    """Remove the files an earlier op left at this op's output paths."""
    for path in op.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def read_outputs(op: Op) -> dict:
    """The bytes of every file the op wrote; empty for a file it did not write."""
    data = {}
    for label, path in op.outputs.items():
        try:
            with open(path, "rb") as handle:
                data[label] = handle.read()
        except FileNotFoundError:
            data[label] = b""
    return data
