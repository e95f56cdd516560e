"""A seeded fuzz of the config documents that ``hdmarc.cli.main`` reads.

The sources are the three shipped sweeps, cut to at most 5 grid points,
and one Gaussian and one finite-alphabet region document built from them.
Each fuzzed document is a source with one or two mutations: a value
replaced by one of :data:`ODD_VALUES`, a key or list entry deleted, or a
value wrapped in a list.  Under warnings-as-errors every run must end in
exit code 0, 1 or 3: no exception and no warning escapes ``main``.  The
seed and the count are fixed; a failure is a fault of the program, not
of the draw.
"""

import copy
import json
import math
import random
import warnings
from pathlib import Path

from hdmarc.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SEED = 2014
DOCUMENTS = 300

#: Values a mutation puts in place of another: wrong types, non-finite and
#: out-of-range numbers, and strs that look like numbers or like choices.
ODD_VALUES = (
    None, True, False, 0, 1, -1, 2, 0.0, -0.0, 0.5, 1.5, -1.5,
    math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, 10**400, 2**63, -(2**63),
    "", "0.5", "GQF", "marc", "log", "a\u0000b", [], [0.5], [[0.5]], {},
)


def _sources() -> list[tuple[str, dict]]:
    """``(command, document)`` of every fuzz source."""
    sweeps = {}
    for name in ("gaussian_sigma_sweep", "gaussian_beta_sweep", "dm_beta_sweep"):
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
        doc["grid"]["points"] = min(doc["grid"]["points"], 5)
        sweeps[name] = doc
    gaussian = sweeps["gaussian_sigma_sweep"]
    dm = sweeps["dm_beta_sweep"]
    gaussian_region = {
        "model": "gaussian",
        "channel": dict(gaussian["channel"], sigma_q2=1.0),
        "no_relay": gaussian["no_relay"],
    }
    dm_region = {"model": "dm", "beta": 0.5, "topology": "cmacr", "channel": dm["channel"]}
    return [("sweep", doc) for doc in sweeps.values()] + [
        ("region", gaussian_region),
        ("region", dm_region),
    ]


def _paths(value, path=()) -> list[tuple]:
    """The path of every value inside ``value``, below ``path``."""
    found = []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        found += [path + (key,), *_paths(child, path + (key,))]
    return found


def _mutate(doc, rng: random.Random) -> None:
    """Mutate one value inside ``doc``, at a path drawn depth first, then
    among the paths of that depth, so top-level keys are drawn as often as
    table entries.  A document with nothing inside is left as it is."""
    by_depth: dict[int, list] = {}
    for path in _paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    if not by_depth:
        return
    path = rng.choice(by_depth[rng.choice(sorted(by_depth))])
    kind = rng.choice(("replace", "delete", "wrap"))
    odd = copy.deepcopy(rng.choice(ODD_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = odd if kind == "replace" else [parent[key]]


def test_mutated_config_documents_end_in_a_cli_exit_code(tmp_path, capsys):
    rng = random.Random(SEED)
    sources = _sources()
    codes = []
    for index in range(DOCUMENTS):
        command, doc = rng.choice(sources)
        doc = copy.deepcopy(doc)
        for _ in range(rng.choice((1, 2))):
            _mutate(doc, rng)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out" / ("rates.csv" if command == "sweep" else "region.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([command, "--config", str(config), "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - anything escaping main is the fault
                shown = json.dumps(doc)[:300]
                raise AssertionError(f"document {index} ({shown}) raised {exc!r}") from exc
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), (index, code, json.dumps(doc)[:300])
        codes.append(code)
        capsys.readouterr()
    # Both outcomes occur, so the mutations neither all break nor all miss.
    assert {EXIT_OK, EXIT_CONFIG} <= set(codes)
