"""The program names that the benchmark harness under ``perfbench/`` reaches.

The harness files are read or loaded by path, never edited.  Its tracer
rebinds the functions named in ``tracing.SPANNED`` and ``tracing.COUNTED``,
its modules import program names with ``from hdmarc... import``, and
``workloads.gaussian_params`` builds ``GaussianMarcParams`` from keywords.
Renaming or re-signing any of these fails here, not only in the harness.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from hdmarc import GaussianMarcParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _load("tracing")
    for table in (tracing.SPANNED, tracing.COUNTED):
        for mod, functions in table.items():
            module = importlib.import_module(f"hdmarc.{mod}")
            for function in functions:
                assert callable(getattr(module, function, None)), f"hdmarc.{mod}.{function}"


def test_every_program_name_the_harness_imports_exists():
    imported = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hdmarc"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    # A submodule (``from hdmarc import cli``) is an attribute once imported.
                    submodule = hasattr(module, "__path__") and importlib.util.find_spec(name)
                    assert hasattr(module, alias.name) or submodule, f"{path.name} imports {name}"
                    imported += 1
    assert imported > 0


def test_gaussian_params_build_from_the_harness_keywords():
    workloads = _load("workloads")
    channel = {
        "gains": {"h11": 1.0, "h21": 0.5, "h1R": 3.0, "h2R": 0.5, "hR1": 2.0},
        "powers": {"P11": 1.0, "P12": 2.0, "P21": 1.0, "P22": 2.0, "PR": 4.0},
    }
    params = workloads.gaussian_params(channel, 0.4)
    assert isinstance(params, GaussianMarcParams)
    assert (params.h1r, params.hr1, params.p12, params.pr) == (3.0, 2.0, 2.0, 4.0)
    assert params.beta == 0.4 and params.sigma_q2 is None
