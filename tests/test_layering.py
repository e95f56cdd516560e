"""Which modules ``oracle``, ``verify`` and the known-answer references may
import.

``oracle`` computes every reference value that ``hdmarc verify`` compares
against, independently of the formula code it checks.  ``verify`` draws
channels, asks a model entry and the oracle, and records deviations; it
holds no entropy or log-det arithmetic of its own.  ``tests/_known_answers``
writes closed forms with ``math`` alone.  All are read from source with
``ast``, so a name that is imported but not yet used fails too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hdmarc"

#: Names that compute information measures: ``verify`` leaves them to ``oracle``.
_MEASURES = {
    "JointPmf",
    "entropy",
    "mutual_information",
    "marginalize",
    "build_slot1_joint",
    "build_slot2_joint",
    "build_covariance",
    "gaussian_mi",
    "GaussianVectorModel",
}


def _imports(module: str) -> dict[str, set[str]]:
    """``{imported hdmarc module: names}`` of one module's source; a plain
    ``import`` of a module, or ``from . import`` one, maps it to ``{"*"}``."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hdmarc")):
            if node.module is None:  # from . import module
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
                continue
            name = node.module.removeprefix("hdmarc").lstrip(".") or "hdmarc"
            found.setdefault(name, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hdmarc"):
                    found.setdefault(alias.name.removeprefix("hdmarc."), set()).add("*")
    return found


def test_oracle_imports_only_the_channel_parameters_from_the_formula_layers():
    imports = _imports("oracle")
    assert imports["gaussian"] == {"GaussianMarcParams"}
    for module in ("dmregions", "sweep", "verify", "cli", "hdmarc"):
        assert module not in imports, module


def test_verify_imports_no_information_measure():
    imports = _imports("verify")
    assert imports, "verify imports nothing from hdmarc"
    for module, names in imports.items():
        assert "*" not in names, f"verify imports the module {module}"
        assert not names & _MEASURES, (module, sorted(names & _MEASURES))


def test_verify_does_no_log_det_or_entropy_arithmetic():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attributes & {"linalg", "log2", "det", "slogdet", "qr"}


def test_verify_takes_only_the_channel_and_the_model_entry_from_gaussian():
    # A reference formula in verify that called production's helpers would
    # share any error of theirs, which its check would then not see.
    assert _imports("verify")["gaussian"] == {"GaussianMarcParams", "gaussian_regions"}


def test_the_known_answers_import_only_math():
    # The closed forms of tests/_known_answers.py are a reference for the
    # joint builders and the entropy arithmetic only while they use neither.
    path = Path(__file__).resolve().parent / "_known_answers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math"}
