"""One tolerance source: every threshold is a named constant of ``pythcpt.tolerances``."""

import ast
import importlib
from pathlib import Path

import pytest

import pythcpt
from pythcpt import tolerances

PACKAGE = Path(pythcpt.__file__).resolve().parent


def small_float_literals(path: Path) -> list[tuple[int, float]]:
    """(line, value) of each float constant with 0 < |value| < 1e-3 in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-3
    ]


def test_no_threshold_literal_outside_the_tolerances_module():
    found = {
        f"{path.name}:{line}": value
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for line, value in small_float_literals(path)
    }
    assert found == {}, "name these thresholds in pythcpt.tolerances"


def test_the_scan_sees_a_literal(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def ok(x):\n    return abs(x) < 1e-12 and x != 0.5\n", encoding="utf-8")
    assert small_float_literals(planted) == [(2, 1e-12)]


def test_every_constant_has_a_reason_line():
    source = (PACKAGE / "tolerances.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    constants = [node for node in ast.parse(source).body if isinstance(node, ast.Assign)]
    assert constants
    for node in constants:
        name = node.targets[0].id
        assert name.isupper() and lines[node.lineno - 2].startswith("# "), name


@pytest.mark.parametrize(
    "layer, name",
    [
        ("dynamics", "CPT_TOL"),
        ("dynamics", "require_tol"),
        ("dynamics", "KRON_SUM_TOL"),
        ("linalg", "HERMITICITY_TOL"),
        ("linalg", "UNITARITY_TOL"),
        ("frames", "SYMMETRY_TOL"),
        ("retrograde", "PARTIAL_OVERLAP_MAX"),
    ],
)
def test_layer_names_resolve_to_the_tolerances_objects(layer, name):
    assert getattr(importlib.import_module(f"pythcpt.{layer}"), name) is getattr(tolerances, name)
