"""The package namespace: one export table, each layer imported on first use, nothing cached."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pythcpt

SRC = Path(pythcpt.__file__).resolve().parent.parent

# attributes NumPy added in 2.0; pyproject declares numpy>=1.25, where each raises AttributeError
NUMPY_2_ONLY = frozenset({"mT", "matrix_transpose", "vecdot", "matvec", "vecmat", "permute_dims", "unstack", "concat"})


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's pythcpt."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pythcpt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pythcpt.__all__)
    assert len(pythcpt.__all__) == 55
    assert "time_independent_conditions" in pythcpt.__all__


def test_every_export_is_its_layer_object():
    for layer, names in pythcpt._EXPORTS.items():
        module = importlib.import_module(f"pythcpt.{layer}")
        for name in names:
            assert getattr(pythcpt, name) is getattr(module, name), name
    assert sorted(name for names in pythcpt._EXPORTS.values() for name in names) == sorted(pythcpt.__all__)


def test_unknown_name_is_absent():
    assert not hasattr(pythcpt, "no_such_name")
    assert "verify_cpt" in dir(pythcpt) and "dynamics" in dir(pythcpt)


def test_triples_import_loads_no_numpy():
    proc = run_fresh("import sys, pythcpt, pythcpt.triples; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_tolerances_import_loads_no_numpy():
    proc = run_fresh("import sys, pythcpt.tolerances; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_layer_read_from_the_package_imports_it():
    proc = run_fresh("import pythcpt; print(pythcpt.frames.MAX_N)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5\n"


def test_resolved_names_are_not_cached():
    # a name bound in the package would outlive a wrapper patched into, then removed from, its layer
    proc = run_fresh(
        "import pythcpt\n"
        "for name in pythcpt.__all__: getattr(pythcpt, name)\n"
        "assert not set(vars(pythcpt)) & set(pythcpt.__all__)\n"
        "import pythcpt.dynamics as d\n"
        "real = d.verify_cpt\n"
        "d.verify_cpt = wrapper = lambda *a: real(*a)\n"
        "assert pythcpt.verify_cpt is wrapper\n"
        "d.verify_cpt = real\n"
        "assert pythcpt.verify_cpt is real\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_only_the_layers_every_command_shares():
    # retro and suite import their layers when they run, so no other command compiles them
    proc = run_fresh(
        "import sys, pythcpt.cli\n"
        "loaded = {'pythcpt.retrograde', 'pythcpt.suite', 'pythcpt.reference_tables'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    assert proc.returncode == 0, proc.stderr


def numpy_2_only_attributes(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each attribute access in a source file that NumPy 1.x lacks."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY
    ]


def test_the_library_runs_on_the_declared_numpy_floor():
    found = {
        f"{path.name}:{line}": name
        for path in sorted((SRC / "pythcpt").glob("*.py"))
        for line, name in numpy_2_only_attributes(path)
    }
    assert found == {}, "NumPy 1.25 lacks these; use swapaxes(-1, -2) for .mT"


def test_the_numpy_floor_scan_sees_an_attribute(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def gram(u):\n    return u @ u.conj().mT\n", encoding="utf-8")
    assert numpy_2_only_attributes(planted) == [(2, "mT")]
