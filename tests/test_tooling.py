"""The test configuration and the source tree: a failing property test must
still report the example that broke it under the repo's pytest settings, the
package must import nothing it does not use, and every function the
benchmark traces must exist."""

import ast
import importlib
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "lmgsqueeze"
PERFBENCH = ROOT / "perfbench"

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads.

    Names listed in ``__all__`` and imports marked ``# noqa: F401`` on any of
    their lines are exempt; a read anywhere in the module counts as a use.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unused.append((node.lineno, name))
    return unused


def test_unused_import_scan_finds_and_exempts():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import (\n    pi,\n    tau,\n)\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f():\n    from re import compile\n    return pi\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "tau"), (10, "compile")]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_benchmark_traced_names_exist():
    # a function renamed or deleted here would otherwise fail only in a
    # traced benchmark run; both files import only the standard library
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    expected = runpy.run_path(str(PERFBENCH / "workloads.py"))["EXPECTED_SPANS"]
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    spans = {span for _, _, span, _ in targets}
    assert {name for names in expected.values() for name in names} <= spans
