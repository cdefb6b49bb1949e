"""The test configuration itself: a failing property test must still report
the example that broke it under the repo's pytest settings."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
