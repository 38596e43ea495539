"""The warning filters in ``pyproject.toml`` report failures as failures.

Deprecations are errors there.  Where libcst is installed, Hypothesis's
failure report imports it, and that import warns that
``mypy_extensions.TypedDict`` is deprecated; as an error, that warning
stopped pytest with an internal error (exit 3) instead of reporting the
failing example.  Only that message is ignored, so a test's own
``DeprecationWarning`` still fails it.
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

FAILING_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_a_failing_example(x):
    assert x < 0


def test_its_own_deprecation():
    warnings.warn("an API about to go", DeprecationWarning)
'''


def test_a_failing_example_and_a_deprecation_are_both_reported_as_failures(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.abspath(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout
