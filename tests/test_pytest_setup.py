"""The pytest settings of pyproject.toml report a failing hypothesis test.

On a failure hypothesis imports libcst to suggest an explicit example, and
libcst raises mypy_extensions' DeprecationWarning on import. Under the
project's warnings-as-errors filter that used to end the run in an
INTERNALERROR that hid the falsifying example and skipped every later test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
