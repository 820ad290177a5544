"""The pytest settings of pyproject.toml report a failing hypothesis test.

On a failure hypothesis imports libcst to suggest an explicit example, and
libcst raises mypy_extensions' DeprecationWarning on import. Under the
project's warnings-as-errors filter that used to end the run in an
INTERNALERROR that hid the falsifying example and skipped every later test.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


def test_ci_profile_adds_only_the_blob():
    ci, default = settings.get_profile("ci"), settings.get_profile("default")
    assert ci.print_blob and not default.print_blob
    for name in ("max_examples", "deadline", "derandomize", "phases",
                 "suppress_health_check", "report_multiple_bugs"):
        assert getattr(ci, name) == getattr(default, name), name


def test_ci_failure_prints_reproduce_blob(tmp_path):
    """With CI set, the tests' conftest makes a failing property test print
    the @reproduce_failure blob."""
    for name in ("conftest.py", "meshgen.py"):
        shutil.copy(ROOT / "tests" / name, tmp_path)
    (tmp_path / "test_sample.py").write_text(TESTS)
    env = dict(os.environ, CI="true", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    out = run.stdout + run.stderr
    assert "@reproduce_failure" in out, out
    assert "1 failed, 1 passed" in out, out
