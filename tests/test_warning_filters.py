"""The suite's warning filters turn deprecations into errors, but must not
stop the run when a property test fails."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, deadline=None, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    """Reporting a failing example imports libcst, which warns through a
    deprecated mypy_extensions API; as an error that warning ended the run
    with INTERNALERROR before the next test ran."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
