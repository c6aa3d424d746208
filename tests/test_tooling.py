"""The test run itself: a failing property test is reported as a failure, and
the tests after it still run, under the repository's pytest settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # every warning is an error (pyproject.toml); hypothesis's failure report
    # must not turn into an INTERNALERROR that ends the run
    (tmp_path / "test_pair.py").write_text(PAIR, "utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
