"""The test harness itself: a failing property test must report, not abort."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_reports_falsifying_example(tmp_path):
    # Under the repo's pytest config (warnings are errors), hypothesis's
    # report hook must not turn a failure into an INTERNALERROR that ends
    # the session before the falsifying example and the next test.
    (tmp_path / "test_broken.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path / "test_broken.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
