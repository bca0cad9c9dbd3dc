"""The suite's own pytest settings report a failing property as a failure.

With every warning an error, a warning that hypothesis' plugin raises while
it reports a falsified property used to end the whole pytest run with
INTERNALERROR, hiding every test after it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 5


def test_a_test_after_it():
    pass
"""


def test_a_failing_property_does_not_hide_the_tests_after_it(tmp_path):
    path = tmp_path / "test_meta.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
