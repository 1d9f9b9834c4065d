"""The pytest settings of pyproject.toml let a failing property test report
its falsifying example: on failure Hypothesis imports its patch writer,
whose import chain can emit a DeprecationWarning that the settings turn
into an error, and that error must not end the run before the report."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(0, 10))
def test_planted(x):
    assert x < 5
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          "test_planted.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
