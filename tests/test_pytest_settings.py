"""The repository's pytest settings, run on a probe file in a subprocess."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_fails_one_test(tmp_path):
    # Under filterwarnings = ["error"] alone, the deprecation that the
    # hypothesis plugin raises while it reports a failure aborted the run
    # with an INTERNALERROR, so the second test never ran.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
