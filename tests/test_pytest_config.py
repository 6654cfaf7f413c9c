"""The project's pytest settings: a failing property test fails alone."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_other_warning_fails():
    warnings.warn("some deprecation", DeprecationWarning)


def test_plain_passes():
    assert True
'''


def test_failing_given_example_does_not_stop_the_session(tmp_path):
    # Reporting a falsifying example imports libcst, which warns on import;
    # under filterwarnings = error that warning must not abort the session
    # (pytest exit 3) while every other warning still fails its test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "2 failed, 1 passed" in out, out
