import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_fails_without_an_internal_error(tmp_path):
    # Reporting a falsified example imports libcst, whose deprecation warning
    # the suite's warning filters must not turn into an INTERNALERROR.
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
