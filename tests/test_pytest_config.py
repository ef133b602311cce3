import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(n):
    assert n < 0
'''


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    # Under this project's warning filters a failing @given test must still
    # show the example that falsified it, not end in INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_always_fails(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
