"""The suite's closing summary (conftest.pytest_terminal_summary)."""

import os
import shutil
import subprocess
import sys

import adaptivetrend

TESTS = os.path.dirname(os.path.abspath(__file__))


def test_uncollectable_criteria_file_keeps_the_count_line(tmp_path):
    """A criteria file that fails to collect gets one summary line, and
    pytest still ends with its count line instead of a traceback."""
    tests = tmp_path / "tests"
    tests.mkdir()
    for name in ("conftest.py", "scalar_reference.py"):
        shutil.copy(os.path.join(TESTS, name), tests / name)
    (tests / "test_acceptance.py").write_text("import no_such_module\n")
    (tests / "test_one.py").write_text("def test_one():\n    pass\n")
    src = os.path.dirname(os.path.dirname(adaptivetrend.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    text = out.stdout + out.stderr
    assert "Traceback (most recent call last)" not in text, text
    assert "test_acceptance.py failed to collect: no criterion ran" in text
    assert "1 passed, 1 error" in out.stdout.splitlines()[-1], text
