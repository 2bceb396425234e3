"""The package has one kernel path: git tracks no C, .pyx or setup.py file."""

import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_compiled_kernel_sources():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    proc = subprocess.run(
        ["git", "ls-files", "--", "*.c", "*.pyx", "setup.py"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    assert proc.stdout == ""
