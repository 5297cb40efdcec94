"""Every demo script runs to completion under the suite's warning filters."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _filterwarnings():
    """The `filterwarnings` entries of pyproject.toml's pytest table
    (tomllib needs Python 3.11; the package supports 3.10)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^filterwarnings\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return re.findall(r'"([^"]+)"', block.group(1))


def test_filters_are_read():
    assert "error::RuntimeWarning" in _filterwarnings()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run in tmp_path: demo 05 writes its reports into the working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # pytest's own warning categories exist only under pytest: a plain
    # interpreter cannot resolve them and ignores the flag with a notice
    flags = [f"-W{f}" for f in _filterwarnings() if "::pytest." not in f]
    out = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
