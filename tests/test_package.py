"""The package's public namespace."""

import os
import subprocess
import sys
from pathlib import Path

import moranset


def test_all_names_resolve_once():
    names = moranset.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(moranset, name), name


def test_import_leaves_mpmath_unloaded():
    # only the length-power weights use mpmath, and they import it themselves
    env = dict(os.environ, PYTHONPATH=str(Path(moranset.__file__).parents[1]))
    code = "import sys, moranset, moranset.cli; print('mpmath' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(moranset.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "moranset", "--help"], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "qs" in res.stdout and "measure-audit" in res.stdout
