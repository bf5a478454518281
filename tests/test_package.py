"""The package's public namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moranset


def test_all_names_resolve_once():
    names = moranset.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(moranset, name), name


def _mpmath_loaded(code: str) -> bool:
    """Whether mpmath is loaded after `code` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(moranset.__file__).parents[1]))
    code += "\nimport sys; print('mpmath' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.splitlines()[-1] == "True"


def test_import_leaves_mpmath_unloaded():
    # only the length-power weights at d != 1/2 use mpmath, and they
    # import it themselves
    assert not _mpmath_loaded("import moranset, moranset.cli")


@pytest.mark.parametrize("extra, loaded",
                         [([], False), (["--d", "0.3"], True)])
def test_qs_loads_mpmath_only_off_the_square_root(tmp_path, extra, loaded):
    # `power:1/2` makes inexact image lengths, so the weights are roots of
    # non-squares: integer square roots at the default d = 1/2, mpmath else
    args = ["qs", "--preset", "cantor3", "--depth", "3", "--map", "power:1/2",
            "--out", str(tmp_path), *extra]
    code = ("from moranset import cli\n"
            f"cli.main({args!r}, standalone_mode=False)")
    assert _mpmath_loaded(code) is loaded
    assert (tmp_path / "qs.json").exists()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(moranset.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "moranset", "--help"], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "qs" in res.stdout and "measure-audit" in res.stdout
