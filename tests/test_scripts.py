"""The scripts under scripts/ run to completion, and the module doctests hold."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

import heckecells.affine
import heckecells.hecke
import heckecells.laurent
import heckecells.orbits
import heckecells.rootdata

ROOT = pathlib.Path(__file__).resolve().parents[1]

# small arguments for each script; "{tmp}" is the test's temporary directory
SCRIPT_ARGS = {
    "fusion_tables.py": ["--type", "A1", "--p", "5"],
    "stabilization_report.py": ["--types", "A1"],
    "render_cell_diagrams.py": ["--outdir", "{tmp}"],
}


def test_every_script_is_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_exits_zero(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in SCRIPT_ARGS[script]]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "module",
    [
        heckecells.laurent,
        heckecells.rootdata,
        heckecells.affine,
        heckecells.hecke,
        heckecells.orbits,
    ],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted and not result.failed
