"""Byte-identity of the installed command's outputs across runs.

Each command runs as ``python -m nlsphere.cli`` in a fresh interpreter, so
NLSPHERE_THREADS is exported to the BLAS pools before numpy loads them, as
it is for the installed console script.  A check names two thread counts:
both runs must write the same file names, each file byte for byte.
"""

import os
import subprocess
import sys

import pytest

from nlsphere import cli

# the child imports the package under test, whether installed or not
_SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _run(argv, out, threads):
    env = {name: value for name, value in os.environ.items()
           if name not in cli._THREAD_ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env["NLSPHERE_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "nlsphere.cli", *argv, "--output-dir", str(out)],
                          capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()


def _same(root, name, threads, argv):
    """Run ``argv`` into ``root/name-a`` and ``root/name-b`` at the two
    thread counts of ``threads`` and check that both hold the same file
    names, each byte for byte; returns the first directory."""
    dirs = [root / f"{name}-{side}" for side in "ab"]
    for out, count in zip(dirs, threads):
        _run(argv, out, count)
    names = sorted(os.listdir(dirs[0]))
    assert names and names == sorted(os.listdir(dirs[1]))
    for file in names:
        assert (dirs[0] / file).read_bytes() == (dirs[1] / file).read_bytes(), file
    return dirs[0]


@pytest.fixture(scope="module")
def solved_320(tmp_path_factory):
    # above grid degree 300 no table is kept: the analysis and the synthesis
    # of the built-in right-hand side both stream; a rerun is byte-identical
    out = _same(tmp_path_factory.mktemp("po320"), "po320-rerun", (1, 1),
                ["poisson", "--degree", "320"])
    assert (out / "solution_grid.csv").stat().st_size > 0
    return out


def test_degree_320_solve_reruns_byte_identical(solved_320):
    assert (solved_320 / "solution_coeffs.csv").stat().st_size > 0


def test_degree_320_rhs_solve_reruns_byte_identical(solved_320, tmp_path):
    # a coefficient file of many row chunks, read, solved and written again
    out = _same(tmp_path, "rhs320-rerun", (1, 1),
                ["poisson", "--degree", "320", "--rhs", str(solved_320 / "solution_coeffs.csv")])
    assert (out / "solution_coeffs.csv").stat().st_size > 0


def test_degree_383_solve_same_bytes_at_one_and_two_threads(tmp_path):
    out = _same(tmp_path, "po383-threads", (1, 2), ["poisson", "--degree", "383"])
    assert (out / "solution_grid.csv").stat().st_size > 0
