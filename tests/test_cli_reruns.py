"""Byte-identity of the installed command's outputs across runs.

Each command runs as ``python -m nlsphere.cli`` in a fresh interpreter, so
NLSPHERE_THREADS is exported to the BLAS pools before numpy loads them, as
it is for the installed console script.  A check names two thread counts:
both runs must write the same file names, each file byte for byte.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from nlsphere import cli
from nlsphere.sht import _layout, write_coeffs

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
def inputs(tmp_path_factory):
    """The coefficient files the ``--rhs`` rows read: the degree-8 and
    degree-40 Poisson solutions, and a degree-40 file whose structural
    zeros are all -0."""
    root = tmp_path_factory.mktemp("inputs")
    files = {}
    for degree in (8, 40):
        out = root / f"po{degree}-out"
        assert cli.main(["poisson", "--degree", str(degree), "--output-dir", str(out)]) == 0
        files[f"po{degree}"] = str(out / "solution_coeffs.csv")
    data = np.random.default_rng(40).standard_normal((41, 81))
    data[~_layout(40)[1]] = -0.0
    files["nz40"] = str(root / "negzero40.csv")
    write_coeffs(data, files["nz40"])
    return files


#: name, thread counts, command line ({po8} and the like name an ``inputs``
#: file) and a file the run must write
RERUNS = [
    ("sp-rerun", (1, 1), "spectrum --degree 8", "spectrum.csv"),
    ("po-rerun", (1, 1), "poisson --degree 8", "solution_grid.csv"),
    ("rhs-rerun", (1, 1), "poisson --degree 8 --rhs {po8}", "solution_coeffs.csv"),
    # a read file at degree 40 streams its Legendre rows in three 16-row
    # chunks, which the synthesis accumulates
    ("rhs40-rerun", (1, 1), "poisson --degree 40 --rhs {po40}", "solution_grid.csv"),
    ("rerun", (1, 1), "evolve --model allen-cahn --degree 8 --dt 0.1 --t-final 0.5"
     " --snapshot-stride 1", "energy.csv"),
    # the Brusselator's coefficient-space nonlinearity, snapshots included
    ("br-rerun", (1, 1), "evolve --model brusselator --degree 8 --dt 0.1 --t-final 0.5"
     " --ic random:8:0.01 --seed 2 --snapshot-stride 1", "final_v_coeffs.csv"),
    # at degree 63 the steps run through the in-place ETDRK4 stages with
    # two 32-order table blocks
    ("br63-rerun", (1, 1), "evolve --model brusselator --alpha 0 --epsilon 0.075 --degree 63"
     " --dt 0.1 --t-final 1 --ic random:63:0.01 --seed 3 --snapshot-stride 5",
     "snapshot_v_000010.csv"),
    ("ac63-rerun", (1, 1), "evolve --model allen-cahn --degree 63 --dt 0.01 --t-final 0.1"
     " --cesaro-kappa 2 --snapshot-stride 5", "energy.csv"),
    # the brusselator-127 benchmark command line at one and two BLAS threads
    ("br127-threads", (1, 2), "evolve --model brusselator --alpha 0 --delta 1 --epsilon 0.075"
     " --E 4 --tau 7.8125 --f 0.8 --degree 127 --dt 0.1 --t-final 5 --ic random:63:0.01"
     " --seed 1", "final_v_grid.csv"),
]


@pytest.mark.parametrize("name, threads, command, written", RERUNS,
                         ids=[row[0] for row in RERUNS])
def test_command_line_writes_the_same_bytes(tmp_path, inputs, name, threads, command, written):
    out = _same(tmp_path, name, threads, [arg.format(**inputs) for arg in command.split()])
    assert (out / written).stat().st_size > 0


def test_negative_zero_tails_survive_a_solve(tmp_path, inputs):
    # the solve divides each -0 structural zero by a structural 1, and the
    # writer keeps it -0
    out = _same(tmp_path, "nz40-rerun", (1, 1),
                ["poisson", "--degree", "40", "--rhs", inputs["nz40"]])
    rows = (out / "solution_coeffs.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 41
    assert sum(row.endswith(",-0") for row in rows) == 40
    # row r ends in its 2r structural slots
    for r, row in enumerate(rows):
        fields = row.split(",")
        assert fields[len(fields) - 2 * r:] == ["-0"] * (2 * r), r


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
