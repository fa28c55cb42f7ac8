"""Tests for the command-line interface.

Commands run in-process through `main` so exit codes and file outputs
are observed exactly as a shell would see them.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlsphere import models as M
from nlsphere.cli import CliError, RunConfig, _apply_thread_cap, build_parser, main, run
from nlsphere.sht import SphereGrid, SphHarmCoeffs, analysis, read_coeffs, write_coeffs
from nlsphere.spectrum import KernelParams
from nlsphere.timestep import StabilityWarning  # noqa: F401  (re-export check)


def read_csv_rows(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return rows


# ----------------------------------------------------------------------
# spectrum command
# ----------------------------------------------------------------------

def test_spectrum_command_example(tmp_path):
    rc = main(["spectrum", "--alpha", "-0.5", "--delta", "2", "--degree", "3",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "spectrum.csv"
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("#")
    rows = read_csv_rows(path)
    assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0]
    for ell, lam in rows:
        assert lam == pytest.approx(-2.0 * ell, rel=1e-11, abs=1e-14)


def test_spectrum_rerun_byte_identical(tmp_path):
    args = ["spectrum", "--alpha", "0.3", "--delta", "1.2", "--degree", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output-dir", str(a)]) == 0
    assert main(args + ["--output-dir", str(b)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_spectrum_local_flag(tmp_path):
    rc = main(["spectrum", "--local", "--degree", "4", "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = read_csv_rows(tmp_path / "spectrum.csv")
    assert rows[4][1] == -20.0


# ----------------------------------------------------------------------
# poisson command
# ----------------------------------------------------------------------

def test_poisson_death_star_residual(tmp_path):
    n = 20
    rc = main(["poisson", "--alpha", "0", "--delta", "1.5", "--degree", str(n),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "solution_coeffs.csv")
    assert u.degree == n
    grid = SphereGrid(n)
    rhs = analysis(M.death_star_rhs(grid), grid)
    spec = M.build_spectrum(n, KernelParams(0.0, 1.5))
    assert u.get(0, 0) == pytest.approx(rhs.get(0, 0), rel=1e-15)
    # rebuild the per-slot eigenvalue layout and check the residual
    from nlsphere.sht import _layout
    deg, valid = _layout(n)
    lam = spec.values[deg].copy()
    lam[0, 0] = 1.0
    res = np.linalg.norm((lam * u.data - rhs.data)[valid])
    assert res / np.linalg.norm(rhs.data) < 1e-12


def test_poisson_rhs_from_file(tmp_path):
    n = 5
    f = SphHarmCoeffs(n)
    f.set(3, 1, 1.0)
    rhs_path = tmp_path / "rhs.csv"
    write_coeffs(f, rhs_path)
    rc = main(["poisson", "--local", "--degree", str(n), "--rhs", str(rhs_path),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "solution_coeffs.csv")
    assert u.get(3, 1) == pytest.approx(-1.0 / 12.0, rel=1e-15)


def test_poisson_rhs_degree_mismatch_exits_1(tmp_path):
    f = SphHarmCoeffs(4)
    rhs_path = tmp_path / "rhs.csv"
    write_coeffs(f, rhs_path)
    rc = main(["poisson", "--local", "--degree", "6", "--rhs", str(rhs_path),
               "--output-dir", str(tmp_path)])
    assert rc == 1


# ----------------------------------------------------------------------
# evolve command
# ----------------------------------------------------------------------

def test_evolve_allen_cahn_outputs(tmp_path):
    n = 12
    rc = main(["evolve", "--model", "allen-cahn", "--epsilon", "0.1",
               "--alpha", "-0.5", "--delta", "1", "--degree", str(n),
               "--dt", "0.1", "--t-final", "0.5", "--ic", "cos10xy",
               "--snapshot-stride", "2", "--cesaro-kappa", "2",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert "energy.csv" in names
    assert "final_u_coeffs.csv" in names and "final_u_grid.csv" in names
    assert [n_ for n_ in names if n_.startswith("snapshot_")] == [
        "snapshot_u_000000.csv", "snapshot_u_000002.csv", "snapshot_u_000004.csv",
    ]
    energy = read_csv_rows(tmp_path / "energy.csv")
    assert len(energy) == 6
    values = [e for _, e in energy]
    assert all(b - a <= 1e-8 * abs(a) for a, b in zip(values, values[1:]))
    # step-0 snapshot is the Cesaro-smoothed initial condition
    grid = SphereGrid(n)
    u0 = M.cesaro_apply(analysis(M.cos10xy(grid), grid), 2)
    snap = read_coeffs(tmp_path / "snapshot_u_000000.csv")
    np.testing.assert_array_equal(snap.data, u0.data)


def test_evolve_brusselator_equilibrium_fixed_point(tmp_path):
    rc = main(["evolve", "--model", "brusselator", "--epsilon", "0.075",
               "--alpha", "0", "--delta", "1", "--degree", "8",
               "--dt", "0.1", "--t-final", "1", "--ic", "equilibrium",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u_e = 0.075**2 * 4.0 / 0.2
    # grid files hold theta,phi,value rows; the field is the third column
    u_vals = np.array(read_csv_rows(tmp_path / "final_u_grid.csv"))[:, 2]
    v_vals = np.array(read_csv_rows(tmp_path / "final_v_grid.csv"))[:, 2]
    assert np.abs(u_vals - u_e).max() < 1e-10
    assert np.abs(v_vals - 1.0 / u_e).max() < 1e-10


def test_evolve_brusselator_snapshots(tmp_path):
    n, seed = 6, 3
    args = ["evolve", "--model", "brusselator", "--local", "--degree", str(n),
            "--dt", "0.05", "--t-final", "0.25", "--ic", "random:4:0.01",
            "--seed", str(seed), "--snapshot-stride", "2", "--cesaro-kappa", "2",
            "--output-dir", str(tmp_path)]
    written = run(RunConfig(**vars(build_parser().parse_args(args))))
    snapshots = [os.path.basename(p) for p in written
                 if os.path.basename(p).startswith("snapshot_")]
    assert snapshots == [
        "snapshot_u_000000.csv", "snapshot_v_000000.csv",
        "snapshot_u_000002.csv", "snapshot_v_000002.csv",
        "snapshot_u_000004.csv", "snapshot_v_000004.csv",
    ]
    assert sorted(n_ for n_ in os.listdir(tmp_path)
                  if n_.startswith("snapshot_")) == sorted(snapshots)
    # step-0 v snapshot is the Cesaro-smoothed v initial condition
    cfg = M.BrusselatorConfig(E=4.0, epsilon=0.1, tau=7.8125, f=0.8, kernel=None,
                              degree=n, h=0.05, steps=5)
    v0 = SphHarmCoeffs(n)
    v0.set(0, 0, cfg.equilibrium()[1] * math.sqrt(4.0 * math.pi))
    v0 = SphHarmCoeffs(n, v0.data + M.random_coeffs(4, n, 0.01, seed + 1).data)
    snap = read_coeffs(tmp_path / "snapshot_v_000000.csv")
    np.testing.assert_array_equal(snap.data, M.cesaro_apply(v0, 2).data)
    assert not np.array_equal(snap.data, v0.data)


def test_evolve_random_ic_reproducible(tmp_path):
    args = ["evolve", "--model", "allen-cahn", "--local", "--degree", "8",
            "--dt", "0.1", "--t-final", "0.3", "--ic", "random:5:0.25",
            "--seed", "7"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--output-dir", str(a)]) == 0
    assert main(args + ["--output-dir", str(b)]) == 0
    assert (a / "final_u_coeffs.csv").read_bytes() == (b / "final_u_coeffs.csv").read_bytes()
    other = args[:-1] + ["8", "--output-dir", str(c)]
    assert main(other) == 0
    assert (a / "final_u_coeffs.csv").read_bytes() != (c / "final_u_coeffs.csv").read_bytes()


def test_evolve_brusselator_random_ic_perturbs_both(tmp_path):
    rc = main(["evolve", "--model", "brusselator", "--local", "--degree", "6",
               "--dt", "0.05", "--t-final", "0.1", "--ic", "random:3:0.001",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "final_u_coeffs.csv")
    v = read_coeffs(tmp_path / "final_v_coeffs.csv")
    # perturbations seeded independently leave distinct non-mean modes
    assert u.get(2, 1) != 0.0
    assert v.get(2, 1) != 0.0
    assert u.get(2, 1) != v.get(2, 1)


def test_evolve_blow_up_exits_2(tmp_path):
    with np.errstate(all="ignore"):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["evolve", "--model", "allen-cahn", "--local", "--degree", "6",
                       "--dt", "1", "--t-final", "3", "--ic", "random:3:1e8",
                       "--output-dir", str(tmp_path)])
    assert rc == 2


# ----------------------------------------------------------------------
# validation and exit codes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["spectrum", "--alpha", "2", "--delta", "1", "--degree", "4"],
    ["spectrum", "--alpha", "0", "--delta", "0", "--degree", "4"],
    ["spectrum", "--alpha", "0", "--delta", "2.5", "--degree", "4"],
    ["evolve", "--model", "brusselator", "--f", "1.5", "--degree", "4",
     "--dt", "0.1", "--t-final", "1", "--ic", "equilibrium"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "0.1",
     "--t-final", "1", "--ic", "equilibrium"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "0.1",
     "--t-final", "1", "--ic", "random:zz:1"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "0.1",
     "--t-final", "1", "--ic", "mystery"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "0.1",
     "--t-final", "1", "--ic", "random:9:1"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "-0.1",
     "--t-final", "1"],
])
def test_validation_failures_exit_1(tmp_path, args):
    assert main(args + ["--output-dir", str(tmp_path)]) == 1


def test_usage_errors_exit_1():
    for args in ([], ["unknown-command"], ["evolve", "--degree", "4"],
                 ["spectrum", "--method", "rec", "--degree", "4"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 1


def test_runconfig_direct_validation():
    RunConfig(command="spectrum", degree=4)
    with pytest.raises(CliError):
        RunConfig(command="orbit", degree=4)
    with pytest.raises(CliError):
        RunConfig(command="spectrum", degree=4, alpha=1.0)
    with pytest.raises(CliError):
        RunConfig(command="evolve", model="allen-cahn", degree=4, t_final=1.0)
    cfg = RunConfig(command="evolve", model="allen-cahn", degree=4,
                    dt=0.1, t_final=0.5)
    assert cfg.steps() == 5
    tiny = RunConfig(command="evolve", model="allen-cahn", degree=4,
                     dt=0.1, t_final=0.04)
    assert tiny.steps() == 1


# ----------------------------------------------------------------------
# environment plumbing
# ----------------------------------------------------------------------

def test_thread_cap_sets_env(monkeypatch):
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NLSPHERE_THREADS", "3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # explicit setting wins
    _apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["MKL_NUM_THREADS"] == "3"


@pytest.mark.parametrize("bad", ["abc", "0", "-2"])
def test_thread_cap_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("NLSPHERE_THREADS", bad)
    with pytest.raises(CliError):
        _apply_thread_cap()


def test_cli_import_does_not_pull_numpy():
    # the thread cap can only take effect if the parser loads without numpy
    code = ("import nlsphere.cli, sys; "
            "sys.exit(0 if 'numpy' not in sys.modules else 3)")
    # the child imports the package under test, whether installed or not
    src = os.path.dirname(os.path.dirname(M.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
