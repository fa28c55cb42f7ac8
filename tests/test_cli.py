"""Tests for the command-line interface.

Commands run in-process through `main` so exit codes and file outputs
are observed exactly as a shell would see them.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlsphere import models as M
from nlsphere import sht
from nlsphere import cli
from nlsphere.cli import _apply_thread_cap, build_parser, main, run
from nlsphere.sht import SphereGrid, _layout, analysis, read_coeffs, slot, write_coeffs
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


def test_spectrum_local_file_bytes(tmp_path):
    # degree 0 is written "0", as a kernel spectrum's is, not "-0"
    assert main(["spectrum", "--local", "--degree", "2", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        b"# local degree=2\nell,lambda\n0,0\n1,-2\n2,-6\n")


# ----------------------------------------------------------------------
# poisson command
# ----------------------------------------------------------------------

def test_poisson_death_star_residual(tmp_path):
    n = 20
    rc = main(["poisson", "--alpha", "0", "--delta", "1.5", "--degree", str(n),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "solution_coeffs.csv")
    assert u.shape == (n + 1, 2 * n + 1)
    grid = SphereGrid(n)
    rhs = analysis(M.death_star_rhs(grid), grid)
    spec = M.build_spectrum(n, KernelParams(0.0, 1.5))
    assert u[slot(n, 0, 0)] == pytest.approx(rhs[slot(n, 0, 0)], rel=1e-15)
    # rebuild the per-slot eigenvalue layout and check the residual
    deg, valid = _layout(n)
    lam = spec[deg].copy()
    lam[0, 0] = 1.0
    res = np.linalg.norm((lam * u - rhs)[valid])
    assert res / np.linalg.norm(rhs) < 1e-12


def test_poisson_rhs_from_file(tmp_path):
    n = 5
    f = np.zeros((n + 1, 2 * n + 1))
    f[slot(n, 3, 1)] = 1.0
    rhs_path = tmp_path / "rhs.csv"
    write_coeffs(f, rhs_path)
    rc = main(["poisson", "--local", "--degree", str(n), "--rhs", str(rhs_path),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "solution_coeffs.csv")
    assert u[slot(n, 3, 1)] == pytest.approx(-1.0 / 12.0, rel=1e-15)


def test_poisson_rhs_degree_mismatch_exits_1(tmp_path):
    rhs_path = tmp_path / "rhs.csv"
    write_coeffs(np.zeros((5, 9)), rhs_path)
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
    # step-0 snapshot is the Cesaro-smoothed initial condition, analyzed on
    # a grid that keeps its tables, as the command's stepping grid does
    grid = SphereGrid(n)
    sht._keep_tables(grid, n)
    u0 = M.cesaro_apply(analysis(M.cos10xy(grid), grid), 2)
    snap = read_coeffs(tmp_path / "snapshot_u_000000.csv")
    np.testing.assert_array_equal(snap, u0)


def test_evolve_cos10xy_streams_no_rows_and_builds_each_block_once(tmp_path, monkeypatch):
    # the nonlinearity keeps the grid's tables before the cos10xy analysis,
    # so that analysis reads the blocks every step then reuses
    def no_stream(*args):
        raise AssertionError("streamed Legendre rows in an evolve run")

    builds, table = [], sht.assoc_legendre_table

    def counted(orders, degree, t):
        builds.append((int(orders[0]), degree, t.size))
        return table(orders, degree, t)

    monkeypatch.setattr(sht, "_legendre_rows", no_stream)
    monkeypatch.setattr(sht, "assoc_legendre_table", counted)
    M._refined_grid.cache_clear()
    n = 40
    rc = main(["evolve", "--model", "allen-cahn", "--degree", str(n), "--dt", "0.01",
               "--t-final", "0.02", "--ic", "cos10xy", "--output-dir", str(tmp_path)])
    M._refined_grid.cache_clear()
    assert rc == 0
    # orders 0..31 and 32..40 at the 21 northern nodes of the degree-40 grid
    # and at the 41 of the energy's degree-80 grid
    assert sorted(builds) == [(0, n, 21), (0, n, 41), (32, n, 21), (32, n, 41)]


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
    run(build_parser().parse_args(args))
    assert sorted(n_ for n_ in os.listdir(tmp_path) if n_.startswith("snapshot_")) == [
        "snapshot_u_000000.csv", "snapshot_u_000002.csv", "snapshot_u_000004.csv",
        "snapshot_v_000000.csv", "snapshot_v_000002.csv", "snapshot_v_000004.csv",
    ]
    # step-0 v snapshot is the Cesaro-smoothed v initial condition
    cfg = M.BrusselatorConfig(E=4.0, epsilon=0.1, tau=7.8125, f=0.8)
    v0 = np.zeros((n + 1, 2 * n + 1))
    v0[slot(n, 0, 0)] = cfg.equilibrium()[1] * math.sqrt(4.0 * math.pi)
    v0 = v0 + M.random_coeffs(4, n, 0.01, seed + 1)
    snap = read_coeffs(tmp_path / "snapshot_v_000000.csv")
    np.testing.assert_array_equal(snap, M.cesaro_apply(v0, 2))
    assert not np.array_equal(snap, v0)


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


@pytest.mark.parametrize("t_final, steps", [("0.5", 5), ("0.04", 1)])
def test_evolve_step_count_rounds_and_is_at_least_one(tmp_path, t_final, steps):
    rc = main(["evolve", "--model", "allen-cahn", "--local", "--degree", "4",
               "--dt", "0.1", "--t-final", t_final, "--output-dir", str(tmp_path)])
    assert rc == 0
    head = (tmp_path / "final_u_coeffs.csv").read_text(encoding="utf-8").splitlines()
    assert head[1] == f"# t={steps * 0.1:.17g}"


def test_evolve_brusselator_random_ic_perturbs_both(tmp_path):
    rc = main(["evolve", "--model", "brusselator", "--local", "--degree", "6",
               "--dt", "0.05", "--t-final", "0.1", "--ic", "random:3:0.001",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    u = read_coeffs(tmp_path / "final_u_coeffs.csv")
    v = read_coeffs(tmp_path / "final_v_coeffs.csv")
    # perturbations seeded independently leave distinct non-mean modes
    assert u[slot(6, 2, 1)] != 0.0
    assert v[slot(6, 2, 1)] != 0.0
    assert u[slot(6, 2, 1)] != v[slot(6, 2, 1)]


BLOW_UP_ARGS = ["evolve", "--model", "allen-cahn", "--local", "--degree", "6",
                "--dt", "1", "--t-final", "3", "--ic", "random:3:1e8"]


def test_evolve_blow_up_exits_2(tmp_path, capsys):
    # the overflow that leads to the blow-up raises no RuntimeWarning (which
    # pytest turns into an error here): stderr holds the one message
    rc = main(BLOW_UP_ARGS + ["--output-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "nlsphere: non-finite coefficients after step 1; "
        "the time step is likely too large for this problem\n"
    )


def test_blow_up_removes_only_the_empty_directory_it_created(tmp_path):
    created = tmp_path / "created"
    assert main(BLOW_UP_ARGS + ["--output-dir", str(created)]) == 2
    assert not created.exists()
    # a directory that was there before the run stays, although empty
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(BLOW_UP_ARGS + ["--output-dir", str(existing)]) == 2
    assert existing.is_dir() and not any(existing.iterdir())
    # and so does one the run created and wrote snapshots into
    snapshots = tmp_path / "snapshots"
    assert main(BLOW_UP_ARGS + ["--snapshot-stride", "1", "--output-dir", str(snapshots)]) == 2
    assert sorted(p.name for p in snapshots.iterdir()) == ["snapshot_u_000000.csv"]


def test_blow_up_removes_every_empty_level_it_created(tmp_path):
    # new/deeper/out: all three levels are the run's, and all three go
    assert main(BLOW_UP_ARGS + ["--output-dir", str(tmp_path / "new/deeper/out")]) == 2
    assert not (tmp_path / "new").exists()
    # below an existing directory only the new levels go, up to that one
    (tmp_path / "kept").mkdir()
    assert main(BLOW_UP_ARGS + ["--output-dir", str(tmp_path / "kept/new/out")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert not any((tmp_path / "kept").iterdir())
    # a created level that holds the run's snapshots stays, and so does its parent
    nested = tmp_path / "made" / "out"
    assert main(BLOW_UP_ARGS + ["--snapshot-stride", "1", "--output-dir", str(nested)]) == 2
    assert sorted(p.name for p in nested.iterdir()) == ["snapshot_u_000000.csv"]


# ----------------------------------------------------------------------
# validation and exit codes
# ----------------------------------------------------------------------

AC_ARGS = ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "0.1",
           "--t-final", "1"]

VALIDATION_FAILURES = [
    ["spectrum", "--alpha", "2", "--delta", "1", "--degree", "4"],
    ["spectrum", "--alpha", "0", "--delta", "0", "--degree", "4"],
    ["spectrum", "--alpha", "0", "--delta", "2.5", "--degree", "4"],
    ["evolve", "--model", "brusselator", "--f", "1.5", "--degree", "4",
     "--dt", "0.1", "--t-final", "1", "--ic", "equilibrium"],
    AC_ARGS + ["--ic", "equilibrium"],
    AC_ARGS + ["--ic", "random:zz:1"],
    AC_ARGS + ["--ic", "mystery"],
    AC_ARGS + ["--ic", "random:9:1"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "-0.1",
     "--t-final", "1"],
    ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "1e-300",
     "--t-final", "1e300"],
    ["spectrum", "--alpha", "1", "--delta", "1", "--degree", "4"],
    AC_ARGS + ["--cesaro-kappa", "-1"],
    AC_ARGS + ["--snapshot-stride", "-1"],
    AC_ARGS + ["--t-final", "0"],
    AC_ARGS + ["--t-final", "nan"],
    AC_ARGS + ["--dt", "inf"],
    # --local uses no kernel, but its flags are checked all the same
    ["spectrum", "--local", "--alpha", "nan", "--degree", "4"],
    ["spectrum", "--local", "--delta", "7", "--degree", "4"],
]


#: 10**300 steps: k and t = k h are not exact doubles above 2**53 steps
HANG_ARGS = ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "1e-300",
             "--t-final", "1"]


def test_step_count_above_2_53_is_refused(tmp_path, capsys, monkeypatch):
    class Reached(Exception):
        pass

    def build_spectrum(*_):
        raise Reached  # the input phase passed

    monkeypatch.setattr(M, "build_spectrum", build_spectrum)
    out = tmp_path / "out"
    assert main(HANG_ARGS + ["--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "nlsphere: error: --t-final 1.0 / --dt 1e-300 is more than 2**53 steps\n")
    assert not out.exists()
    steps = ["evolve", "--model", "allen-cahn", "--degree", "4", "--dt", "1", "--t-final"]
    with pytest.raises(Reached):  # 2**53 steps pass the input phase
        main(steps + [str(2.0**53), "--output-dir", str(out)])
    # the next double, 2**53 + 2, does not
    assert main(steps + [str(2.0**53 + 2), "--output-dir", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", VALIDATION_FAILURES)
def test_validation_failures_exit_1(tmp_path, args):
    assert main(args + ["--output-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("args", VALIDATION_FAILURES + [
    ["poisson", "--local", "--degree", "4", "--rhs", "missing.csv"],
    ["poisson", "--local", "--degree", "6", "--rhs", "rhs4.csv"],
    ["evolve", "--model", "brusselator", "--degree", "4", "--dt", "0.1",
     "--t-final", "1", "--ic", "cos10xy"],
    AC_ARGS + ["--ic", "random:-1:1"],
    AC_ARGS + ["--ic", "random:3:nan"],
    AC_ARGS + ["--ic", "random:3:1", "--seed", "-1"],
    ["poisson", "--local", "--degree", "1", "--rhs", "zero1.csv"],
    ["spectrum", "--degree", "-1"],
    ["evolve", "--model", "brusselator", "--degree", "-1", "--dt", "0.1",
     "--t-final", "1", "--ic", "equilibrium"],
    HANG_ARGS,
])
def test_refused_command_line_leaves_nothing_behind(tmp_path, monkeypatch, args):
    write_coeffs(np.zeros((5, 9)), tmp_path / "rhs4.csv")
    # a nonzero below the stored triangle: degree 2 in the m = 1 columns
    (tmp_path / "zero1.csv").write_text("# sht-coeffs v1 degree=1\n1,0,0\n2,0,3\n",
                                         encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def build_spectrum(*_):
        raise AssertionError("spectrum built for a refused command line")

    monkeypatch.setattr(M, "build_spectrum", build_spectrum)
    out = tmp_path / "out"
    assert main(args + ["--output-dir", str(out)]) == 1
    assert not out.exists()


def test_negative_seed_error_names_the_seed(tmp_path, capsys):
    rc = main(AC_ARGS + ["--ic", "random:3:1", "--seed", "-1",
                         "--output-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "nlsphere: error: seed must be a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize("args, message", [
    (AC_ARGS + ["--cesaro-kappa", "-1"], "--cesaro-kappa must be a non-negative integer, got -1"),
    (AC_ARGS + ["--snapshot-stride", "-1"],
     "--snapshot-stride must be a non-negative integer, got -1"),
    (AC_ARGS + ["--dt", "inf"], "--dt must be a finite number in (0, inf), got inf"),
    (AC_ARGS + ["--t-final", "0"], "--t-final must be a finite number in (0, inf), got 0.0"),
    (AC_ARGS + ["--ic", "random:-1:1"], "degree_cap must be a non-negative integer, got -1"),
    (AC_ARGS + ["--epsilon", "inf"], "epsilon must be a finite number in (0, inf), got inf"),
    (["evolve", "--model", "brusselator", "--degree", "4", "--dt", "0.1", "--t-final", "1",
      "--ic", "equilibrium", "--tau", "-1"], "tau must be a finite number in (0, inf), got -1.0"),
    (["spectrum", "--delta", "0", "--degree", "4"],
     "delta must be a finite number in (0, 2], got 0.0"),
    (["spectrum", "--alpha", "nan", "--degree", "4"],
     "alpha must be a finite number in (-1, 1), got nan"),
    (["evolve", "--model", "brusselator", "--degree", "4", "--dt", "0.1", "--t-final", "1",
      "--ic", "equilibrium", "--f", "1"], "f must be a finite number in (0, 1), got 1.0"),
    (AC_ARGS + ["--ic", "random:3:nan"], "scale must be a finite number in (-inf, inf), got nan"),
    (["spectrum", "--local", "--delta", "7", "--degree", "4"],
     "delta must be a finite number in (0, 2], got 7.0"),
])
def test_refusal_message_names_the_flag(tmp_path, capsys, args, message):
    assert main(args + ["--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"nlsphere: error: {message}\n"


#: every float the command line can be given, and the ends of the step range
STEP_VALUES = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.0**53, 2.0**53 + 2, 1e300])


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dt=STEP_VALUES, t_final=STEP_VALUES)
def test_input_phase_refuses_exactly_the_bad_step_sizes(tmp_path, dt, t_final):
    class Reached(Exception):
        pass

    def build_spectrum(*_):
        raise Reached  # the input phase passed

    good = all(0 < v < math.inf for v in (dt, t_final)) and t_final / dt <= 2.0**53
    out = tmp_path / "out"
    # --flag=value, as argparse reads "-inf" or "-1e-300" after a space as a flag
    argv = ["evolve", "--model", "allen-cahn", "--degree", "4", f"--dt={dt!r}",
            f"--t-final={t_final!r}", "--output-dir", str(out)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M, "build_spectrum", build_spectrum)
        if good:
            with pytest.raises(Reached):
                main(argv)
        else:
            assert main(argv) == 1
    assert not out.exists()


#: every float the command line can be given, the ends of the kernel's and f's
#: intervals and the doubles next to them
KERNEL_VALUES = st.floats() | st.sampled_from(
    [-1.0, 1.0, 0.0, -0.0, 2.0, math.nextafter(2.0, 3.0), math.nextafter(-1.0, 0.0),
     math.nextafter(1.0, 0.0), 5e-324, 0.5])


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=KERNEL_VALUES, delta=KERNEL_VALUES, f=KERNEL_VALUES, local=st.booleans())
def test_input_phase_refuses_exactly_the_bad_kernels_and_f(tmp_path, alpha, delta, f, local):
    class Reached(Exception):
        pass

    def build_spectrum(*_):
        raise Reached  # the input phase passed

    good = -1 < alpha < 1 and 0 < delta <= 2 and 0 < f < 1  # NaN fails each
    out = tmp_path / "out"
    # --flag=value, as argparse reads "-inf" or "-1e-300" after a space as a flag
    argv = ["evolve", "--model", "brusselator", "--ic", "equilibrium", "--degree", "4",
            "--dt", "0.1", "--t-final", "1", f"--alpha={alpha!r}", f"--delta={delta!r}",
            f"--f={f!r}", "--output-dir", str(out)] + ["--local"] * local
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M, "build_spectrum", build_spectrum)
        if good:
            with pytest.raises(Reached):
                main(argv)
        else:
            assert main(argv) == 1
    assert not out.exists()


def test_usage_errors_exit_1():
    for args in ([], ["unknown-command"], ["evolve", "--degree", "4"],
                 ["spectrum", "--method", "rec", "--degree", "4"],
                 ["evolve", "--model", "allen-cahn", "--degree", "4",
                  "--t-final", "1"]):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 1


# ----------------------------------------------------------------------
# environment plumbing
# ----------------------------------------------------------------------

def test_thread_cap_sets_env(monkeypatch):
    before = dict(os.environ)
    with monkeypatch.context() as patch:
        for name in cli._THREAD_ENV_VARS:
            # delenv records no undo for an unset name, so the variables that
            # _apply_thread_cap sets would outlive the test: set each first
            patch.setenv(name, "")
            patch.delenv(name)
        patch.setenv("NLSPHERE_THREADS", "3")
        patch.setenv("OPENBLAS_NUM_THREADS", "1")  # explicit setting wins
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["MKL_NUM_THREADS"] == "3"
    assert dict(os.environ) == before


@pytest.mark.parametrize("bad", ["abc", "0", "-2"])
def test_thread_cap_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("NLSPHERE_THREADS", bad)
    with pytest.raises(ValueError, match="NLSPHERE_THREADS"):
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


def _glibc():
    try:
        return sys.platform.startswith("linux") and (
            os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False


def _confstr_raises(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("confstr", [lambda name: None, lambda name: "musl 1.2",
                                     _confstr_raises, None],
                         ids=["none", "other-libc", "raises", "missing"])
def test_heap_setting_is_a_no_op_without_glibc(monkeypatch, confstr):
    import ctypes

    def refuse(*args):
        raise AssertionError("the C library was loaded without glibc")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    cli._keep_heap_pages()


_FAULT_PROBE = """
import json, resource, sys, tempfile
from nlsphere import cli, timestep

step = timestep.etdrk4_step
faults = []  # the count as each step starts


def counted(*args, **kwargs):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(*args, **kwargs)


timestep.etdrk4_step = counted
argv, dt, steps = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    code = cli.main([*argv, "--dt", repr(dt), "--t-final", repr(steps * dt), "--output-dir", out])
assert code == 0, code
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _glibc(), reason="the heap setting applies on Linux with glibc")
@pytest.mark.parametrize("degree", [63, 127])
@pytest.mark.parametrize("argv,dt", [
    (["--model", "brusselator", "--alpha", "0", "--epsilon", "0.075",
      "--ic", "random:63:0.01"], 0.1),
    (["--model", "allen-cahn"], 0.01),
], ids=["brusselator", "allen-cahn"])
def test_evolve_steps_take_no_page_faults(argv, dt, degree):
    # once the first steps have sized the heap, a step (and the observers
    # after it) reuses the pages that the step before freed: steps 10 to 29
    # of a 30-step run may fault in at most 20 pages in all.  With glibc's
    # default thresholds they faulted in about 12700 (Brusselator) and 4600
    # (Allen-Cahn) at degree 127.
    src = os.path.dirname(os.path.dirname(M.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    spec = json.dumps([["evolve", "--degree", str(degree), *argv], dt, 30])
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, spec], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, "NLSPHERE_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr.decode()
    faults = json.loads(proc.stdout)
    assert len(faults) == 30
    assert faults[-1] - faults[-21] <= 20, np.diff(faults)


_MEMORY_PROBE = """
import json, sys, tempfile, tracemalloc
from nlsphere import cli, timestep

step = timestep.etdrk4_step
marks = []  # (traced memory, its peak since the mark before) as each step starts


def measured(*args, **kwargs):
    marks.append(tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()
    return step(*args, **kwargs)


timestep.etdrk4_step = measured
argv, dt, steps = json.loads(sys.argv[1])
tracemalloc.start()
with tempfile.TemporaryDirectory() as out:
    code = cli.main([*argv, "--dt", repr(dt), "--t-final", repr(steps * dt), "--output-dir", out])
assert code == 0, code
print(json.dumps(marks))
"""


@pytest.mark.parametrize("argv,dt,fields,bound", [
    (["--model", "brusselator", "--alpha", "0", "--epsilon", "0.075",
      "--ic", "random:63:0.01"], 0.1, 2, 9.5),
    (["--model", "allen-cahn"], 0.01, 1, 10.5),
], ids=["brusselator", "allen-cahn"])
def test_evolve_step_memory_is_bounded(argv, dt, fields, bound):
    # the tracemalloc peak of steps 10 to 29 of a 31-step degree-127 run,
    # each from its start to the next step's start (its observers included),
    # above the memory at its start: 9.01 states (Brusselator) and 10.02
    # (Allen-Cahn).  Unlike the page faults it does not move with heap
    # placement, and one more state-sized array held through a step adds
    # one state.  The memory at a step's start may not grow.
    n = 127
    state = fields * (n + 1) * (2 * n + 1) * 8
    src = os.path.dirname(os.path.dirname(M.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    spec = json.dumps([["evolve", "--degree", str(n), *argv], dt, 31])
    proc = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, spec], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, "NLSPHERE_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr.decode()
    marks = json.loads(proc.stdout)
    assert len(marks) == 31
    peaks = [after[1] - start[0] for start, after in zip(marks[10:30], marks[11:31])]
    assert max(peaks) <= bound * state, [peak / state for peak in peaks]
    growth = (marks[30][0] - marks[10][0]) / 20
    assert abs(growth) <= 0.01 * state, growth
