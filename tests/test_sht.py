"""Tests for the spherical harmonic transforms.

The independent oracle for synthesis is a naive double loop over modes
and grid points built on scipy.special.lpmv with explicit normalization
(scipy applies the Condon-Shortley phase, which this package's basis does
not use, hence the (-1)^m factor in the oracle).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from nlsphere import models as M
from nlsphere.cli import main
from nlsphere.specfun import assoc_legendre_table
from nlsphere.spectrum import local_spectrum
from nlsphere.sht import (
    _TABLE_CACHE_MAX_DEGREE,
    SphereGrid,
    _is_prime,
    _layout,
    _per_degree,
    _synthesize,
    analysis,
    mean,
    read_coeffs,
    relative_error_2norm,
    slot,
    synthesis,
    write_coeffs,
    write_grid_values,
)


def random_coeffs(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n + 1, 2 * n + 1))
    data[~_layout(n)[1]] = 0.0
    return data


def naive_basis(ell, m, theta, phi):
    """Real orthonormal harmonic via scipy, independent of the package."""
    mm = abs(m)
    norm = math.sqrt(
        (2 * ell + 1)
        / 2.0
        * math.factorial(ell - mm)
        / math.factorial(ell + mm)
    )
    # strip scipy's Condon-Shortley phase
    plm = (-1.0) ** mm * scipy.special.lpmv(mm, ell, math.cos(theta)) * norm
    if m == 0:
        return plm / math.sqrt(2.0 * math.pi)
    if m < 0:
        return plm * math.sin(mm * phi) / math.sqrt(math.pi)
    return plm * math.cos(mm * phi) / math.sqrt(math.pi)


# ----------------------------------------------------------------------
# layout and element access
# ----------------------------------------------------------------------

def test_slot_addressing_roundtrip():
    c = np.zeros((6, 11))
    c[slot(5, 3, -2)] = 1.5
    c[slot(5, 3, 2)] = -0.5
    c[slot(5, 4, 0)] = 2.0
    assert c[slot(5, 3, -2)] == 1.5
    assert c[slot(5, 3, 2)] == -0.5
    assert c[slot(5, 4, 0)] == 2.0
    # layout positions per the storage convention
    assert c[3 - 2, 2 * 2 - 1] == 1.5
    assert c[3 - 2, 2 * 2] == -0.5
    assert c[4, 0] == 2.0
    # the slot of (ell, m) does not depend on the layout degree
    assert slot(9, 3, -2) == slot(5, 3, -2) == (1, 3)


def test_slot_bounds_checked():
    with pytest.raises(ValueError):
        slot(4, 5, 0)
    with pytest.raises(ValueError):
        slot(4, 3, 4)
    with pytest.raises(ValueError):
        slot(4, 2, -3)


def _dense_reference(values, prefactor=1.0):
    """Reference broadcast of per-degree values over the layout:
    ``prefactor * values[ell]`` in every slot of degree ell, 0 below the
    stored triangle."""
    deg, valid = _layout(values.size - 1)
    out = prefactor * values[deg]
    out[~valid] = 0.0
    return out


@pytest.mark.parametrize("n", [0, 1, 7, 63])
def test_per_degree_matches_the_dense_formula(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n + 1)
    got = _per_degree(values)
    assert got.shape == (n + 1, 2 * n + 1)
    np.testing.assert_array_equal(got, _dense_reference(values))
    # one slot per (ell, m), by the public map
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            assert got[slot(n, ell, m)] == values[ell]
    assert np.count_nonzero(got) == (n + 1) ** 2
    # a (k, n+1) stack broadcasts field by field; the input is not written
    stack = np.stack([values, 0.5 * values, -values])
    stack.setflags(write=False)
    got = _per_degree(stack)
    assert got.shape == (3, n + 1, 2 * n + 1)
    for field, prefactor in enumerate((1.0, 0.5, -1.0)):
        np.testing.assert_array_equal(got[field], _dense_reference(values, prefactor))


def test_structural_zeros_enforced_on_construction(tmp_path):
    # a file comes from outside the program, so reading one checks the
    # slots below the stored triangle and names the file and line
    path = tmp_path / "c.csv"
    write_coeffs(np.zeros((4, 7)), path, comment="a comment")
    assert read_coeffs(path).shape == (4, 7)
    data = np.zeros((4, 7))
    data[2, 5] = 1.0  # m=3 column admits only row 0 (ell=3)
    write_coeffs(data, path, comment="a comment")
    # the header and the comment take lines 1 and 2, so row 2 is line 5
    with pytest.raises(ValueError) as info:
        read_coeffs(path)
    assert str(info.value) == f"{path}, line 5: column 6 is a structural zero of the layout, got 1"


SHAPE_CHECKED = {
    "write_coeffs": lambda c: write_coeffs(c, "unused.csv"),
    "embed": lambda c: M.embed(c, 5),
    "cesaro_apply": lambda c: M.cesaro_apply(c, 2),
    "mean": mean,
    "ginzburg_landau_energy": lambda c: M.ginzburg_landau_energy(c, local_spectrum(3), 0.1),
    "solve_poisson": lambda c: M.solve_poisson(c, local_spectrum(3)),
}


@pytest.mark.parametrize("name", SHAPE_CHECKED)
def test_one_field_functions_check_the_coefficient_shape(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    SHAPE_CHECKED[name](np.zeros((4, 7)))
    with pytest.raises(ValueError, match=r"shape \(4, 6\) is not \(n\+1, 2n\+1\)"):
        SHAPE_CHECKED[name](np.zeros((4, 6)))


def test_grid_geometry():
    g = SphereGrid(8)
    assert g.colat_nodes.shape == (9,)
    assert g.lon_nodes.shape == (17,)
    assert np.all(np.diff(g.colat_nodes) > 0)
    assert g.lon_nodes[0] == 0.0
    assert g.colat_weights.sum() == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        SphereGrid(-1)


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

def test_synthesis_constant_field():
    n = 6
    c = np.zeros((n + 1, 2 * n + 1))
    c[slot(n, 0, 0)] = math.sqrt(4.0 * math.pi)
    vals = synthesis(c, SphereGrid(n))
    np.testing.assert_allclose(vals, 1.0, rtol=1e-14)


def test_synthesis_cos_theta_mode():
    n = 5
    c = np.zeros((n + 1, 2 * n + 1))
    c[slot(n, 1, 0)] = 1.0
    grid = SphereGrid(n)
    vals = synthesis(c, grid)
    expected = math.sqrt(3.0 / (4.0 * math.pi)) * np.cos(grid.colat_nodes)
    np.testing.assert_allclose(vals, expected[:, None] * np.ones((1, 2 * n + 1)),
                               rtol=0, atol=1e-15)


def test_synthesis_matches_naive_evaluator():
    n = 16
    c = random_coeffs(n, seed=7)
    grid = SphereGrid(n)
    vals = synthesis(c, grid)
    # independent double loop over every mode and a subsample of grid points
    deg, valid = _layout(n)
    i_sample = [0, 3, 9, 16]
    j_sample = [0, 1, 8, 21, 32]
    for i in i_sample:
        for j in j_sample:
            theta, phi = grid.colat_nodes[i], grid.lon_nodes[j]
            total = 0.0
            for ell in range(n + 1):
                for m in range(-ell, ell + 1):
                    total += c[slot(n, ell, m)] * naive_basis(ell, m, theta, phi)
            assert abs(vals[i, j] - total) <= 1e-12


def test_synthesis_degree_mismatch():
    with pytest.raises(ValueError):
        synthesis(np.zeros((5, 9)), SphereGrid(5))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

# 2n+1 = 127 (n = 63) is prime, so that size takes the dense longitude
# product and the others the FFT
@pytest.mark.parametrize("n", [4, 16, 64, 62, 63, 127, 255])
def test_roundtrip_identity(n):
    c = random_coeffs(n, seed=n)
    grid = SphereGrid(n)
    back = analysis(synthesis(c, grid), grid)
    assert np.max(np.abs(back - c)) <= 1e-12


def test_analysis_constant_field():
    n = 8
    grid = SphereGrid(n)
    c = analysis(np.ones((n + 1, 2 * n + 1)), grid)
    assert c[slot(n, 0, 0)] == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-14)
    rest = c.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-13


def test_analysis_cos_theta_field():
    n = 8
    grid = SphereGrid(n)
    vals = np.cos(grid.colat_nodes)[:, None] * np.ones((1, 2 * n + 1))
    c = analysis(vals, grid)
    assert c[slot(n, 1, 0)] == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-14)
    rest = c.copy()
    rest[1, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-14


def test_analysis_shape_mismatch():
    with pytest.raises(ValueError):
        analysis(np.ones((4, 9)), SphereGrid(5))


def test_structural_zeros_preserved_by_transforms():
    n = 12
    c = random_coeffs(n, seed=3)
    grid = SphereGrid(n)
    back = analysis(synthesis(c, grid), grid)
    _, valid = _layout(n)
    assert np.all(back[~valid] == 0.0)


# ----------------------------------------------------------------------
# mean, Parseval, error norm
# ----------------------------------------------------------------------

def test_mean_examples():
    c = np.zeros((6, 11))
    c[slot(5, 0, 0)] = math.sqrt(4.0 * math.pi)
    assert mean(c) == pytest.approx(4.0 * math.pi, rel=1e-15)
    c = np.zeros((6, 11))
    c[slot(5, 5, 3)] = 2.0
    assert mean(c) == 0.0


def test_mean_matches_grid_quadrature():
    n = 20
    c = random_coeffs(n, seed=11)
    grid = SphereGrid(n)
    vals = synthesis(c, grid)
    quad = float(
        (grid.colat_weights @ vals).sum() * (2.0 * np.pi / (2 * n + 1))
    )
    assert mean(c) == pytest.approx(quad, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("n", [16, 64, 62, 63, 127, 255])
def test_parseval(n):
    c = random_coeffs(n, seed=n + 1)
    grid = SphereGrid(n)
    vals = synthesis(c, grid)
    quad = float(
        (grid.colat_weights @ (vals * vals)).sum() * (2.0 * np.pi / (2 * n + 1))
    )
    coeff_sum = float(np.sum(c * c))
    assert quad == pytest.approx(coeff_sum, rel=1e-11)


def test_relative_error_2norm_definition():
    a = random_coeffs(6, seed=1)
    b = random_coeffs(6, seed=2)
    expect = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert relative_error_2norm(a, b) == pytest.approx(expect, rel=1e-15)
    assert relative_error_2norm(a, a) == 0.0
    with pytest.raises(ValueError):
        relative_error_2norm(a, np.zeros((6, 11)))
    with pytest.raises(ValueError):
        relative_error_2norm(a, np.zeros((7, 13)))  # zero reference


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------

def test_coeff_file_roundtrip(tmp_path):
    c = random_coeffs(9, seed=4)
    path = tmp_path / "c.csv"
    write_coeffs(c, path, comment="test field")
    text = path.read_text()
    assert text.splitlines()[0] == "# sht-coeffs v1 degree=9"
    back = read_coeffs(path)
    assert back.shape == (10, 19)
    np.testing.assert_array_equal(back, c)
    # deterministic bytes
    path2 = tmp_path / "c2.csv"
    write_coeffs(c, path2, comment="test field")
    assert path.read_bytes() == path2.read_bytes()


def test_read_coeffs_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("ell,lambda\n0,0\n")
    with pytest.raises(ValueError):
        read_coeffs(path)


def test_grid_values_file(tmp_path):
    n = 3
    grid = SphereGrid(n)
    c = np.zeros((n + 1, 2 * n + 1))
    c[slot(n, 0, 0)] = math.sqrt(4.0 * math.pi)
    vals = synthesis(c, grid)
    path = tmp_path / "g.csv"
    write_grid_values(vals, grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sht-grid v1 degree=3"
    assert lines[1] == "theta,phi,value"
    assert len(lines) == 2 + (n + 1) * (2 * n + 1)
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(grid.colat_nodes[0])
    assert float(first[2]) == pytest.approx(1.0, rel=1e-12)


def _old_write_coeffs(coeffs, path, comment=None):
    # per-value formatting of the first file-format version
    lines = [f"# sht-coeffs v1 degree={len(coeffs) - 1}"]
    if comment:
        lines.append(f"# {comment}")
    for row in coeffs:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _old_write_grid_values(values, grid, path, comment=None):
    # per-point formatting of the first file-format version
    n = grid.degree
    lines = [f"# sht-grid v1 degree={n}"]
    if comment:
        lines.append(f"# {comment}")
    lines.append("theta,phi,value")
    for i, theta in enumerate(grid.colat_nodes):
        for j, phi in enumerate(grid.lon_nodes):
            lines.append(f"{theta:.17g},{phi:.17g},{values[i, j]:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _old_write_spectrum(values, path, comment=None):
    # per-value formatting of the first spectrum file
    lines = [f"# {comment}"] if comment else []
    lines.append("ell,lambda")
    lines += [f"{ell},{value:.17g}" for ell, value in enumerate(values)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _old_write_energy(times, energies, path):
    # per-value formatting of the first energy file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t,energy\n")
        for t, e in zip(times, energies):
            fh.write(f"{t:.17g},{e:.17g}\n")


#: values whose text is not a plain 17-digit mantissa
SPECIAL_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]


@pytest.mark.parametrize("n", [0, 3, 16, 127])
def test_writers_match_per_value_formatting(tmp_path, n):
    grid = SphereGrid(n)
    c = random_coeffs(n, seed=n + 5)
    vals = synthesis(c, grid)
    # special values in valid slots of the layout and at grid points
    slots = np.flatnonzero(_layout(n)[1])[: len(SPECIAL_VALUES)]
    c.flat[slots] = SPECIAL_VALUES[: len(slots)]
    vals.flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: vals.size]
    for comment in (None, "a comment"):
        write_coeffs(c, tmp_path / "new_c.csv", comment=comment)
        _old_write_coeffs(c, tmp_path / "old_c.csv", comment=comment)
        assert (tmp_path / "new_c.csv").read_bytes() == (tmp_path / "old_c.csv").read_bytes()
        write_grid_values(vals, grid, tmp_path / "new_g.csv", comment=comment)
        _old_write_grid_values(vals, grid, tmp_path / "old_g.csv", comment=comment)
        assert (tmp_path / "new_g.csv").read_bytes() == (tmp_path / "old_g.csv").read_bytes()


def _reemit(path, out):
    """Rewrite a CLI output file from its parsed numbers with the per-value
    writers; returns the kind of file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comment = lines[1][2:] if lines[1].startswith("# ") else None
    body = [line for line in lines
            if not line.startswith("#") and line not in ("theta,phi,value", "ell,lambda")]
    rows = np.array([[float(tok) for tok in line.split(",")] for line in body])
    if lines[0].startswith("# sht-coeffs"):
        _old_write_coeffs(read_coeffs(path), out, comment=comment)
        return "coeffs"
    if lines[0].startswith("# sht-grid"):
        n = int(lines[0].split("=")[1])
        _old_write_grid_values(rows[:, 2].reshape(n + 1, 2 * n + 1), SphereGrid(n), out,
                               comment=comment)
        return "grid"
    if path.name == "spectrum.csv":
        _old_write_spectrum(rows[:, 1], out, comment=lines[0][2:])
        return "spectrum"
    assert path.name == "energy.csv"
    _old_write_energy(rows[:, 0], rows[:, 1], out)
    return "energy"


def test_cli_outputs_match_per_value_formatting(tmp_path):
    runs = [
        ["spectrum", "--alpha", "-0.5", "--delta", "2", "--degree", "20"],
        ["poisson", "--alpha", "0", "--delta", "1.5", "--degree", "16", "--rhs", "death-star"],
        ["evolve", "--model", "allen-cahn", "--alpha", "-0.5", "--delta", "1",
         "--epsilon", "0.1", "--degree", "15", "--dt", "0.01", "--t-final", "0.04",
         "--ic", "random:7:0.1", "--cesaro-kappa", "2", "--snapshot-stride", "2"],
        ["evolve", "--model", "brusselator", "--alpha", "0", "--delta", "1",
         "--epsilon", "0.075", "--E", "4", "--tau", "7.8125", "--f", "0.8",
         "--degree", "11", "--dt", "0.1", "--t-final", "0.3", "--ic", "random:5:0.01",
         "--snapshot-stride", "1"],
    ]
    kinds = set()
    for i, args in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main(args + ["--output-dir", str(out)]) == 0
        for path in sorted(out.iterdir()):
            kinds.add(_reemit(path, tmp_path / "old.csv"))
            assert path.read_bytes() == (tmp_path / "old.csv").read_bytes(), path.name
    assert kinds == {"coeffs", "grid", "spectrum", "energy"}


def test_read_coeffs_matches_per_token_float(tmp_path):
    n = 3
    c = random_coeffs(n, seed=3)
    rows = [[f"{v:.17g}" for v in row] for row in c.tolist()]
    # every special value, and other spellings float() reads, in valid slots
    tokens = [f"{v:.17g}" for v in SPECIAL_VALUES] + ["-nan", "Infinity", "+1", "1e400", "1E-400"]
    slots = np.flatnonzero(_layout(n)[1])
    for slot, tok in zip(slots, tokens):
        rows[slot // (2 * n + 1)][slot % (2 * n + 1)] = tok
    assert len(slots) >= len(tokens)
    path = tmp_path / "c.csv"
    path.write_text(f"# sht-coeffs v1 degree={n}\n# a comment\n"
                    + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    expected = np.array([[float(tok) for tok in row] for row in rows])
    back = read_coeffs(path)
    np.testing.assert_array_equal(back.view(np.uint64), expected.view(np.uint64))


#: each malformed body and where its error points: the 1-based file line
MALFORMED_BODIES = {
    "": "line 1: the file ends after 0 rows",                          # header only
    "1,0,0,0,0\n2,0,0,0\n3,0,0,0,0\n": "line 3: 4 values, expected 5",    # ragged row
    "1,0,0,0,0\n2,x,0,0,0\n3,0,0,0,0\n": "line 3: column 2, 'x'",         # non-numeric token
    "1,0,0\n2,0,0\n": "line 2: 3 values, expected 5",                   # a degree-1 body
    # float() reads 1_000, the format does not
    "1_000,0,0,0,0\n2,0,0,0,0\n3,0,0,0,0\n": "line 2: column 1, '1_000'",
    "# a comment\n1,0,0,0,0\n2,0,0,0,0\n3,0,0,0,0\n4,0,0,0,0\n": "line 6: more than the 3 rows",
    "1,0,0,0,0\n2,0,0,0,0\n": "line 3: the file ends after 2 rows",    # a row short
    # loadtxt skips only lines empty before their comment
    "1,0,0,0,0\n   \n2,0,0,0,0\n3,0,0,0,0\n": "line 3: column 1 is empty",
    "1,0,0,0,0\n2,0,,0,0\n3,0,0,0,0\n": "line 3: column 3 is empty",
    # row 2 holds m = 2 only at degree 4, beyond the layout
    "1,0,0,0,0\n2,0,0,0,0\n3,0,0,0,5\n": "line 4: column 5 is a structural zero",
}


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_coeff_files_raise(tmp_path, capsys, body):
    path = tmp_path / "rhs.csv"
    path.write_text("# sht-coeffs v1 degree=2\n" + body, encoding="utf-8")
    # the message names the file and the 1-based line of the file
    where = f"{path}, {MALFORMED_BODIES[body]}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        with pytest.raises(ValueError) as info:
            read_coeffs(path)
        assert str(info.value).startswith(where), str(info.value)
        assert main(["poisson", "--local", "--degree", "2", "--rhs", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert where in capsys.readouterr().err


def test_grid_writer_streams(tmp_path):
    n = 255
    grid = SphereGrid(n)
    vals = np.random.default_rng(0).standard_normal((n + 1, 2 * n + 1))
    tracemalloc.start()
    try:
        write_grid_values(vals, grid, tmp_path / "g.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole file as text is about 15 MB at this degree
    assert peak <= 8 * 2**20


# ----------------------------------------------------------------------
# Legendre stage: northern-node tables, parity fold, stacked fields
# ----------------------------------------------------------------------

def naive_synthesis(c, grid):
    """Every mode evaluated at every grid point through scipy."""
    n = len(c) - 1
    theta = grid.colat_nodes[:, None]
    phi = grid.lon_nodes[None, :]
    out = np.zeros((n + 1, 2 * n + 1))
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            out += c[slot(n, ell, m)] * np.vectorize(naive_basis)(ell, m, theta, phi)
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17])
def test_parity_fold_matches_naive_evaluator_and_round_trips(n):
    # even n puts a node on the equator; odd n pairs every node
    c = random_coeffs(n, seed=100 + n)
    grid = SphereGrid(n)
    assert grid.north == (n + 2) // 2
    if n % 2 == 0:
        assert grid.colat_cos[n // 2] == 0.0
    vals = synthesis(c, grid)
    assert np.max(np.abs(vals - naive_synthesis(c, grid))) <= 1e-12
    back = analysis(vals, grid)
    assert np.max(np.abs(back - c)) <= 1e-12


@pytest.mark.parametrize("n", [5, 40])
def test_stacked_fields_match_single_fields(n):
    grid = SphereGrid(n)
    a, b = random_coeffs(n, seed=1), random_coeffs(n, seed=2)
    stacked = synthesis(np.stack([a, b]), grid)
    assert stacked.shape == (2, n + 1, 2 * n + 1)
    for field, single in zip(stacked, (a, b)):
        np.testing.assert_allclose(field, synthesis(single, grid), rtol=0, atol=1e-14)
    back = analysis(stacked, grid)
    assert isinstance(back, np.ndarray) and back.shape == (2, n + 1, 2 * n + 1)
    for field, values in zip(back, stacked):
        np.testing.assert_allclose(field, analysis(values, grid), rtol=0, atol=1e-14)


def test_stack_shape_checked():
    grid = SphereGrid(4)
    with pytest.raises(ValueError):
        synthesis(np.zeros((2, 4, 9)), grid)
    with pytest.raises(ValueError):
        analysis(np.zeros((2, 2, 5, 9)), grid)


def test_legendre_table_blocks():
    n = 40
    grid = SphereGrid(n)
    north = grid.colat_cos[: grid.north]
    first = grid.legendre_table(1)
    even, odd = first
    # orders 32..40: rows ell - m = 0..8 split into 0, 2, .., 8 and 1, 3, .., 7
    assert even.shape == (9, 5, grid.north) and odd.shape == (9, 4, grid.north)
    assert even.flags.c_contiguous and odd.flags.c_contiguous
    assert not even.flags.writeable and not odd.flags.writeable
    assert grid.legendre_table(1) is first  # cached below the limit
    sub_even, sub_odd = grid.legendre_table(0, degree=20)  # orders 0..20, degrees <= 20
    assert sub_even.shape == (21, 11, grid.north) and sub_odd.shape == (21, 10, grid.north)
    for j, m in enumerate(range(32, n + 1)):
        rows = assoc_legendre_table(m, n, north)
        assert even[j, : (n - m) // 2 + 1].tobytes() == rows[0::2].tobytes()
        assert odd[j, : (n - m + 1) // 2].tobytes() == rows[1::2].tobytes()
        assert not even[j, (n - m) // 2 + 1 :].any() and not odd[j, (n - m + 1) // 2 :].any()
    rows = assoc_legendre_table(3, 20, north)
    np.testing.assert_array_equal(sub_even[3, :9], rows[0::2])
    np.testing.assert_array_equal(sub_odd[3, :9], rows[1::2])
    with pytest.raises(ValueError):
        grid.legendre_table(2)  # first order 64 > 40
    with pytest.raises(ValueError):
        grid.legendre_table(0, degree=n + 1)


def test_legendre_tables_are_rebuilt_above_the_cache_limit():
    grid = SphereGrid(_TABLE_CACHE_MAX_DEGREE + 1)
    first = grid.legendre_table(9)
    again = grid.legendre_table(9)
    assert again is not first and grid._tables == {}
    for built, rebuilt in zip(first, again):
        assert built.tobytes() == rebuilt.tobytes()


def test_round_trip_above_cache_limit_keeps_no_tables():
    n = _TABLE_CACHE_MAX_DEGREE + 1
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n + 1, 2 * n + 1))
    data[~_layout(n)[1]] = 0.0
    grid = SphereGrid(n)
    back = analysis(synthesis(data, grid), grid)
    assert np.max(np.abs(back - data)) <= 1e-12
    assert grid._tables == {}


@pytest.mark.parametrize("degree,field_degree", [(301, 200), (302, 151), (383, 191)])
def test_streamed_rows_match_the_cached_tables(monkeypatch, degree, field_degree):
    # above the cache limit the transforms stream the row recurrence of all
    # orders and look up no table; the reference is the cached-table path
    streamed = SphereGrid(degree)

    def no_lookup(*args, **kwargs):
        raise AssertionError("table lookup above the cache limit")

    monkeypatch.setattr(SphereGrid, "legendre_table", no_lookup)
    runs = {}
    for k in (1, 2, 3):
        full = random_stack(k, degree, seed=degree + k)
        part = random_stack(k, field_degree, seed=field_degree + k)
        values = synthesis(full, streamed)
        runs[k] = (full, part, values, _synthesize(part, streamed), analysis(values, streamed))
        # 1.2e-12 absolute at degree 383, k = 2, as on the cached path
        assert np.max(np.abs(runs[k][4] - full)) <= 1e-12 * np.max(np.abs(full))
    assert streamed._tables == {}
    monkeypatch.undo()
    monkeypatch.setattr("nlsphere.sht._TABLE_CACHE_MAX_DEGREE", degree)
    cached = SphereGrid(degree)
    tol = 2e-15 * degree
    for full, part, values, part_values, coeffs in runs.values():
        for got, want in ((values, synthesis(full, cached)),
                          (part_values, _synthesize(part, cached)),
                          (coeffs, analysis(values, cached))):
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    assert cached._tables


@pytest.mark.parametrize("transform", ["synthesis", "analysis"])
def test_streamed_transform_memory(transform):
    # 16 rows of the table of all orders at a time; 32-order blocks rebuilt
    # per lookup peaked at 40 and 42 MiB, and a cached table set is 123 MB
    n = 383
    assert n > _TABLE_CACHE_MAX_DEGREE
    grid = SphereGrid(n)
    data = random_stack(1, n, seed=n)[0]
    values = synthesis(data, grid)
    tracemalloc.start()
    try:
        if transform == "synthesis":
            synthesis(data, grid)
        else:
            analysis(values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


# ----------------------------------------------------------------------
# longitude stage: FFT unless the longitude count is prime
# ----------------------------------------------------------------------

#: 2n+1 = 125 = 5^3, 127 (prime), 129 = 3 * 43, 255 = 3 * 5 * 17, 511 = 7 * 73
FFT_SIDES = [62, 63, 64, 127, 255]


def dense_synthesis(data, grid):
    """The dense-product transform of the first version of the northern
    tables: one matmul with the (2n+1)-point trigonometric basis, tables
    from assoc_legendre_table.  (k, n+1, 2n+1) coefficients of degree n <=
    grid degree to (k, n+1, 2n+1) grid values; the reference here."""
    k, rows, _ = data.shape
    n, nodes, north = rows - 1, grid.degree + 1, grid.north
    mphi = np.arange(n + 1)[None, :] * grid.lon_nodes[:, None]
    trig = np.stack([np.sin(mphi), np.cos(mphi)], axis=-1) / math.sqrt(math.pi)
    trig[:, 0] = (0.0, 1.0 / math.sqrt(2.0 * math.pi))
    trig = trig.reshape(grid.lon_nodes.size, 2 * n + 2)
    coeffs = np.zeros((k, n + 1, n + 1, 2))
    coeffs.reshape(k, n + 1, 2 * n + 2)[:, :, 1:] = data
    profiles = np.empty((k, n + 1, 2, nodes))
    by_order = coeffs.transpose(2, 0, 3, 1)
    north_part = profiles[..., :north].transpose(1, 0, 2, 3)
    south_part = profiles[..., ::-1][..., :north].transpose(1, 0, 2, 3)
    for first in range(0, n + 1, 32):
        orders = np.arange(first, min(first + 32, n + 1))
        table = assoc_legendre_table(orders, n, grid.colat_cos[:north])[:, None]
        m = slice(first, first + orders.size)
        c = by_order[m, :, :, : table.shape[2]]
        even = c[..., 0::2] @ table[:, :, 0::2]
        odd = c[..., 1::2] @ table[:, :, 1::2]
        np.subtract(even, odd, out=south_part[m])
        np.add(even, odd, out=north_part[m])
    return profiles.reshape(k, 2 * n + 2, nodes).transpose(0, 2, 1) @ trig.T


def dense_analysis(values, grid):
    """The dense-product analysis matching :func:`dense_synthesis`."""
    k = values.shape[0]
    n, north = grid.degree, grid.north
    paired = n + 1 - north
    mphi = np.arange(n + 1)[None, :] * grid.lon_nodes[:, None]
    trig = np.stack([np.sin(mphi), np.cos(mphi)], axis=-1) / math.sqrt(math.pi)
    trig[:, 0] = (0.0, 1.0 / math.sqrt(2.0 * math.pi))
    lon = values.reshape(k * (n + 1), -1) @ trig.reshape(-1, 2 * n + 2)
    lon = lon.reshape(k, n + 1, n + 1, 2)
    lon *= ((2.0 * np.pi / grid.lon_nodes.size) * grid.colat_weights)[:, None, None]
    south = lon[:, ::-1][:, :paired]
    sums, diffs = lon[:, :north].copy(), lon[:, :north].copy()
    sums[:, :paired] += south
    diffs[:, :paired] -= south
    coeffs = np.zeros((k, n + 1, n + 1, 2))
    by_order = coeffs.transpose(2, 0, 1, 3)
    sums, diffs = sums.transpose(2, 0, 1, 3), diffs.transpose(2, 0, 1, 3)
    for first in range(0, n + 1, 32):
        orders = np.arange(first, min(first + 32, n + 1))
        table = assoc_legendre_table(orders, n, grid.colat_cos[:north])[:, None]
        m, length = slice(first, first + orders.size), table.shape[2]
        by_order[m, :, 0:length:2] = table[:, :, 0::2] @ sums[m]
        by_order[m, :, 1:length:2] = table[:, :, 1::2] @ diffs[m]
    return coeffs.reshape(k, n + 1, 2 * n + 2)[:, :, 1:]


def random_stack(k, n, seed):
    data = np.random.default_rng(seed).standard_normal((k, n + 1, 2 * n + 1))
    data[:, ~_layout(n)[1]] = 0.0
    return data


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", FFT_SIDES)
def test_transforms_match_the_dense_product(n, k):
    grid = SphereGrid(n)
    data = random_stack(k, n, seed=10 * n + k)
    values = synthesis(data, grid)
    want = dense_synthesis(data, grid)
    # the reference's own error grows like n * eps: its basis evaluates
    # sin(m phi) at angles up to 2 pi n (3.9e-16 n measured, FFT or not)
    tol = 2e-15 * n
    assert np.max(np.abs(values - want)) <= tol * np.max(np.abs(want))
    back = analysis(values, grid)
    assert np.max(np.abs(back - dense_analysis(values, grid))) <= tol * np.max(np.abs(data))
    assert np.max(np.abs(back - data)) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", FFT_SIDES)
def test_stacked_transforms_match_one_field_transforms(n, k):
    grid = SphereGrid(n)
    data = random_stack(k, n, seed=20 * n + k)
    values = synthesis(data, grid)
    coeffs = analysis(values, grid)
    # roundoff: the GEMMs and DFT products have other shapes for k fields
    for field in range(k):
        single = synthesis(data[field], grid)
        assert np.max(np.abs(values[field] - single)) <= 1e-14 * np.max(np.abs(values))
        assert np.max(np.abs(coeffs[field] - analysis(single, grid))) <= 1e-14 * np.max(
            np.abs(data))


def test_prime_rule_follows_the_longitude_count():
    assert [L for L in range(1, 40) if _is_prime(L)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert _is_prime(127) and _is_prime(509) and not _is_prime(255) and not _is_prime(512)
    # a grid decides once, from its longitude count alone
    assert SphereGrid(63)._dense_longitudes and not SphereGrid(64)._dense_longitudes
    assert not SphereGrid(63, longitudes=128)._dense_longitudes


@pytest.mark.parametrize("n", [62, 63, 64])
def test_only_composite_longitude_counts_use_the_fft(monkeypatch, n):
    def no_fft(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    monkeypatch.setattr(np.fft, "irfft", no_fft)
    grid = SphereGrid(n)
    c = random_coeffs(n, seed=n)
    if grid._dense_longitudes:
        assert np.max(np.abs(analysis(synthesis(c, grid), grid) - c)) <= 1e-13
    else:
        with pytest.raises(AssertionError, match="numpy.fft"):
            synthesis(c, grid)
        with pytest.raises(AssertionError, match="numpy.fft"):
            analysis(np.zeros((n + 1, 2 * n + 1)), grid)


@pytest.mark.parametrize("longitudes", [18, 19, 20, 24, 25])
def test_grids_with_more_longitudes_stay_exact(longitudes):
    # 17 is the default for n = 8; 19 is prime and takes the dense product
    n = 8
    grid = SphereGrid(n, longitudes=longitudes)
    assert grid.lon_nodes.size == longitudes
    c = random_coeffs(n, seed=longitudes)
    values = synthesis(c, grid)
    assert values.shape == (n + 1, longitudes)
    assert np.max(np.abs(values - dense_synthesis(c[None], grid)[0])) <= 1e-13
    assert np.max(np.abs(analysis(values, grid) - c)) <= 1e-13
    with pytest.raises(ValueError):
        write_grid_values(values, grid, "unused.csv")


def test_grid_longitude_count_checked():
    with pytest.raises(ValueError):
        SphereGrid(8, longitudes=16)
    with pytest.raises(ValueError):
        SphereGrid(8, longitudes=17.0)
    with pytest.raises(ValueError):
        analysis(np.zeros((9, 17)), SphereGrid(8, longitudes=18))
