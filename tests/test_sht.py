"""Tests for the spherical harmonic transforms.

The independent oracle for synthesis is a naive double loop over modes
and grid points built on scipy.special.lpmv with explicit normalization
(scipy applies the Condon-Shortley phase, which this package's basis does
not use, hence the (-1)^m factor in the oracle).
"""

import math

import numpy as np
import pytest
import scipy.special

from nlsphere.specfun import assoc_legendre_table
from nlsphere.sht import (
    _TABLE_CACHE_MAX_DEGREE,
    SphHarmCoeffs,
    SphereGrid,
    _layout,
    analysis,
    mean,
    read_coeffs,
    relative_error_2norm,
    synthesis,
    write_coeffs,
    write_grid_values,
)


def random_coeffs(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n + 1, 2 * n + 1))
    data[~_layout(n)[1]] = 0.0
    return SphHarmCoeffs(n, data)


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
    c = SphHarmCoeffs(5)
    c.set(3, -2, 1.5)
    c.set(3, 2, -0.5)
    c.set(4, 0, 2.0)
    assert c.get(3, -2) == 1.5
    assert c.get(3, 2) == -0.5
    assert c.get(4, 0) == 2.0
    # layout positions per the storage convention
    assert c.data[3 - 2, 2 * 2 - 1] == 1.5
    assert c.data[3 - 2, 2 * 2] == -0.5
    assert c.data[4, 0] == 2.0


def test_slot_bounds_checked():
    c = SphHarmCoeffs(4)
    with pytest.raises(ValueError):
        c.get(5, 0)
    with pytest.raises(ValueError):
        c.get(3, 4)
    with pytest.raises(ValueError):
        c.set(2, -3, 1.0)


def test_structural_zeros_enforced_on_construction():
    n = 3
    data = np.zeros((4, 7))
    data[3, 5] = 1.0  # would be degree 3+... beyond the m=3 triangle
    ok = SphHarmCoeffs(n, np.zeros((4, 7)))
    assert ok.degree == 3
    data = np.zeros((4, 7))
    data[2, 5] = 1.0  # m=3 column admits only row 0 (ell=3)
    with pytest.raises(ValueError):
        SphHarmCoeffs(n, data)
    with pytest.raises(ValueError):
        SphHarmCoeffs(3, np.zeros((4, 6)))


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
    c = SphHarmCoeffs(n)
    c.set(0, 0, math.sqrt(4.0 * math.pi))
    vals = synthesis(c, SphereGrid(n))
    np.testing.assert_allclose(vals, 1.0, rtol=1e-14)


def test_synthesis_cos_theta_mode():
    n = 5
    c = SphHarmCoeffs(n)
    c.set(1, 0, 1.0)
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
                    total += c.get(ell, m) * naive_basis(ell, m, theta, phi)
            assert abs(vals[i, j] - total) <= 1e-12


def test_synthesis_degree_mismatch():
    with pytest.raises(ValueError):
        synthesis(SphHarmCoeffs(4), SphereGrid(5))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 16, 64])
def test_roundtrip_identity(n):
    c = random_coeffs(n, seed=n)
    grid = SphereGrid(n)
    back = analysis(synthesis(c, grid), grid)
    assert np.max(np.abs(back.data - c.data)) <= 1e-12


def test_analysis_constant_field():
    n = 8
    grid = SphereGrid(n)
    c = analysis(np.ones((n + 1, 2 * n + 1)), grid)
    assert c.get(0, 0) == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-14)
    rest = c.data.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-13


def test_analysis_cos_theta_field():
    n = 8
    grid = SphereGrid(n)
    vals = np.cos(grid.colat_nodes)[:, None] * np.ones((1, 2 * n + 1))
    c = analysis(vals, grid)
    assert c.get(1, 0) == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-14)
    rest = c.data.copy()
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
    assert np.all(back.data[~valid] == 0.0)


# ----------------------------------------------------------------------
# mean, Parseval, error norm
# ----------------------------------------------------------------------

def test_mean_examples():
    c = SphHarmCoeffs(5)
    c.set(0, 0, math.sqrt(4.0 * math.pi))
    assert mean(c) == pytest.approx(4.0 * math.pi, rel=1e-15)
    c = SphHarmCoeffs(5)
    c.set(5, 3, 2.0)
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


@pytest.mark.parametrize("n", [16, 64])
def test_parseval(n):
    c = random_coeffs(n, seed=n + 1)
    grid = SphereGrid(n)
    vals = synthesis(c, grid)
    quad = float(
        (grid.colat_weights @ (vals * vals)).sum() * (2.0 * np.pi / (2 * n + 1))
    )
    coeff_sum = float(np.sum(c.data * c.data))
    assert quad == pytest.approx(coeff_sum, rel=1e-11)


def test_relative_error_2norm_definition():
    a = random_coeffs(6, seed=1)
    b = random_coeffs(6, seed=2)
    expect = np.linalg.norm(a.data - b.data) / np.linalg.norm(b.data)
    assert relative_error_2norm(a, b) == pytest.approx(expect, rel=1e-15)
    assert relative_error_2norm(a, a) == 0.0
    with pytest.raises(ValueError):
        relative_error_2norm(a, SphHarmCoeffs(5))
    with pytest.raises(ValueError):
        relative_error_2norm(a, SphHarmCoeffs(6))  # zero reference


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
    assert back.degree == 9
    np.testing.assert_array_equal(back.data, c.data)
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
    c = SphHarmCoeffs(n)
    c.set(0, 0, math.sqrt(4.0 * math.pi))
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
    lines = [f"# sht-coeffs v1 degree={coeffs.degree}"]
    if comment:
        lines.append(f"# {comment}")
    for row in coeffs.data:
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


@pytest.mark.parametrize("n", [0, 3, 16])
def test_writers_match_per_value_formatting(tmp_path, n):
    grid = SphereGrid(n)
    c = random_coeffs(n, seed=n + 5)
    c.data[0, 0] = -0.0
    vals = synthesis(c, grid)
    for comment in (None, "a comment"):
        write_coeffs(c, tmp_path / "new_c.csv", comment=comment)
        _old_write_coeffs(c, tmp_path / "old_c.csv", comment=comment)
        assert (tmp_path / "new_c.csv").read_bytes() == (tmp_path / "old_c.csv").read_bytes()
        write_grid_values(vals, grid, tmp_path / "new_g.csv", comment=comment)
        _old_write_grid_values(vals, grid, tmp_path / "old_g.csv", comment=comment)
        assert (tmp_path / "new_g.csv").read_bytes() == (tmp_path / "old_g.csv").read_bytes()


# ----------------------------------------------------------------------
# Legendre stage: northern-node tables, parity fold, stacked fields
# ----------------------------------------------------------------------

def naive_synthesis(c, grid):
    """Every mode evaluated at every grid point through scipy."""
    n = c.degree
    theta = grid.colat_nodes[:, None]
    phi = grid.lon_nodes[None, :]
    out = np.zeros((n + 1, 2 * n + 1))
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            out += c.get(ell, m) * np.vectorize(naive_basis)(ell, m, theta, phi)
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
    assert np.max(np.abs(back.data - c.data)) <= 1e-12


@pytest.mark.parametrize("n", [5, 40])
def test_stacked_fields_match_single_fields(n):
    grid = SphereGrid(n)
    a, b = random_coeffs(n, seed=1), random_coeffs(n, seed=2)
    stacked = synthesis(np.stack([a.data, b.data]), grid)
    assert stacked.shape == (2, n + 1, 2 * n + 1)
    for field, single in zip(stacked, (a, b)):
        np.testing.assert_allclose(field, synthesis(single, grid), rtol=0, atol=1e-14)
    back = analysis(stacked, grid)
    assert isinstance(back, np.ndarray) and back.shape == (2, n + 1, 2 * n + 1)
    for field, values in zip(back, stacked):
        np.testing.assert_allclose(field, analysis(values, grid).data, rtol=0, atol=1e-14)


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
    assert first.shape == (9, n - 32 + 1, grid.north)  # orders 32..40
    assert not first.flags.writeable
    assert grid.legendre_table(1) is first  # cached below the limit
    sub = grid.legendre_table(0, degree=20)  # orders 0..20, degrees <= 20
    assert sub.shape == (21, 21, grid.north)
    for j, m in enumerate(range(32, n + 1)):
        rows = assoc_legendre_table(m, n, north)
        assert first[j, : n - m + 1].tobytes() == rows.tobytes()
    np.testing.assert_array_equal(
        sub[3, : 20 - 3 + 1], assoc_legendre_table(3, 20, north)
    )
    with pytest.raises(ValueError):
        grid.legendre_table(2)  # first order 64 > 40
    with pytest.raises(ValueError):
        grid.legendre_table(0, degree=n + 1)


def test_round_trip_above_cache_limit_keeps_no_tables():
    n = _TABLE_CACHE_MAX_DEGREE + 1
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n + 1, 2 * n + 1))
    data[~_layout(n)[1]] = 0.0
    grid = SphereGrid(n)
    back = analysis(synthesis(data, grid), grid)
    assert np.max(np.abs(back.data - data)) <= 1e-12
    assert grid._tables == {}
