"""Spherical harmonic analysis and synthesis on a tensor-product grid.

Real fields on the unit sphere are represented by coefficients of the
real-valued orthonormal basis

    m = 0:   Ptilde_ell^0(cos theta) / sqrt(2 pi)
    m > 0:   Ptilde_ell^m(cos theta) sin(m phi) / sqrt(pi)   and
             Ptilde_ell^m(cos theta) cos(m phi) / sqrt(pi),

with Ptilde the fully normalized associated Legendre functions.  The
coefficients of a degree-n expansion live in an (n+1) x (2n+1) matrix:
column 0 holds the m = 0 coefficients indexed by ell; for m = 1..n,
column 2m-1 holds the sin(m phi) coefficients and column 2m the
cos(m phi) coefficients of degrees ell = m..n, stored from row 0.  Slots
below the stored triangle are structurally zero.

The grid couples n+1 Gauss--Legendre colatitudes with 2n+1 equispaced
longitudes.  Gauss--Legendre exactness in colatitude (degree 2n+1) and
trapezoid exactness in longitude (frequencies up to 2n) make analysis the
exact inverse of synthesis for band-limited data, which the tests verify
to near machine precision.  Transforms are direct O(n^3) matrix products.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .quadrature import gauss_legendre
from .specfun import assoc_legendre_table

__all__ = [
    "GridValues",
    "SphHarmCoeffs",
    "SphereGrid",
    "analysis",
    "mean",
    "read_coeffs",
    "relative_error_2norm",
    "synthesis",
    "write_coeffs",
    "write_grid_values",
]

#: Grid values are a plain (n+1) x (2n+1) float array: value at
#: (colat_nodes[i], lon_nodes[j]).
GridValues = np.ndarray

#: Legendre tables are cached on the grid object below this degree
#: (memory for all orders together grows like degree^3 / 2 doubles).
_TABLE_CACHE_MAX_DEGREE = 300


@lru_cache(maxsize=64)
def _layout(degree):
    """Per-slot harmonic degree and validity mask of the coefficient matrix."""
    n = degree
    row = np.arange(n + 1)[:, None]
    col = np.arange(2 * n + 1)[None, :]
    # column 0 holds m = 0; columns 2m-1 and 2m hold order m from row 0
    deg = row + (col + 1) // 2
    valid = deg <= n
    deg[~valid] = 0
    deg.setflags(write=False)
    valid.setflags(write=False)
    return deg, valid


def _slot(degree, ell, m):
    """(row, column) of coefficient (ell, m); raises if out of range."""
    if not 0 <= abs(m) <= ell <= degree:
        raise ValueError(
            f"coefficient (ell={ell}, m={m}) outside degree-{degree} layout"
        )
    if m == 0:
        return ell, 0
    col = 2 * abs(m) - 1 if m < 0 else 2 * abs(m)
    return ell - abs(m), col


class SphHarmCoeffs:
    """Coefficients of a real spherical harmonic expansion of one field."""

    __slots__ = ("degree", "data")

    def __init__(self, degree, data=None):
        if not isinstance(degree, (int, np.integer)) or degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
        degree = int(degree)
        shape = (degree + 1, 2 * degree + 1)
        if data is None:
            data = np.zeros(shape)
        else:
            data = np.array(data, dtype=float)
            if data.shape != shape:
                raise ValueError(
                    f"data shape {data.shape} does not match degree {degree} "
                    f"layout {shape}"
                )
            _, valid = _layout(degree)
            if np.any(data[~valid] != 0.0):
                raise ValueError("structural zeros of the layout are violated")
        self.degree = degree
        self.data = data

    @classmethod
    def zeros(cls, degree):
        return cls(degree)

    def copy(self):
        out = SphHarmCoeffs.__new__(SphHarmCoeffs)
        out.degree = self.degree
        out.data = self.data.copy()
        return out

    def get(self, ell, m):
        i, j = _slot(self.degree, ell, m)
        return float(self.data[i, j])

    def set(self, ell, m, value):
        i, j = _slot(self.degree, ell, m)
        self.data[i, j] = value

    def norm2(self):
        """Coefficient 2-norm; equals the field's L2 norm by Parseval."""
        return float(np.sqrt(np.sum(self.data * self.data)))

    def __repr__(self):
        return f"SphHarmCoeffs(degree={self.degree})"


class SphereGrid:
    """Quadrature grid: Gauss--Legendre colatitudes x equispaced longitudes.

    Associated Legendre tables and the longitude basis matrix are built
    lazily and cached per grid instance, so repeated transforms at the
    same degree do not rebuild them.
    """

    def __init__(self, degree):
        if not isinstance(degree, (int, np.integer)) or degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
        n = int(degree)
        rule = gauss_legendre(n + 1)
        self.degree = n
        # GL nodes descend from +1, so colatitudes ascend from the north pole
        self.colat_cos = rule.nodes
        self.colat_weights = rule.weights
        self.colat_nodes = np.arccos(np.clip(rule.nodes, -1.0, 1.0))
        self.lon_nodes = 2.0 * np.pi * np.arange(2 * n + 1) / (2 * n + 1)
        for arr in (self.colat_nodes, self.lon_nodes):
            arr.setflags(write=False)
        self._plm = {}
        self._trig = None

    def legendre_table(self, m):
        """Rows Ptilde_{m..n}^m at the grid colatitudes, shape (n-m+1, n+1)."""
        table = self._plm.get(m)
        if table is None:
            table = assoc_legendre_table(m, self.degree, self.colat_cos)
            table.setflags(write=False)
            if self.degree <= _TABLE_CACHE_MAX_DEGREE:
                self._plm[m] = table
        return table

    def _trig_matrix(self):
        """Longitude basis, shape (2n+1 angles, 2n+1 coefficient columns)."""
        if self._trig is None:
            n = self.degree
            phi = self.lon_nodes
            t = np.empty((2 * n + 1, 2 * n + 1))
            t[:, 0] = 1.0 / math.sqrt(2.0 * np.pi)
            inv_sqrt_pi = 1.0 / math.sqrt(np.pi)
            for m in range(1, n + 1):
                t[:, 2 * m - 1] = np.sin(m * phi) * inv_sqrt_pi
                t[:, 2 * m] = np.cos(m * phi) * inv_sqrt_pi
            t.setflags(write=False)
            self._trig = t
        return self._trig

    def __repr__(self):
        return f"SphereGrid(degree={self.degree})"


def _coeff_data(coeffs):
    """The coefficient matrix of a SphHarmCoeffs, or a plain array as floats."""
    if isinstance(coeffs, SphHarmCoeffs):
        return coeffs.data
    return np.asarray(coeffs, dtype=float)


def synthesis(coeffs, grid):
    """Evaluate the expansion on the grid; returns (n+1) x (2n+1) values.

    ``coeffs`` is a SphHarmCoeffs or its plain (n+1) x (2n+1) data array.
    """
    data = _coeff_data(coeffs)
    n = grid.degree
    if data.shape != (n + 1, 2 * n + 1):
        raise ValueError(
            f"coefficient shape {data.shape} does not match grid degree {n}"
        )
    # colatitude profiles per coefficient column
    profiles = np.empty((n + 1, 2 * n + 1))
    profiles[:, 0] = grid.legendre_table(0).T @ data[:, 0]
    for m in range(1, n + 1):
        rows = n - m + 1
        block = grid.legendre_table(m).T @ data[:rows, 2 * m - 1 : 2 * m + 1]
        profiles[:, 2 * m - 1 : 2 * m + 1] = block
    return profiles @ grid._trig_matrix().T


def analysis(values, grid):
    """Project grid values onto the basis; exact for band-limited data."""
    values = np.asarray(values, dtype=float)
    n = grid.degree
    if values.shape != (n + 1, 2 * n + 1):
        raise ValueError(
            f"values shape {values.shape} does not match grid degree {n}"
        )
    # longitude inner products (trapezoid rule is exact here), then
    # weighted colatitude projections
    lon = values @ grid._trig_matrix() * (2.0 * np.pi / (2 * n + 1))
    weighted = lon * grid.colat_weights[:, None]
    out = SphHarmCoeffs(n)
    out.data[:, 0] = grid.legendre_table(0) @ weighted[:, 0]
    for m in range(1, n + 1):
        rows = n - m + 1
        out.data[:rows, 2 * m - 1 : 2 * m + 1] = (
            grid.legendre_table(m) @ weighted[:, 2 * m - 1 : 2 * m + 1]
        )
    return out


def mean(coeffs):
    """Integral of the field over the sphere: u_0^0 * sqrt(4 pi)."""
    return coeffs.data[0, 0] * math.sqrt(4.0 * np.pi)


def relative_error_2norm(a, b):
    """|| a - b ||_2 / || b ||_2 over coefficient arrays.

    By Parseval this equals the relative L2 error of the corresponding
    fields.  Accepts SphHarmCoeffs or plain arrays of equal shape.
    """
    a_data = _coeff_data(a)
    b_data = _coeff_data(b)
    if a_data.shape != b_data.shape:
        raise ValueError(f"shape mismatch: {a_data.shape} vs {b_data.shape}")
    denom = np.linalg.norm(b_data)
    if denom == 0.0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm(a_data - b_data) / denom)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def write_coeffs(coeffs, path, comment=None):
    """Write coefficients as CSV rows of the layout matrix.

    The first line is the format header ``# sht-coeffs v1 degree=<n>``;
    an optional extra ``#`` comment line follows.  Deterministic output.
    """
    lines = [f"# sht-coeffs v1 degree={coeffs.degree}"]
    if comment:
        lines.append(f"# {comment}")
    for row in coeffs.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coeffs(path):
    """Read a coefficient file written by :func:`write_coeffs`."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        match = re.match(r"#\s*sht-coeffs\s+v1\s+degree=(\d+)\s*$", first)
        if not match:
            raise ValueError(f"{path}: not an sht-coeffs v1 file")
        degree = int(match.group(1))
        rows = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows, dtype=float)
    return SphHarmCoeffs(degree, data)


def write_grid_values(values, grid, path, comment=None):
    """Write grid values as CSV with columns ``theta,phi,value``."""
    values = np.asarray(values, dtype=float)
    n = grid.degree
    if values.shape != (n + 1, 2 * n + 1):
        raise ValueError(
            f"values shape {values.shape} does not match grid degree {n}"
        )
    lines = [f"# sht-grid v1 degree={n}"]
    if comment:
        lines.append(f"# {comment}")
    lines.append("theta,phi,value")
    for i, theta in enumerate(grid.colat_nodes):
        for j, phi in enumerate(grid.lon_nodes):
            lines.append(f"{theta:.17g},{phi:.17g},{values[i, j]:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
