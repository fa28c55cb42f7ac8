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
to near machine precision.

A transform is two dense stages, O(n^3) work in all.  The longitude stage
is one matrix product with the (2n+1)-point trigonometric basis.  The
Legendre stage uses the equatorial symmetry of the grid: the nodes are
antisymmetric in cos(theta) and Ptilde_ell^m is even or odd with ell - m,
so tables hold only the northern nodes, and even and odd degrees are
summed separately and then combined into the two hemispheres.  Orders
come in blocks of 32, each one batched matrix product over orders and
fields; ``synthesis`` and ``analysis`` accept a leading axis of k fields,
which share every table read.
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

#: Legendre tables are cached on the grid object up to this degree
#: (memory for all orders together grows like degree^3 / 4 doubles).
_TABLE_CACHE_MAX_DEGREE = 300

#: Orders per Legendre table block: one batched matrix product per block.
_ORDER_BLOCK = 32


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

    Legendre tables cover the ``north`` = ceil((n+1)/2) northern
    colatitudes and come in blocks of up to ``_ORDER_BLOCK`` orders,
    built on demand.  Up to grid degree ``_TABLE_CACHE_MAX_DEGREE`` they
    are cached on the grid instance; above it each block is rebuilt per
    lookup, so a transform holds one block at a time.  The longitude
    basis matrix is always cached.
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
        # northern nodes, the equator included when n is even
        self.north = (n + 2) // 2
        self._tables = {}
        self._trig = None

    def legendre_table(self, block, degree=None):
        """Block ``block`` of the Legendre table up to ``degree`` (default:
        the grid degree) at the northern colatitudes.

        The block holds orders m = ``_ORDER_BLOCK * block`` onwards, at most
        ``_ORDER_BLOCK`` of them and none above ``degree``; entry
        ``[j, i, node]`` is Ptilde_{m_j+i}^{m_j}, zero above ``degree``
        (see :func:`nlsphere.specfun.assoc_legendre_table`).
        """
        degree = self.degree if degree is None else int(degree)
        first = _ORDER_BLOCK * block
        if not 0 <= first <= degree <= self.degree:
            raise ValueError(
                f"no order block {block} of degree {degree} on a degree-{self.degree} grid"
            )
        table = self._tables.get((block, degree))
        if table is None:
            orders = np.arange(first, min(first + _ORDER_BLOCK, degree + 1))
            table = assoc_legendre_table(orders, degree, self.colat_cos[: self.north])
            table.setflags(write=False)
            if self.degree <= _TABLE_CACHE_MAX_DEGREE:
                self._tables[(block, degree)] = table
        return table

    def _trig_matrix(self):
        """Longitude basis, shape (2n+1 angles, 2n+2 columns): column 2m
        holds sin(m phi) and column 2m+1 cos(m phi), normalized, so column
        0 (sin 0 phi) is zero and columns 1.. follow the coefficient layout."""
        if self._trig is None:
            n = self.degree
            mphi = np.arange(n + 1)[None, :] * self.lon_nodes[:, None]
            t = np.empty((2 * n + 1, n + 1, 2))
            t[:, :, 0] = np.sin(mphi)
            t[:, :, 1] = np.cos(mphi)
            t *= 1.0 / math.sqrt(np.pi)
            t[:, 0] = (0.0, 1.0 / math.sqrt(2.0 * np.pi))
            t = t.reshape(2 * n + 1, 2 * n + 2)
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


def _check_stack(arr, n, what):
    """A (k, n+1, 2n+1) view of an (n+1, 2n+1) or (k, n+1, 2n+1) array."""
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (n + 1, 2 * n + 1):
        raise ValueError(f"{what} shape {arr.shape} does not match grid degree {n}")
    return arr.reshape(-1, n + 1, 2 * n + 1)


def _order_blocks(degree):
    """(block index, first order) of the order blocks up to ``degree``."""
    return enumerate(range(0, degree + 1, _ORDER_BLOCK))


def _synthesize(data, grid):
    """Values on ``grid`` of a (k, n+1, 2n+1) coefficient stack, n <= grid degree.

    Only orders and degrees <= n enter: the Legendre tables are the
    grid's degree-n blocks and the longitude step uses the first 2n+2
    basis columns, so a field is evaluated on a finer grid without
    padding its coefficients.
    """
    k, rows, _ = data.shape
    n, nodes, north = rows - 1, grid.degree + 1, grid.north
    # (field, row ell - m, order m, sin/cos): the layout shifted by one
    # column, so that m = 0 gets a zero sin slot like the basis matrix
    coeffs = np.empty((k, n + 1, n + 1, 2))
    coeffs[:, :, 0, 0] = 0.0
    coeffs.reshape(k, n + 1, 2 * n + 2)[:, :, 1:] = data
    # colatitude profiles (field, order, sin/cos, node); the (order,
    # field, ...) views give one matrix product per order and field
    profiles = np.empty((k, n + 1, 2, nodes))
    by_order = coeffs.transpose(2, 0, 3, 1)
    north_part = profiles[..., :north].transpose(1, 0, 2, 3)
    south_part = profiles[..., ::-1][..., :north].transpose(1, 0, 2, 3)
    for block, first in _order_blocks(n):
        table = grid.legendre_table(block, n)
        orders, length = table.shape[:2]
        table = table[:, None]
        m = slice(first, first + orders)
        c = by_order[m, :, :, :length]
        # rows of even ell - m are symmetric about the equator, odd ones
        # antisymmetric; the equator node (even grid degree) is written twice
        even = c[..., 0::2] @ table[:, :, 0::2]
        odd = c[..., 1::2] @ table[:, :, 1::2]
        np.subtract(even, odd, out=south_part[m])
        np.add(even, odd, out=north_part[m])
    trig = grid._trig_matrix()[:, : 2 * n + 2]
    return profiles.reshape(k, 2 * n + 2, nodes).transpose(0, 2, 1) @ trig.T


def _analyze(values, grid):
    """Coefficients of a (k, n+1, 2n+1) stack of grid values, n = grid degree."""
    k = values.shape[0]
    n, north = grid.degree, grid.north
    paired = n + 1 - north
    # longitude inner products (trapezoid rule is exact here), weighted
    # for the colatitude quadrature
    lon = values.reshape(k * (n + 1), 2 * n + 1) @ grid._trig_matrix()
    lon = lon.reshape(k, n + 1, n + 1, 2)
    lon *= ((2.0 * np.pi / (2 * n + 1)) * grid.colat_weights)[:, None, None]
    # folded onto the northern nodes: sums meet the symmetric rows,
    # differences the antisymmetric ones; the equator node is unpaired
    south = lon[:, ::-1][:, :paired]
    sums = lon[:, :north].copy()
    diffs = sums.copy()
    sums[:, :paired] += south
    diffs[:, :paired] -= south
    coeffs = np.zeros((k, n + 1, n + 1, 2))
    by_order = coeffs.transpose(2, 0, 1, 3)
    sums, diffs = sums.transpose(2, 0, 1, 3), diffs.transpose(2, 0, 1, 3)
    for block, first in _order_blocks(n):
        table = grid.legendre_table(block)
        orders, length = table.shape[:2]
        table = table[:, None]
        m = slice(first, first + orders)
        np.matmul(table[:, :, 0::2], sums[m], out=by_order[m, :, 0:length:2])
        np.matmul(table[:, :, 1::2], diffs[m], out=by_order[m, :, 1:length:2])
    return coeffs.reshape(k, n + 1, 2 * n + 2)[:, :, 1:].copy()


def synthesis(coeffs, grid):
    """Evaluate the expansion on the grid.

    ``coeffs`` is a SphHarmCoeffs, its plain (n+1) x (2n+1) data array,
    or a (k, n+1, 2n+1) stack of k fields; returns (n+1) x (2n+1) values,
    or a (k, n+1, 2n+1) stack of them.
    """
    data = _coeff_data(coeffs)
    values = _synthesize(_check_stack(data, grid.degree, "coefficient"), grid)
    return values.reshape(data.shape)


def analysis(values, grid):
    """Project grid values onto the basis; exact for band-limited data.

    ``values`` is an (n+1) x (2n+1) array, returning SphHarmCoeffs, or a
    (k, n+1, 2n+1) stack, returning the (k, n+1, 2n+1) coefficient stack.
    """
    values = np.asarray(values, dtype=float)
    data = _analyze(_check_stack(values, grid.degree, "values"), grid)
    if values.ndim == 3:
        return data
    out = SphHarmCoeffs.__new__(SphHarmCoeffs)
    out.degree = grid.degree
    out.data = data[0]
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
    for row in coeffs.data.tolist():
        lines.append(",".join([f"{v:.17g}" for v in row]))
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
    phis = [f"{phi:.17g}" for phi in grid.lon_nodes.tolist()]
    for theta, row in zip(grid.colat_nodes.tolist(), values.tolist()):
        theta = f"{theta:.17g}"
        lines.extend([f"{theta},{phi},{v:.17g}" for phi, v in zip(phis, row)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
