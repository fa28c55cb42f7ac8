"""Spherical harmonic analysis and synthesis on a tensor-product grid.

Real fields on the unit sphere are represented by coefficients of the
real-valued orthonormal basis

    m = 0:   Ptilde_ell^0(cos theta) / sqrt(2 pi)
    m > 0:   Ptilde_ell^m(cos theta) sin(m phi) / sqrt(pi)   and
             Ptilde_ell^m(cos theta) cos(m phi) / sqrt(pi),

with Ptilde the fully normalized associated Legendre functions.  The
coefficients of a degree-n expansion are a plain float array of shape
(n+1, 2n+1), and k fields stack to (k, n+1, 2n+1); there is no other
coefficient type.  Column 0 holds the m = 0 coefficients indexed by ell;
for m = 1..n, column 2m-1 holds the sin(m phi) coefficients and column
2m the cos(m phi) coefficients of degrees ell = m..n, stored from row 0
(``slot`` maps (ell, m) to its row and column).  Slots below the stored
triangle are structurally zero: the transforms keep them so, and
``read_coeffs`` refuses a file that breaks them.

The grid couples n+1 Gauss--Legendre colatitudes with L equispaced
longitudes, L = 2n+1 unless a grid asks for more.  Gauss--Legendre
exactness in colatitude (degree 2n+1) and trapezoid exactness in
longitude (frequencies below L) make analysis the exact inverse of
synthesis for band-limited data, which the tests verify to near machine
precision.

A transform has two stages.  The longitude stage is a real FFT of length
L (``numpy.fft.irfft`` / ``rfft``), O(n^2 log n) in all, except when L is
prime: there the FFT is several times slower than a dense product with
the L-point DFT matrix, which is used instead.  L alone decides.  Each
(sin, cos) slot pair of order m is viewed as one complex number s + i c,
so one per-order factor turns it into the one-sided Fourier coefficient
and back.

The Legendre stage, O(n^3), uses the equatorial symmetry of the grid: the
nodes are antisymmetric in cos(theta) and Ptilde_ell^m is even or odd with
ell - m, so tables hold only the northern nodes, as contiguous even and
odd rows, and the two parities are summed separately and then combined
into the two hemispheres.  Each table piece and parity is one batched
matrix product over the piece's orders, whose 2k columns are the real and
imaginary parts of the k fields.  Up to grid degree 300 the pieces are
blocks of 32 orders with all their rows, cached on the grid; above it
they are 16 rows of every order at once, streamed from the Legendre
recurrence as the products consume them and never stored.  ``synthesis``
and ``analysis`` accept that leading axis of k fields, which share every
table read.
"""

from __future__ import annotations

import math
import re
import warnings
from functools import lru_cache

import numpy as np

from .quadrature import gauss_legendre
from .specfun import _legendre_rows, assoc_legendre_table

__all__ = [
    "GridValues",
    "SphereGrid",
    "analysis",
    "mean",
    "read_coeffs",
    "relative_error_2norm",
    "slot",
    "synthesis",
    "write_coeffs",
    "write_grid_values",
]

#: Grid values are a plain (n+1) x L float array, L = 2n+1 by default:
#: value at (colat_nodes[i], lon_nodes[j]).
GridValues = np.ndarray

#: Legendre tables are cached on the grid object up to this degree
#: (memory for all orders together grows like degree^3 / 4 doubles, 123 MB
#: at degree 383); above it the transforms stream the table rows.
_TABLE_CACHE_MAX_DEGREE = 300

#: Orders per Legendre table block: one batched matrix product per block
#: and parity.
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


def _per_degree(values):
    """Per-degree values of shape (..., n+1) broadcast over the coefficient
    layout, (..., n+1, 2n+1): every slot of degree ell gets values[..., ell],
    and the slots below the stored triangle get 0.  Returns a new array."""
    values = np.asarray(values, dtype=float)
    deg, valid = _layout(values.shape[-1] - 1)
    out = np.take(values, deg, axis=-1)
    # putmask: a boolean index after an ellipsis takes about 4x as long
    np.putmask(out, np.broadcast_to(~valid, out.shape), 0.0)
    return out


def slot(degree, ell, m):
    """(row, column) of coefficient (ell, m) in the degree-``degree`` layout;
    raises ValueError outside it."""
    if not 0 <= abs(m) <= ell <= degree:
        raise ValueError(
            f"coefficient (ell={ell}, m={m}) outside degree-{degree} layout"
        )
    if m == 0:
        return ell, 0
    col = 2 * abs(m) - 1 if m < 0 else 2 * abs(m)
    return ell - abs(m), col


def _degree(coeffs):
    """Degree n of one field's (n+1, 2n+1) coefficient array; raises
    ValueError on any other shape."""
    shape = np.shape(coeffs)
    if len(shape) != 2 or shape[1] != 2 * shape[0] - 1:
        raise ValueError(f"coefficient shape {shape} is not (n+1, 2n+1) for any degree n")
    return shape[0] - 1


class SphereGrid:
    """Quadrature grid: Gauss--Legendre colatitudes x equispaced longitudes.

    There are 2n+1 longitudes unless ``longitudes`` asks for more; any
    count of at least 2n+1 keeps analysis exact.  Legendre tables cover
    the ``north`` = ceil((n+1)/2) northern colatitudes and come in blocks
    of up to ``_ORDER_BLOCK`` orders, built on demand.  Up to grid degree
    ``_TABLE_CACHE_MAX_DEGREE`` they are cached on the grid instance and
    the transforms read them.  Above it the transforms read no table:
    they stream the recurrence rows of all orders a few rows at a time,
    and a lookup here builds its block afresh.  A grid with a prime
    longitude count, whose FFT is slow, runs its longitude stage as a
    dense product with the DFT matrix instead, and caches that matrix.
    """

    def __init__(self, degree, longitudes=None):
        if not isinstance(degree, (int, np.integer)) or degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
        n = int(degree)
        count = 2 * n + 1 if longitudes is None else longitudes
        if not isinstance(count, (int, np.integer)) or count < 2 * n + 1:
            raise ValueError(
                f"longitudes must be an integer >= 2n+1 = {2 * n + 1}, got {longitudes!r}"
            )
        rule = gauss_legendre(n + 1)
        self.degree = n
        # GL nodes descend from +1, so colatitudes ascend from the north pole
        self.colat_cos = rule.nodes
        self.colat_weights = rule.weights
        self.colat_nodes = np.arccos(np.clip(rule.nodes, -1.0, 1.0))
        self.lon_nodes = 2.0 * np.pi * np.arange(count) / count
        for arr in (self.colat_nodes, self.lon_nodes):
            arr.setflags(write=False)
        # northern nodes, the equator included when n is even
        self.north = (n + 2) // 2
        # L alone picks the longitude stage: the FFT, or the dense DFT product
        self._dense_longitudes = _is_prime(count)
        self._tables = {}
        self._dft = None

    def legendre_table(self, block, degree=None):
        """Block ``block`` of the Legendre table up to ``degree`` (default:
        the grid degree) at the northern colatitudes, split by parity.

        The block holds orders m = ``_ORDER_BLOCK * block`` onwards, at most
        ``_ORDER_BLOCK`` of them and none above ``degree``.  Returns the
        pair ``(even, odd)``: entry ``[j, i, node]`` of ``even`` is
        Ptilde_{m_j+2i}^{m_j} and of ``odd`` Ptilde_{m_j+2i+1}^{m_j}, zero
        above ``degree`` (see :func:`nlsphere.specfun.assoc_legendre_table`).
        """
        degree = self.degree if degree is None else int(degree)
        first = _ORDER_BLOCK * block
        if not 0 <= first <= degree <= self.degree:
            raise ValueError(
                f"no order block {block} of degree {degree} on a degree-{self.degree} grid"
            )
        tables = self._tables.get((block, degree))
        if tables is None:
            orders = np.arange(first, min(first + _ORDER_BLOCK, degree + 1))
            tables = assoc_legendre_table(
                orders, degree, self.colat_cos[: self.north], parity=True
            )
            for table in tables:
                table.setflags(write=False)
            if self.degree <= _TABLE_CACHE_MAX_DEGREE:
                self._tables[(block, degree)] = tables
        return tables

    def _dft_bases(self):
        """Real views of the DFT for the L longitudes and orders m = 0..L//2,
        the longitude stage of a grid whose L is prime, where the FFT is
        slow: the forward basis exp(-i m phi_j), shape (L, 2 (L//2+1)),
        whose columns pair with cos(m phi) and -sin(m phi), and the inverse
        basis, shape (2 (L//2+1), L), the transposed forward one with each
        m > 0 counted twice, for m and -m."""
        if self._dft is None:
            count = self.lon_nodes.size
            # m j reduced mod L in integers keeps every angle below 2 pi
            turns = np.outer(np.arange(count), np.arange(count // 2 + 1)) % count
            forward = np.exp((-2j * np.pi / count) * turns)
            twice = np.full(count // 2 + 1, 2.0)
            twice[0] = 1.0
            self._dft = (forward.view(float), (forward * twice).view(float).T)
            for basis in self._dft:
                basis.setflags(write=False)
        return self._dft

    def __repr__(self):
        return f"SphereGrid(degree={self.degree})"


def _check_stack(arr, rows, cols, what):
    """A (k, rows, cols) view of a (rows, cols) or (k, rows, cols) array."""
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (rows, cols):
        raise ValueError(f"{what} shape {arr.shape} does not match the grid's {(rows, cols)}")
    return arr.reshape(-1, rows, cols)


def _legendre_tables(grid, degree):
    """The grid's Legendre tables up to ``degree`` as ``(orders, first,
    (even, odd))``: for the j-th order m of the slice ``orders``,
    ``even[j, r]`` holds row ell - m = first + 2 r and ``odd[j, r]`` row
    first + 2 r + 1 at the northern nodes, zero above ``degree``.

    Up to grid degree ``_TABLE_CACHE_MAX_DEGREE`` these are the grid's
    cached order blocks, all rows of 32 orders at a time.  Above it the
    row recurrence streams ``_ROW_CHUNK`` rows of every order still
    active at a time, so no table outlives its step.
    """
    if grid.degree <= _TABLE_CACHE_MAX_DEGREE:
        for block, first in enumerate(range(0, degree + 1, _ORDER_BLOCK)):
            even, odd = grid.legendre_table(block, degree)
            yield slice(first, first + even.shape[0]), 0, (even, odd)
        return
    orders = np.arange(degree + 1)
    for first, rows in _legendre_rows(orders, degree, grid.colat_cos[: grid.north]):
        # (row, order, node) to (order, row, node) views, each parity's
        # rows a stride apart
        tables = (rows[0::2].transpose(1, 0, 2), rows[1::2].transpose(1, 0, 2))
        yield slice(0, rows.shape[1]), first, tables


def _is_prime(count):
    """Whether a longitude count is prime: its FFT is then slower than
    the dense DFT product (about 6x at 127 points; a degree-63
    Brusselator run takes about 1.8x as long with the FFT)."""
    return count > 1 and all(count % p for p in range(2, math.isqrt(count) + 1))


@lru_cache(maxsize=64)
def _order_factors(degree, count):
    """Per-order factors of the longitude stage for orders 0..degree on
    ``count`` longitudes, (synthesis, analysis).

    Order m > 0 keeps its (sin, cos) slot pair as one complex number
    s + i c.  Synthesis turns it into the one-sided Fourier coefficient
    (c - i s) / (2 sqrt(pi)) = -i (s + i c) / (2 sqrt(pi)); analysis
    turns the DFT sum V_m = sum_j v_j exp(-i m phi_j), whose real part
    is the cos and minus its imaginary part the sin inner product, into
    s + i c = i V_m, times the trapezoid weight 2 pi / count.  The
    m = 0 slot is real: its basis function is 1 / sqrt(2 pi).
    """
    synth = np.full(degree + 1, -0.5j / math.sqrt(np.pi))
    synth[0] = 1.0 / math.sqrt(2.0 * np.pi)
    weight = 2.0 * np.pi / count
    anal = np.full(degree + 1, 1j * weight / math.sqrt(np.pi))
    anal[0] = weight / math.sqrt(2.0 * np.pi)
    for factors in (synth, anal):
        factors.setflags(write=False)
    return synth, anal


def _irfft(spectra, grid, out):
    """numpy.fft.irfft(spectra, L, norm="forward", out=out): values at the
    grid's L longitudes of one-sided spectra along the last axis."""
    count = grid.lon_nodes.size
    if not grid._dense_longitudes:
        return np.fft.irfft(spectra, count, norm="forward", out=out)
    orders = spectra.shape[-1]
    pairs = np.ascontiguousarray(spectra).reshape(-1, orders).view(float)
    np.matmul(pairs, grid._dft_bases()[1][: 2 * orders], out=out.reshape(-1, count))
    return out


def _rfft(values, grid, out):
    """numpy.fft.rfft(values, out=out) along the last axis, the grid's
    longitudes."""
    if not grid._dense_longitudes:
        return np.fft.rfft(values, out=out)
    spectra = values.reshape(-1, grid.lon_nodes.size) @ grid._dft_bases()[0]
    out[...] = spectra.view(complex).reshape(out.shape)
    return out


def _synthesize(data, grid):
    """Values on ``grid`` of a (k, n+1, 2n+1) coefficient stack, n <= grid degree.

    Only orders and degrees <= n enter: the Legendre tables stop at
    degree n and the spectra at order n, so a field is
    evaluated on a finer grid without padding its coefficients.
    """
    data = np.ascontiguousarray(data)
    k, rows, _ = data.shape
    n, north, count = rows - 1, grid.north, grid.lon_nodes.size
    paired = grid.degree + 1 - north
    # (order, row ell - m, field): s + i c per order, the m = 0 column real
    coeffs = np.empty((n + 1, n + 1, k), complex)
    coeffs[0] = data[:, :, 0].T
    coeffs[1:].transpose(2, 1, 0)[...] = data[:, :, 1:].view(complex)
    # (order, parity, northern node, field): one GEMM per order block and
    # parity, the k fields' real and imaginary parts its 2k columns
    spectra = np.empty((n + 1, 2, north, k), complex)
    coeffs_r, spectra_r = coeffs.view(float), spectra.view(float)
    for m, first, tables in _legendre_tables(grid, n):
        for parity, table in enumerate(tables):
            product = np.matmul(table.transpose(0, 2, 1),
                                coeffs_r[m, first + parity : first + 2 * table.shape[1] : 2],
                                out=spectra_r[m, parity] if first == 0 else None)
            if first:
                spectra_r[m, parity] += product
    # the tables are real, so the complex factor commutes with them
    spectra *= _order_factors(n, count)[0][:, None, None, None]
    parts = _irfft(spectra.transpose(3, 1, 2, 0), grid, np.empty((k, 2, north, count)))
    even, odd = parts[:, 0], parts[:, 1]
    # rows of even ell - m are symmetric about the equator, odd ones
    # antisymmetric; the equator node (even grid degree) is northern
    values = np.empty((k, grid.degree + 1, count))
    np.add(even, odd, out=values[:, :north])
    np.subtract(even[:, :paired], odd[:, :paired], out=values[:, ::-1][:, :paired])
    return values


def _analyze(values, grid):
    """Coefficients of a (k, n+1, L) stack of grid values, n = grid degree."""
    k, _, count = values.shape
    n, north = grid.degree, grid.north
    paired = n + 1 - north
    # folded onto the northern nodes and weighted for the colatitude
    # quadrature: sums meet the symmetric rows, differences the
    # antisymmetric ones; the equator node is unpaired
    folded = np.empty((k, 2, north, count))
    south = values[:, ::-1][:, :paired]
    np.add(values[:, :paired], south, out=folded[:, 0, :paired])
    np.subtract(values[:, :paired], south, out=folded[:, 1, :paired])
    folded[:, :, paired:] = values[:, None, paired:north]
    folded *= grid.colat_weights[:north, None]
    # (order, parity, northern node, field), as in synthesis
    spectra = np.empty((count // 2 + 1, 2, north, k), complex)
    _rfft(folded, grid, spectra.transpose(3, 1, 2, 0))
    spectra = spectra[: n + 1]
    spectra *= _order_factors(n, count)[1][:, None, None, None]
    coeffs = np.zeros((n + 1, n + 1, k), complex)
    coeffs_r, spectra_r = coeffs.view(float), spectra.view(float)
    for m, first, tables in _legendre_tables(grid, n):
        for parity, table in enumerate(tables):
            np.matmul(table, spectra_r[m, parity],
                      out=coeffs_r[m, first + parity : first + 2 * table.shape[1] : 2])
    data = np.empty((k, n + 1, 2 * n + 1))
    data[:, :, 0] = coeffs[0].real.T
    data[:, :, 1:].view(complex)[...] = coeffs[1:].transpose(2, 1, 0)
    return data


def synthesis(coeffs, grid):
    """Evaluate the expansion on the grid.

    ``coeffs`` is one field's (n+1, 2n+1) coefficient array or a
    (k, n+1, 2n+1) stack of k fields; returns (n+1, L) values on the
    grid's L longitudes, or a (k, n+1, L) stack of them.
    """
    n = grid.degree
    data = np.asarray(coeffs, dtype=float)
    values = _synthesize(_check_stack(data, n + 1, 2 * n + 1, "coefficient"), grid)
    return values.reshape(data.shape[:-1] + values.shape[-1:])


def analysis(values, grid):
    """Project grid values onto the basis; exact for band-limited data.

    ``values`` is one field's (n+1, L) array or a (k, n+1, L) stack;
    returns the (n+1, 2n+1) coefficient array or the (k, n+1, 2n+1) stack.
    """
    values = np.asarray(values, dtype=float)
    stack = _check_stack(values, grid.degree + 1, grid.lon_nodes.size, "values")
    data = _analyze(stack, grid)
    return data.reshape(values.shape[:-1] + data.shape[-1:])


def mean(coeffs):
    """Integral of the field over the sphere: u_0^0 * sqrt(4 pi)."""
    _degree(coeffs)
    return coeffs[0, 0] * math.sqrt(4.0 * np.pi)


def relative_error_2norm(a, b):
    """|| a - b ||_2 / || b ||_2 over coefficient arrays of equal shape.

    By Parseval this equals the relative L2 error of the corresponding
    fields.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = np.linalg.norm(b)
    if denom == 0.0:
        raise ValueError("reference has zero norm")
    return float(np.linalg.norm(a - b) / denom)


# ----------------------------------------------------------------------
# file formats: UTF-8 CSV, "\n" line ends, "#" head lines first.  Writers
# stream one "%"-formatted text row per data row (2n+1 lines per grid row);
# "%.17g" round-trips every double and gives the bytes f"{x:.17g}" gives.
# ----------------------------------------------------------------------

def _write_csv(path, head, rows):
    """Write the ``head`` lines, skipping empty or None ones (an absent
    comment), then the formatted ``rows``, each ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in head if line)
        fh.writelines(rows)


def write_coeffs(coeffs, path, comment=None):
    """Write one field's (n+1, 2n+1) coefficient array as CSV rows.

    The first line is the format header ``# sht-coeffs v1 degree=<n>``;
    an optional extra ``#`` comment line follows.  Deterministic output.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    head = [f"# sht-coeffs v1 degree={_degree(coeffs)}", comment and f"# {comment}"]
    fmt = ",".join(["%.17g"] * coeffs.shape[1]) + "\n"
    _write_csv(path, head, (fmt % tuple(row.tolist()) for row in coeffs))


def read_coeffs(path):
    """Read a coefficient file written by :func:`write_coeffs` into an
    (n+1, 2n+1) array; raises ValueError on a bad header, a non-numeric
    token, a ragged row, a body whose shape does not match the header's
    degree or a nonzero structural zero, naming the file and its 1-based
    line."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        match = re.match(r"#\s*sht-coeffs\s+v1\s+degree=(\d+)\s*$", first)
        if not match:
            raise ValueError(f"{path}, line 1: not an sht-coeffs v1 file")
        try:
            with warnings.catch_warnings():
                # a file without rows fails the shape check instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            data = None
    degree = int(match.group(1))
    shape = (degree + 1, 2 * degree + 1)
    if data is None or data.shape != shape:
        line, problem = _first_bad_line(path, shape)
        raise ValueError(f"{path}, line {line}: {problem}") from None
    rows, cols = np.nonzero((data != 0.0) & ~_layout(degree)[1])
    if rows.size:
        line = [number for number, text in _body_lines(path) if text][rows[0]]
        raise ValueError(f"{path}, line {line}: column {cols[0] + 1} is a structural zero "
                         f"of the layout, got {data[rows[0], cols[0]]:.17g}")
    return data


def _body_lines(path):
    """(1-based line number, text before any "#") of each line of a
    coefficient file after its header.  As for numpy.loadtxt, a line is a
    row unless that text is empty, so a line of spaces is a row with an
    empty value."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for number, line in enumerate(lines[1:], start=2):
        yield number, line.split("#", 1)[0]


def _first_bad_line(path, shape):
    """(line number, problem) of the first line of a coefficient file body
    that numpy.loadtxt rejects or that breaks the (rows, columns) shape."""
    rows, columns = shape
    found, number = 0, 1
    for number, text in _body_lines(path):
        if not text:
            continue
        tokens = text.split(",")
        for column, token in enumerate(tokens, start=1):
            if not token.strip():
                return number, f"column {column} is empty"
            try:
                bad = np.loadtxt([token]).size != 1
            except ValueError:
                bad = True
            if bad:
                return number, f"column {column}, {token.strip()!r} is not a number"
        if len(tokens) != columns:
            return number, f"{len(tokens)} values, expected {columns} for degree {rows - 1}"
        found += 1
        if found > rows:
            return number, f"more than the {rows} rows of degree {rows - 1}"
    return number, f"the file ends after {found} rows, expected {rows} for degree {rows - 1}"


def write_grid_values(values, grid, path, comment=None):
    """Write grid values as CSV with columns ``theta,phi,value``."""
    values = np.asarray(values, dtype=float)
    n = grid.degree
    if grid.lon_nodes.size != 2 * n + 1:
        raise ValueError(f"sht-grid v1 files hold 2n+1 longitudes, not {grid.lon_nodes.size}")
    if values.shape != (n + 1, 2 * n + 1):
        raise ValueError(
            f"values shape {values.shape} does not match grid degree {n}"
        )
    head = [f"# sht-grid v1 degree={n}", comment and f"# {comment}", "theta,phi,value"]
    # the lines of one colatitude: theta goes in at "\0", the values at "%.17g"
    block = "".join([f"\0,{phi:.17g},%.17g\n" for phi in grid.lon_nodes.tolist()])
    rows = (block.replace("\0", f"{theta:.17g}") % tuple(row.tolist())
            for theta, row in zip(grid.colat_nodes.tolist(), values))
    _write_csv(path, head, rows)
