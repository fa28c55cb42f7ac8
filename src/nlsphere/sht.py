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
longitudes, L = 2n+1 unless a grid asks for more; values on it are a
plain (n+1, L) float array, row i at colat_nodes[i] and column j at
lon_nodes[j].  Gauss--Legendre exactness in colatitude (degree 2n+1) and
trapezoid exactness in longitude (frequencies below L) make analysis the
exact inverse of synthesis for band-limited data, which the tests verify
to near machine precision.

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
imaginary parts of the k fields.  By default the pieces are 16 rows of
every order at once, streamed from the Legendre recurrence as the
products consume them and never stored, which is the cheapest way to run
a transform once: it holds that 16-row ring, the arrays it returns and
the buffers of the stage at hand, and frees each full-size buffer after
its last read.  The streamed rows come divided by per-order scales that
save the recurrence a pass per row (``specfun._legendre_rows``); the
transforms multiply the scales into their small coefficient rows
instead.  A caller that repeats transforms on a grid keeps its tables
(``_keep_tables``, up to grid degree 300): there the pieces are blocks of
32 orders with all their rows, which
``SphereGrid.legendre_table`` builds on first use and caches on the grid.
``synthesis`` and ``analysis`` accept that leading axis of k fields,
which share every table read.

Synthesis is two steps: ``_parity_parts`` runs the Legendre and longitude
stages and returns the even and odd parts at the northern nodes, and the
hemisphere assembly turns them into values, even + odd in the north and
even - odd at the southern mirror nodes.  A caller that needs only a
symmetric function of the values, such as the Ginzburg--Landau energy's
quartic, can work on the parts and skip the assembly.

Every array argument goes through ``specfun._check_array``, which takes
it as a float64 array (a float64 ndarray as it is, uncopied) and refuses
another shape, or what does not convert, with a ValueError naming the
argument; a degree, order or count goes through ``specfun._check_count``.
A coefficient file is checked by ``read_coeffs`` itself.
"""

from __future__ import annotations

import math
import re
import warnings
from functools import lru_cache

import numpy as np

from .quadrature import gauss_legendre
from .specfun import _check_array, _check_count, _legendre_rows, assoc_legendre_table

__all__ = [
    "SphereGrid",
    "analysis",
    "read_coeffs",
    "slot",
    "synthesis",
    "write_coeffs",
    "write_grid_values",
]

#: ``_keep_tables`` keeps a grid's Legendre tables only up to this grid
#: degree (memory for all orders together grows like degree^3 / 4
#: doubles, 123 MB at degree 383); above it every transform streams the
#: table rows.
_TABLE_CACHE_MAX_DEGREE = 300

#: Orders per Legendre table block: one batched matrix product per block
#: and parity.
_ORDER_BLOCK = 32


@lru_cache(maxsize=64)
def _layout(degree):
    """Per-slot harmonic degree (0 below the stored triangle) and validity
    mask of the coefficient matrix: contiguous read-only copies of
    ``_per_degree`` views, which the energy observer reads every step."""
    deg = np.array(_per_degree(np.arange(degree + 1), 0))
    valid = np.array(_per_degree(np.ones(degree + 1, bool), False))
    deg.setflags(write=False)
    valid.setflags(write=False)
    return deg, valid


def _per_degree(values, structural):
    """Per-degree values of shape (..., n+1) viewed over the coefficient
    layout, (..., n+1, 2n+1): every slot of degree ell reads values[..., ell]
    and the slots below the stored triangle read ``structural`` (the ETDRK4
    tables read their z = 0 limits there, the Poisson divisor 1 and the
    Cesaro taper 0).  The result is a read-only view of O(n) numbers per
    field, of the dtype of ``values``, never a copy of the layout; it is the
    one map from a slot to its degree."""
    values = np.asarray(values)
    n = values.shape[-1] - 1
    tail = np.full(values.shape[:-1] + (n,), structural, values.dtype)
    # slot (r, c) reads entry (2r + c + 1) // 2 of the values followed by n
    # structural ones (its degree, or past n the tail): with every entry
    # repeated twice, row r is the window that starts at 2r + 1
    doubled = np.repeat(np.concatenate([values, tail], axis=-1), 2, axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, 2 * n + 1, axis=-1)
    return windows[..., 1::2, :]


def slot(degree, ell, m):
    """(row, column) of coefficient (ell, m) in the degree-``degree`` layout;
    raises ValueError outside it or for a non-integer."""
    degree = _check_count(degree, "degree")
    ell = _check_count(ell, "ell")
    m = _check_count(m, "m", -ell)
    if not m <= ell <= degree:
        raise ValueError(
            f"coefficient (ell={ell}, m={m}) outside degree-{degree} layout"
        )
    if m == 0:
        return ell, 0
    col = 2 * abs(m) - 1 if m < 0 else 2 * abs(m)
    return ell - abs(m), col


def _check_coeffs(coeffs, name):
    """(array, n): one field's coefficients through ``_check_array`` as an
    (n+1, 2n+1) array, n read from its row count."""
    array = _check_array(coeffs, (None, None), name)
    n = max(len(array) - 1, 0)
    return _check_array(array, (n + 1, 2 * n + 1), name), n


class SphereGrid:
    """Quadrature grid: Gauss--Legendre colatitudes x equispaced longitudes.

    There are 2n+1 longitudes unless ``longitudes`` asks for more; any
    count of at least 2n+1 keeps analysis exact.  Legendre tables cover
    the ``north`` = ceil((n+1)/2) northern colatitudes and come in blocks
    of up to ``_ORDER_BLOCK`` orders, built on demand and cached on the
    grid instance.  The transforms read them only at the degrees a caller
    that repeats transforms has kept (``_keep_tables``, up to grid degree
    ``_TABLE_CACHE_MAX_DEGREE``); at any other degree they look up no
    table and stream the recurrence rows of all orders a few rows at a
    time, storing nothing.  A grid with a prime longitude count, whose FFT
    is slow, runs its longitude stage as a dense product with the DFT
    matrix instead, and caches that matrix.
    """

    def __init__(self, degree, longitudes=None):
        n = _check_count(degree, "degree")
        count = _check_count(2 * n + 1 if longitudes is None else longitudes,
                             "longitudes", 2 * n + 1)
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
        # degrees whose transforms read the cached tables (_keep_tables)
        self._kept = set()
        self._dft = None

    def legendre_table(self, block, degree):
        """Block ``block`` of the Legendre table up to ``degree`` at the
        northern colatitudes, split by parity, cached on the grid.

        The block holds orders m = ``_ORDER_BLOCK * block`` onwards, at most
        ``_ORDER_BLOCK`` of them and none above ``degree``.  Returns the
        pair ``(even, odd)``: entry ``[j, i, node]`` of ``even`` is
        Ptilde_{m_j+2i}^{m_j} and of ``odd`` Ptilde_{m_j+2i+1}^{m_j}, zero
        above ``degree`` (see :func:`nlsphere.specfun.assoc_legendre_table`).
        """
        tables = self._tables.get((block, degree))
        if tables is None:
            first = _ORDER_BLOCK * block
            orders = np.arange(first, min(first + _ORDER_BLOCK, degree + 1))
            tables = assoc_legendre_table(orders, degree, self.colat_cos[: self.north])
            for table in tables:
                table.setflags(write=False)
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


def _keep_tables(grid, degree):
    """Have the degree-``degree`` transforms on ``grid`` read its cached
    Legendre tables, for a caller that repeats them: each order block is
    built on its first lookup and kept with the grid.  A grid above degree
    ``_TABLE_CACHE_MAX_DEGREE`` keeps nothing and streams every time."""
    if grid.degree <= _TABLE_CACHE_MAX_DEGREE:
        grid._kept.add(degree)


def _legendre_tables(grid, degree):
    """The grid's Legendre tables up to ``degree`` as ``(orders, first,
    (even, odd), scales)``: for the j-th order m of the slice ``orders``,
    ``even[j, r]`` holds row ell - m = first + 2 r and ``odd[j, r]`` row
    first + 2 r + 1 at the northern nodes, zero above ``degree``, each
    divided by its entry of ``scales``, whose [j, i] holds the scale of row
    first + i of both parities, or undivided when ``scales`` is None.

    At a degree kept by ``_keep_tables`` these are the grid's cached order
    blocks, all rows of 32 orders at a time, undivided.  Otherwise the row
    recurrence streams ``_ROW_CHUNK`` rows of every order still active at
    a time, so no table outlives its step, and the transforms apply the
    scales to their small coefficient rows instead of the table.
    """
    if degree in grid._kept:
        for block, first in enumerate(range(0, degree + 1, _ORDER_BLOCK)):
            even, odd = grid.legendre_table(block, degree)
            yield slice(first, first + even.shape[0]), 0, (even, odd), None
        return
    orders = np.arange(degree + 1)
    for first, rows, scales in _legendre_rows(orders, degree, grid.colat_cos[: grid.north]):
        # (row, order, node) to (order, row, node) views, each parity's
        # rows a stride apart
        tables = (rows[0::2].transpose(1, 0, 2), rows[1::2].transpose(1, 0, 2))
        yield slice(0, rows.shape[1]), first, tables, scales.T


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


def _parity_parts(data, grid):
    """Even and odd parts on ``grid`` of a (k, n+1, 2n+1) coefficient
    stack, n <= grid degree: a (k, 2, north, L) array whose [:, 0] sums
    the rows of even ell - m and [:, 1] those of odd ell - m at the
    northern nodes.  The value at northern node i is even + odd, and at
    its southern mirror even - odd.

    Only orders and degrees <= n enter: the Legendre tables stop at
    degree n and the spectra at order n, so a field is
    evaluated on a finer grid without padding its coefficients.
    """
    data = np.ascontiguousarray(data)
    k, rows, _ = data.shape
    n, north, count = rows - 1, grid.north, grid.lon_nodes.size
    # (order, row ell - m, field): s + i c per order, the m = 0 column real
    coeffs = np.empty((n + 1, n + 1, k), complex)
    coeffs[0] = data[:, :, 0].T
    coeffs[1:].transpose(2, 1, 0)[...] = data[:, :, 1:].view(complex)
    # (parity, order, northern node, field): one GEMM per order block and
    # parity, the k fields' real and imaginary parts its 2k columns; parity
    # leads so that each parity's products of a chunk add into one
    # contiguous block (twice as fast as a block strided by parity)
    spectra = np.empty((2, n + 1, north, k), complex)
    coeffs_r, spectra_r = coeffs.view(float), spectra.view(float)
    # streamed chunks after the first accumulate through one buffer, sized
    # for the second chunk, whose orders are the most
    product = None
    for m, first, tables, scales in _legendre_tables(grid, n):
        if scales is not None:
            coeffs[m, first : first + scales.shape[1]] *= scales[:, :, None]
        for parity, table in enumerate(tables):
            rows = coeffs_r[m, first + parity : first + 2 * table.shape[1] : 2]
            if first == 0:
                np.matmul(table.transpose(0, 2, 1), rows, out=spectra_r[parity, m])
                continue
            if product is None:
                product = np.empty((table.shape[0], north, 2 * k))
            np.matmul(table.transpose(0, 2, 1), rows, out=product[: table.shape[0]])
            spectra_r[parity, m] += product[: table.shape[0]]
    # with the loop's last views: a streamed transform's tables view its
    # ring of rows
    del coeffs, coeffs_r, product, rows, tables, table
    # the tables are real, so the complex factor commutes with them
    spectra *= _order_factors(n, count)[0][:, None, None]
    return _irfft(spectra.transpose(3, 0, 2, 1), grid, np.empty((k, 2, north, count)))


def _synthesize(data, grid):
    """Values on ``grid`` of a (k, n+1, 2n+1) coefficient stack, n <= grid
    degree: the hemispheres assembled from :func:`_parity_parts`."""
    parts = _parity_parts(data, grid)
    k, _, north, count = parts.shape
    paired = grid.degree + 1 - north
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
    # (order, parity, northern node, field)
    spectra = np.empty((count // 2 + 1, 2, north, k), complex)
    _rfft(folded, grid, spectra.transpose(3, 1, 2, 0))
    del folded
    spectra = spectra[: n + 1]
    spectra *= _order_factors(n, count)[1][:, None, None, None]
    coeffs = np.zeros((n + 1, n + 1, k), complex)
    coeffs_r, spectra_r = coeffs.view(float), spectra.view(float)
    for m, first, tables, scales in _legendre_tables(grid, n):
        for parity, table in enumerate(tables):
            np.matmul(table, spectra_r[m, parity],
                      out=coeffs_r[m, first + parity : first + 2 * table.shape[1] : 2])
        if scales is not None:
            coeffs[m, first : first + scales.shape[1]] *= scales[:, :, None]
    # freed before the output exists; the last tables may view a ring
    del spectra, spectra_r, tables, table
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
    one = (grid.degree + 1, 2 * grid.degree + 1)
    data = _check_array(coeffs, [one, (None, *one)], "coeffs")
    values = _synthesize(data.reshape(-1, *one), grid)
    return values.reshape(data.shape[:-1] + values.shape[-1:])


def analysis(values, grid):
    """Project grid values onto the basis; exact for band-limited data.

    ``values`` is one field's (n+1, L) array or a (k, n+1, L) stack;
    returns the (n+1, 2n+1) coefficient array or the (k, n+1, 2n+1) stack.
    """
    one = (grid.degree + 1, grid.lon_nodes.size)
    values = _check_array(values, [one, (None, *one)], "values")
    data = _analyze(values.reshape(-1, *one), grid)
    return data.reshape(values.shape[:-1] + data.shape[-1:])


# ----------------------------------------------------------------------
# file formats: UTF-8 CSV, "\n" line ends, "#" head lines first.  Every
# number is written as the bytes '%.17g' % x gives, which round-trip every
# double.  ``_g17`` computes them for a whole chunk of values in numpy and
# leaves to "%" itself only the values it cannot settle exactly, of which
# the program's own outputs have none.  It lays a chunk out one value a
# row, in fixed columns sized to that chunk's values, and the writer drops
# the zero pad bytes between the texts.  Writers format and write a file
# in whole rows of about ``_CSV_CHUNK`` formatted values.  A coefficient
# file formats only its stored triangle: ``_csv_body`` writes each row's
# all-+0.0 structural tail as the constant text ",0" per slot.
# ----------------------------------------------------------------------

#: values formatted per chunk of a CSV body (a few hundred kB of buffers)
_CSV_CHUNK = 4096

#: magnitudes the fast path formats: inside them 10^(16-e) and its low
#: half are normal doubles and the Dekker products neither overflow nor
#: underflow
_G17_RANGE = (1e-280, 1e280)

#: decades e the fast path meets: those of ``_G17_RANGE``, -280..279,
#: and two more each side for a first estimate or a redo a decade off
#: (past them Veltkamp's split of 10^(16-e) overflows)
_G17_DECADES = range(-282, 282)

#: a scaled value whose fraction is within this of 1/2 is left to "%":
#: the pair product errs by less than 2^-47 (see ``_scaled17``), so
#: outside the band the rounding direction is certain, and exact ties,
#: which "%" rounds to even, all fall inside it
_G17_TIE = 2.0**-44

#: Veltkamp's splitter: x * (2^27 + 1) splits a double into two halves of
#: at most 26 significant bits, whose pairwise products are exact
_SPLITTER = 134217729.0


def _pow10(k):
    """10^k as a pair of doubles (hi, lo): hi the double nearest 10^k and
    lo the double nearest 10^k - hi, so hi + lo is within 2^-106 of 10^k
    relative.  Python's int-to-float conversion and int / int division
    round correctly, and hi's exact ratio gives the rest in integers."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    hi = 1 / 10**-k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-k) / (den * 10**-k)


def _split(x):
    """Veltkamp halves (hi, lo) of x, hi + lo = x exactly."""
    scaled = _SPLITTER * x
    hi = scaled - (scaled - x)
    return hi, x - hi


#: per-decade tables, entry e - ``_G17_DECADES.start`` for decade e:
#: ``_POW10`` holds the row (hi, lo, hi's Veltkamp halves) for 10^(16-e),
#: ``_pow10``'s pair, and ``_AFFIX`` the text around the digits in three
#: rows of zero-padded 8-byte words: "0." and the zeros of fixed notation
#: below 1, then the exponent of %e form in five columns (e, the sign, a
#: hundreds digit or a pad, two digits) and in four, without the hundreds.
#: ``_scaled17`` fills a decade's entries, and those of the next decade,
#: which rounding can carry into, the first time a chunk meets it (NaN
#: marks the rest): all of them take over 1 ms to build, and an evolve run
#: writes its first snapshot in its set-up phase.
_POW10 = np.full((len(_G17_DECADES), 4), np.nan)
_AFFIX = np.zeros((3, len(_G17_DECADES)), np.uint64)


def _fill_decades(entries):
    """Fill the per-decade tables' ``entries`` and the entries after them."""
    for entry in set(entries.tolist()) | set((entries + 1).tolist()):
        if entry >= len(_G17_DECADES):
            continue
        decade = _G17_DECADES[entry]
        power = b"" if -4 <= decade < 17 else b"e%+03d" % decade
        texts = (b"0." + b"0" * (-1 - decade) if -4 <= decade < 0 else b"",
                 power if abs(decade) >= 100 else power[:2] + b"\0" + power[2:],
                 power[:4])
        _AFFIX[:, entry] = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)
        # last, as it clears the NaN that marks the entry unfilled
        hi, lo = _pow10(16 - decade)
        _POW10[entry] = hi, lo, *_split(np.float64(hi))


def _scaled17(a, e):
    """Integer parts of s = a 10^(16-e) for positive doubles ``a`` in
    ``_G17_RANGE`` and integer arrays ``e``: (floor(s), s rounded to the
    nearest integer, whether s is too near a tie to round).

    a 10^(16-e) is a (hi, lo) pair times a: a * hi exactly by Dekker's
    two-product, plus a * lo rounded.  In the decade of e, 10^16 <= s <
    10^17 < 2^57, the error is below 2^-47: 2^-106 s from the pair,
    2^-106 s from rounding a * lo and 2^-49 from adding the low parts,
    which stay below 32.  There the high part of the product is an
    integer (s > 2^53), so the low parts alone hold the fraction.  Outside
    it floor(s) is outside [10^16, 10^17) too, and the caller redoes it."""
    entries = e - _G17_DECADES.start
    table = _POW10.take(entries, axis=0)
    missing = np.isnan(table[:, 0])
    if missing.any():
        _fill_decades(entries[missing])
        table = _POW10.take(entries, axis=0)
    hi, lo, hi_hi, hi_lo = table.T
    high = a * hi
    a_hi, a_lo = _split(a)
    low = (((a_hi * hi_hi - high) + a_hi * hi_lo) + a_lo * hi_hi) + a_lo * hi_lo
    low += a * lo
    whole = np.floor(low)
    frac = low - whole
    floor = high.astype(np.int64) + whole.astype(np.int64)
    return floor, floor + (frac > 0.5), np.abs(frac - 0.5) < _G17_TIE


def _g17(values, head):
    """The bytes of '%.17g' % v for each double of the 1-d array
    ``values``, one value a row: a zeroed bytearray and the uint8 array of
    shape (len(values), head + width + 1) that views it.  Row i holds
    ``head`` free columns, then the text of values[i] among zero pad bytes
    in ``width`` columns, then one free separator column; the caller fills
    the free columns, and ``translate(None, b"\\0")`` of the bytearray
    drops the pad bytes without another copy.

    The fast path (``_g17_fast``) takes the exponent e from log10, rounds
    |v| 10^(16-e) half to even to a 17-digit integer (``_scaled17``) and
    lays out its digits as %g does: fixed notation for -4 <= e < 17,
    otherwise d.ddde+XX, without trailing zeros or a bare point.  The
    columns are sized to the chunk (``_g17_layout``), so a chunk of short
    texts gets narrow rows.  Zeros are a constant case.  Non-finite
    values, magnitudes outside ``_G17_RANGE`` and values within the error
    bound of a rounding tie are formatted with "%".
    """
    mag = np.abs(values)
    negative = np.signbit(values)
    fast = (mag >= _G17_RANGE[0]) & (mag < _G17_RANGE[1])
    # the fast path runs on its values alone: chunks of many zeros still
    # come here (a chunk with -0 structural slots; the step-0 snapshot of
    # random:63 at degree 127 holds 12 288 zeros in 16 384 stored slots),
    # and one masked path ran 25-35 % slower on input that is half zeros
    rows = None if fast.all() else np.flatnonzero(fast)
    *parts, left = _g17_fast(mag if rows is None else mag[rows])
    if rows is not None:
        left = np.concatenate([rows[left], np.flatnonzero(~fast & (mag != 0.0))])
    texts = [b"%.17g" % values[i] for i in left.tolist()]
    layout = _g17_layout(bool(negative.any()), *parts)
    width = max([sum(layout)] + [len(text) for text in texts])
    raw = bytearray(len(values) * (head + width + 1))
    buf = np.frombuffer(raw, np.uint8).reshape(len(values), head + width + 1)
    field = buf[:, head : head + width]
    if rows is None:
        _g17_write(field, negative, *parts, layout)
    else:
        part = np.zeros((rows.size, width), np.uint8)
        _g17_write(part, negative[rows], *parts, layout)
        field[rows] = part
        zero = np.flatnonzero(mag == 0.0)
        sign, lead = layout[:2]
        if sign:
            field[zero, 0] = negative[zero] * np.uint8(ord("-"))
        field[zero, sign + lead] = ord("0")
    for i, text in zip(left.tolist(), texts):
        field[i] = 0
        field[i, : len(text)] = np.frombuffer(text, np.uint8)
    return raw, buf


#: digit positions 0..16 of a (17, count) digit array
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]


def _g17_fast(mag):
    """The parts of '%.17g' for magnitudes in ``_G17_RANGE``: (digits,
    exp, whole, point, left).  Row j of ``digits`` holds the j-th of the 17
    rounded digits as text, zero past the last one %g writes, and the
    array stops after the last row any value writes.  ``exp`` is the
    decimal exponent, ``whole`` the digit a point follows (the last of the
    integer part in fixed notation, else 0) and ``point`` whether one
    does.  ``left`` holds the indices of the values left to "%": those
    within the error bound of a rounding tie."""
    exp = np.floor(np.log10(mag)).astype(np.int64)
    floor, num, tie = _scaled17(mag, exp)
    # log10 can be one decade off next to a power of ten: redo those
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:
        exp[off] += np.where(floor[off] < 10**16, -1, 1)
        floor[off], num[off], tie[off] = _scaled17(mag[off], exp[off])
    # rounding up to 10^17 carries into the next decade
    carry = num == 10**17
    num[carry] = 10**16
    exp += carry
    # the 17 digits, most significant first: the leading one, then pairs
    # of the two 8-digit halves of the rest
    digits = np.empty((17, mag.size), np.uint8)
    lead = num // 10**16
    digits[0] = lead
    rest = num - lead * 10**16
    upper = rest // 10**8
    row = 1
    for half in (upper.astype(np.uint32), (rest - upper * 10**8).astype(np.uint32)):
        quad = half // 10000
        for group in (quad, half - quad * 10000):
            high = group // 100
            for pair in (high, group - high * 100):
                tens = pair // 10
                digits[row], digits[row + 1] = tens, pair - tens * 10
                row += 2
    last = ((digits != 0) * _DIGIT_INDEX).max(axis=0)  # the last nonzero digit
    exp = exp.astype(np.int16)
    below_one = (exp >= -4) & (exp < 0)
    whole = np.where((exp >= 0) & (exp < 17), exp, 0).astype(np.uint8)
    used = np.maximum(last, whole)
    digits += ord("0")
    digits *= _DIGIT_INDEX <= used
    point = (last > whole) & ~below_one
    left = np.flatnonzero(tie | (num < 10**16) | (num >= 10**17))
    return digits[: int(used.max(initial=0)) + 1], exp, whole, point, left


def _g17_layout(sign, digits, exp, whole, point):
    """Column counts (sign, lead, points, digits, power) of the narrowest
    ``_g17_write`` layout for the ``_g17_fast`` parts of a chunk: the sign
    column if ``sign``; "0." and as many zeros as the smallest exponent
    below 1 needs; a point slot after each digit up to the widest integer
    part that a point follows; a column per row of ``digits``; and, if a
    value has %e form, "e", the exponent's sign and two digits, or three
    if some |e| >= 100."""
    low = int(np.where((exp >= -4) & (exp < 0), exp, 0).min(initial=0))
    lead = 1 - low if low else 0
    points = int((whole * point).max()) + 1 if point.any() else 0
    low, high = int(exp.min(initial=0)), int(exp.max(initial=0))
    power = 0
    if low < -4 or high >= 17:
        power = 5 if low <= -100 or high >= 100 else 4
    return int(sign), lead, points, len(digits), power


def _g17_write(out, negative, digits, exp, whole, point, layout):
    """Lay out the ``_g17_fast`` parts of some values in the zeroed uint8
    array ``out``, one value a row, in the columns of ``layout``: the
    sign; "0." and zeros before the digits of fixed notation below 1; the
    digits, the first ``points`` of them each followed by a slot that
    holds the point after the last digit of the integer part; and "e",
    the exponent's sign and its digits."""
    sign, lead, points, count, power = layout
    if sign:
        out[:, 0] = negative * np.uint8(ord("-"))
    decade = exp - _G17_DECADES.start
    if lead:
        _put(out, sign, lead, _AFFIX[0].take(decade))
    first = sign + lead
    out[:, first : first + 2 * points : 2] = digits[:points].T
    out[:, first + 2 * points : first + points + count] = digits[points:].T
    for slot in range(points):
        out[:, first + 1 + 2 * slot] = (point & (whole == slot)) * np.uint8(ord("."))
    if power:
        _put(out, first + points + count, power, _AFFIX[1 if power == 5 else 2].take(decade))


def _put(out, column, width, words):
    """out[:, column : column + width] = the first ``width`` bytes of each
    uint64 of ``words``, copied as one unit a row: numpy copies short rows
    of bytes several times slower."""
    unit = f"V{width}"
    text = words.view(np.uint8).reshape(-1, 8)[:, :width]
    out[:, column : column + width].view(unit)[:, 0] = text.view(unit)[:, 0]


def _csv_body(table, tails=None):
    """The CSV rows of a 2-d float table, each value formatted '%.17g',
    joined by "," and ended by a newline: bytes chunks of whole rows, about
    ``_CSV_CHUNK`` formatted values each.

    Row r of a coefficient file (``write_coeffs``) ends in ``tails[r]``
    structural slots.  When all of a chunk's tail slots are +0.0 (bit for
    bit: -0.0 prints "-0"), each tail is the constant text ",0" per slot and
    only the rest of its row is formatted; otherwise the whole rows are."""
    rows, cols = table.shape
    tails = np.zeros(rows, np.int64) if tails is None else np.asarray(tails)
    # before[r]: the values formatted in the rows above row r
    before = np.concatenate([[0], np.cumsum(cols - tails)])
    stop = 0
    while stop < rows:
        # a search per chunk: np.unique's first call imports numpy.ma, over
        # 10 ms and 1 MB of RSS in every command
        start = stop
        stop = min(rows, int(np.searchsorted(before, before[start] + _CSV_CHUNK)))
        block, tail = table[start:stop], tails[start:stop]
        stored = np.arange(cols) < (cols - tail)[:, None]
        if block[~stored].view(np.uint64).any():
            tail, stored = np.zeros_like(tail), np.ones_like(stored)
        raw, buf = _g17(block[stored], 0)
        buf[:, -1] = ord(",")
        buf[np.cumsum(cols - tail) - 1, -1] = ord("\n")
        text = raw.translate(None, b"\0")
        if tail.any():
            text = b"".join(line + b",0" * count + b"\n"
                            for line, count in zip(text.split(b"\n"), tail.tolist()))
        yield text


def _write_csv(path, head, body):
    """Write the ``head`` lines, skipping empty or None ones (an absent
    comment), then the bytes chunks of ``body``.  A head line holding a
    line break raises ValueError before the file is opened."""
    head = [line for line in head if line]
    for line in head:
        if "\n" in line or "\r" in line:
            raise ValueError(f"a head line must be one line, got {line!r}")
    with open(path, "wb") as fh:
        fh.writelines(f"{line}\n".encode() for line in head)
        fh.writelines(body)


def write_coeffs(coeffs, path, comment=None):
    """Write one field's (n+1, 2n+1) coefficient array as CSV rows.

    The first line is the format header ``# sht-coeffs v1 degree=<n>``;
    an optional extra ``#`` comment line follows (a comment holding a line
    break raises ValueError).  Deterministic output.
    """
    coeffs, n = _check_coeffs(coeffs, "coeffs")
    head = [f"# sht-coeffs v1 degree={n}", comment and f"# {comment}"]
    _write_csv(path, head, _csv_body(coeffs, 2 * np.arange(n + 1)))


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


def write_grid_values(values, grid, path):
    """Write grid values as CSV with columns ``theta,phi,value``."""
    n = grid.degree
    if grid.lon_nodes.size != 2 * n + 1:
        raise ValueError(f"sht-grid v1 files hold 2n+1 longitudes, not {grid.lon_nodes.size}")
    values = _check_array(values, (n + 1, 2 * n + 1), "values")
    head = [f"# sht-grid v1 degree={n}", "theta,phi,value"]
    _write_csv(path, head, _grid_body(values, grid))


def _grid_body(values, grid):
    """The "theta,phi,value" lines of a grid file: bytes chunks of whole
    colatitude rows, about ``_CSV_CHUNK`` values each.  theta and phi are
    formatted once and copied into each line."""
    thetas, phis = (_padded_texts(nodes) for nodes in (grid.colat_nodes, grid.lon_nodes))
    head = thetas.shape[1] + phis.shape[1]
    step = max(1, _CSV_CHUNK // phis.shape[0])
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        raw, buf = _g17(block.ravel(), head)
        lines = buf.reshape(block.shape + buf.shape[1:])
        lines[..., : thetas.shape[1]] = thetas[start : start + step, None]
        lines[..., thetas.shape[1] : head] = phis
        buf[:, -1] = ord("\n")
        yield raw.translate(None, b"\0")


def _padded_texts(values):
    """The text of each value and a comma, as the rows of a uint8 array,
    zero-padded to the longest."""
    lines = b"".join(_csv_body(values[:, None])).replace(b"\n", b",\n").splitlines()
    return np.array(lines).view(np.uint8).reshape(values.size, -1)
