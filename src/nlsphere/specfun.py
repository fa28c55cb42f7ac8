"""Legendre kernels used throughout the package.

Everything downstream (quadrature weights, operator eigenvalues, spherical
harmonic transforms) reduces to a handful of classical recurrences.  They
are implemented here directly so the numerical core depends only on numpy
array arithmetic:

* ``_legendre_pair`` -- Legendre polynomials by the three-term recurrence,
  the loop of the Gauss--Legendre Newton iteration,
* ``_m1_over_hav_rows`` -- the cancellation-free ratio
  g_ell = (P_ell(1 - 2q) - 1) / q in the haversine q = sin^2(theta/2),
  the integrand of every operator eigenvalue, degree by degree (ratio
  series near q = 0, a three-term recurrence on the ratio itself
  elsewhere),
* ``assoc_legendre_table`` -- fully normalized associated Legendre
  functions, the tables of the transforms.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

__all__ = ["assoc_legendre_table"]

_EPS = np.finfo(float).eps

#: The near-1 ratio series is used only while (ell + 1/2)^2 sin^2(theta/2)
#: stays at or below this; beyond it the alternating terms grow so large
#: that double precision cannot cancel them.
_SERIES_OSC_MAX = 4.0

#: Haversine threshold for preferring the ratio series over the
#: recurrence on (P_ell - 1) / q.
_SERIES_HAV_MAX = 1e-2

#: Degrees per block of ``_m1_over_hav_rows``; keeps its memory O(len(q)).
_SWEEP_BLOCK = 64

#: Rows of the Legendre table per step of the row recurrence, even so that
#: every step starts on an even row.  8 rows of all orders halved the ring
#: of 16 but ran slower (5-30 % measured at degree 383).
_ROW_CHUNK = 16

#: Orders per block of the row recurrence; its blocks share one ring of
#: ``_ROW_CHUNK`` rows of this many orders.  At 192 points, a degree-383
#: transform's, the ring takes 3.0 MiB of the 8.7 and 8.3 MiB that a
#: streamed synthesis and analysis allocate at their peaks (9.0 MiB of
#: 15.2 and 14.6 for 16 rows of all 384 orders, at the same speed); 64
#: and 96 orders ran up to 9 % slower, 192 kept 1.8 MiB more.
_ORDER_CHUNK = 128


def _check_count(value, name, minimum=0):
    """``value`` as a Python int; raises ValueError naming ``name`` for a
    bool, any other non-integer or a value below ``minimum``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    bound = {0: "a non-negative integer", 1: "a positive integer"}.get(
        minimum, f"an integer >= {minimum}")
    raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_real(value, name, low, high, closed=False):
    """``value`` as a Python float; raises ValueError naming ``name`` for a
    bool, any other non-real, NaN, +-inf, or a value outside (low, high),
    or outside (low, high] when ``closed``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        x = math.inf
    # the float is what the caller stores, so the float is what is checked
    if math.isfinite(x) and low < x and (x <= high if closed else x < high):
        return x
    raise ValueError(f"{name} must be a finite number in ({low}, {high}{']' if closed else ')'}, "
                     f"got {value!r}")


def _check_array(value, shape, name):
    """``value`` as a float64 ndarray, the same object when it already is
    one; ``shape`` is a tuple whose None entries are free lengths, or a
    list of such tuples of which any one will do.  Raises ValueError naming
    ``name`` for another shape or for what does not convert: a ragged
    sequence, strings, None, bools, complex numbers or other objects."""
    shapes = shape if isinstance(shape, list) else [shape]
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged sequence
        array = None
    if array is None or array.dtype.kind not in "iuf":
        given = reprlib.repr(value)
    else:
        array = array.astype(float, copy=False)
        for want in shapes:
            if len(want) == array.ndim and all(w in (None, s) for w, s in zip(want, array.shape)):
                return array
        given = f"shape {array.shape}"
    raise ValueError(f"{name} must be a real array of shape {' or '.join(map(str, shapes))}, "
                     f"got {given}")


# ----------------------------------------------------------------------
# Legendre polynomials: three-term recurrence
# ----------------------------------------------------------------------

def _legendre_pair(n, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence (n >= 1):
    P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1), rounded in that order,
    in three buffers that the steps rotate through."""
    p_prev = np.ones_like(x)
    p = x.copy()
    new, term = np.empty_like(x), np.empty_like(x)
    for k in range(1, n):
        np.multiply(2.0 * k + 1.0, x, out=new)
        new *= p
        np.multiply(k, p_prev, out=term)
        new -= term
        new /= k + 1.0
        p, p_prev, new = new, p, p_prev
    return p, p_prev


# ----------------------------------------------------------------------
# (P_ell(cos theta) - 1) / sin^2(theta/2) without cancellation
# ----------------------------------------------------------------------

def _m1_series_from_hav(ell, q):
    """Ratio series in the haversine q; exact polynomial of degree ell-1.

    term_1 = -ell(ell+1) and term_{k+1}/term_k =
    (k(k+1) - ell(ell+1)) q / (k+1)^2, so the loop needs no binomials.
    ``ell`` and ``q`` are float arrays of one shape, a degree and a
    haversine per entry.  Terminates early once the current term is below
    machine epsilon relative to the running magnitude of the partial sums
    and the terms are shrinking.
    """
    top = ell * (ell + 1.0)
    term = -top
    total = term.copy()
    running = np.abs(total)
    prev_mag = np.abs(term)
    for k in range(1, int(ell.max())):
        term = term * ((k * (k + 1.0) - top) / ((k + 1.0) * (k + 1.0))) * q
        total += term
        np.maximum(running, np.abs(total), out=running)
        mag = np.abs(term)
        if (mag <= _EPS * running).all() and (mag <= prev_mag).all():
            break
        prev_mag = mag
    return total


def _m1_over_hav_rows(q, last):
    """Rows of g_ell = (P_ell(1 - 2q) - 1) / q at the haversines ``q`` (a
    1-D array) for the degrees ell = 1..last, ``_SWEEP_BLOCK`` at a time,
    as ``(first_degree, rows)``; ``rows`` views a buffer that the next
    block overwrites.  The three-term recurrence runs on g itself:
    (ell + 1) g_{ell+1} = (2 ell + 1) (g_ell - 2q g_ell - 2) - ell g_{ell-1},
    so no step rounds t = 1 - 2q, an error that grows like ell^2.  In every
    block the ratio series takes its zone and seeds the next steps.
    """
    q2 = 2.0 * q
    buf = np.empty((_SWEEP_BLOCK, q.size))
    g_prev = g = np.zeros_like(q)  # g_0; the first step gives g_1 = -2 exactly
    for start in range(1, last + 1, _SWEEP_BLOCK):
        ells = np.arange(start, min(start + _SWEEP_BLOCK, last + 1), dtype=float)
        rows = buf[: ells.size]
        for row, ell in zip(rows, ells.tolist()):  # Python floats step fastest
            step = g - q2 * g
            step -= 2.0
            step *= 2.0 * ell - 1.0
            step -= (ell - 1.0) * g_prev
            np.divide(step, ell, out=row)
            g_prev, g = g, row
        ells, qs = np.broadcast_arrays(ells[:, None], q)
        series = (qs <= _SERIES_HAV_MAX) & ((ells + 0.5) ** 2 * qs <= _SERIES_OSC_MAX)
        if series.any():
            rows[series] = _m1_series_from_hav(ells[series], qs[series])
        yield start, rows


# ----------------------------------------------------------------------
# Fully normalized associated Legendre functions
# ----------------------------------------------------------------------

def _legendre_rows(ms, degree, t):
    """Rows i = ell - m of the normalized associated Legendre table of the
    ascending orders ``ms`` at the points ``t``, ``_ROW_CHUNK`` rows at a
    time, each row divided by a per-order scale: one three-term recurrence
    in i, run for the orders of a block of at most ``_ORDER_CHUNK`` at
    once, every block through all its rows before the next starts.

    Yields ``(orders, first, rows, scales)`` block by block, for first = 0,
    chunk, 2 chunk, ... up to row degree - m of the block's first order m:
    ``orders`` is the slice of ``ms`` whose rows these are, the block's
    orders active at row ``first`` (m <= degree - first), and
    ``scales[r, j] * rows[r, j]`` is Ptilde_{m_j+first+r}^{m_j}(t) for the
    j-th of them; ``rows[r, j]`` is zero where m_j + first + r > degree.
    ``rows`` views a ring buffer of ``chunk`` rows of one block, (row,
    order, point) row-major, that the next step overwrites; ``scales`` is
    a fresh (row, order) array.

    The scale sigma of row i is b_i sigma_{i-2}, with sigma = 1 on rows 0
    and 1, so that Ptilde_ell = a_ell t Ptilde_{ell-1} - b_ell
    Ptilde_{ell-2} becomes Q_ell = alpha_ell t Q_{ell-1} - Q_{ell-2} for
    Q = Ptilde / sigma and alpha_ell = a_ell sigma_{ell-1} / sigma_ell:
    three passes over a row instead of four.  Each row forms alpha Q_{ell-1}
    first and multiplies by t after, an order that reads 1.7e-13 against a
    50-digit run of the recurrence at degree 383 where (alpha t) Q_{ell-1}
    reads 3.4e-13.  sigma lies in [0.2, 1.2] through degree 2000, so the
    seeds underflow where they did without it.  Every operation is per
    order, so an order's rows do not depend on the block it runs in.  The
    seeds of all orders are made once per call; the recurrence
    coefficients and scales per chunk, for its rows and active orders
    only, so the generator holds the seeds, the ring and O(chunk x
    ``_ORDER_CHUNK``) besides, at any degree.
    """
    chunk = _ROW_CHUNK
    # diagonal seeds Ptilde_m^m, a running product over k = 1..m so that
    # large m cannot overflow before the sin^m factor damps it
    k = np.arange(1, int(ms[-1]) + 1)
    factors = np.empty((k.size + 1, t.size))
    factors[0] = 1.0 / math.sqrt(2.0)
    sint = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    np.multiply(np.sqrt((2.0 * k + 1.0) / (2.0 * k))[:, None], sint, out=factors[1:])
    seeds = np.multiply.accumulate(factors, axis=0, out=factors)[ms]
    del factors
    ring = np.empty((chunk, min(ms.size, _ORDER_CHUNK), t.size))
    ms_float = ms.astype(float)
    # every block steps through the chunks of the first order's rows, so
    # an order's chunks, and the products the transforms form of them,
    # have the same shapes in whatever block it runs
    total = degree - int(ms[0]) + 1
    for start in range(0, ms.size, _ORDER_CHUNK):
        block = ms[start : start + _ORDER_CHUNK]
        # orders active at row i: block <= degree - i, a prefix of the
        # ascending block
        active = np.searchsorted(block, degree - np.arange(total), side="right")
        ring[0, : block.size] = seeds[start : start + block.size]
        # scales of the two rows before the chunk; 1 before row 0
        carry = np.ones((2, block.size))
        for first in range(0, total, chunk):
            top = active[first]
            if not top:
                break
            # row i - lo of a and b holds the coefficients of row i, ell = m + i,
            # for the orders active here; row 0 is the seed, where ell = m
            # would divide by zero
            lo, hi = max(first, 1), min(first + chunk, total)
            # a = sqrt((2 ell - 1) (2 ell + 1) / ((ell - m) (ell + m))) and
            # b = sqrt((2 ell + 1) / (2 ell - 3) * ((ell - 1 - m) (ell - 1 + m))
            # / ((ell - m) (ell + m))), rounded in that order; the products of
            # integers are exact
            mj = ms_float[start : start + top]
            ell = np.arange(lo, hi, dtype=float)[:, None] + mj
            twice = 2.0 * ell
            odd = twice + 1.0
            den = (ell - mj) * (ell + mj)
            a = (twice - 1.0) * odd
            a /= den
            np.sqrt(a, out=a)
            ell -= 1.0
            b = odd / (twice - 3.0)
            b *= (ell - mj) * (ell + mj)
            b /= den
            np.sqrt(b, out=b)
            # row r of sigma holds the scales of row first - 2 + r: the two
            # carried rows, then b (1 on rows 0 and 1), multiplied up two rows
            # apart
            sigma = np.empty((hi - first + 2, top))
            sigma[:2] = carry[:, :top]
            sigma[lo - first + 2 :] = b
            if first == 0:
                sigma[2:4] = 1.0
            for parity in (0, 1):
                np.multiply.accumulate(sigma[parity::2], axis=0, out=sigma[parity::2])
            carry = sigma[-2:]
            alpha = a * sigma[lo - first + 1 : -1] / sigma[lo - first + 2 :]
            for i in range(lo, hi):
                live = active[i]
                p, cur = ring[(i - 1) % chunk, :live], ring[i % chunk, :live]
                # Q_ell = (alpha Q_{ell-1}) t - Q_{ell-2} in three passes, each
                # order rounded as its own one-order recurrence would be
                np.multiply(p, alpha[i - lo, :live, None], out=cur)
                cur *= t
                if i > 1:
                    cur -= ring[(i - 2) % chunk, :live]
                ring[i % chunk, live:top] = 0.0
            yield slice(start, start + top), first, ring[: hi - first, :top], sigma[2:]


def assoc_legendre_table(orders, degree, t):
    """Table of normalized associated Legendre functions, split by parity.

    For a 1-D array of ascending orders returns the pair ``(even, odd)``
    of shapes ``(len(orders), (rows + 1) // 2, len(t))`` and ``(len(orders),
    rows // 2, len(t))``, rows = degree - orders[0] + 1: entry ``[j, i]``
    of ``even`` holds ``Ptilde_{m_j+2i}^{m_j}(t)`` and of ``odd``
    ``Ptilde_{m_j+2i+1}^{m_j}(t)``, zero where the degree exceeds
    ``degree``.  Each is normalized so that its square integrates to 1 over
    [-1, 1].  Requires ``0 <= orders <= degree``.  No Condon-Shortley
    phase is applied.
    """
    ms = np.asarray(orders)
    if (ms.ndim != 1 or ms.size == 0 or ms.dtype.kind not in "iu" or np.any(ms < 0)
            or np.any(ms[1:] < ms[:-1])):
        raise ValueError(
            f"orders must be a 1-D array of ascending non-negative integers, got {orders!r}"
        )
    degree = _check_count(degree, "degree", int(ms[-1]))
    t = np.atleast_1d(_check_array(t, [(), (None,)], "t"))
    if np.any(np.abs(t) > 1.0 + 4.0 * _EPS):
        raise ValueError("argument must lie in [-1, 1]")
    ms = ms.astype(np.int64)
    rows = degree - int(ms[0]) + 1
    # row i of the table goes to row i // 2 of parts[i % 2]
    parts = (np.zeros((ms.size, (rows + 1) // 2, t.size)),
             np.zeros((ms.size, rows // 2, t.size)))
    for m, first, chunk, scales in _legendre_rows(ms, degree, t):
        for offset, part in enumerate(parts):
            block = chunk[offset::2].transpose(1, 0, 2)
            start = (first + offset) // 2
            # the table holds Ptilde itself: the rows times their scales
            np.multiply(block, scales[offset::2].T[:, :, None],
                        out=part[m, start : start + block.shape[1]])
    return parts
