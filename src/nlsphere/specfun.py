"""Legendre and Bessel kernels used throughout the package.

Everything downstream (quadrature weights, operator eigenvalues, spherical
harmonic transforms) reduces to a handful of classical special functions.
They are implemented here directly so the numerical core depends only on
numpy array arithmetic:

* ``legendre_rec`` -- Legendre polynomials by the three-term recurrence,
* ``legendre_szego`` -- large-degree evaluation through a Bessel series,
* ``legendre_m1_over_hav`` -- the cancellation-free ratio
  ``(P_ell(cos theta) - 1) / sin^2(theta/2)``,
* ``bessel_j`` -- cylindrical Bessel functions J_0..J_3,
* ``assoc_legendre_normalized`` / ``assoc_legendre_table`` -- fully
  normalized associated Legendre functions.

Scalar or array arguments are accepted; arrays come back as arrays and
scalars as Python floats.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "AccuracyWarning",
    "BESSEL_SERIES_MAX",
    "SZEGO_MIN_DEGREE",
    "assoc_legendre_normalized",
    "assoc_legendre_table",
    "bessel_j",
    "legendre_m1_over_hav",
    "legendre_rec",
    "legendre_szego",
]

#: Crossover between the J_0/J_1 power series and the large-argument
#: (Hankel) expansion.  At z = 13 the series loses ~eps * I_0(13) ~ 1e-11
#: to cancellation while the asymptotic tail bottoms out near 5e-12, so
#: this is where the two error curves intersect.
BESSEL_SERIES_MAX = 13.0

#: Degrees below this are outside the design range of the four-term
#: Bessel-series asymptotics; accuracy degrades smoothly, it does not fail.
SZEGO_MIN_DEGREE = 50

_EPS = np.finfo(float).eps

#: Below this colatitude the asymptotic correction terms a_nu(theta) are
#: under 1e-16 relative, so only the leading J_0 term is kept.
_SZEGO_TINY_THETA = 1e-8

#: The near-1 ratio series is used only while (ell + 1/2)^2 sin^2(theta/2)
#: stays at or below this; beyond it the alternating terms grow so large
#: that double precision cannot cancel them.
_SERIES_OSC_MAX = 4.0

#: Haversine threshold for preferring the ratio series over direct
#: evaluation of (P_ell - 1) / q; the eigenvalue integrands share it.
_SERIES_HAV_MAX = 1e-2

#: Rows of the Legendre table per step of the row recurrence, even so that
#: every step starts on an even row.  16 rows of all 384 orders at 192
#: points, a degree-383 transform's, take 9.4 MB.
_ROW_CHUNK = 16


class AccuracyWarning(UserWarning):
    """An evaluation was requested outside a method's accurate range."""


def _check_degree(ell, minimum=0):
    if not isinstance(ell, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(ell).__name__}")
    if ell < minimum:
        raise ValueError(f"degree must be >= {minimum}, got {ell}")
    return int(ell)


def _wrap(arr, scalar_input):
    return float(arr[0]) if scalar_input else arr


# ----------------------------------------------------------------------
# Legendre polynomials: three-term recurrence
# ----------------------------------------------------------------------

def legendre_rec(ell, t):
    """Evaluate the Legendre polynomial P_ell(t) by upward recurrence.

    ``t`` must lie in [-1, 1] up to a slack of four machine epsilons,
    which tolerates endpoints produced by floating-point cosines.
    """
    ell = _check_degree(ell)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(np.abs(t_arr) > 1.0 + 4.0 * _EPS) or not np.all(np.isfinite(t_arr)):
        raise ValueError("argument of legendre_rec must lie in [-1, 1]")
    if ell == 0:
        return _wrap(np.ones_like(t_arr), scalar)
    p_prev = np.ones_like(t_arr)
    p = t_arr.copy()
    for k in range(1, ell):
        p, p_prev = ((2.0 * k + 1.0) * t_arr * p - k * p_prev) / (k + 1.0), p
    return _wrap(p, scalar)


# ----------------------------------------------------------------------
# Bessel functions J_0 .. J_3
# ----------------------------------------------------------------------

def _bessel_j01_series(nu, z):
    # ascending power series; 40 terms bound the tail by ~1e-33 at z = 13
    q = 0.25 * z * z
    term = np.ones_like(z) if nu == 0 else 0.5 * z
    total = term.copy()
    for k in range(1, 41):
        term = term * (-q) / (k * (k + nu))
        total = total + term
    return total


def _bessel_j01_asym(nu, z):
    # Hankel's expansion J_nu ~ sqrt(2/(pi z)) (P cos(chi) - Q sin(chi));
    # 27 terms reach the ~exp(-2z) optimal truncation floor at z = 13.
    mu = 4.0 * nu * nu
    ak = np.ones_like(z)
    p = np.ones_like(z)
    q = np.zeros_like(z)
    for k in range(27):
        ak = ak * ((mu - (2.0 * k + 1.0) ** 2) / (8.0 * (k + 1.0))) / z
        if k % 2 == 0:
            q = q + ((-1.0) ** (k // 2)) * ak
        else:
            p = p + ((-1.0) ** ((k + 1) // 2)) * ak
    chi = z - (0.5 * nu + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * z)) * (np.cos(chi) * p - np.sin(chi) * q)


def _bessel_j01(nu, z):
    small = z <= BESSEL_SERIES_MAX
    out = np.empty_like(z)
    if small.any():
        out[small] = _bessel_j01_series(nu, z[small])
    big = ~small
    if big.any():
        out[big] = _bessel_j01_asym(nu, z[big])
    return out


def _bessel_j0123(z):
    """J_0..J_3 at z >= 0 (array); orders 2 and 3 by forward recurrence."""
    j0 = _bessel_j01(0, z)
    j1 = _bessel_j01(1, z)
    # J_{n+1} = (2n/z) J_n - J_{n-1}; guard the z = 0 limit explicitly
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(z > 0.0, 1.0 / np.where(z > 0.0, z, 1.0), 0.0)
    j2 = np.where(z > 0.0, 2.0 * inv * j1 - j0, 0.0)
    j3 = np.where(z > 0.0, 4.0 * inv * j2 - j1, 0.0)
    return j0, j1, j2, j3


def bessel_j(nu, z):
    """Cylindrical Bessel function J_nu(z) for nu in {0, 1, 2, 3}, z > 0.

    Orders 0 and 1 switch from the ascending series to Hankel's asymptotic
    expansion at ``BESSEL_SERIES_MAX``; orders 2 and 3 follow by the
    standard three-term recurrence, which is stable downward in accuracy
    terms here because the results only feed correction terms that are
    themselves divided by large powers of the degree.
    """
    if nu not in (0, 1, 2, 3):
        raise ValueError(f"order must be one of 0..3, got {nu!r}")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if np.any(z_arr <= 0.0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("argument of bessel_j must be positive and finite")
    vals = _bessel_j0123(z_arr)[nu]
    return _wrap(vals, scalar)


# ----------------------------------------------------------------------
# Large-degree Legendre asymptotics (Bessel series)
# ----------------------------------------------------------------------

def _szego_core(ell, th, terms):
    """Bessel-series evaluation of P_ell(cos th) for th in [0, pi/2]."""
    nu = ell + 0.5
    z = nu * th
    j0, j1, j2, j3 = _bessel_j0123(z)
    total = j0.copy()
    pref = np.ones_like(th)
    safe = th >= _SZEGO_TINY_THETA
    if terms >= 2 and safe.any():
        t = th[safe]
        s = np.sin(t)
        c = np.cos(t)
        pref[safe] = np.sqrt(t / s)
        a1 = (t * c - s) / (8.0 * t * s)
        total[safe] += a1 * j1[safe] / nu
        if terms >= 3:
            a2 = (6.0 * t * s * c - 15.0 * s * s + t * t * (9.0 - s * s)) / (
                128.0 * t * t * s * s
            )
            total[safe] += a2 * j2[safe] / nu**2
        if terms >= 4:
            a3 = (5.0 / 1024.0) * (
                ((t**3 + 21.0 * t) * s * s + 15.0 * t**3) * c
                - ((3.0 * t * t + 63.0) * s * s - 27.0 * t * t) * s
            ) / (t**3 * s**3)
            total[safe] += a3 * j3[safe] / nu**3
    elif safe.any():
        t = th[safe]
        pref[safe] = np.sqrt(t / np.sin(t))
    return pref * total


def legendre_szego(ell, theta, terms=4):
    """P_ell(cos theta) from the degree-asymptotic Bessel series.

    ``theta`` must lie strictly inside (0, pi); arguments in the upper
    half range are folded onto the lower half through the parity relation
    P_ell(-t) = (-1)^ell P_ell(t).  ``terms`` selects how many terms of
    the series to keep (1 to 4).  Degrees below ``SZEGO_MIN_DEGREE`` are
    allowed but raise :class:`AccuracyWarning`, since this expansion only
    reaches its advertised accuracy at large degree.
    """
    ell = _check_degree(ell, minimum=1)
    if terms not in (1, 2, 3, 4):
        raise ValueError(f"terms must be in 1..4, got {terms!r}")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    if np.any(th <= 0.0) or np.any(th >= np.pi) or not np.all(np.isfinite(th)):
        raise ValueError("theta must lie strictly inside (0, pi)")
    if ell < SZEGO_MIN_DEGREE:
        warnings.warn(
            f"legendre_szego at degree {ell} < {SZEGO_MIN_DEGREE}: "
            "accuracy of the Bessel-series expansion is degraded",
            AccuracyWarning,
            stacklevel=2,
        )
    flip = th > 0.5 * np.pi
    folded = np.where(flip, np.pi - th, th)
    vals = _szego_core(ell, folded, terms)
    if ell % 2 == 1:
        vals = np.where(flip, -vals, vals)
    return _wrap(vals, scalar)


def _szego_from_haversine(ell, q, terms=4):
    """P_ell(1 - 2q) with q = sin^2(theta/2), valid on the closed [0, 1].

    Used by the eigenvalue integrand, whose quadrature nodes reach both
    endpoints.  The fold at q = 1 lands on theta' = 0 where the expansion
    collapses to J_0(0) = 1, reproducing P_ell(-1) = (-1)^ell exactly.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    hi = q > 0.5
    folded_q = np.where(hi, 1.0 - q, q)
    th = 2.0 * np.arcsin(np.sqrt(np.clip(folded_q, 0.0, 1.0)))
    vals = _szego_core(ell, th, terms)
    if ell % 2 == 1:
        vals = np.where(hi, -vals, vals)
    return vals


# ----------------------------------------------------------------------
# (P_ell(cos theta) - 1) / sin^2(theta/2) without cancellation
# ----------------------------------------------------------------------

def _m1_series_from_hav(ell, q):
    """Ratio series in the haversine q; exact polynomial of degree ell-1.

    term_1 = -ell(ell+1) and term_{k+1}/term_k =
    -(ell-k)(ell+k+1) q / (k+1)^2, so the loop needs no binomials.
    ``ell`` may be an array of degrees broadcasting against ``q``.
    Terminates early once the current term is below machine epsilon
    relative to the running magnitude of the partial sums and the terms
    are shrinking.
    """
    ell, q = np.broadcast_arrays(np.asarray(ell, float), np.atleast_1d(q).astype(float))
    term = -ell * (ell + 1.0)
    total = term.copy()
    running = np.abs(total)
    prev_mag = np.abs(term)
    for k in range(1, int(ell.max())):
        term = term * (-(ell - k) * (ell + k + 1.0) / ((k + 1.0) * (k + 1.0))) * q
        total += term
        np.maximum(running, np.abs(total), out=running)
        mag = np.abs(term)
        if np.all(mag <= _EPS * running) and np.all(mag <= prev_mag):
            break
        prev_mag = mag
    return total


def legendre_m1_over_hav(ell, theta):
    """Evaluate (P_ell(cos theta) - 1) / sin^2(theta/2) for theta in [0, pi].

    Near theta = 0 both numerator and denominator vanish; the quotient is
    computed there from its power series in q = sin^2(theta/2), whose
    first term gives the limit -ell(ell+1) exactly at theta = 0.  Away
    from zero the two factors are evaluated directly.  The series is used
    when q <= 1e-2 and additionally (ell+1/2)^2 q <= 4; outside that
    region its alternating terms grow too large to cancel in double
    precision, while direct evaluation is then perfectly conditioned.
    """
    ell = _check_degree(ell)
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    if np.any(th < 0.0) or np.any(th > np.pi) or not np.all(np.isfinite(th)):
        raise ValueError("theta must lie in [0, pi]")
    if ell == 0:
        return _wrap(np.zeros_like(th), scalar)
    half = np.sin(0.5 * th)
    q = half * half
    return _wrap(_m1_over_hav_from_q(ell, q), scalar)


def _in_series_region(ell, q):
    """Where the ratio series, not (P_ell - 1) / q, gives the quotient."""
    return (q <= _SERIES_HAV_MAX) & ((ell + 0.5) ** 2 * q <= _SERIES_OSC_MAX)


def _m1_over_hav_from_q(ell, q):
    """Dispatch between the ratio series and direct evaluation, given q."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty_like(q)
    use_series = _in_series_region(ell, q)
    if use_series.any():
        out[use_series] = _m1_series_from_hav(ell, q[use_series])
    direct = ~use_series
    if direct.any():
        qd = q[direct]
        out[direct] = (legendre_rec(ell, 1.0 - 2.0 * qd) - 1.0) / qd
    return out


# ----------------------------------------------------------------------
# Fully normalized associated Legendre functions
# ----------------------------------------------------------------------

def _legendre_rows(ms, degree, t):
    """Rows i = ell - m of the normalized associated Legendre table of the
    ascending orders ``ms`` at the points ``t``, ``_ROW_CHUNK`` rows at a
    time: one three-term recurrence in i, run for every order still
    active (m <= degree - i) at once.

    Yields ``(first, rows)`` for first = 0, chunk, 2 chunk, ..., up to
    row degree - ms[0]: ``rows[r, j]`` holds Ptilde_{m_j+first+r}^{m_j}(t)
    for the orders active at row ``first``, and zero where
    m_j + first + r > degree.  ``rows`` views a ring buffer of ``chunk``
    rows, (row, order, point) row-major, that the next step overwrites.
    """
    chunk = _ROW_CHUNK
    total = degree - int(ms[0]) + 1
    # orders active at row i: ms <= degree - i, a prefix of the ascending ms
    active = np.searchsorted(ms, degree - np.arange(total), side="right")
    # diagonal seeds Ptilde_m^m, a running product over k = 1..m so that
    # large m cannot overflow before the sin^m factor damps it
    k = np.arange(1, int(ms[-1]) + 1)
    factors = np.empty((k.size + 1, t.size))
    factors[0] = 1.0 / math.sqrt(2.0)
    sint = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    np.multiply(np.sqrt((2.0 * k + 1.0) / (2.0 * k))[:, None], sint, out=factors[1:])
    # row i - 1 of a and b holds the coefficients of row i, every order
    ell = np.arange(1, total)[:, None] + ms
    a = np.sqrt((2.0 * ell - 1.0) * (2.0 * ell + 1.0) / ((ell - ms) * (ell + ms)))
    b = np.sqrt(
        (2.0 * ell + 1.0)
        / (2.0 * ell - 3.0)
        * ((ell - 1.0 - ms) * (ell - 1.0 + ms))
        / ((ell - ms) * (ell + ms))
    )
    ring = np.empty((chunk, ms.size, t.size))
    ring[0] = np.multiply.accumulate(factors, axis=0)[ms]
    scratch = np.empty((ms.size, t.size))
    for first in range(0, total, chunk):
        top = active[first]
        for i in range(max(first, 1), min(first + chunk, total)):
            live = active[i]
            p, cur = ring[(i - 1) % chunk, :live], ring[i % chunk, :live]
            # Ptilde_ell = a t Ptilde_{ell-1} - b Ptilde_{ell-2}, rounded
            # step by step as the one-order recurrence is, bit for bit
            if i > 1:
                prev = ring[(i - 2) % chunk, :live]
                np.multiply(b[i - 1, :live, None], prev, out=scratch[:live])
            np.multiply(a[i - 1, :live, None], t, out=cur)
            cur *= p
            if i > 1:
                cur -= scratch[:live]
            ring[i % chunk, live:top] = 0.0
        yield first, ring[: min(chunk, total - first), :top]


def assoc_legendre_table(m, degree, t, parity=False):
    """Table of normalized associated Legendre functions.

    For one order ``m`` returns an array of shape ``(degree - m + 1,
    len(t))`` whose row ``i`` holds ``Ptilde_{m+i}^m(t)``, normalized so
    that the square integrates to 1 over [-1, 1].  For a 1-D array of
    orders returns the block of shape ``(len(m), degree - min(m) + 1,
    len(t))`` whose entry ``[j, i]`` holds ``Ptilde_{m_j+i}^{m_j}(t)``
    and is zero where ``m_j + i > degree``; each order's rows equal the
    one-order table bit for bit.  Requires ``0 <= m <= degree``.  No
    Condon-Shortley phase is applied.

    With ``parity=True`` the rows come as two contiguous arrays instead,
    ``(even, odd)``, holding rows ``0, 2, 4, ...`` and ``1, 3, 5, ...``
    of that table.
    """
    orders = np.asarray(m)
    if (orders.ndim > 1 or orders.size == 0 or orders.dtype.kind not in "iu"
            or np.any(orders < 0)):
        raise ValueError(
            f"order m must be a non-negative integer or a 1-D array of them, got {m!r}"
        )
    degree = _check_degree(degree, minimum=int(orders.max()))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t) > 1.0 + 4.0 * _EPS):
        raise ValueError("argument must lie in [-1, 1]")
    ms = np.atleast_1d(orders).astype(np.int64)
    sort = np.argsort(ms, kind="stable")
    rows = degree - int(ms.min()) + 1
    # row i of the table goes to row i // len(parts) of parts[i % len(parts)]
    if parity:
        parts = (np.zeros((ms.size, (rows + 1) // 2, t.size)),
                 np.zeros((ms.size, rows // 2, t.size)))
    else:
        parts = (np.zeros((ms.size, rows, t.size)),)
    step = len(parts)
    for first, chunk in _legendre_rows(ms[sort], degree, t):
        for offset, part in enumerate(parts):
            block = chunk[offset::step].transpose(1, 0, 2)
            start = (first + offset) // step
            part[: block.shape[0], start : start + block.shape[1]] = block
    if np.any(sort[1:] < sort[:-1]):
        parts = tuple(part[np.argsort(sort)] for part in parts)
    if orders.ndim == 0:
        parts = tuple(part[0] for part in parts)
    return parts if parity else parts[0]


def assoc_legendre_normalized(ell, m, t):
    """Normalized associated Legendre function Ptilde_ell^m(t).

    Negative orders carry the phase Ptilde_ell^{-m} = (-1)^m Ptilde_ell^m.
    Raises ValueError when |m| > ell.
    """
    ell = _check_degree(ell)
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"order must be an integer, got {type(m).__name__}")
    if abs(m) > ell:
        raise ValueError(f"order |m| = {abs(m)} exceeds degree {ell}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    mm = abs(int(m))
    vals = assoc_legendre_table(mm, ell, t_arr)[-1]
    if m < 0 and mm % 2 == 1:
        vals = -vals
    return _wrap(vals, scalar)
