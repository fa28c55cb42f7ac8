"""Reference computations the tests check the package against.

None of these is on a path the program runs: each is an independent
formula (a quadrature sum, a norm, a closed-form expansion) that a test
compares a package result with.
"""

import math

import numpy as np

from nlsphere.sht import slot
from nlsphere.specfun import assoc_legendre_table


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


def legendre_rows(orders, degree, t):
    """The (even, odd) pair of :func:`assoc_legendre_table` interleaved
    back into one table: for one order m, shape (degree - m + 1, len(t))
    with row i holding Ptilde_{m+i}^m(t); for a 1-D array of ascending
    orders, shape (len(orders), degree - orders[0] + 1, len(t)) with entry
    [j, i] holding Ptilde_{m_j+i}^{m_j}(t), zero where m_j + i > degree."""
    even, odd = assoc_legendre_table(np.atleast_1d(orders), degree, t)
    table = np.empty((even.shape[0], even.shape[1] + odd.shape[1], even.shape[2]))
    table[:, 0::2] = even
    table[:, 1::2] = odd
    return table[0] if np.ndim(orders) == 0 else table


def integrate_grid(values, grid):
    """Quadrature of grid values over the sphere.

    Longitudes carry the uniform periodic-trapezoid weight 2*pi/L on the
    grid's L longitudes; colatitudes carry the Gauss--Legendre weights in
    cos(theta), which absorb the sin(theta) surface factor.  Exact for
    integrands of harmonic degree <= 2n (and longitude frequency < L).
    """
    values = np.asarray(values, dtype=float)
    shape = (grid.degree + 1, grid.lon_nodes.size)
    if values.shape != shape:
        raise ValueError(f"values shape {values.shape} does not match the grid's {shape}")
    return float(
        np.dot(grid.colat_weights, values.sum(axis=1)) * (2.0 * np.pi / shape[1])
    )


def _legendre_at_zero(k):
    # P_k(0): zero for odd k, (-1)^j C(2j,j)/4^j for k = 2j
    if k % 2:
        return 0.0
    j = k // 2
    return (-1) ** j * math.comb(2 * j, j) / 4.0**j


def north_south_step(degree):
    """Exact expansion coefficients of sign(z): +1 north cap, -1 south.

    Only odd zonal modes survive; each uses the closed form
    int_0^1 P_l = [P_{l-1}(0) - P_{l+1}(0)] / (2l + 1).  The partial sums
    exhibit the classical overshoot near the equator, which Cesaro
    smoothing removes.
    """
    c = np.zeros((degree + 1, 2 * degree + 1))
    for ell in range(1, degree + 1, 2):
        half_int = (_legendre_at_zero(ell - 1) - _legendre_at_zero(ell + 1)) / (
            2 * ell + 1
        )
        c[slot(degree, ell, 0)] = 2.0 * half_int * math.sqrt(2.0 * math.pi * (2 * ell + 1) / 2.0)
    return c


def brusselator_reactions(u, v, cfg):
    """Brusselator reaction terms (N_u, N_v) on grid values: every term,
    the constant and the linear ones too, formed pointwise."""
    uuv = u * u * v
    n_u = cfg.epsilon**2 * cfg.E + cfg.f * uuv - u
    n_v = (u - uuv) / (cfg.tau * cfg.epsilon**2)
    return n_u, n_v


def delta_two_spectrum(degree, alpha):
    """Eigenvalues lambda_0..lambda_degree of the delta = 2 kernel of
    parameter ``alpha`` in closed form, as floats:

        lambda_ell = (1+alpha)/alpha [(1-alpha)_ell / (1+alpha)_ell - 1],

    and its limit -2 H_ell at alpha = 0 (H_ell the harmonic number).  At
    delta = 2 the terminating series of the eigenvalue integral (the one
    ``test_spectrum._mpmath_eigenvalue`` sums) is a balanced 3F2 at 1,
    which the Pfaff--Saalschutz identity (DLMF 16.4.3) sums.  Evaluated
    in 40-digit mpmath, the Pochhammer ratio as the running product of
    (j - alpha) / (j + alpha): float lgamma's rounding alone is about
    1e-11 relative at ell = 10^4.
    """
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        ratio, harmonic, values = mpmath.mpf(1), mpmath.mpf(0), [0.0]
        for j in range(1, degree + 1):
            if a == 0:
                harmonic += mpmath.mpf(1) / j
                values.append(float(-2 * harmonic))
            else:
                ratio *= (j - a) / (j + a)
                values.append(float((1 + a) / a * (ratio - 1)))
    return np.array(values)
