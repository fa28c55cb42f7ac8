"""Tests for the Legendre kernels.

Reference values were generated with mpmath at 40 significant digits
(mpmath.legendre, mpmath.legenp) and are frozen here as
literals; mpmath applies the Condon-Shortley phase to associated Legendre
functions, so those references were sign-adjusted to this package's
phase-free convention for m >= 0.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from nlsphere.specfun import (
    _SERIES_HAV_MAX,
    _SERIES_OSC_MAX,
    _legendre_pair,
    _legendre_rows,
    _m1_over_hav_rows,
    assoc_legendre_table,
)
from oracles import legendre_rows

# ----------------------------------------------------------------------
# Legendre polynomials: the three-term recurrence of the Gauss--Legendre
# Newton iteration
# ----------------------------------------------------------------------


def legendre(ell, t):
    """P_ell(t) from the recurrence: the P_{n-1} that ``_legendre_pair``
    returns for n = ell + 1."""
    return _legendre_pair(ell + 1, np.atleast_1d(np.asarray(t, dtype=float)))[1]


LEGENDRE_REF = [
    # (ell, theta, P_ell(t)) from mpmath.legendre, dps=40, evaluated at
    # the exact binary double t = math.cos(theta) so that input rounding
    # of the cosine is not charged against the recurrence
    (100, 0.3, -0.068192887453465013),
    (500, 1.2, -0.035971810956354292),
    (61, 2.9, -0.015134700351991439),
    (60, 1.5707963267948966, 0.10257817300856951),
    (1000, 0.01, -0.24615206812438213),
    (200, 3.14, 0.97466972014923085),
]


def test_legendre_rec_low_degrees_closed_forms():
    t = np.linspace(-1.0, 1.0, 11)
    assert np.array_equal(legendre(0, t), np.ones_like(t))
    np.testing.assert_allclose(legendre(1, t), t, rtol=0, atol=0)
    np.testing.assert_allclose(
        legendre(2, t), 1.5 * t * t - 0.5, rtol=1e-15, atol=1e-15
    )
    np.testing.assert_allclose(
        legendre(3, t), 2.5 * t**3 - 1.5 * t, rtol=1e-15, atol=1e-15
    )


@pytest.mark.parametrize("ell", [0, 1, 2, 7, 64, 351])
def test_legendre_rec_endpoint_values(ell):
    assert legendre(ell, 1.0) == 1.0
    assert legendre(ell, -1.0) == (-1.0) ** ell


@pytest.mark.parametrize("ell,theta,ref", LEGENDRE_REF)
def test_legendre_rec_matches_high_precision(ell, theta, ref):
    val = legendre(ell, math.cos(theta))[0]
    assert val == pytest.approx(ref, rel=5e-13, abs=1e-15)


def test_legendre_rec_accepts_endpoint_roundoff_slack():
    # the Legendre tables take arguments up to four epsilons outside
    # [-1, 1], the slack of floating-point cosines
    eps = np.finfo(float).eps
    legendre_rows(0, 5, 1.0 + 4 * eps)
    legendre_rows(0, 5, -(1.0 + 4 * eps))
    with pytest.raises(ValueError):
        legendre_rows(0, 5, 1.0 + 16 * eps)
    with pytest.raises(ValueError):
        legendre_rows(0, 5, np.array([0.0, 2.0]))


def test_legendre_rec_rejects_bad_degree():
    for degree in (2.0, True, -1):
        with pytest.raises(ValueError,
                           match=f"degree must be a non-negative integer, got {degree!r}"):
            legendre_rows(0, degree, 0.5)


def test_legendre_rec_scalar_and_array_agree():
    # each point steps on its own: one point alone gives the same bits
    t = np.array([-0.9, -0.3, 0.0, 0.4, 1.0])
    arr = legendre(17, t)
    for ti, vi in zip(t, arr):
        assert legendre(17, ti)[0] == vi


# ----------------------------------------------------------------------
# g_ell = (P_ell(1 - 2q) - 1) / q, the eigenvalue integrand
# ----------------------------------------------------------------------


def g_row(ell, q):
    """The degree-ell row of ``_m1_over_hav_rows`` at the haversines q."""
    *_, (_, rows) = _m1_over_hav_rows(np.atleast_1d(np.asarray(q, dtype=float)), ell)
    return rows[-1].copy()


M1_REF = [
    # (ell, theta, (P_ell(cos theta)-1)/sin^2(theta/2)) via mpmath, dps=40;
    # the rows take q = sin^2(theta/2) in double precision
    (5, 0.2, -27.961997215281779),
    (12, 1e-06, -155.9999999984985),
    (40, 0.05, -1265.0508688773963),
    (7, 3.141592653589793, -2.0),
    (200, 0.001, -40099.115226298416),
    (3, 2.0, -0.78515676510525828),
]


@pytest.mark.parametrize("ell,theta,ref", M1_REF)
def test_m1_over_hav_matches_high_precision(ell, theta, ref):
    assert g_row(ell, math.sin(0.5 * theta) ** 2)[0] == pytest.approx(ref, rel=2e-13)


def test_m1_over_hav_limit_at_zero_is_exact():
    for ell in (1, 2, 17, 500):
        assert g_row(ell, 0.0)[0] == -float(ell * (ell + 1))


def test_m1_over_hav_degree_zero_vanishes():
    # g_0 = 0 seeds the recurrence, so its first row is g_1 = -2 exactly
    q = np.linspace(0.0, 1.0, 7)
    assert list(_m1_over_hav_rows(q, 0)) == []
    assert np.array_equal(g_row(1, q), np.full_like(q, -2.0))


@pytest.mark.parametrize("ell", [1, 2, 5, 11, 19])
def test_m1_over_hav_series_consistent_with_direct(ell):
    # for small degrees the exact ratio series and the direct quotient
    # are both well conditioned on moderate angles: two independent routes
    theta = np.linspace(0.05, np.pi, 117)
    q = np.sin(0.5 * theta) ** 2
    direct = (eval_legendre(ell, np.cos(theta)) - 1.0) / q
    np.testing.assert_allclose(g_row(ell, q), direct, rtol=5e-11, atol=5e-13)


def test_m1_over_hav_monotone_tail_bound():
    # |(P_ell - 1)/q| <= ell(ell+1) everywhere on [0, 1]
    q = np.sin(0.5 * np.linspace(0.0, np.pi, 301)) ** 2
    for ell in (1, 3, 10, 57, 200):
        vals = g_row(ell, q)
        assert np.all(np.abs(vals) <= ell * (ell + 1) * (1 + 1e-12))
        assert np.all(vals <= 0.0)


@pytest.mark.parametrize("ell", [1, 64, 65, 200, 550, 1100])
def test_isolated_row_is_the_sweep_row(ell):
    # a sweep that stops at degree ell, as spectrum(ell) and so
    # eigenvalue(ell) run it, yields the rows of a longer sweep: bit for
    # bit outside the series zone, and inside it up to the series' own
    # rounding, whose term count follows the block
    q = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 60)])
    blocks = [(first, rows.copy()) for first, rows in _m1_over_hav_rows(q, ell)]
    assert [first for first, _ in blocks] == list(range(1, ell + 1, 64))
    sweep = np.concatenate([rows for _, rows in blocks])
    assert sweep.shape == (ell, q.size)
    longer = np.concatenate([rows.copy() for _, rows in _m1_over_hav_rows(q, ell + 100)])
    zone = (q <= _SERIES_HAV_MAX) & ((np.arange(1, ell + 1)[:, None] + 0.5) ** 2 * q <= _SERIES_OSC_MAX)
    assert np.array_equal(sweep[~zone], longer[:ell][~zone])
    np.testing.assert_allclose(sweep, longer[:ell], rtol=1e-15, atol=0)
    # q above 1/2, where scipy's P_ell(-1) is off by 1.5e-12 at ell = 550,
    # is left to test_m1_over_hav_near_pi_matches_mpmath
    far = (q > _SERIES_HAV_MAX) & (q <= 0.5)
    direct = (eval_legendre(ell, 1.0 - 2.0 * q[far]) - 1.0) / q[far]
    np.testing.assert_allclose(sweep[-1, far], direct, rtol=1e-13, atol=0)


def _m1_over_hav_mpmath(ell, q):
    # (P_ell(1 - 2q) - 1) / q at the double q.  P - 1 is about -ell(ell+1) q
    # near q = 0, and for even ell about ell(ell+1) c near q = 1, c = 1 - q
    # (exact in double there); it keeps 50 digits when the working
    # precision grows by one digit per decade of min(q, c) below 1
    mpmath = pytest.importorskip("mpmath")
    if q == 0.0:  # the limit
        return -float(ell * (ell + 1))
    c = 1.0 - q
    with mpmath.workdps(50 + (max(0, -math.floor(math.log10(min(q, c)))) if c else 0)):
        q = mpmath.mpf(q)
        return float((mpmath.legendre(ell, 1 - 2 * q) - 1) / q)


def _above_half_bound(ell):
    # at q in (1/2, 1], t = 1 - 2q near -1, the rows' rounding grows like
    # ell^2: relative to max(|g|, 1), measured worst 5.8e-14 (ell = 50),
    # 8.0e-13 (299), 1.2e-11 (1000), 1.8e-11 (1200) and 8.3e-11 (2000), at
    # or next to q = 1.  The largest error / ell^2 was 2.3e-17 (ell = 50);
    # the bound is about twice that
    return 5e-17 * ell * ell


# log-uniform angles put most draws near 0, in the series zone
# ((ell + 1/2)^2 q <= 4, theta below about 4/ell) and across its borders
ANGLES = st.one_of(
    st.just(0.0),
    st.floats(0.0, np.pi),
    st.floats(-9.0, 0.0).map(lambda e: np.pi * 10.0**e),
)


# The reference is (P_ell(1 - 2q) - 1) / q at the double q = sin^2(theta/2).
# The error is relative to max(|g|, 1), since g vanishes at q = 1 for even
# ell.  Measured worst on a dense scan of theta in [3/ell, 0.06] for
# ell = 550..1200: 1.7e-12 (ell = 1200, theta = 0.0046), just outside the
# series zone, from the rounding of the recurrence on g = (P - 1)/q itself.
# The P recurrence in t = 1 - 2q reached 5.1e-12 there, since the rounding
# of t near 1 costs about P_ell'(t) eps / 4.  The bound for q <= 1/2 is
# about twice the scan's worst, so that another hypothesis version's draws
# stay inside it; above 1/2 it is ``_above_half_bound``.
@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(ell=st.integers(1, 1200), theta=ANGLES)
def test_m1_over_hav_matches_mpmath_everywhere(ell, theta):
    q = math.sin(0.5 * theta) ** 2
    ref = _m1_over_hav_mpmath(ell, q)
    err = abs(g_row(ell, q)[0] - ref) / max(abs(ref), 1.0)
    assert err <= (3.5e-12 if q <= 0.5 else _above_half_bound(ell)), err


# q in (1/2, 1], which the nodes of a delta = 2 kernel reach: q on a uniform
# grid, 1 included, and near 1 at the angles pi - 10^[-6, -0.5].  There
# |g| <= 2 while |lambda| ~ 2 ell, so the closed-form eigenvalue tests at
# delta = 2 bound what this rounding costs an eigenvalue.
@pytest.mark.parametrize("ell", [50, 299, 1000, 1200, 2000])
def test_m1_over_hav_near_pi_matches_mpmath(ell):
    theta = np.pi - 10.0 ** np.linspace(-6.0, -0.5, 12)
    q = np.concatenate([np.sin(0.5 * theta) ** 2, np.linspace(0.5, 1.0, 41)[1:]])
    ref = np.array([_m1_over_hav_mpmath(ell, qi) for qi in q])
    err = np.abs(g_row(ell, q) - ref) / np.maximum(np.abs(ref), 1.0)
    assert np.max(err) <= _above_half_bound(ell), np.max(err)


# ----------------------------------------------------------------------
# associated Legendre functions
# ----------------------------------------------------------------------

ASSOC_REF = [
    # (ell, m, t, Ptilde_ell^m(t)); mpmath.legenp values with the
    # Condon-Shortley phase stripped for m >= 0
    (3, 2, 0.4, 0.86074386434060626),
    (10, 10, 0.9, 0.00033679215998384554),
    (80, 3, -0.7, 0.42420725403331905),
    (2, 0, 0.3, -0.57711567298072923),
    (5, -3, 0.6, -0.99451963882067206),
]


@pytest.mark.parametrize("ell,m,t,ref", ASSOC_REF)
def test_assoc_legendre_matches_high_precision(ell, m, t, ref):
    # the table holds orders m >= 0; the reference of a negative order is
    # Ptilde_ell^{-m} = (-1)^m Ptilde_ell^m
    value = legendre_rows(abs(m), ell, t)[-1, 0]
    assert value == pytest.approx(ref if m >= 0 else (-1) ** m * ref, rel=1e-12)


def test_assoc_legendre_orthonormal_rows():
    # Gauss-Legendre quadrature (numpy's, independent of this package)
    # integrates products of degree <= 2*8 exactly with 9+ nodes
    x, w = np.polynomial.legendre.leggauss(12)
    for m in (0, 1, 4):
        table = legendre_rows(m, 8, x)
        gram = (table * w) @ table.T
        np.testing.assert_allclose(gram, np.eye(table.shape[0]), atol=5e-15)


def test_assoc_legendre_table_layout():
    t = np.linspace(-1, 1, 5)
    table = legendre_rows(2, 6, t)
    assert table.shape == (5, 5)
    for i, ell in enumerate(range(2, 7)):
        # a table's rows are the last rows of the smaller tables
        np.testing.assert_array_equal(table[i], legendre_rows(2, ell, t)[-1])


def test_assoc_legendre_constant_term():
    # Ptilde_0^0 = 1/sqrt(2) everywhere
    t = np.linspace(-1, 1, 9)
    np.testing.assert_array_equal(
        legendre_rows(0, 0, t)[-1], np.full(9, 1.0 / math.sqrt(2.0))
    )


def test_assoc_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        legendre_rows(-4, 3, 0.5)
    with pytest.raises(ValueError):
        legendre_rows(-1, 3, 0.5)
    # the degree reaches the highest order
    with pytest.raises(ValueError, match="degree must be an integer >= 4, got 3"):
        legendre_rows(4, 3, 0.5)


def _one_order_rows(m, degree, t):
    """The one-order recurrence, term for term: seed product, then the
    scaled rows Q_ell = (alpha Q_{ell-1}) t - Q_{ell-2} with scales
    sigma_ell = b sigma_{ell-2} (1 on the first two rows) and alpha =
    a sigma_{ell-1} / sigma_ell, and Ptilde_ell^m = sigma_ell Q_ell."""
    q = np.full(t.shape, 1.0 / math.sqrt(2.0))
    sint = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    for k in range(1, m + 1):
        q = q * (math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sint)
    rows, prev = [q], np.zeros_like(q)
    sigmas = [1.0, 1.0, 1.0]  # rows ell - 2 and ell - 1 before the seed, the seed
    for ell in range(m + 1, degree + 1):
        a = math.sqrt((2.0 * ell - 1.0) * (2.0 * ell + 1.0) / ((ell - m) * (ell + m)))
        b = math.sqrt(
            (2.0 * ell + 1.0)
            / (2.0 * ell - 3.0)
            * ((ell - 1.0 - m) * (ell - 1.0 + m))
            / ((ell - m) * (ell + m))
        ) if ell - m >= 2 else 1.0
        sigmas.append(sigmas[-2] * b)
        alpha = a * sigmas[-2] / sigmas[-1]
        q, prev = q * alpha * t - prev, q
        rows.append(q)
    return np.array(rows) * np.array(sigmas[2:])[:, None]


# at degrees 15, 16, 17, 32 and 33 the n + 1 rows fill their last 16-row
# chunk exactly or leave 1 or 2 rows in it
@pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 16, 17, 32, 33, 64, 127, 383])
def test_assoc_legendre_table_order_array_matches_one_order_rows(n):
    t = np.polynomial.legendre.leggauss(n + 1)[0]
    t = np.concatenate([t, [-1.0, 0.0, 1.0]])
    orders = np.arange(n + 1)
    full = legendre_rows(orders, n, t)
    assert full.shape == (n + 1, n + 1, t.size)
    for start in range(0, n + 1, 5):  # blocks that do not start at order 0
        block = legendre_rows(orders[start : start + 5], n, t)
        assert block.shape == (min(5, n + 1 - start), n - start + 1, t.size)
        for j, m in enumerate(orders[start : start + 5]):
            rows = legendre_rows(int(m), n, t)
            # bit for bit, signs of zeros included
            assert rows.tobytes() == _one_order_rows(int(m), n, t).tobytes()
            assert block[j, : n - m + 1].tobytes() == rows.tobytes()
            assert full[m, : n - m + 1].tobytes() == rows.tobytes()
            assert np.all(block[j, n - m + 1 :] == 0.0)
            assert np.all(full[m, n - m + 1 :] == 0.0)


def test_streamed_rows_hold_one_chunk_of_coefficients():
    # the recurrence coefficients of one chunk of rows, not of all n rows
    # of every order, which peaked at 46 MiB here
    t = np.polynomial.legendre.leggauss(8)[0]
    tracemalloc.start()
    try:
        for _ in _legendre_rows(np.arange(1001), 1000, t):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _rows_in_50_digits(m, degree, t):
    """Ptilde_{m..degree}^m at the float points ``t`` by the unscaled
    recurrence Ptilde_ell = a t Ptilde_{ell-1} - b Ptilde_{ell-2}, run in
    50-digit arithmetic from the float t itself."""
    mpmath = pytest.importorskip("mpmath")
    rows = np.empty((degree - m + 1, t.size))
    with mpmath.workdps(50):
        for j, x in enumerate(map(mpmath.mpf, t.tolist())):
            p, prev = 1 / mpmath.sqrt(2), mpmath.mpf(0)
            for k in range(1, m + 1):
                p *= mpmath.sqrt(mpmath.mpf(2 * k + 1) / (2 * k) * (1 - x * x))
            rows[0, j] = p
            for ell in range(m + 1, degree + 1):
                a = mpmath.sqrt(mpmath.mpf((2 * ell - 1) * (2 * ell + 1)) / ((ell - m) * (ell + m)))
                b = mpmath.sqrt(mpmath.mpf((2 * ell + 1) * (ell - 1 - m) * (ell - 1 + m))
                                / ((2 * ell - 3) * (ell - m) * (ell + m))) if ell - m >= 2 else 0
                p, prev = a * x * p - b * prev, p
                rows[ell - m, j] = p
    return rows


def test_assoc_legendre_table_matches_the_recurrence_in_50_digits():
    # the scaled three-pass recurrence reads max 1.71e-13 and rms 2.92e-14
    # here (bounds 25 % above), the four-pass recurrence it replaced 1.58e-13
    # and 2.53e-14, and (alpha t) Q in place of (alpha Q) t 3.42e-13 and
    # 4.80e-14; the largest errors are at theta = 0.05, orders 0 to 7
    n = 383
    t = np.cos([0.05, 0.4, 1.0, 1.5])
    errors = np.concatenate([
        (legendre_rows(m, n, t) - _rows_in_50_digits(m, n, t)).ravel()
        for m in (0, 1, 7, 40, 120, 250, 350)])
    assert np.max(np.abs(errors)) <= 2.14e-13
    assert np.sqrt(np.mean(errors**2)) <= 3.65e-14


def test_scaled_rows_stay_finite_through_degree_2000():
    # the scales are products of b, which tend to 1; they span 0.20-1.13
    # through degree 2000 (0.24-1.13 through 1000), so the seeds underflow
    # as the unscaled rows do and nothing overflows
    t = np.cos([1e-3, 0.3, 1.0, np.pi / 2 - 1e-4])
    low, high = math.inf, 0.0
    for _, rows, scales in _legendre_rows(np.arange(2001), 2000, t):
        assert np.isfinite(rows).all()
        low, high = min(low, scales.min()), max(high, scales.max())
    assert 0.2 <= low and high <= 1.2


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_assoc_legendre_table_parity_halves_are_the_table_rows(n):
    t = np.concatenate([np.polynomial.legendre.leggauss(n + 1)[0], [-1.0, 0.0, 1.0]])
    for orders in (np.arange(n + 1), np.arange(n // 2, n + 1)):
        even, odd = assoc_legendre_table(orders, n, t)
        rows = n - int(orders[0]) + 1
        assert even.shape == (orders.size, (rows + 1) // 2, t.size)
        assert odd.shape == (orders.size, rows // 2, t.size)
        assert even.flags.c_contiguous and odd.flags.c_contiguous
        for j, m in enumerate(orders.tolist()):
            one = _one_order_rows(m, n, t)
            # bit for bit, the zeros above the degree included
            assert even[j, : (n - m) // 2 + 1].tobytes() == one[0::2].tobytes()
            assert odd[j, : (n - m + 1) // 2].tobytes() == one[1::2].tobytes()
            assert not even[j, (n - m) // 2 + 1 :].any() and not odd[j, (n - m + 1) // 2 :].any()
    even, odd = assoc_legendre_table(np.array([n]), n, t)  # one order
    assert even.shape == (1, 1, t.size) and odd.shape == (1, 0, t.size)


def test_assoc_legendre_table_order_array_validation():
    with pytest.raises(ValueError):
        assoc_legendre_table(2, 3, 0.5)  # a scalar order
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([0, 4]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([-1, 2]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([1.0, 2.0]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.zeros((2, 2), dtype=int), 3, 0.5)


def test_assoc_legendre_table_rejects_non_ascending_orders():
    t = np.linspace(-1.0, 1.0, 5)
    for orders in ([1, 0], [0, 3, 2], [4, 4, 1]):
        with pytest.raises(ValueError, match="ascending"):
            assoc_legendre_table(np.array(orders), 4, t)
