"""Tests for the Legendre kernels.

Reference values were generated with mpmath at 40 significant digits
(mpmath.legendre, mpmath.legenp) and are frozen here as
literals; mpmath applies the Condon-Shortley phase to associated Legendre
functions, so those references were sign-adjusted to this package's
phase-free convention for m >= 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsphere.specfun import (
    _SERIES_HAV_MAX,
    _m1_over_hav_rows,
    assoc_legendre_normalized,
    assoc_legendre_table,
    legendre_m1_over_hav,
    legendre_rec,
)

# ----------------------------------------------------------------------
# legendre_rec
# ----------------------------------------------------------------------

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
    assert np.array_equal(legendre_rec(0, t), np.ones_like(t))
    np.testing.assert_allclose(legendre_rec(1, t), t, rtol=0, atol=0)
    np.testing.assert_allclose(
        legendre_rec(2, t), 1.5 * t * t - 0.5, rtol=1e-15, atol=1e-15
    )
    np.testing.assert_allclose(
        legendre_rec(3, t), 2.5 * t**3 - 1.5 * t, rtol=1e-15, atol=1e-15
    )


@pytest.mark.parametrize("ell", [0, 1, 2, 7, 64, 351])
def test_legendre_rec_endpoint_values(ell):
    assert legendre_rec(ell, 1.0) == 1.0
    assert legendre_rec(ell, -1.0) == (-1.0) ** ell


@pytest.mark.parametrize("ell,theta,ref", LEGENDRE_REF)
def test_legendre_rec_matches_high_precision(ell, theta, ref):
    val = legendre_rec(ell, math.cos(theta))
    assert val == pytest.approx(ref, rel=5e-13, abs=1e-15)


def test_legendre_rec_accepts_endpoint_roundoff_slack():
    eps = np.finfo(float).eps
    legendre_rec(5, 1.0 + 4 * eps)
    legendre_rec(5, -(1.0 + 4 * eps))
    with pytest.raises(ValueError):
        legendre_rec(5, 1.0 + 16 * eps)
    with pytest.raises(ValueError):
        legendre_rec(5, np.array([0.0, 2.0]))


def test_legendre_rec_rejects_bad_degree():
    with pytest.raises(TypeError):
        legendre_rec(2.0, 0.5)
    with pytest.raises(ValueError):
        legendre_rec(-1, 0.5)


def test_legendre_rec_scalar_and_array_agree():
    t = np.array([-0.9, -0.3, 0.0, 0.4, 1.0])
    arr = legendre_rec(17, t)
    assert isinstance(arr, np.ndarray)
    for ti, vi in zip(t, arr):
        assert legendre_rec(17, float(ti)) == vi


# ----------------------------------------------------------------------
# legendre_m1_over_hav
# ----------------------------------------------------------------------

M1_REF = [
    # (ell, theta, (P_ell(cos theta)-1)/sin^2(theta/2)) via mpmath, dps=40
    (5, 0.2, -27.961997215281779),
    (12, 1e-06, -155.9999999984985),
    (40, 0.05, -1265.0508688773963),
    (7, 3.141592653589793, -2.0),
    (200, 0.001, -40099.115226298416),
    (3, 2.0, -0.78515676510525828),
]


@pytest.mark.parametrize("ell,theta,ref", M1_REF)
def test_m1_over_hav_matches_high_precision(ell, theta, ref):
    assert legendre_m1_over_hav(ell, theta) == pytest.approx(ref, rel=2e-13)


def test_m1_over_hav_limit_at_zero_is_exact():
    for ell in (0, 1, 2, 17, 500):
        assert legendre_m1_over_hav(ell, 0.0) == -float(ell * (ell + 1))


def test_m1_over_hav_degree_zero_vanishes():
    theta = np.linspace(0.0, np.pi, 7)
    assert np.array_equal(legendre_m1_over_hav(0, theta), np.zeros_like(theta))


@pytest.mark.parametrize("ell", [1, 2, 5, 11, 19])
def test_m1_over_hav_series_consistent_with_direct(ell):
    # for small degrees the exact ratio series and the direct quotient
    # are both well conditioned on moderate angles: two independent routes
    theta = np.linspace(0.05, np.pi, 117)
    vals = legendre_m1_over_hav(ell, theta)
    q = np.sin(0.5 * theta) ** 2
    direct = (legendre_rec(ell, np.cos(theta)) - 1.0) / q
    np.testing.assert_allclose(vals, direct, rtol=5e-11, atol=5e-13)


def test_m1_over_hav_monotone_tail_bound():
    # |(P_ell - 1)/q| <= ell(ell+1) everywhere on [0, pi]
    theta = np.linspace(0.0, np.pi, 301)
    for ell in (1, 3, 10, 57, 200):
        vals = legendre_m1_over_hav(ell, theta)
        assert np.all(np.abs(vals) <= ell * (ell + 1) * (1 + 1e-12))
        assert np.all(vals <= 0.0)


@pytest.mark.parametrize("ell", [1, 64, 65, 200, 550, 1100])
def test_isolated_row_is_the_sweep_row(ell):
    # one recurrence serves spectrum and eigenvalue: where no degree takes
    # the series (q > _SERIES_HAV_MAX) the isolated degree-ell row is the
    # sweep's row bit for bit, and the series seeds move the rest by roundoff
    q = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 60)])
    blocks = [(first, rows.copy()) for first, rows in _m1_over_hav_rows(q, ell)]
    assert [first for first, _ in blocks] == list(range(1, ell + 1, 64))
    sweep = np.concatenate([rows for _, rows in blocks])
    assert sweep.shape == (ell, q.size)
    [(first, (row,))] = _m1_over_hav_rows(q, ell, first=ell)
    assert first == ell
    far = q > _SERIES_HAV_MAX
    assert np.array_equal(row[far], sweep[-1, far])
    # the gap at the near nodes grows with the degree: measured 5.4e-14 at
    # 200, 3.8e-13 at 550 and 6.9e-13 at 1100, all at nodes just outside the
    # series zone, where the unseeded isolated row is the less accurate one
    np.testing.assert_allclose(row, sweep[-1], rtol=1e-13 if ell <= 200 else 1.5e-12, atol=0)
    direct = (legendre_rec(ell, 1.0 - 2.0 * q[far]) - 1.0) / q[far]
    np.testing.assert_allclose(row[far], direct, rtol=1e-13, atol=0)


def _m1_over_hav_mpmath(ell, theta):
    # (P_ell(cos theta) - 1) / sin^2(theta/2) at the double theta.  P - 1 is
    # about -ell(ell+1) q near theta = 0, and for even ell about ell(ell+1) c
    # near theta = pi, c = cos^2(theta/2); it keeps 50 digits when the
    # working precision grows by one digit per decade of min(q, c) below 1
    mpmath = pytest.importorskip("mpmath")
    q, c = np.sin(0.5 * theta) ** 2, np.cos(0.5 * theta) ** 2
    if q == 0.0:  # the limit, to double precision
        return -float(ell * (ell + 1))
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(min(q, c))))):
        theta = mpmath.mpf(theta)
        return float((mpmath.legendre(ell, mpmath.cos(theta)) - 1)
                     / mpmath.sin(theta / 2) ** 2)


# log-uniform angles put most draws near 0, in the series zone
# ((ell + 1/2)^2 q <= 4, theta below about 4/ell) and across its borders
ANGLES = st.one_of(
    st.just(0.0),
    st.floats(0.0, np.pi),
    st.floats(-9.0, 0.0).map(lambda e: np.pi * 10.0**e),
)


# The reference is (P_ell(cos theta) - 1) / sin^2(theta/2) at the double
# theta.  The error is relative to max(|g|, 1), since g vanishes at
# theta = pi for even ell.  Measured worst on a dense scan of theta in
# [3/ell, 0.06] for ell = 550..1200: 1.7e-12 (ell = 1200, theta = 0.0046),
# just outside the series zone, from the rounding of the recurrence on
# g = (P - 1)/q itself.  The P recurrence in t = 1 - 2q reached 5.1e-12
# there, since the rounding of t near 1 costs about P_ell'(t) eps / 4.  The
# bound is about twice the scan's worst, so that another hypothesis
# version's draws stay inside it.
@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(ell=st.integers(1, 1200), theta=ANGLES)
def test_m1_over_hav_matches_mpmath_everywhere(ell, theta):
    ref = _m1_over_hav_mpmath(ell, theta)
    err = abs(legendre_m1_over_hav(ell, theta) - ref) / max(abs(ref), 1.0)
    assert err <= 3.5e-12, err


# Near theta = pi the function runs on the mirror haversine c = cos^2(theta/2)
# formed from theta, so it does not feel the rounding of q = sin^2(theta/2)
# near 1, which moves P_ell by up to about ell(ell+1) eps.  Measured worst
# relative error on 200 log-spaced angles pi - 10^[-6, -0.5]: 1.9e-13
# (ell = 299), 7.1e-13 (1200) and 2.0e-12 (2000), from the recurrence on
# g(c) as near theta = 0; the P recurrence in t = 1 - 2c reached 4.0e-13,
# 3.7e-12 and 9.5e-12.
@pytest.mark.parametrize("ell", [299, 1200, 2000])
def test_m1_over_hav_near_pi_matches_mpmath(ell):
    theta = np.pi - 10.0 ** np.linspace(-6.0, -0.5, 12)
    ref = np.array([_m1_over_hav_mpmath(ell, th) for th in theta])
    err = np.abs(legendre_m1_over_hav(ell, theta) - ref) / np.abs(ref)
    assert np.max(err) <= 4e-12, np.max(err)


def test_m1_over_hav_rejects_bad_arguments():
    with pytest.raises(ValueError):
        legendre_m1_over_hav(3, -0.1)
    with pytest.raises(ValueError):
        legendre_m1_over_hav(3, np.pi + 0.1)
    with pytest.raises(ValueError):
        legendre_m1_over_hav(-2, 0.3)


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
    assert assoc_legendre_normalized(ell, m, t) == pytest.approx(ref, rel=1e-12)


def test_assoc_legendre_orthonormal_rows():
    # Gauss-Legendre quadrature (numpy's, independent of this package)
    # integrates products of degree <= 2*8 exactly with 9+ nodes
    x, w = np.polynomial.legendre.leggauss(12)
    for m in (0, 1, 4):
        table = assoc_legendre_table(m, 8, x)
        gram = (table * w) @ table.T
        np.testing.assert_allclose(gram, np.eye(table.shape[0]), atol=5e-15)


def test_assoc_legendre_table_layout():
    t = np.linspace(-1, 1, 5)
    table = assoc_legendre_table(2, 6, t)
    assert table.shape == (5, 5)
    for i, ell in enumerate(range(2, 7)):
        np.testing.assert_array_equal(
            table[i], np.atleast_1d(assoc_legendre_normalized(ell, 2, t))
        )


def test_assoc_legendre_negative_order_phase():
    t = 0.37
    for ell, m in [(4, 1), (4, 2), (9, 5)]:
        plus = assoc_legendre_normalized(ell, m, t)
        minus = assoc_legendre_normalized(ell, -m, t)
        assert minus == (-1.0) ** m * plus


def test_assoc_legendre_constant_term():
    # Ptilde_0^0 = 1/sqrt(2) everywhere
    t = np.linspace(-1, 1, 9)
    np.testing.assert_array_equal(
        np.atleast_1d(assoc_legendre_normalized(0, 0, t)),
        np.full(9, 1.0 / math.sqrt(2.0)),
    )


def test_assoc_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        assoc_legendre_normalized(3, 4, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_normalized(3, -4, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(-1, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(4, 3, 0.5)


def _one_order_rows(m, degree, t):
    """The one-order recurrence, term for term: seed product, then
    Ptilde_ell^m = a t Ptilde_{ell-1}^m - b Ptilde_{ell-2}^m."""
    p = np.full(t.shape, 1.0 / math.sqrt(2.0))
    sint = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    for k in range(1, m + 1):
        p = p * (math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sint)
    rows, prev = [p], np.zeros_like(p)
    for ell in range(m + 1, degree + 1):
        a = math.sqrt((2.0 * ell - 1.0) * (2.0 * ell + 1.0) / ((ell - m) * (ell + m)))
        b = math.sqrt(
            (2.0 * ell + 1.0)
            / (2.0 * ell - 3.0)
            * ((ell - 1.0 - m) * (ell - 1.0 + m))
            / ((ell - m) * (ell + m))
        ) if ell - m >= 2 else 0.0
        p, prev = a * t * p - b * prev, p
        rows.append(p)
    return np.array(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 127, 383])
def test_assoc_legendre_table_order_array_matches_one_order_rows(n):
    t = np.polynomial.legendre.leggauss(n + 1)[0]
    t = np.concatenate([t, [-1.0, 0.0, 1.0]])
    orders = np.arange(n + 1)
    full = assoc_legendre_table(orders, n, t)
    assert full.shape == (n + 1, n + 1, t.size)
    for start in range(0, n + 1, 5):  # blocks that do not start at order 0
        block = assoc_legendre_table(orders[start : start + 5], n, t)
        assert block.shape == (min(5, n + 1 - start), n - start + 1, t.size)
        for j, m in enumerate(orders[start : start + 5]):
            rows = assoc_legendre_table(int(m), n, t)
            # bit for bit, signs of zeros included
            assert rows.tobytes() == _one_order_rows(int(m), n, t).tobytes()
            assert block[j, : n - m + 1].tobytes() == rows.tobytes()
            assert full[m, : n - m + 1].tobytes() == rows.tobytes()
            assert np.all(block[j, n - m + 1 :] == 0.0)
            assert np.all(full[m, n - m + 1 :] == 0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_assoc_legendre_table_parity_halves_are_the_table_rows(n):
    t = np.concatenate([np.polynomial.legendre.leggauss(n + 1)[0], [-1.0, 0.0, 1.0]])
    for orders in (np.arange(n + 1), np.arange(n // 2, n + 1)):
        full = assoc_legendre_table(orders, n, t)
        even, odd = assoc_legendre_table(orders, n, t, parity=True)
        assert even.flags.c_contiguous and odd.flags.c_contiguous
        # bit for bit, the zeros above the degree included
        assert even.tobytes() == np.ascontiguousarray(full[:, 0::2]).tobytes()
        assert odd.tobytes() == np.ascontiguousarray(full[:, 1::2]).tobytes()
    even, odd = assoc_legendre_table(n, n, t, parity=True)  # one order
    assert even.shape == (1, t.size) and odd.shape == (0, t.size)


def test_assoc_legendre_table_order_array_validation():
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([0, 4]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([-1, 2]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.array([1.0, 2.0]), 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_table(np.zeros((2, 2), dtype=int), 3, 0.5)
