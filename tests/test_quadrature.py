"""Tests for the Jacobi-weighted Clenshaw--Curtis and Gauss--Legendre rules.

Moment references were computed with scipy.integrate.quad's QAWSE
algebraic-weight mode (epsabs = epsrel = 1e-14) and frozen as literals;
that routine handles the endpoint singularity analytically and is fully
independent of the recurrence used by the implementation.
"""

import math

import numpy as np
import pytest

from nlsphere.quadrature import (
    CCRule,
    GLRule,
    cc_weights,
    gauss_legendre,
    jacobi_moments,
)

# (alpha, beta, k, mu_k) from scipy QAWSE, est. error <= 2e-14 on each
MOMENT_REF = [
    (-0.5, 0.0, 0, 2.8284271247461907),
    (-0.5, 0.0, 1, 0.9428090415820634),
    (-0.5, 0.0, 2, -0.1885618083164126),
    (-0.5, 0.0, 7, 0.014504754485878069),
    (-0.5, 0.0, 33, 0.0006494666187705639),
    (0.3, 0.0, 0, 1.894068328222948),
    (0.3, 0.0, 1, -0.24705239063777584),
    (0.3, 0.0, 2, -0.7012295128203536),
    (0.3, 0.0, 7, 0.021397348109405134),
    (0.3, 0.0, 33, 0.0010549959751053953),
    (0.9, -0.3, 0, 2.6472109020662877),
    (0.9, -0.3, 1, -1.2217896471075187),
    (0.9, -0.3, 2, -0.3620117472911162),
    (0.9, -0.3, 7, 0.08193015656762051),
    (0.9, -0.3, 33, 0.008979246822783667),
]


@pytest.mark.parametrize("alpha,beta,k,ref", MOMENT_REF)
def test_moments_match_adaptive_quadrature(alpha, beta, k, ref):
    mu = jacobi_moments(alpha, beta, k + 1)
    assert mu[k] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_moments_legendre_weight_closed_forms():
    # alpha = beta = 0: mu_0 = 2, odd moments vanish, mu_2 = -2/3,
    # mu_4 = -2/15 (plain integrals of Chebyshev polynomials)
    mu = jacobi_moments(0.0, 0.0, 6)
    assert mu[0] == pytest.approx(2.0, rel=1e-15)
    assert mu[1] == 0.0
    assert mu[3] == pytest.approx(0.0, abs=1e-15)
    assert mu[5] == pytest.approx(0.0, abs=1e-15)
    assert mu[2] == pytest.approx(-2.0 / 3.0, rel=1e-14)
    assert mu[4] == pytest.approx(-2.0 / 15.0, rel=1e-14)


def test_moment_zero_is_beta_function():
    for alpha, beta in [(-0.9, 0.0), (-0.5, -0.5), (0.7, 0.25)]:
        mu0 = jacobi_moments(alpha, beta, 1)[0]
        ref = (
            2.0 ** (alpha + beta + 1.0)
            * math.gamma(alpha + 1.0)
            * math.gamma(beta + 1.0)
            / math.gamma(alpha + beta + 2.0)
        )
        assert mu0 == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.3, 0.9])
def test_moments_recurrence_in_floats_through_k_5000(alpha):
    # the same forward recurrence in 40-digit arithmetic, seeded from
    # mp.beta; the float error grows about like 0.3 k eps at alpha = -0.5,
    # whose worst is 151 / 607 / 1516 eps through k = 511 / 2000 / 5000
    mpmath = pytest.importorskip("mpmath")
    count = 5001
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        mu0 = 2 ** (a + 1) * mpmath.beta(a + 1, 1)
        ref = [mu0, -a / (a + 2) * mu0]
        for k in range(1, count - 1):
            ref.append(-(2 * a * ref[k] + (a - k + 2) * ref[k - 1]) / (a + k + 2))
        ref = np.array([float(v) for v in ref])
    mu = jacobi_moments(alpha, 0.0, count)
    rel = np.abs(mu - ref) / np.abs(ref)
    assert rel.max() <= 2000 * np.finfo(float).eps, (int(rel.argmax()), rel.max())


def test_moments_reject_nonintegrable_exponents():
    with pytest.raises(ValueError):
        jacobi_moments(-1.0, 0.0, 3)
    with pytest.raises(ValueError):
        jacobi_moments(0.0, -1.5, 3)
    with pytest.raises(ValueError):
        jacobi_moments(0.0, 0.0, 0)


# ----------------------------------------------------------------------
# Clenshaw--Curtis
# ----------------------------------------------------------------------

def test_cc_simpson_recovered_at_two_panels():
    # alpha = beta = 0, n = 2 reduces to Simpson's rule on [-1, 1]
    rule = cc_weights(0.0, 0.0, 2)
    np.testing.assert_allclose(rule.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0],
                               rtol=1e-15)
    np.testing.assert_allclose(rule.nodes, [1.0, 0.0, -1.0], atol=1e-16)


def direct_cc_rule(alpha, beta, n):
    """(nodes, weights) of the modified Clenshaw--Curtis rule from the
    literal O(n^2) bracket sum over the same moments; the oracle for the
    DCT evaluation in :func:`cc_weights`."""
    mu = jacobi_moments(alpha, beta, n + 1)
    j = np.arange(n + 1)
    k = np.arange(1, n)
    cosmat = np.cos(np.pi * np.outer(j, k) / n)
    bracket = mu[0] + ((-1.0) ** j) * mu[n] + 2.0 * (cosmat @ mu[1:n])
    w = bracket / n
    w[0] *= 0.5
    w[n] *= 0.5
    return np.cos(np.pi * np.arange(n + 1) / n), w


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_cc_dct_and_direct_paths_agree(alpha, n):
    fast = cc_weights(alpha, 0.0, n)
    slow_nodes, slow_weights = direct_cc_rule(alpha, 0.0, n)
    np.testing.assert_array_equal(fast.nodes, slow_nodes)
    scale = np.max(np.abs(slow_weights))
    assert np.max(np.abs(fast.weights - slow_weights)) <= 1e-13 * scale


@pytest.mark.parametrize("alpha,beta", [(-0.5, 0.0), (0.3, 0.0), (0.9, -0.3)])
@pytest.mark.parametrize("n", [8, 64])
def test_cc_chebyshev_exactness(alpha, beta, n):
    # the rule must reproduce every moment it was built from:
    # sum_j w_j T_k(x_j) = mu_k for k = 0..n
    rule = cc_weights(alpha, beta, n)
    mu = jacobi_moments(alpha, beta, n + 1)
    k_grid = np.arange(n + 1)
    cheb = np.cos(np.outer(k_grid, np.arange(n + 1)) * np.pi / n)
    reproduced = cheb @ rule.weights
    assert np.max(np.abs(reproduced - mu)) <= 1e-12 * abs(mu[0])


def test_cc_weight_sum_is_total_mass():
    for alpha, beta, n in [(-0.5, 0.0, 17), (0.25, 0.1, 33)]:
        rule = cc_weights(alpha, beta, n)
        mu0 = jacobi_moments(alpha, beta, 1)[0]
        assert rule.weights.sum() == pytest.approx(mu0, rel=1e-13)


def test_cc_integrates_smooth_functions():
    # int (1-x)^{-1/2} e^x dx and int (1-x)^{0.7}(1+x)^{-0.3}/(2+x) dx,
    # references from scipy QAWSE
    rule = cc_weights(-0.5, 0.0, 40)
    assert rule.weights @ np.exp(rule.nodes) == pytest.approx(
        4.598807499429598, rel=1e-13
    )
    rule = cc_weights(0.7, -0.3, 40)
    assert rule.weights @ (1.0 / (2.0 + rule.nodes)) == pytest.approx(
        1.727672846609287, rel=1e-13
    )


def test_cc_rule_is_frozen():
    rule = cc_weights(0.0, 0.0, 4)
    assert len(rule) == 5
    with pytest.raises(Exception):
        rule.alpha = 1.0
    with pytest.raises(ValueError):
        rule.weights[0] = 99.0


def test_cc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cc_weights(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        cc_weights(-1.2, 0.0, 4)
    with pytest.raises(TypeError):
        cc_weights(0.0, 0.0, 4, method="fft2")


# ----------------------------------------------------------------------
# Gauss--Legendre
# ----------------------------------------------------------------------

def test_gl_two_point_closed_form():
    rule = gauss_legendre(2)
    np.testing.assert_allclose(rule.nodes, [1.0 / math.sqrt(3.0),
                                            -1.0 / math.sqrt(3.0)], rtol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 31, 200])
def test_gl_matches_numpy_leggauss(n):
    rule = gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    # numpy returns ascending nodes, this package descending; near the
    # endpoints the usual weight formula amplifies one-ulp node error by
    # 1/(1 - x^2), so weights can only be compared at ~1e-10 relative
    np.testing.assert_allclose(rule.nodes, x_ref[::-1], atol=5e-15)
    np.testing.assert_allclose(rule.weights, w_ref[::-1], rtol=5e-10)


@pytest.mark.parametrize("n", [3, 9, 40, 200])
def test_gl_polynomial_exactness(n):
    # exact through degree 2n-1: check the last even power and total mass
    rule = gauss_legendre(n)
    assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
    deg = 2 * n - 2
    exact = 2.0 / (deg + 1.0)
    assert rule.weights @ rule.nodes**deg == pytest.approx(exact, rel=1e-12)


def test_gl_nodes_exactly_antisymmetric():
    for n in (4, 7, 64):
        rule = gauss_legendre(n)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.all(np.diff(rule.nodes) < 0)


def test_gl_rejects_bad_count():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(-3)


def test_rule_types_importable_and_distinct():
    assert CCRule is not GLRule
