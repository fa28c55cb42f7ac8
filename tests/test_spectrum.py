"""Tests for the nonlocal operator eigenvalues.

Cross-checks used here, in increasing strength:
* closed forms (degree 0; the alpha = -1/2, delta = 2 kernel where the
  exact eigenvalues are -2*ell),
* the local-limit and sign/magnitude bounds satisfied by every eigenvalue,
* agreement between the recurrence and asymptotic integrand evaluations,
* agreement between the default summation and a compensated (math.fsum)
  re-evaluation of the same quadrature sum,
* node-count independence, since the recurrence integrand is a polynomial
  the rule already integrates exactly,
* full spectra at degrees above 300 against an mpmath evaluation of the
  exact hypergeometric sum, which shares no code with the package.
"""

import math
import warnings

import numpy as np
import pytest

from nlsphere.quadrature import cc_weights
from nlsphere.specfun import _ASYMPTOTIC_MIN_DEGREE, _SERIES_HAV_MAX, legendre_rec
from nlsphere.spectrum import (
    KernelParams,
    _eigenvalue_with_panels,
    eigenvalue,
    local_eigenvalue,
    local_spectrum,
    spectrum,
    write_spectrum,
)


def test_kernel_params_validation_and_derived():
    kp = KernelParams(alpha=-0.5, delta=2.0)
    assert kp.d == -1.0
    assert KernelParams(0.0, 1.0).d == 0.5
    for bad in [(-1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (0.0, 2.5), (0.0, -1.0),
                (math.nan, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            KernelParams(*bad)


def test_kernel_params_frozen():
    kp = KernelParams(0.0, 1.0)
    with pytest.raises(Exception):
        kp.alpha = 0.5


def test_degree_zero_is_exactly_zero():
    for params in [KernelParams(-0.5, 2.0), KernelParams(0.9, 0.01)]:
        assert eigenvalue(0, params) == 0.0


def test_minus_two_ell_kernel():
    # at alpha = -1/2, delta = 2 the eigenvalues are exactly -2*ell
    params = KernelParams(-0.5, 2.0)
    assert eigenvalue(5, params) == pytest.approx(-10.0, rel=1e-11)
    for ell in (1, 2, 17, 100):
        assert eigenvalue(ell, params) == pytest.approx(-2.0 * ell, rel=1e-12)


def test_minus_two_ell_kernel_through_degree_2000():
    # the haversine q from the node angle, not from the rounded node x,
    # keeps the spectrum's error at 2.4e-13 through ell = 2000 (it was
    # 9.6e-12); an isolated eigenvalue has its own (ell+1)-panel rule and
    # reaches 6.2e-13 at ell = 1999 (it was 1.1e-12 there, 9.6e-12 at 2000)
    params = KernelParams(-0.5, 2.0)
    ells = np.arange(1, 2001)
    values = spectrum(2000, params)
    np.testing.assert_allclose(values[1:], -2.0 * ells, rtol=5e-13, atol=0)
    for ell in (1000, 1500, 1973, 1999, 2000):
        assert eigenvalue(ell, params) == pytest.approx(-2.0 * ell, rel=1e-12)


def test_spectrum_low_degrees_minus_two_ell():
    sp = spectrum(3, KernelParams(-0.5, 2.0))
    assert sp[0] == 0.0
    np.testing.assert_allclose(sp, [0.0, -2.0, -4.0, -6.0], rtol=1e-11)


def test_local_limit_small_horizon():
    # |lambda_delta(ell) + ell(ell+1)| <= ell(ell+1)(ell+2)^2 delta^2 / 16
    v = eigenvalue(8, KernelParams(0.5, 1e-3))
    assert v == pytest.approx(-72.0, abs=3.2e-3)
    for alpha in (-0.5, 0.5):
        for delta in (1e-3, 1e-2):
            params = KernelParams(alpha, delta)
            for ell in (1, 7, 30):
                lam = eigenvalue(ell, params)
                bound = ell * (ell + 1) * (ell + 2) ** 2 * delta**2 / 16.0
                assert abs(lam + ell * (ell + 1)) <= bound * (1.0 + 1e-8) + 1e-12


@pytest.mark.parametrize("ell", [
    _ASYMPTOTIC_MIN_DEGREE - 1, _ASYMPTOTIC_MIN_DEGREE, 2 * _ASYMPTOTIC_MIN_DEGREE, 1000,
])
def test_recurrence_and_asymptotics_agree(ell):
    # an isolated eigenvalue on either side of the switch against the
    # one-pass spectrum, which runs the recurrence at every degree
    params = KernelParams(-0.5, 1.0)
    assert eigenvalue(ell, params) == pytest.approx(
        spectrum(max(ell, 1000), params)[ell], rel=1e-8
    )


@pytest.mark.parametrize("alpha,delta", [(-0.5, 2.0), (0.3, 0.7)])
def test_eigenvalue_route_follows_the_degree(monkeypatch, alpha, delta):
    # below the switch no node reaches the asymptotics; from it on the
    # recurrence keeps only the nodes at haversine <= _SERIES_HAV_MAX
    params = KernelParams(alpha, delta)
    c = _ASYMPTOTIC_MIN_DEGREE
    expected = spectrum(2 * c, params)

    def no_asymptotics(ell, q):
        raise AssertionError(f"asymptotics at degree {ell}")

    def near_nodes_only(ell, t):
        assert np.all(t >= 1.0 - 2.0 * _SERIES_HAV_MAX), f"far-node recurrence at degree {ell}"
        return legendre_rec(ell, t)

    with monkeypatch.context() as patch:
        patch.setattr("nlsphere.specfun._szego_from_haversine", no_asymptotics)
        for ell in (1, c - 1):
            assert eigenvalue(ell, params) == pytest.approx(expected[ell], rel=1e-13)
    with monkeypatch.context() as patch:
        patch.setattr("nlsphere.specfun.legendre_rec", near_nodes_only)
        for ell in (c, 2 * c):
            assert eigenvalue(ell, params) == pytest.approx(expected[ell], rel=1e-13)


def test_compensated_summation_reference():
    # re-evaluate the quadrature sum with math.fsum and direct formulas
    for ell, alpha, delta in [(30, 0.3, 0.7), (12, -0.5, 2.0), (57, 0.0, 1.0)]:
        rule = cc_weights(alpha, 0.0, max(ell + 1, 8))
        d2 = delta * delta
        terms = []
        for xj, wj in zip(rule.nodes, rule.weights):
            if xj == 1.0:
                g = -(d2 / 8.0) * ell * (ell + 1)
            else:
                q = d2 * (1.0 - xj) / 8.0
                g = (legendre_rec(ell, 1.0 - 2.0 * q) - 1.0) / (1.0 - xj)
            terms.append(wj * g)
        ref = (1.0 + alpha) * 2.0 ** (2.0 - alpha) / d2 * math.fsum(terms)
        mine = eigenvalue(ell, KernelParams(alpha, delta))
        assert mine == pytest.approx(ref, rel=5e-13)


@pytest.mark.parametrize("ell", [1, 5, 30, 101])
def test_node_count_independence_under_recurrence(ell):
    assert ell < _ASYMPTOTIC_MIN_DEGREE
    # the integrand is a degree ell-1 polynomial: doubling the panel count
    # must not change the integral beyond roundoff
    params = KernelParams(0.3, 0.7)
    base = max(ell + 1, 8)
    a = _eigenvalue_with_panels(ell, params, base)
    b = _eigenvalue_with_panels(ell, params, 2 * base)
    assert b == pytest.approx(a, rel=1e-12)


BOUND_GRID_ALPHAS = (-0.9, -0.5, 0.0, 0.5, 0.9)
BOUND_GRID_DELTAS = (0.01, 0.1, 1.0, 2.0)


@pytest.mark.parametrize("alpha", BOUND_GRID_ALPHAS)
@pytest.mark.parametrize("delta", BOUND_GRID_DELTAS)
def test_bounds_on_parameter_grid(alpha, delta):
    # -ell(ell+1) <= lambda <= 0 with slack 1e-8 * ell(ell+1); degree 60
    # here keeps the module suite fast, the acceptance suite runs 200
    sp = spectrum(60, KernelParams(alpha, delta))
    ells = np.arange(61, dtype=float)
    tol = 1e-8 * ells * (ells + 1.0)
    assert np.all(sp <= tol)
    assert np.all(sp >= -ells * (ells + 1.0) - tol)


@pytest.mark.parametrize("alpha", BOUND_GRID_ALPHAS)
def test_monotonicity_where_claimed(alpha):
    # eigenvalue sequences decrease in ell for alpha <= 0; for positive
    # alpha at moderate horizons they genuinely oscillate while settling
    # toward their large-ell plateau, so there the check only warns
    for delta in BOUND_GRID_DELTAS:
        sp = spectrum(60, KernelParams(alpha, delta))
        increases = np.diff(sp) > 1e-10
        if alpha <= 0.0:
            assert not increases.any(), (alpha, delta)
        elif increases.any():
            warnings.warn(
                f"eigenvalues not monotone at alpha={alpha}, delta={delta} "
                f"({int(increases.sum())} increases); expected for positive alpha",
                stacklevel=1,
            )


@pytest.mark.parametrize("alpha,delta", [
    (-0.5, 2.0), (-0.9, 0.01), (0.9, 0.7), (0.0, 1.0), (0.3, 0.1), (-0.5, 0.01),
])
def test_spectrum_matches_per_degree_recurrence(alpha, delta):
    # the one-pass sweep against eigenvalue(ell) on its own rule, degree by
    # degree, across the panel floor of 8 and through degree 200
    params = KernelParams(alpha, delta)
    ref = np.array([eigenvalue(ell, params) for ell in range(201)])
    for n in (0, 1, 6, 7, 8, 63, 200):
        values = spectrum(n, params)
        assert values.shape == (n + 1,) and values[0] == 0.0  # exactly, at n = 0 too
        np.testing.assert_allclose(values, ref[: n + 1], rtol=3e-13, atol=0.0)


def test_local_eigenvalue_values():
    assert local_eigenvalue(0) == 0.0
    assert local_eigenvalue(1) == -2.0
    assert local_eigenvalue(10) == -110.0
    with pytest.raises(ValueError):
        local_eigenvalue(-1)


def test_local_spectrum_object():
    sp = local_spectrum(4)
    assert sp.shape == (5,) and sp.dtype == np.float64
    np.testing.assert_array_equal(sp, [0.0, -2.0, -6.0, -12.0, -20.0])
    with pytest.raises(ValueError):
        sp[1] = 0.0


def test_spectrum_object_immutable():
    sp = spectrum(3, KernelParams(0.0, 1.0))
    assert len(sp) == 4
    assert sp.shape == (4,) and sp.dtype == np.float64
    with pytest.raises(ValueError):
        sp[1] = 0.0


def test_eigenvalue_argument_validation():
    params = KernelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        eigenvalue(-1, params)
    with pytest.raises(TypeError):
        eigenvalue(2, (0.0, 1.0))
    with pytest.raises(TypeError):
        eigenvalue(2, params, "hybrid")


def test_write_spectrum_format(tmp_path):
    sp = spectrum(3, KernelParams(-0.5, 2.0))
    path = tmp_path / "spec.csv"
    write_spectrum(sp, path, comment="kernel alpha=-0.5 delta=2")
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# kernel alpha=-0.5 delta=2"
    assert lines[1] == "ell,lambda"
    assert lines[2] == "0,0"
    assert len(lines) == 6
    # deterministic: writing again yields identical bytes
    path2 = tmp_path / "spec2.csv"
    write_spectrum(spectrum(3, KernelParams(-0.5, 2.0)), path2,
                   comment="kernel alpha=-0.5 delta=2")
    assert path.read_bytes() == path2.read_bytes()
    # full precision round trip
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    np.testing.assert_array_equal(data[:, 1], sp)


def _mpmath_eigenvalue(ell, alpha, delta):
    """lambda(ell) from the terminating series of the eigenvalue integral.

    P_ell(1 - 2u) = sum_k (-ell)_k (ell+1)_k / (k!)^2 u^k with u =
    delta^2 (1-x)/8 makes the integrand a polynomial in s = 1-x times
    s^(alpha-1); integrating term by term over s in [0, 2] gives
    lambda = (1+alpha) 4/delta^2 sum_{k>=1} c_k (delta^2/4)^k / (k+alpha).
    The alternating terms reach ~5.9^ell, so the sum runs at ell + 30
    digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30 + ell):
        a = mpmath.mpf(alpha)
        d2 = mpmath.mpf(delta) ** 2
        coeff = mpmath.mpf(1)
        total = mpmath.mpf(0)
        for k in range(1, ell + 1):
            coeff = coeff * ((k - 1 - ell) * (ell + k)) / (k * k) * (d2 / 4)
            total += coeff / (k + a)
        return float((1 + a) * 4 / d2 * total)


@pytest.mark.parametrize("alpha,delta,n,rtol", [
    (-0.5, 2.0, 383, 2e-13), (-0.9, 0.01, 383, 2e-13), (0.9, 0.01, 300, 2e-13),
    (0.9, 1.0, 383, 2e-13), (-0.9, 2.0, 311, 2e-13), (0.9, 2.0, 383, 2e-13),
    (0.3, 1.5, 340, 2e-13), (-0.5, 2.0, 1000, 2e-13), (-0.9, 2.0, 1000, 2e-13),
    (-0.5, 1.0, 1000, 2e-13), (0.9, 0.01, 1000, 2e-13), (0.3, 1.5, 1000, 2e-13),
])
def test_spectrum_against_mpmath(alpha, delta, n, rtol):
    # rtol: about twice the worst error on these kernels, 1.15e-13 at
    # alpha = 0.3, delta = 1.5, ell = 51 for n <= 383 and 9.9e-14 at
    # alpha = -0.5, delta = 2, ell = 1000; with q from the rounded node
    # x instead of its angle the latter was 2.9e-12
    values = spectrum(n, KernelParams(alpha, delta))
    for ell in (1, 2, 7, 50, 51, 100, 200, 300, 383, 500, 700, n):
        if ell <= n:
            ref = _mpmath_eigenvalue(ell, alpha, delta)
            assert abs(values[ell] - ref) <= rtol * abs(ref), (ell, values[ell], ref)
