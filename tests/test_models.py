"""Tests for the model problems.

Frozen reference:
  * GL_QUARTIC_U20 - the quartic-term integral for the single-mode field
    u_2^0 = 1, i.e. (1/4) * 2*pi * int_{-1}^{1} (5/(4*pi) * P_2(t)^2 - 1)^2 dt,
    computed with mpmath.quad at 40 digits.
"""

import math
import os
import re

import numpy as np
import pytest
from scipy.linalg import expm

from nlsphere import models as M
from nlsphere import timestep as T
from nlsphere.spectrum import KernelParams, local_spectrum
from nlsphere.sht import SphereGrid, _is_prime, _layout, _per_degree, analysis, slot, synthesis
from nlsphere.timestep import evolve, pseudospectral
from oracles import (
    brusselator_reactions,
    integrate_grid,
    legendre_rows,
    north_south_step,
    relative_error_2norm,
)

GL_QUARTIC_U20 = 2.6842234419179793


def random_field(degree, seed):
    return M.random_coeffs(degree, degree, 1.0, seed)


# ----------------------------------------------------------------------
# Poisson
# ----------------------------------------------------------------------

def test_poisson_problem_validation():
    f = np.zeros((4, 7))
    with pytest.raises(ValueError, match=re.escape(
            "spectrum must be a real array of shape (4,), got shape (5,)")):
        M.solve_poisson(f, local_spectrum(4))
    # the spectrum is a plain (n+1,) array; any other shape is refused
    for wrong in (np.array([0.0, -2.0]), np.zeros((1, 4)), np.float64(0.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"spectrum must be a real array of shape (4,), got shape {np.shape(wrong)}")):
            M.solve_poisson(f, wrong)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_poisson_refuses_non_finite_eigenvalues(bad):
    # a NaN eigenvalue used to come back as NaN solution coefficients
    f = np.zeros((4, 7))
    f[slot(3, 1, 0)] = 1.0
    lam = np.array([0.0, -2.0, bad, -12.0])
    with pytest.raises(ValueError, match=f"eigenvalue at degree 2 is not finite, got {bad}"):
        M.solve_poisson(f, lam)


def test_poisson_single_mode_local():
    f = np.zeros((6, 11))
    f[slot(5, 3, 1)] = 1.0
    u = M.solve_poisson(f, local_spectrum(5))
    assert u[slot(5, 3, 1)] == -1.0 / 12.0
    # everything else untouched
    u[slot(5, 3, 1)] = 0.0
    assert np.all(u == 0.0)


def test_poisson_mean_condition():
    f = np.zeros((3, 5))
    f[slot(2, 0, 0)] = 7.0
    # a -0 structural zero, which a --rhs file can hold, stays -0
    f[2, 4] = -0.0
    u = M.solve_poisson(f, local_spectrum(2))
    assert u[slot(2, 0, 0)] == 7.0
    assert u[2, 4] == 0.0 and math.copysign(1.0, u[2, 4]) == -1.0
    np.testing.assert_array_equal(u.view(np.uint64)[~_layout(2)[1]],
                                  f.view(np.uint64)[~_layout(2)[1]])


def test_poisson_degenerate_kernel_raises():
    f = np.zeros((3, 5))
    f[slot(2, 1, 0)] = 1.0
    degenerate = np.array([0.0, 0.0, -4.0])
    with pytest.raises(ZeroDivisionError):
        M.solve_poisson(f, degenerate)
    shifted = np.array([0.5, -2.0, -4.0])
    with pytest.raises(ValueError):
        M.solve_poisson(f, shifted)


@pytest.mark.parametrize("kernel", [None, KernelParams(0.3, 1.2)])
def test_poisson_residual(kernel):
    # multiplying the solution back by the eigenvalue layout (mean slot
    # restored) must reproduce the right-hand side
    n = 24
    spec = M.build_spectrum(n, kernel)
    rhs = random_field(n, seed=11)
    u = M.solve_poisson(rhs, spec)
    lam = np.zeros((n + 1, 2 * n + 1))
    for ell in range(n + 1):
        for m in range(-ell, ell + 1):
            lam[slot(n, ell, m)] = spec[ell]
    lam[0, 0] = 1.0
    res = np.linalg.norm(lam * u - rhs) / np.linalg.norm(rhs)
    assert res < 1e-12


# ----------------------------------------------------------------------
# Allen--Cahn and Brusselator
# ----------------------------------------------------------------------

def test_allen_cahn_nonlinearity_values():
    vals = M.allen_cahn_nonlinearity(np.array([0.0, 1.0, -1.0, 0.5]))
    np.testing.assert_allclose(vals, [0.0, 0.0, 0.0, 0.375], rtol=0, atol=0)


def test_allen_cahn_config_validation():
    M.AllenCahnConfig(epsilon=0.1)
    # the config stores the checked value as a Python float
    assert type(M.AllenCahnConfig(epsilon=np.float32(0.5)).epsilon) is float
    for bad in (0.0, -1.0, math.nan, math.inf, True, "0.1"):
        with pytest.raises(ValueError, match=re.escape(
                f"epsilon must be a finite number in (0, inf), got {bad!r}")):
            M.AllenCahnConfig(epsilon=bad)


def test_allen_cahn_operator_scaling():
    cfg = M.AllenCahnConfig(epsilon=0.2)
    op = M.allen_cahn_operator(cfg, local_spectrum(4))
    assert op.shape == (5,)
    assert op[2] == pytest.approx(0.04 * -6.0, rel=1e-15)
    # an operator of another degree than the state is refused by evolve
    u = np.zeros((1, 5, 9))
    nl = pseudospectral(M.allen_cahn_nonlinearity, SphereGrid(4))
    with pytest.raises(ValueError, match=re.escape(
            "initial must be a real array of shape (1, 6, 11), got shape (1, 5, 9)")):
        evolve(u, [M.allen_cahn_operator(cfg, local_spectrum(5))], nl, 0.1, 1)


def brusselator_cfg(**over):
    base = dict(E=4.0, epsilon=0.075, tau=7.8125, f=0.8)
    base.update(over)
    return M.BrusselatorConfig(**base)


def test_brusselator_config_validation():
    brusselator_cfg()
    cfg = brusselator_cfg(E=4, epsilon=np.float32(0.5), tau=np.int64(8))
    assert [type(v) for v in (cfg.E, cfg.epsilon, cfg.tau)] == [float] * 3
    for bad in (dict(f=1.0), dict(f=0.0), dict(f=-0.2)):
        with pytest.raises(ValueError, match=r"f must be a finite number in \(0, 1\)"):
            brusselator_cfg(**bad)
    for name, value in (("E", 0.0), ("E", True), ("tau", -1.0), ("tau", math.inf),
                        ("epsilon", 0.0), ("epsilon", math.nan)):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a finite number in (0, inf), got {value!r}")):
            brusselator_cfg(**{name: value})


def test_brusselator_equilibrium_values():
    cfg = brusselator_cfg()
    u_e, v_e = cfg.equilibrium()
    assert u_e == pytest.approx(0.1125, rel=1e-12)
    assert v_e == pytest.approx(1.0 / 0.1125, rel=1e-12)


def brusselator_state(cfg, n, scale, seed):
    """(2, n+1, 2n+1) state: the equilibrium plus N(0, scale^2) coefficients."""
    state = np.stack([M.random_coeffs(n, n, scale, seed + f) for f in range(2)])
    for field, mean in zip(state, cfg.equilibrium()):
        field[slot(n, 0, 0)] += mean * math.sqrt(4.0 * math.pi)
    return state


def test_brusselator_nonlinearity_zero_at_equilibrium():
    n = 8
    cfg = brusselator_cfg()
    out = M.brusselator_nonlinearity(cfg, SphereGrid(n))(brusselator_state(cfg, n, 0.0, 0))
    assert out.shape == (2, n + 1, 2 * n + 1)
    assert np.abs(out).max() <= 1e-12


def test_brusselator_nonlinearity_at_zero():
    # u = 0: the product and the linear terms vanish, only the source is left
    n = 8
    cfg = brusselator_cfg()
    state = np.stack([np.zeros((n + 1, 2 * n + 1)), M.random_coeffs(n, n, 1.0, 3)])
    n_u, n_v = M.brusselator_nonlinearity(cfg, SphereGrid(n))(state)
    expected = np.zeros((n + 1, 2 * n + 1))
    expected[slot(n, 0, 0)] = cfg.epsilon**2 * cfg.E * math.sqrt(4.0 * math.pi)
    np.testing.assert_array_equal(n_u, expected)
    np.testing.assert_array_equal(n_v, 0.0)


@pytest.mark.parametrize("n", [31, 127])
def test_brusselator_nonlinearity_matches_grid_formula(n):
    # against every term formed on the grid: the linear ones round-trip
    # through the transforms there, so the two agree to rounding
    cfg = brusselator_cfg()
    grid = SphereGrid(n)
    new = M.brusselator_nonlinearity(cfg, grid)
    reference = pseudospectral(lambda u, v: brusselator_reactions(u, v, cfg), grid)
    for seed, scale in ((0, 0.01), (2, 0.01), (4, 1.0)):
        state = brusselator_state(cfg, n, scale, seed)
        assert relative_error_2norm(new(state), reference(state)) <= 1e-14


@pytest.mark.parametrize("n", [31, 127])
def test_brusselator_nonlinearity_matches_its_stacked_formula_bit_for_bit(n):
    # the terms written into one output are the stacked formula's numbers
    cfg = brusselator_cfg()
    grid = SphereGrid(n)
    new = M.brusselator_nonlinearity(cfg, grid)
    product = pseudospectral(lambda u, v: u * u * v, grid)
    source = cfg.epsilon**2 * cfg.E * math.sqrt(4.0 * math.pi)
    for seed, scale in ((0, 0.01), (4, 1.0)):
        state = brusselator_state(cfg, n, scale, seed)
        (w,) = product(state)
        u = state[0]
        n_u = cfg.f * w - u
        n_u[0, 0] += source
        want = np.stack([n_u, (u - w) / (cfg.tau * cfg.epsilon**2)])
        np.testing.assert_array_equal(new(state), want)


def test_brusselator_nonlinearity_analyses_one_product(monkeypatch):
    n = 12
    cfg = brusselator_cfg()
    shapes = []

    def recording_analysis(values, grid):
        shapes.append(np.shape(values))
        return analysis(values, grid)

    monkeypatch.setattr(T, "analysis", recording_analysis)
    M.brusselator_nonlinearity(cfg, SphereGrid(n))(brusselator_state(cfg, n, 0.01, 0))
    assert shapes == [(1, n + 1, 2 * n + 1)]


def test_brusselator_operator_prefactors():
    cfg = brusselator_cfg()
    spec = local_spectrum(8)
    op_u, op_v = M.brusselator_operators(cfg, spec)
    assert op_u[1] == pytest.approx(cfg.epsilon**2 * -2.0, rel=1e-15)
    assert op_v[1] == pytest.approx(-2.0 / cfg.tau, rel=1e-15)
    # the second operator multiplies by the reciprocal of tau, bit for bit
    np.testing.assert_array_equal(op_v, (1.0 / cfg.tau) * spec)
    # operators of another degree than the state are refused by evolve
    nl = M.brusselator_nonlinearity(cfg, SphereGrid(8))
    with pytest.raises(ValueError, match=re.escape(
            "initial must be a real array of shape (2, 10, 19), got shape (2, 9, 17)")):
        evolve(np.zeros((2, 9, 17)), M.brusselator_operators(cfg, local_spectrum(9)), nl, 0.1, 1)


def test_brusselator_equilibrium_is_fixed_point():
    n = 12
    cfg = brusselator_cfg()
    spec = M.build_spectrum(n, KernelParams(0.0, 1.0))
    ops = M.brusselator_operators(cfg, spec)
    grid = SphereGrid(n)
    nl = M.brusselator_nonlinearity(cfg, grid)
    u_e, v_e = cfg.equilibrium()
    u0 = np.zeros((n + 1, 2 * n + 1))
    v0 = np.zeros((n + 1, 2 * n + 1))
    u0[slot(n, 0, 0)] = u_e * math.sqrt(4.0 * math.pi)
    v0[slot(n, 0, 0)] = v_e * math.sqrt(4.0 * math.pi)
    fu, fv = evolve(np.stack([u0, v0]), ops, nl, 0.1, 10)
    assert np.abs(fu - u0).max() <= 1e-12
    assert np.abs(fv - v0).max() <= 1e-12


# ----------------------------------------------------------------------
# Linear stability: a small perturbation of a constant state against the
# exact per-degree propagator
# ----------------------------------------------------------------------

PERTURBATION = 1e-7


def _linear_error(start, operators, nonlinearity, exact, ells, field, h, t_final):
    """Largest error, relative to PERTURBATION, of an evolve run from
    ``start`` with slot (ell, ell // 2) of ``field`` perturbed, over that
    slot of every field and over ``ells``; ``exact(ell, t)`` is the
    propagator of degree ell over time t."""
    degree = start.shape[1] - 1
    kick = np.zeros(len(start))
    kick[field] = PERTURBATION
    worst = 0.0
    for ell in ells:
        where = (slice(None), *slot(degree, ell, ell // 2))
        state = start.copy()
        state[where] += kick
        final = evolve(state, operators, nonlinearity, h, round(t_final / h))
        want = start[where] + exact(ell, t_final) @ kick
        worst = max(worst, np.abs(final[where] - want).max() / PERTURBATION)
    return worst


def test_brusselator_linear_stability_against_the_exact_propagator():
    # J_ell = [[eps^2 lam + 2f - 1, f u_e^2], [-1/(tau eps^2), lam/tau -
    # u_e^2/(tau eps^2)]] about the equilibrium; degree 5 is the most
    # unstable.  The inhibitor v is perturbed: a kick to u drives a v
    # response 40-180x its size, which the error would carry along
    n, t_final = 31, 5.0
    cfg = brusselator_cfg()
    spec = M.build_spectrum(n, KernelParams(0.0, 1.0))
    u_e, v_e = cfg.equilibrium()
    start = np.zeros((2, n + 1, 2 * n + 1))
    start[:, 0, 0] = np.array([u_e, v_e]) * math.sqrt(4.0 * math.pi)
    args = (start, M.brusselator_operators(cfg, spec),
            M.brusselator_nonlinearity(cfg, SphereGrid(n)))
    tau_eps2 = cfg.tau * cfg.epsilon**2

    def exact(ell, t):
        lam = spec[ell]
        jac = np.array([[cfg.epsilon**2 * lam + 2.0 * cfg.f - 1.0, cfg.f * u_e**2],
                        [-1.0 / tau_eps2, lam / cfg.tau - u_e**2 / tau_eps2]])
        return expm(jac * t)

    coarse, fine = (_linear_error(*args, exact, (1, 5, n), 1, h, t_final) for h in (0.1, 0.05))
    assert coarse <= 2e-6
    # ETDRK4 is fourth order: 16x in the limit, 15-16x measured
    assert coarse >= 12.0 * fine


def test_allen_cahn_linear_stability_against_the_exact_propagator():
    # about u = 0 degree ell grows or decays at sigma = eps^2 lam + 1
    n, t_final = 63, 2.0
    cfg = M.AllenCahnConfig(epsilon=0.1)
    spec = M.build_spectrum(n, KernelParams(-0.5, 1.0))
    args = (np.zeros((1, n + 1, 2 * n + 1)), [M.allen_cahn_operator(cfg, spec)],
            pseudospectral(M.allen_cahn_nonlinearity, SphereGrid(n)))

    def exact(ell, t):
        return np.array([[math.exp((cfg.epsilon**2 * spec[ell] + 1.0) * t)]])

    coarse, fine = (_linear_error(*args, exact, (1, 10, 40, n), 0, h, t_final)
                    for h in (0.1, 0.05))
    assert coarse <= 2e-5
    assert coarse >= 12.0 * fine


# ----------------------------------------------------------------------
# Ginzburg--Landau energy
# ----------------------------------------------------------------------

def test_energy_constant_one_is_zero():
    spec = local_spectrum(4)
    c = np.zeros((5, 9))
    c[slot(4, 0, 0)] = math.sqrt(4.0 * math.pi)
    assert M.ginzburg_landau_energy(c, spec, 0.1) == pytest.approx(0.0, abs=1e-14)


def test_energy_zero_field_is_pi():
    spec = local_spectrum(4)
    c = np.zeros((5, 9))
    assert M.ginzburg_landau_energy(c, spec, 0.1) == pytest.approx(
        math.pi, rel=1e-15
    )


def test_energy_single_mode_example():
    spec = local_spectrum(4)
    c = np.zeros((5, 9))
    c[slot(4, 2, 0)] = 1.0
    want = 0.03 + GL_QUARTIC_U20
    got = M.ginzburg_landau_energy(c, spec, 0.1)
    assert got == pytest.approx(want, rel=1e-13)


def test_energy_validation():
    spec = local_spectrum(4)
    c = np.zeros((5, 9))
    with pytest.raises(ValueError):
        M.ginzburg_landau_energy(c, local_spectrum(5), 0.1)
    with pytest.raises(ValueError):
        M.ginzburg_landau_energy(np.zeros((5, 8)), spec, 0.1)  # not (n+1, 2n+1)


def _energy_by_embedding(u, spec, epsilon, grid):
    # the zero-padded route: degree-2n coefficients and degree-2n tables
    lam = _per_degree(spec, 0.0)
    linear = -0.5 * epsilon**2 * float(np.sum(lam * u * u))
    vals = synthesis(M.embed(u, grid.degree), grid)
    return linear + 0.25 * integrate_grid((vals * vals - 1.0) ** 2, grid)


@pytest.mark.parametrize("n", [1, 6, 31])
def test_energy_band_n_synthesis_matches_embedding(n):
    spec = M.build_spectrum(n, KernelParams(-0.5, 1.0))
    u = M.random_coeffs(n, n, 0.3, seed=n)
    want = _energy_by_embedding(u, spec, 0.1, SphereGrid(2 * n))
    got = M.ginzburg_landau_energy(u, spec, 0.1)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [1, 6, 31])
def test_energy_from_parity_parts_matches_embedding_on_supplied_grids(monkeypatch, n):
    # the energy integrates on _refined_grid(2n); degree-2n grids with other
    # longitude counts stand in for it here, one prime (the dense-DFT
    # longitude stage); degree 2n has n paired rows and the equator row
    spec = M.build_spectrum(n, KernelParams(-0.5, 1.0))
    u = M.random_coeffs(n, n, 0.3, seed=n + 100)
    prime = next(c for c in range(4 * n + 2, 8 * n + 8) if _is_prime(c))
    grids = (SphereGrid(2 * n, longitudes=4 * n + 2), SphereGrid(2 * n, longitudes=prime))
    assert [g.north for g in grids] == [n + 1, n + 1]
    assert [g._dense_longitudes for g in grids] == [False, True]
    for grid in grids:
        monkeypatch.setattr(M, "_refined_grid", lambda degree, grid=grid: grid)
        want = _energy_by_embedding(u, spec, 0.1, grid)
        assert M.ginzburg_landau_energy(u, spec, 0.1) == pytest.approx(want, rel=1e-13, abs=0)


def test_energy_ignores_values_below_the_stored_triangle():
    # as the transforms do, the diffusion term skips the structural zeros
    n = 6
    spec = M.build_spectrum(n, KernelParams(-0.5, 1.0)) - 1.0
    u = M.random_coeffs(n, n, 0.3, seed=3)
    junk = u.copy()
    junk[~_layout(n)[1]] = 5.0
    assert M.ginzburg_landau_energy(junk, spec, 0.1) == M.ginzburg_landau_energy(u, spec, 0.1)


def _dense_values(u, grid):
    """u at the grid nodes from dense products: each order's Legendre table
    at every colatitude times its sin(m phi), cos(m phi) on the grid's
    longitudes."""
    n, phi = len(u) - 1, grid.lon_nodes
    values = np.zeros((grid.degree + 1, phi.size))
    for m in range(n + 1):
        table = legendre_rows(m, n, grid.colat_cos)
        cos = u[: n - m + 1, 2 * m] @ table
        if m == 0:
            values += cos[:, None] / math.sqrt(2.0 * math.pi)
            continue
        sin = u[: n - m + 1, 2 * m - 1] @ table
        values += (np.outer(sin, np.sin(m * phi)) + np.outer(cos, np.cos(m * phi))) / math.sqrt(math.pi)
    return values


@pytest.mark.parametrize("n", [15, 62, 63, 127])
def test_energy_matches_a_dense_evaluation_on_the_2n_grid(n):
    # the observer integrates on the 2n colatitudes with a 5-smooth longitude
    # count >= 4n+1 (256 for n = 62 and 63, 512 for n = 127); the reference
    # is the 2n grid itself, 4n+1 longitudes, evaluated without transforms
    grid = M._refined_grid(2 * n)
    assert grid.degree == 2 * n and grid.lon_nodes.size == M._fft_length(4 * n + 1)
    spec = M.build_spectrum(n, KernelParams(-0.5, 1.0))
    u = M.random_coeffs(n, n, 0.3, seed=n)
    lam = _per_degree(spec, 0.0)
    fine = SphereGrid(2 * n)
    vals = _dense_values(u, fine)
    quartic = float(fine.colat_weights @ ((vals * vals - 1.0) ** 2).sum(axis=1))
    want = (-0.5 * 0.1**2 * float(np.sum(lam * u * u))
            + 0.25 * quartic * 2.0 * np.pi / (4 * n + 1))
    assert M.ginzburg_landau_energy(u, spec, 0.1) == pytest.approx(want, rel=5e-15, abs=0)


def test_fft_lengths_are_the_smallest_5_smooth_counts():
    assert [M._fft_length(c) for c in (1, 7, 11, 13, 17, 61, 253, 509, 1021)] == [
        1, 8, 12, 15, 18, 64, 256, 512, 1024]


def test_refined_grid_cache_evicts_oldest_of_five():
    M._refined_grid.cache_clear()
    grids = [M._refined_grid(degree) for degree in (2, 4, 6, 8)]
    assert [M._refined_grid(degree) for degree in (2, 4, 6, 8)] == grids
    M._refined_grid(10)
    assert M._refined_grid.cache_info().currsize == 4
    assert [M._refined_grid(degree) for degree in (4, 6, 8)] == grids[1:]
    assert M._refined_grid(2) is not grids[0]
    M._refined_grid.cache_clear()


@pytest.mark.parametrize("kernel", [None, KernelParams(-0.5, 1.0)])
def test_energy_decreases_along_allen_cahn_flow(kernel):
    n, steps = 24, 15
    cfg = M.AllenCahnConfig(epsilon=0.1)
    spec = M.build_spectrum(n, kernel)
    grid = SphereGrid(n)
    u0 = analysis(M.cos10xy(grid), grid)
    rec = M.EnergyRecorder(spec, cfg.epsilon)
    evolve(u0[None], [M.allen_cahn_operator(cfg, spec)],
           pseudospectral(M.allen_cahn_nonlinearity, grid),
           0.1, steps, observers=[rec])
    e = np.array(rec.energies)
    assert len(e) == steps + 1
    assert np.all(np.diff(e) <= 1e-8 * np.abs(e[:-1]))


def test_energy_recorder_write(tmp_path):
    rec = M.EnergyRecorder(local_spectrum(2), 0.1)
    rec.times = [0.0, 0.5]
    rec.energies = [3.0, 2.5]
    path = os.path.join(tmp_path, "energy.csv")
    rec.write(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == ["# t,energy", "0,3", "0.5,2.5"]


# ----------------------------------------------------------------------
# Cesaro means
# ----------------------------------------------------------------------

def test_cesaro_factors_small_case():
    w = M.cesaro_weights(2, 2)
    np.testing.assert_allclose(w, [1.0, 0.5, 1.0 / 6.0], rtol=1e-16)
    assert not w.flags.writeable
    for kappa in (-1, True):
        with pytest.raises(ValueError,
                           match=f"kappa must be a non-negative integer, got {kappa!r}"):
            M.cesaro_weights(2, kappa)


@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("kappa", [0, 1, 2, 3])
def test_cesaro_factor_invariants(n, kappa):
    w = M.cesaro_weights(n, kappa)
    assert w.shape == (n + 1,)
    assert w[0] == 1.0
    assert np.all(np.diff(w) <= 0.0)
    assert w[n] == pytest.approx(1.0 / math.comb(n + kappa, n), rel=1e-15)


def test_cesaro_apply_identity_and_constant():
    c = random_field(6, seed=3)
    out = M.cesaro_apply(c, 0)
    assert out is not c
    np.testing.assert_array_equal(out, c)
    const = np.zeros((7, 13))
    const[slot(6, 0, 0)] = 2.5
    for kappa in (1, 2, 5):
        assert M.cesaro_apply(const, kappa)[slot(6, 0, 0)] == 2.5


def test_cesaro_apply_scales_by_degree():
    c = np.zeros((6, 11))
    c[slot(5, 3, -2)] = 2.0
    c[slot(5, 5, 0)] = 1.0
    out = M.cesaro_apply(c, 2)
    w = M.cesaro_weights(5, 2)
    assert out[slot(5, 3, -2)] == pytest.approx(2.0 * w[3], rel=1e-15)
    assert out[slot(5, 5, 0)] == pytest.approx(w[5], rel=1e-15)
    with pytest.raises(ValueError):
        M.cesaro_apply(c, -1)


def test_gibbs_overshoot_removed_by_cesaro():
    # partial sums of the north/south step overshoot near the equator;
    # the (C,2) means stay inside the step's range
    n = 60
    c = north_south_step(n)
    fine = SphereGrid(2 * n)
    raw = synthesis(M.embed(c, 2 * n), fine)
    smooth = synthesis(M.embed(M.cesaro_apply(c, 2), 2 * n), fine)
    assert raw.max() > 1.05
    assert smooth.max() <= 1.001
    assert smooth.min() >= -1.001


def test_north_south_step_coefficients():
    c = north_south_step(7)
    # u_1^0 = sqrt(2 pi) * sqrt(3/2): classical 3/2 * P_1 leading term
    assert c[slot(7, 1, 0)] == pytest.approx(math.sqrt(2 * math.pi * 1.5), rel=1e-14)
    # even and off-zonal slots vanish
    assert c[slot(7, 2, 0)] == 0.0
    assert c[slot(7, 4, 0)] == 0.0
    assert c[slot(7, 3, 1)] == 0.0


# ----------------------------------------------------------------------
# random fields, embedding, quadrature, built-in fields
# ----------------------------------------------------------------------

def test_random_coeffs_deterministic_and_scaled():
    a = M.random_coeffs(10, 20, 1.0, 42)
    b = M.random_coeffs(10, 20, 1.0, 42)
    np.testing.assert_array_equal(a, b)
    c = M.random_coeffs(10, 20, 0.5, 42)
    np.testing.assert_allclose(c, 0.5 * a, rtol=0, atol=0)
    d = M.random_coeffs(10, 20, 1.0, 43)
    assert not np.array_equal(d, a)


def test_random_coeffs_zero_scale_and_cap():
    z = M.random_coeffs(5, 9, 0.0, 7)
    assert np.all(z == 0.0)
    r = M.random_coeffs(3, 9, 1.0, 7)
    for ell in range(4, 10):
        for m in range(-ell, ell + 1):
            assert r[slot(9, ell, m)] == 0.0
    filled = [r[slot(9, ell, m)] for ell in range(4) for m in range(-ell, ell + 1)]
    assert all(v != 0.0 for v in filled)
    with pytest.raises(ValueError):
        M.random_coeffs(10, 9, 1.0, 7)
    for bad in (-1, True):
        with pytest.raises(ValueError,
                           match=f"degree_cap must be a non-negative integer, got {bad!r}"):
            M.random_coeffs(bad, 9, 1.0, 7)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {bad!r}"):
            M.random_coeffs(3, 9, 1.0, bad)
    # the layout degree too: 2.5 would truncate to 2 and True read as 1
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"degree must be a non-negative integer, got {bad!r}"):
            M.random_coeffs(0, bad, 1.0, 7)


def test_random_coeffs_variance():
    big = M.random_coeffs(315, 315, 1.0, 0)
    vals = np.concatenate(
        [big[:, 0]]
        + [big[: 315 - m + 1, col] for m in range(1, 316)
           for col in (2 * m - 1, 2 * m)]
    )
    assert vals.size == 316**2
    assert abs(vals.var() - 1.0) < 0.02


def test_embed_preserves_modes():
    c = random_field(4, seed=5)
    big = M.embed(c, 9)
    for ell in range(5):
        for m in range(-ell, ell + 1):
            assert big[slot(9, ell, m)] == c[slot(4, ell, m)]
    assert big[slot(9, 7, 3)] == 0.0
    with pytest.raises(ValueError):
        M.embed(big, 4)
    for bad in (True, 3.5, -1):
        with pytest.raises(ValueError, match=f"degree must be a non-negative integer, got {bad!r}"):
            M.embed(np.zeros((1, 1)), bad)


def test_integrate_grid_examples():
    grid = SphereGrid(8)
    ones = np.ones((9, 17))
    assert integrate_grid(ones, grid) == pytest.approx(4 * math.pi, rel=1e-15)
    _, _, z = M._grid_xyz(grid)
    assert integrate_grid(z * z, grid) == pytest.approx(
        4 * math.pi / 3.0, rel=1e-14
    )
    with pytest.raises(ValueError):
        integrate_grid(np.ones((3, 3)), grid)


def test_death_star_rhs_pointwise():
    grid = SphereGrid(6)
    vals = M.death_star_rhs(grid)
    i, j = 2, 5
    theta = grid.colat_nodes[i]
    phi = grid.lon_nodes[j]
    x = math.sin(theta) * math.cos(phi)
    y = math.sin(theta) * math.sin(phi)
    z = math.cos(theta)
    want = -math.exp(
        -30.0 * ((x - 0.25) ** 2 + (y - math.sqrt(11) / 4.0) ** 2 + (z - 0.25) ** 2)
    ) - math.exp(-50.0 * z * z)
    assert vals[i, j] == pytest.approx(want, rel=1e-15)
    assert np.all(vals < 0.0) and np.all(vals > -2.0)


def test_cos10xy_pointwise():
    grid = SphereGrid(6)
    vals = M.cos10xy(grid)
    i, j = 4, 9
    theta, phi = grid.colat_nodes[i], grid.lon_nodes[j]
    x = math.sin(theta) * math.cos(phi)
    y = math.sin(theta) * math.sin(phi)
    assert vals[i, j] == pytest.approx(math.cos(10 * x * y), rel=1e-15)
    assert np.all(np.abs(vals) <= 1.0)


def test_build_spectrum_dispatch():
    local = M.build_spectrum(6)
    np.testing.assert_array_equal(local, local_spectrum(6))
    nl = M.build_spectrum(6, KernelParams(-0.5, 2.0))
    assert nl[3] == pytest.approx(-6.0, rel=1e-11)
    with pytest.raises(TypeError):
        M.build_spectrum(6, kernel=(0.5, 1.0))
    for kernel in (None, KernelParams(-0.5, 2.0)):
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            M.build_spectrum(-1, kernel)
