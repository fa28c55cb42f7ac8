"""End-to-end acceptance suite.

Each test checks one numbered criterion, prints a single
``[PASS]``/``[FAIL]`` line with the measured quantities, and then
asserts.  Tolerances and runtime budgets are stated inline next to each
check.
"""

import math
import time

import numpy as np

from nlsphere import models as M
from nlsphere.quadrature import cc_weights, jacobi_moments
from nlsphere.sht import (
    SphereGrid,
    analysis,
    relative_error_2norm,
    slot,
    synthesis,
)
from nlsphere.spectrum import KernelParams, eigenvalue, spectrum
from nlsphere.timestep import evolve, pseudospectral


def report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_closed_form_spectrum():
    # alpha=-0.5, delta=2: lambda(ell) = -2*ell, relative 1e-11, < 5 s
    t0 = time.monotonic()
    sp = spectrum(200, KernelParams(-0.5, 2.0))
    ells = np.arange(201)
    rel = np.abs(sp[1:] + 2.0 * ells[1:]) / (2.0 * ells[1:])
    elapsed = time.monotonic() - t0
    ok = sp[0] == 0.0 and rel.max() <= 1e-11 and elapsed < 5.0
    report(ok, "criterion-01 closed-form spectrum",
           f"max rel err {rel.max():.3e} (tol 1e-11), {elapsed:.2f}s (< 5s)")


def test_criterion_02_local_limit():
    # |lambda_delta(ell) + ell(ell+1)| <= ell(ell+1)(ell+2)^2 delta^2 / 16, < 5 s
    t0 = time.monotonic()
    worst = 0.0
    for alpha in (-0.5, 0.5):
        for delta in (1e-3, 1e-2):
            sp = spectrum(50, KernelParams(alpha, delta))
            for ell in range(1, 51):
                bound = ell * (ell + 1) * (ell + 2) ** 2 * delta**2 / 16.0
                gap = abs(sp[ell] + ell * (ell + 1))
                worst = max(worst, gap / bound)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 5.0
    report(ok, "criterion-02 local limit",
           f"worst gap/bound {worst:.3f} (<= 1), {elapsed:.2f}s (< 5s)")


def test_criterion_03_spectrum_bounds():
    # -ell(ell+1) <= lambda <= 0 with slack 1e-8*ell(ell+1) over the grid
    # alpha in {-0.9,-0.5,0,0.5,0.9} x delta in {0.1,0.5,1,1.5,2}, ell <= 60
    t0 = time.monotonic()
    ells = np.arange(61)
    slack = 1e-8 * ells * (ells + 1)
    violations = 0
    for alpha in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for delta in (0.1, 0.5, 1.0, 1.5, 2.0):
            v = spectrum(60, KernelParams(alpha, delta))
            if np.any(v > slack) or np.any(v < -ells * (ells + 1) - slack):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    report(ok, "criterion-03 spectrum bounds",
           f"{violations} violating (alpha, delta) pairs of 25, {elapsed:.2f}s (< 30s)")


def test_criterion_04_hybrid_consistency():
    # isolated eigenvalue(ell) -- the recurrence below degree 550, the
    # Bessel-series asymptotics from 550 on -- vs the recurrence of one
    # spectrum(1000), relative 1e-8 for ell in [60, 1000], < 60 s
    t0 = time.monotonic()
    kernel = KernelParams(-0.5, 1.0)
    worst, worst_ell = 0.0, None
    reference = spectrum(1000, kernel)
    for ell in range(60, 1001):
        r = reference[ell]
        a = eigenvalue(ell, kernel)
        rel = abs(a - r) / abs(r)
        if rel > worst:
            worst, worst_ell = rel, ell
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(ok, "criterion-04 hybrid consistency",
           f"max rel gap {worst:.3e} at ell={worst_ell} (tol 1e-8), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_05_quadrature_exactness():
    # sum w_j T_k(x_j) = mu_k, |error| <= 1e-12 * mu_0,
    # N in {8, 64, 256}, alpha in {-0.5, 0, 0.5}
    t0 = time.monotonic()
    worst = 0.0
    for big_n in (8, 64, 256):
        for alpha in (-0.5, 0.0, 0.5):
            n = big_n + 1
            rule = cc_weights(alpha, 0.0, n)
            mu = jacobi_moments(alpha, 0.0, big_n + 1)
            j = np.arange(n + 1)
            k = np.arange(big_n + 1)
            cheb = np.cos(np.pi * np.outer(k, j) / n)  # T_k at cos(j pi / n)
            err = np.abs(cheb @ rule.weights - mu) / abs(mu[0])
            worst = max(worst, err.max())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    report(ok, "criterion-05 quadrature exactness",
           f"max |sum w T_k - mu_k| / mu_0 = {worst:.3e} (tol 1e-12), "
           f"{elapsed:.2f}s")


def test_criterion_06_sht_roundtrip_parseval():
    # roundtrip max coefficient error <= 1e-12; Parseval relative <= 1e-11;
    # 2n+1 = 127 is prime, so n = 63 takes the dense longitude product and
    # n = 16, 64 the FFT
    t0 = time.monotonic()
    worst_round, worst_pars = 0.0, 0.0
    for n in (16, 63, 64):
        c = M.random_coeffs(n, n, 1.0, seed=n)
        grid = SphereGrid(n)
        values = synthesis(c, grid)
        back = analysis(values, grid)
        worst_round = max(worst_round, np.abs(back - c).max())
        # u^2 has band limit 2n: the quadrature is exact for it
        quad = M.integrate_grid(values * values, grid)
        pars = abs(quad - np.sum(c**2)) / np.sum(c**2)
        worst_pars = max(worst_pars, pars)
    elapsed = time.monotonic() - t0
    ok = worst_round <= 1e-12 and worst_pars <= 1e-11 and elapsed < 30.0
    report(ok, "criterion-06 sht roundtrip + parseval",
           f"roundtrip {worst_round:.3e} (tol 1e-12), "
           f"parseval {worst_pars:.3e} (tol 1e-11), {elapsed:.2f}s")


def test_criterion_07_poisson_spectral_convergence():
    # 2-norm relative error vs an n=160 reference: geometric decay over
    # n = 10..120 and <= 1e-11 at n = 100; runtime < 5 min
    t0 = time.monotonic()
    kernel = KernelParams(0.0, 1.5)

    def solve(n):
        grid = SphereGrid(n)
        rhs = analysis(M.death_star_rhs(grid), grid)
        return M.solve_poisson(rhs, M.build_spectrum(n, kernel))

    ref = solve(160)
    errs = []
    for n in range(10, 121, 10):
        errs.append(relative_error_2norm(M.embed(solve(n), 160), ref))
    err_at_100 = errs[9]
    # geometric decay: each refinement at least halves the error until the
    # rounding floor (1e-13) is reached
    decays = all(
        b <= 0.5 * a for a, b in zip(errs, errs[1:]) if a > 1e-13
    )
    elapsed = time.monotonic() - t0
    ok = err_at_100 <= 1e-11 and decays and elapsed < 300.0
    report(ok, "criterion-07 poisson convergence",
           f"err(n=100) {err_at_100:.3e} (tol 1e-11), geometric decay {decays}, "
           f"errs[n=10,60,120] = {errs[0]:.1e}/{errs[5]:.1e}/{errs[-1]:.1e}, "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_08_etdrk4_temporal_order():
    # Allen-Cahn, eps=0.1, alpha=-0.5, delta=1, IC cos(10xy), n=63, T=1:
    # slope over h = 2^-2..2^-6 vs an h = 2^-8 reference is 4 +/- 0.5, < 10 min
    t0 = time.monotonic()
    n = 63
    kernel = KernelParams(-0.5, 1.0)
    spec = M.build_spectrum(n, kernel)
    grid = SphereGrid(n)
    u0 = analysis(M.cos10xy(grid), grid)
    nl = pseudospectral(M.allen_cahn_nonlinearity, grid)

    def run(h):
        cfg = M.AllenCahnConfig(epsilon=0.1, kernel=kernel, degree=n, h=h,
                                steps=round(1.0 / h))
        op = M.allen_cahn_operator(cfg, spec)
        return evolve(u0[None], [op], nl, cfg.h, cfg.steps)

    ref = run(2.0**-8)
    hs = [2.0**-k for k in range(2, 7)]
    errs = [relative_error_2norm(run(h), ref) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.monotonic() - t0
    ok = 3.5 <= slope <= 4.5 and elapsed < 600.0
    report(ok, "criterion-08 etdrk4 order",
           f"slope {slope:.3f} (4 +/- 0.5), errs {errs[0]:.1e}..{errs[-1]:.1e}, "
           f"{elapsed:.1f}s (< 600s)")


def test_criterion_09_energy_monotonicity():
    # random IC (cap 127, scale 1/128, seed 0), n=127, h=0.1, 200 steps,
    # local and nonlocal spectra: per-step slack 1e-8 * |E|
    t0 = time.monotonic()
    n = 127
    u0 = M.random_coeffs(127, n, 1.0 / 128.0, seed=0)
    grid = SphereGrid(n)
    nl = pseudospectral(M.allen_cahn_nonlinearity, grid)
    details = []
    ok = True
    for label, kernel in (("local", None), ("nonlocal", KernelParams(-0.5, 1.0))):
        spec = M.build_spectrum(n, kernel)
        cfg = M.AllenCahnConfig(epsilon=0.1, kernel=kernel, degree=n,
                                h=0.1, steps=200)
        rec = M.EnergyRecorder(spec, cfg.epsilon)
        evolve(u0[None], [M.allen_cahn_operator(cfg, spec)], nl, cfg.h, cfg.steps,
               observers=[rec], observer_stride=1)
        e = np.array(rec.energies)
        increases = np.diff(e) - 1e-8 * np.abs(e[:-1])
        ok = ok and bool(np.all(increases <= 0.0))
        details.append(f"{label} max slack-adjusted increase {increases.max():.2e}")
    elapsed = time.monotonic() - t0
    report(ok, "criterion-09 energy monotonicity",
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_10_cesaro_overshoot_removal():
    # step function at n=100 on a 4x refined grid: raw max > 1.05,
    # (C,2) max <= 1.001
    t0 = time.monotonic()
    n = 100
    c = M.north_south_step(n)
    fine = SphereGrid(4 * n)
    raw_max = float(synthesis(M.embed(c, 4 * n), fine).max())
    smooth = synthesis(M.embed(M.cesaro_apply(c, 2), 4 * n), fine)
    smooth_max = float(np.abs(smooth).max())
    elapsed = time.monotonic() - t0
    ok = raw_max > 1.05 and smooth_max <= 1.001
    report(ok, "criterion-10 cesaro overshoot",
           f"raw max {raw_max:.4f} (> 1.05), (C,2) max {smooth_max:.4f} "
           f"(<= 1.001), {elapsed:.1f}s")


def test_criterion_11_brusselator_equilibrium():
    # E=4, eps=0.075, tau=7.8125, f=0.8, alpha=0, delta=1; exact
    # equilibrium IC, 100 steps at h=0.1: max drift <= 1e-10
    t0 = time.monotonic()
    cfg = M.BrusselatorConfig(E=4.0, epsilon=0.075, tau=7.8125, f=0.8,
                              kernel=KernelParams(0.0, 1.0), degree=32,
                              h=0.1, steps=100)
    spec = M.build_spectrum(cfg.degree, cfg.kernel)
    grid = SphereGrid(cfg.degree)
    nl = pseudospectral(lambda u, v: M.brusselator_nonlinearities(u, v, cfg), grid)
    u_e, v_e = cfg.equilibrium()
    u0 = np.zeros((cfg.degree + 1, 2 * cfg.degree + 1))
    v0 = np.zeros((cfg.degree + 1, 2 * cfg.degree + 1))
    u0[slot(cfg.degree, 0, 0)] = u_e * math.sqrt(4.0 * math.pi)
    v0[slot(cfg.degree, 0, 0)] = v_e * math.sqrt(4.0 * math.pi)
    fu, fv = evolve(np.stack([u0, v0]), M.brusselator_operators(cfg, spec), nl,
                    cfg.h, cfg.steps)
    drift = max(np.abs(fu - u0).max(), np.abs(fv - v0).max())
    elapsed = time.monotonic() - t0
    ok = drift <= 1e-10
    report(ok, "criterion-11 brusselator equilibrium",
           f"max drift {drift:.3e} (tol 1e-10) over 100 steps, {elapsed:.1f}s")
