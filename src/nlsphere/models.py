"""Concrete model problems built on the spectral toolbox.

Provides the nonlocal Poisson solve with a mean condition, Allen--Cahn
and Brusselator reaction--diffusion setups for the ETDRK4 integrator,
the Ginzburg--Landau free energy, Cesaro smoothing of coefficient
expansions, and reproducible random fields.  Allen--Cahn's reaction is a
pointwise function for :func:`nlsphere.timestep.pseudospectral`; the
Brusselator's is a coefficient-space nonlinearity that transforms only
its one product u^2 v and forms its linear terms from the coefficients.
A model config holds only physical constants; the kernel, degree, step
size and step count belong to the spectrum, the grid and `evolve`.  The
built-in fields are the command line's right-hand side and initial
conditions.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import local_spectrum
from .spectrum import spectrum as _spectrum
from .sht import (SphereGrid, _check_coeffs, _csv_body, _keep_tables, _layout, _parity_parts,
                  _per_degree, _write_csv)
from .specfun import _check_array, _check_count, _check_real
from .timestep import pseudospectral

__all__ = [
    "solve_poisson",
    "AllenCahnConfig",
    "BrusselatorConfig",
    "allen_cahn_nonlinearity",
    "allen_cahn_operator",
    "brusselator_nonlinearity",
    "brusselator_operators",
    "build_spectrum",
    "ginzburg_landau_energy",
    "EnergyRecorder",
    "cesaro_weights",
    "cesaro_apply",
    "random_coeffs",
    "embed",
    "death_star_rhs",
    "cos10xy",
]


def build_spectrum(degree, kernel=None):
    """Eigenvalues through ``degree`` for a kernel, or of the local operator
    if kernel is None: a read-only float array of shape (degree+1,)."""
    if kernel is None:
        return local_spectrum(degree)
    return _spectrum(degree, kernel)


def embed(coeffs, degree):
    """Zero-pad an (n+1, 2n+1) coefficient array into the layout of a
    degree >= n; returns a new array."""
    coeffs, n = _check_coeffs(coeffs, "coeffs")
    degree = _check_count(degree, "degree")
    if degree < n:
        raise ValueError(f"target degree {degree} is below the input degree {n}")
    out = np.zeros((degree + 1, 2 * degree + 1))
    # the slot of (ell, m) does not depend on the layout degree
    out[: n + 1, : 2 * n + 1] = coeffs
    return out


# ----------------------------------------------------------------------
# Poisson with mean condition
# ----------------------------------------------------------------------

def solve_poisson(rhs, spectrum):
    """Modewise division of the (n+1, 2n+1) right-hand side by the
    eigenvalues ``spectrum`` of shape (n+1,), with the mean pinned.

    The operator annihilates constants, so the mean slot is replaced by a
    unit entry: the solution inherits the mean of the right-hand side and
    is otherwise u_l^m = f_l^m / lambda(l).  A spectrum of another shape,
    a non-finite eigenvalue or lambda(0) != 0 raises ValueError, and a
    zero eigenvalue above degree 0 ZeroDivisionError.
    """
    rhs, n = _check_coeffs(rhs, "rhs")
    lam = _check_array(spectrum, (n + 1,), "spectrum")
    if not np.all(np.isfinite(lam)):
        bad = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise ValueError(f"eigenvalue at degree {bad} is not finite, got {lam[bad]}")
    if lam[0] != 0.0:
        raise ValueError(f"spectrum must annihilate constants, got lambda(0) = {lam[0]}")
    if np.any(lam[1:] == 0.0):
        bad = 1 + int(np.flatnonzero(lam[1:] == 0.0)[0])
        raise ZeroDivisionError(
            f"eigenvalue at degree {bad} is zero; the kernel is degenerate and "
            "the Poisson problem is singular beyond the mean mode"
        )
    # the mean slot and the structural zeros are divided by 1
    return rhs / _per_degree(np.concatenate(([1.0], lam[1:])), 1.0)


# ----------------------------------------------------------------------
# reaction-diffusion models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AllenCahnConfig:
    """Phase-field flow with diffusion eps^2 * L and reaction u - u^3."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_real(self.epsilon, "epsilon", 0, math.inf))


@dataclass(frozen=True)
class BrusselatorConfig:
    """Coupled activator--inhibitor system.

    Fields follow u_t = eps^2 L u + eps^2 E - u + f u^2 v and
    tau v_t = L v + eps^{-2} (u - u^2 v); the -u decay is part of the
    nonlinearity.
    """

    E: float
    epsilon: float
    tau: float
    f: float

    def __post_init__(self):
        for name, high in (("E", math.inf), ("epsilon", math.inf), ("tau", math.inf), ("f", 1)):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, 0, high))

    def equilibrium(self):
        """Spatially constant steady state (u_e, v_e = 1/u_e)."""
        u_e = self.epsilon**2 * self.E / (1.0 - self.f)
        return u_e, 1.0 / u_e


def allen_cahn_nonlinearity(u):
    """Pointwise cubic reaction u - u^3."""
    u = np.asarray(u, dtype=float)
    return u - u * u * u


def allen_cahn_operator(cfg, spec):
    """Diagonal linear part eps^2 * L, per degree, from a precomputed spectrum."""
    return cfg.epsilon**2 * _check_array(spec, (None,), "spec")


def brusselator_nonlinearity(cfg, grid):
    """Reaction terms (N_u, N_v) as a coefficient-space nonlinearity on
    ``grid`` for `evolve`: N_u = eps^2 E + f w - u and
    N_v = (u - w) / (tau eps^2), with w = u^2 v and the -u decay in N_u.

    Only w needs the grid: each call synthesizes (u, v) and analyzes w
    alone (see :func:`nlsphere.timestep.pseudospectral`).  The other terms
    are formed from the state's own coefficients; the constant eps^2 E is
    its mean mode, slot (0, 0), times sqrt(4 pi).
    """
    product = pseudospectral(lambda u, v: u * u * v, grid)
    source = cfg.epsilon**2 * cfg.E * math.sqrt(4.0 * math.pi)
    tau_eps2 = cfg.tau * cfg.epsilon**2

    def nonlinearity(state):
        (w,) = product(state)
        u = state[0]
        # both terms written into one output, with no temporary
        out = np.empty_like(state)
        n_u, n_v = out
        np.multiply(cfg.f, w, out=n_u)
        n_u -= u
        n_u[0, 0] += source
        np.subtract(u, w, out=n_v)
        n_v /= tau_eps2
        return out

    return nonlinearity


def brusselator_operators(cfg, spec):
    """Diagonal linear parts (eps^2 * L, L / tau) per degree."""
    spec = _check_array(spec, (None,), "spec")
    # the reciprocal rounds differently from spec / tau; the outputs keep it
    return cfg.epsilon**2 * spec, (1.0 / cfg.tau) * spec


# ----------------------------------------------------------------------
# Ginzburg--Landau free energy
# ----------------------------------------------------------------------

def _fft_length(count):
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= ``count``."""
    length = count
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


@lru_cache(maxsize=4)
def _refined_grid(degree):
    """Degree-``degree`` colatitudes with an FFT-friendly longitude count
    >= 2 degree + 1, which keeps the quadrature exact.  The energy
    synthesizes degree-``degree // 2`` fields on it at every step, so it
    keeps the tables of that degree."""
    grid = SphereGrid(degree, longitudes=_fft_length(2 * degree + 1))
    _keep_tables(grid, degree // 2)
    return grid


def ginzburg_landau_energy(u, spec, epsilon):
    """Free energy -(eps^2/2) sum lambda (u_l^m)^2 + (1/4) int (u^2-1)^2.

    The diffusion term reduces to a coefficient sum by orthonormality,
    summed per degree.  The quartic term has band limit 4n, so it is
    integrated exactly on the degree-2n colatitudes with the smallest
    5-smooth longitude count >= 4n+1 (built on demand; the four most
    recent are cached).  The quartic is summed from the synthesis's
    hemisphere parity parts (see :func:`nlsphere.sht._parity_parts`),
    never from the values: a northern node with even part e and odd part
    o and its southern mirror hold e + o and e - o, and together
    contribute 2 [(e^2 + o^2 - 1)^2 + (2 e o)^2]; the equator node, which
    the even degree 2n always has, has no mirror and contributes
    ((e + o)^2 - 1)^2.  The synthesis uses only the orders and degrees
    <= n of that grid.  ``u`` is one field's (n+1, 2n+1) coefficient
    array and ``spec`` its (n+1,) eigenvalues.
    """
    u, n = _check_coeffs(u, "u")
    lam = _check_array(spec, (n + 1,), "spec")
    epsilon = _check_real(epsilon, "epsilon", 0, math.inf)
    deg, valid = _layout(n)
    # u^2 summed per degree; the slots below the stored triangle count 0
    squares = np.multiply(u, u, out=np.zeros_like(u), where=valid)
    linear = -0.5 * epsilon**2 * float(
        lam @ np.bincount(deg.ravel(), weights=squares.ravel(), minlength=n + 1))
    grid = _refined_grid(2 * n)
    even, odd = _parity_parts(u[None], grid)[0]
    # degree 2n: the n paired northern rows, then the equator row n
    e, o = even[:n], odd[:n]
    rows = 2.0 * ((e * e + o * o - 1.0) ** 2 + (2.0 * e * o) ** 2).sum(axis=1)
    equator = (even[n] + odd[n]) ** 2 - 1.0
    rows = np.append(rows, equator @ equator)
    integral = float(grid.colat_weights[: n + 1] @ rows) * (2.0 * np.pi / grid.lon_nodes.size)
    return linear + 0.25 * integral


class EnergyRecorder:
    """Observer for `evolve` that records (t, energy) of the first field
    of its (k, n+1, 2n+1) state."""

    def __init__(self, spec, epsilon):
        self.spec = spec
        self.epsilon = _check_real(epsilon, "epsilon", 0, math.inf)
        self.times = []
        self.energies = []

    def __call__(self, step, t, state):
        self.times.append(t)
        self.energies.append(
            ginzburg_landau_energy(state[0], self.spec, self.epsilon))

    def write(self, path):
        table = np.array([self.times, self.energies], dtype=float).T
        _write_csv(path, ["# t,energy"], _csv_body(table))


# ----------------------------------------------------------------------
# Cesaro means
# ----------------------------------------------------------------------

def cesaro_weights(degree, kappa):
    """Degreewise taper factors A_{n-l}^kappa / A_n^kappa, l = 0..n, with
    A_l^kappa = C(l + kappa, l) (exact integer ratios), as a read-only
    float array of shape (n+1,)."""
    kappa = _check_count(kappa, "kappa")
    n = _check_count(degree, "degree")
    a_n = math.comb(n + kappa, n)
    factors = np.array(
        [math.comb(n - ell + kappa, n - ell) / a_n for ell in range(n + 1)]
    )
    factors.setflags(write=False)
    return factors


def cesaro_apply(coeffs, kappa):
    """Scale the degree-l coefficients of an (n+1, 2n+1) array by
    A_{n-l}^kappa / A_n^kappa into a new array; kappa = 0 copies it."""
    coeffs, n = _check_coeffs(coeffs, "coeffs")
    return coeffs * _per_degree(cesaro_weights(n, kappa), 0.0)


# ----------------------------------------------------------------------
# reproducible fields and built-in right-hand sides
# ----------------------------------------------------------------------

def random_coeffs(degree_cap, degree, scale, seed):
    """Independent N(0, scale^2) coefficients up to degree_cap, zero above.

    Draw order is fixed by contract: a counter-based Philox generator
    seeded by `seed` produces (degree_cap + 1)^2 standard normals that
    fill the valid slots of the degree-cap layout in row-major order; the
    block is then zero-padded to the requested degree.  Deterministic
    across runs and platforms.
    """
    cap = _check_count(degree_cap, "degree_cap")
    degree = _check_count(degree, "degree")
    if cap > degree:
        raise ValueError(f"degree_cap {degree_cap} exceeds the layout degree {degree}")
    scale = _check_real(scale, "scale", -math.inf, math.inf)
    seed = _check_count(seed, "seed")
    rng = np.random.Generator(np.random.Philox(seed))
    draws = rng.standard_normal((cap + 1) ** 2)
    small = np.zeros((cap + 1, 2 * cap + 1))
    small[_layout(cap)[1]] = scale * draws
    return embed(small, degree)


def _grid_xyz(grid):
    # colatitude theta down rows, longitude phi across columns
    st = np.sin(grid.colat_nodes)[:, None]
    x = st * np.cos(grid.lon_nodes)[None, :]
    y = st * np.sin(grid.lon_nodes)[None, :]
    z = np.broadcast_to(grid.colat_cos[:, None], x.shape)
    return x, y, z


def death_star_rhs(grid):
    """Gaussian dimple plus an equatorial band, evaluated on the grid."""
    st = np.sin(grid.colat_nodes)[:, None]
    # z is constant along a grid row: its factors are computed per row
    z = grid.colat_cos[:, None]
    # -exp(-30 ((x - 1/4)^2 + (y - sqrt(11)/4)^2 + (z - 1/4)^2)) - exp(-50 z^2),
    # rounded in that order, in two full-grid buffers
    values = st * np.cos(grid.lon_nodes)
    values -= 0.25
    np.square(values, out=values)
    term = st * np.sin(grid.lon_nodes)
    term -= math.sqrt(11.0) / 4.0
    np.square(term, out=term)
    values += term
    values += (z - 0.25) ** 2
    values *= -30.0
    np.exp(values, out=values)
    np.negative(values, out=values)
    values -= np.exp(-50.0 * z * z)
    return values


def cos10xy(grid):
    """cos(10xy) on the grid; a standard phase-field initial condition."""
    x, y, _ = _grid_xyz(grid)
    return np.cos(10.0 * x * y)
