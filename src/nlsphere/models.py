"""Concrete model problems built on the spectral toolbox.

Provides the nonlocal Poisson solve with a mean condition, Allen--Cahn
and Brusselator reaction--diffusion setups for the ETDRK4 integrator,
the Ginzburg--Landau free energy, Cesaro smoothing of coefficient
expansions, and reproducible random fields.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import KernelParams, local_spectrum
from .spectrum import spectrum as _spectrum
from .sht import SphereGrid, _degree, _layout, _per_degree, _synthesize, _write_csv, slot

__all__ = [
    "solve_poisson",
    "AllenCahnConfig",
    "BrusselatorConfig",
    "allen_cahn_nonlinearity",
    "allen_cahn_operator",
    "brusselator_nonlinearities",
    "brusselator_operators",
    "build_spectrum",
    "ginzburg_landau_energy",
    "EnergyRecorder",
    "cesaro_weights",
    "cesaro_apply",
    "random_coeffs",
    "embed",
    "integrate_grid",
    "death_star_rhs",
    "cos10xy",
    "north_south_step",
]


def build_spectrum(degree, kernel=None):
    """Eigenvalues through ``degree`` for a kernel, or of the local operator
    if kernel is None: a read-only float array of shape (degree+1,)."""
    if kernel is None:
        return local_spectrum(degree)
    if not isinstance(kernel, KernelParams):
        raise TypeError(f"kernel must be KernelParams or None, got {kernel!r}")
    return _spectrum(degree, kernel)


def _check_spectrum(spec, degree, what):
    """``spec`` as a float array, after checking that it holds one
    eigenvalue per degree 0..``degree`` of ``what``; raises ValueError
    otherwise."""
    shape = np.shape(spec)
    if shape != (degree + 1,):
        found = f"spectrum {shape[0] - 1}" if len(shape) == 1 else f"spectrum of shape {shape}"
        raise ValueError(f"degree mismatch: {what} {degree}, {found}")
    return np.asarray(spec, dtype=float)


def embed(coeffs, degree):
    """Zero-pad an (n+1, 2n+1) coefficient array into the layout of a
    degree >= n; returns a new array."""
    n = _degree(coeffs)
    if degree < n:
        raise ValueError(f"target degree {degree} is below the input degree {n}")
    out = np.zeros((degree + 1, 2 * degree + 1))
    # the slot of (ell, m) does not depend on the layout degree
    out[: n + 1, : 2 * n + 1] = coeffs
    return out


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
    n = _degree(rhs)
    lam = _check_spectrum(spectrum, n, "rhs")
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
    denom = _per_degree(lam)
    denom[0, 0] = 1.0
    _, valid = _layout(n)
    denom[~valid] = 1.0  # keep structural zeros as 0/1
    return rhs / denom


# ----------------------------------------------------------------------
# reaction-diffusion models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AllenCahnConfig:
    """Phase-field flow with diffusion eps^2 * L and reaction u - u^3."""

    epsilon: float
    kernel: KernelParams | None
    degree: int
    h: float
    steps: int

    def __post_init__(self):
        _check_model_common(self)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class BrusselatorConfig:
    """Coupled activator--inhibitor system.

    Fields follow u_t = eps^2 L u + eps^2 E - u + f u^2 v and
    tau v_t = L v + eps^{-2} (u - u^2 v).  By default the -u decay stays
    in the nonlinearity; decay_in_linear folds it into the (diagonal)
    linear part instead, which the exponential integrator then treats
    exactly.
    """

    E: float
    epsilon: float
    tau: float
    f: float
    kernel: KernelParams | None
    degree: int
    h: float
    steps: int
    decay_in_linear: bool = False

    def __post_init__(self):
        _check_model_common(self)
        for name in ("E", "epsilon", "tau"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v}")
        if not (math.isfinite(self.f) and 0.0 < self.f < 1.0):
            raise ValueError(f"f must lie in (0, 1), got {self.f}")

    def equilibrium(self):
        """Spatially constant steady state (u_e, v_e = 1/u_e)."""
        u_e = self.epsilon**2 * self.E / (1.0 - self.f)
        return u_e, 1.0 / u_e


def _check_model_common(cfg):
    if cfg.kernel is not None and not isinstance(cfg.kernel, KernelParams):
        raise TypeError(f"kernel must be KernelParams or None, got {cfg.kernel!r}")
    if not isinstance(cfg.degree, (int, np.integer)) or cfg.degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {cfg.degree!r}")
    if not (math.isfinite(cfg.h) and cfg.h > 0):
        raise ValueError(f"h must be positive, got {cfg.h}")
    if not isinstance(cfg.steps, (int, np.integer)) or cfg.steps < 1:
        raise ValueError(f"steps must be a positive integer, got {cfg.steps!r}")


def allen_cahn_nonlinearity(u):
    """Pointwise cubic reaction u - u^3."""
    u = np.asarray(u, dtype=float)
    return u - u * u * u


def allen_cahn_operator(cfg, spec):
    """Diagonal linear part eps^2 * L, per degree, from a precomputed spectrum."""
    return cfg.epsilon**2 * _check_spectrum(spec, cfg.degree, "config")


def brusselator_nonlinearities(u, v, cfg):
    """Reaction terms (N_u, N_v) on grid values, honoring the decay split."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uuv = u * u * v
    n_u = cfg.epsilon**2 * cfg.E + cfg.f * uuv
    if not cfg.decay_in_linear:
        n_u = n_u - u
    n_v = (u - uuv) / (cfg.tau * cfg.epsilon**2)
    return n_u, n_v


def brusselator_operators(cfg, spec):
    """Diagonal linear parts (eps^2 * L, L / tau) per degree, with -1 added
    to the first if the decay moved."""
    spec = _check_spectrum(spec, cfg.degree, "config")
    op_u = cfg.epsilon**2 * spec
    if cfg.decay_in_linear:
        op_u = op_u - 1.0
    # the reciprocal rounds differently from spec / tau; the outputs keep it
    return op_u, (1.0 / cfg.tau) * spec


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
    >= 2 degree + 1, which keeps the quadrature exact."""
    return SphereGrid(degree, longitudes=_fft_length(2 * degree + 1))


def ginzburg_landau_energy(u, spec, epsilon, grid=None):
    """Free energy -(eps^2/2) sum lambda (u_l^m)^2 + (1/4) int (u^2-1)^2.

    The diffusion term reduces to a coefficient sum by orthonormality.
    The quartic term has band limit 4n, so it is synthesized and
    integrated on the degree-2n colatitudes with the smallest 5-smooth
    longitude count >= 4n+1 (built on demand; the four most recent are
    cached) unless a grid is supplied; a supplied grid needs degree >= 2n
    for the quadrature to be exact, and a coarser one raises ValueError.
    The synthesis uses only the orders and degrees <= n of that grid.
    ``u`` is one field's (n+1, 2n+1) coefficient array and ``spec`` its
    (n+1,) eigenvalues.
    """
    n = _degree(u)
    lam = _per_degree(_check_spectrum(spec, n, "coefficients"))
    u = np.asarray(u, dtype=float)
    linear = -0.5 * epsilon**2 * float(np.sum(lam * u * u))
    if grid is None:
        grid = _refined_grid(2 * n)
    elif grid.degree < 2 * n:
        raise ValueError(f"grid degree {grid.degree} is below 2n = {2 * n}, the least that "
                         f"integrates the quartic of a degree-{n} field exactly")
    vals = _synthesize(u[None], grid)[0]
    quartic = (vals * vals - 1.0) ** 2
    return linear + 0.25 * integrate_grid(quartic, grid)


class EnergyRecorder:
    """Observer for `evolve` that records (t, energy) of the first field
    of its (k, n+1, 2n+1) state."""

    def __init__(self, spec, epsilon, grid=None):
        self.spec = spec
        self.epsilon = epsilon
        self.grid = grid
        self.times = []
        self.energies = []

    def __call__(self, step, t, state):
        self.times.append(t)
        self.energies.append(
            ginzburg_landau_energy(state[0], self.spec, self.epsilon, self.grid))

    def write(self, path):
        rows = ("%.17g,%.17g\n" % row for row in zip(self.times, self.energies))
        _write_csv(path, ["# t,energy"], rows)


# ----------------------------------------------------------------------
# Cesaro means
# ----------------------------------------------------------------------

def cesaro_weights(degree, kappa):
    """Degreewise taper factors A_{n-l}^kappa / A_n^kappa, l = 0..n, with
    A_l^kappa = C(l + kappa, l) (exact integer ratios), as a read-only
    float array of shape (n+1,)."""
    if not isinstance(kappa, (int, np.integer)) or kappa < 0:
        raise ValueError(f"kappa must be a non-negative integer, got {kappa!r}")
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    n, kappa = int(degree), int(kappa)
    a_n = math.comb(n + kappa, n)
    factors = np.array(
        [math.comb(n - ell + kappa, n - ell) / a_n for ell in range(n + 1)]
    )
    factors.setflags(write=False)
    return factors


def cesaro_apply(coeffs, kappa):
    """Scale the degree-l coefficients of an (n+1, 2n+1) array by
    A_{n-l}^kappa / A_n^kappa into a new array; kappa = 0 copies it."""
    return coeffs * _per_degree(cesaro_weights(_degree(coeffs), kappa))


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
    if not isinstance(degree_cap, (int, np.integer)) or degree_cap < 0:
        raise ValueError(f"degree_cap must be a non-negative integer, got {degree_cap!r}")
    if degree_cap > degree:
        raise ValueError(f"degree_cap {degree_cap} exceeds the layout degree {degree}")
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    cap = int(degree_cap)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    draws = rng.standard_normal((cap + 1) ** 2)
    small = np.zeros((cap + 1, 2 * cap + 1))
    small[_layout(cap)[1]] = scale * draws
    return embed(small, int(degree))


def _grid_xyz(grid):
    # colatitude theta down rows, longitude phi across columns
    st = np.sin(grid.colat_nodes)[:, None]
    x = st * np.cos(grid.lon_nodes)[None, :]
    y = st * np.sin(grid.lon_nodes)[None, :]
    z = np.broadcast_to(grid.colat_cos[:, None], x.shape)
    return x, y, z


def death_star_rhs(grid):
    """Gaussian dimple plus an equatorial band, evaluated on the grid."""
    x, y, z = _grid_xyz(grid)
    bump = np.exp(
        -30.0 * ((x - 0.25) ** 2 + (y - math.sqrt(11.0) / 4.0) ** 2 + (z - 0.25) ** 2)
    )
    return -bump - np.exp(-50.0 * z * z)


def cos10xy(grid):
    """cos(10xy) on the grid; a standard phase-field initial condition."""
    x, y, _ = _grid_xyz(grid)
    return np.cos(10.0 * x * y)


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
