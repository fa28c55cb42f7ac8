"""Eigenvalues of the nonlocal Laplace--Beltrami operator on the sphere.

The operator acts on spherical harmonics diagonally; its eigenvalue at
degree ell is a weighted integral of (P_ell(t(x)) - 1)/(1-x) against the
algebraic weight (1-x)^alpha on [-1, 1], where t(x) interpolates between
1 and 1 - delta^2/2.  A modified Clenshaw--Curtis rule absorbs the
singular factor and a cancellation-free ratio series evaluates the
near-zero region.  ``spectrum(n)`` serves all degrees through n with one
rule and one three-term recurrence.  ``eigenvalue(ell)`` has its own rule;
the degree alone picks how it evaluates P_ell at the nodes away from the
singular end: the recurrence below degree 550 (``_ASYMPTOTIC_MIN_DEGREE``),
the Bessel-series asymptotics, O(1) per node, from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import cc_weights
from .sht import _write_csv
from .specfun import (
    _SERIES_HAV_MAX,
    _in_series_region,
    _m1_series_from_hav,
    _szego_from_haversine,
    legendre_rec,
)

__all__ = [
    "KernelParams",
    "Spectrum",
    "eigenvalue",
    "local_eigenvalue",
    "local_spectrum",
    "spectrum",
    "write_spectrum",
]

#: Degrees per block of Legendre rows in ``spectrum``; keeps its memory O(n).
_SWEEP_BLOCK = 64

#: First degree at which an isolated eigenvalue takes P_ell at the nodes
#: with haversine above ``_SERIES_HAV_MAX`` from the Bessel-series
#: asymptotics instead of the recurrence.  Measured (in-process medians, one
#: thread, delta in [0.5, 2]): the asymptotics are up to 6 % slower at degree
#: 450, 0-13 % faster at 550 and 5-16 % faster at 600.  They agree with the
#: recurrence to a few ulps from degree 130 on, but are up to 1e-13 less
#: accurate at 50-60.
_ASYMPTOTIC_MIN_DEGREE = 550


@dataclass(frozen=True)
class KernelParams:
    """Kernel of the nonlocal operator: singularity strength and horizon.

    ``alpha`` in (-1, 1) sets the strength of the algebraic singularity
    of the kernel at zero separation; ``delta`` in (0, 2] is the horizon,
    measured as chordal distance, so ``delta = 2`` couples every pair of
    points on the sphere.  The derived quantity ``d = 1 - delta^2/2`` is
    the cosine of the geodesic interaction radius.
    """

    alpha: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "delta", float(self.delta))
        if not (math.isfinite(self.alpha) and -1.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (-1, 1), got {self.alpha!r}")
        if not (math.isfinite(self.delta) and 0.0 < self.delta <= 2.0):
            raise ValueError(f"delta must lie in (0, 2], got {self.delta!r}")

    @property
    def d(self) -> float:
        return 1.0 - 0.5 * self.delta * self.delta


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues lambda(ell), ell = 0..degree, of one operator.

    ``values[0]`` is exactly zero (constants are in the kernel of the
    operator) and every entry lies in [-ell(ell+1), 0] up to roundoff.
    ``params`` is None for the local (classical) operator.
    """

    params: KernelParams | None
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.values.size - 1

    def __len__(self):
        return self.values.size


def _check_ell(ell):
    if not isinstance(ell, (int, np.integer)) or ell < 0:
        raise ValueError(f"degree must be a non-negative integer, got {ell!r}")
    return int(ell)


def _node_haversine(delta, panels):
    """q = delta^2 (1 - x_j) / 8 at the Clenshaw--Curtis nodes x_j =
    cos(j pi / panels), from the node angle: q = (delta^2/4) sin^2(j pi /
    (2 panels)).  It is sin^2(theta/2) of the geodesic angle the chordal
    kernel reaches.  Formed from the rounded x_j, 1 - x_j loses its
    relative accuracy near x = 1, where the integrand is largest."""
    half = np.sin(0.5 * np.pi * np.arange(panels + 1) / panels)
    # clip guards the delta = 2 endpoint where roundoff could push q past 1
    return np.clip(0.25 * delta * delta * half * half, 0.0, 1.0)


def _eigenvalue_with_panels(ell, params, panels):
    """Quadrature evaluation with an explicit panel count (ell >= 1)."""
    rule = cc_weights(params.alpha, 0.0, panels)
    q = _node_haversine(params.delta, panels)
    # g = (P - 1)/q as in spectrum; one recurrence call serves every node
    # that neither the ratio series nor the asymptotics take
    g = np.empty_like(q)
    series = _in_series_region(ell, q)
    g[series] = _m1_series_from_hav(ell, q[series])
    rest = ~series
    far = q > _SERIES_HAV_MAX
    if ell >= _ASYMPTOTIC_MIN_DEGREE and far.any():
        g[far] = (_szego_from_haversine(ell, q[far]) - 1.0) / q[far]
        rest &= ~far
    if rest.any():
        g[rest] = (legendre_rec(ell, 1.0 - 2.0 * q[rest]) - 1.0) / q[rest]
    # (P - 1)/(1 - x) = (delta^2/8) g folds delta out of the prefactor
    return (1.0 + params.alpha) * 2.0 ** (-1.0 - params.alpha) * float(rule.weights @ g)


def eigenvalue(ell, params):
    """Eigenvalue lambda(ell) of the nonlocal operator.

    Degree zero returns exactly 0.0 without quadrature -- constants are
    invariant and downstream solvers rely on the mean mode being exact.
    For ell >= 1 the integral uses a modified Clenshaw--Curtis rule with
    max(ell+1, 8) panels, which integrates the polynomial part of the
    integrand exactly.  The nodes with haversine above ``_SERIES_HAV_MAX``
    take P_ell from the recurrence below degree ``_ASYMPTOTIC_MIN_DEGREE``
    (550) and from the Bessel-series asymptotics from there on.
    """
    ell = _check_ell(ell)
    if not isinstance(params, KernelParams):
        raise TypeError("params must be a KernelParams instance")
    if ell == 0:
        return 0.0
    return _eigenvalue_with_panels(ell, params, max(ell + 1, 8))


def spectrum(n, params):
    """All eigenvalues through degree ``n`` from one rule with max(n+1, 8) panels."""
    n = _check_ell(n)
    if not isinstance(params, KernelParams):
        raise TypeError("params must be a KernelParams instance")
    values = np.zeros(n + 1)
    panels = max(n + 1, 8)
    rule = cc_weights(params.alpha, 0.0, panels)
    q = _node_haversine(params.delta, panels)
    t = 1.0 - 2.0 * q
    p_prev = p = np.ones_like(t)  # P_0; the first step gives P_1 = t exactly
    for first in range(1, n + 1, _SWEEP_BLOCK):
        ells = np.arange(first, min(first + _SWEEP_BLOCK, n + 1), dtype=float)
        g = np.empty((ells.size, t.size))
        for row, ell in zip(g, ells):
            p_prev, p = p, ((2.0 * ell - 1.0) * t * p - (ell - 1.0) * p_prev) / ell
            np.subtract(p, 1.0, out=row)
        ells, qs = np.broadcast_arrays(ells[:, None], q)
        series = _in_series_region(ells, qs)
        np.divide(g, qs, out=g, where=~series)
        g[series] = _m1_series_from_hav(ells[series], qs[series])
        # (P - 1)/(1 - x) = (delta^2/8) g folds delta out of the prefactor
        values[first : first + g.shape[0]] = g @ rule.weights
    values[1:] *= (1.0 + params.alpha) * 2.0 ** (-1.0 - params.alpha)
    return Spectrum(params=params, values=values)


def local_eigenvalue(ell):
    """Eigenvalue -ell(ell+1) of the classical Laplace--Beltrami operator."""
    ell = _check_ell(ell)
    return -float(ell * (ell + 1))


def local_spectrum(n):
    """Spectrum of the classical operator through degree ``n``."""
    n = _check_ell(n)
    ells = np.arange(n + 1, dtype=float)
    return Spectrum(params=None, values=-ells * (ells + 1.0))


def write_spectrum(spec, path, comment=None):
    """Write a spectrum as CSV: header ``ell,lambda``, 17 significant digits.

    ``comment`` (if given) is emitted first as a single ``#``-prefixed
    metadata line.  The output is deterministic: identical spectra produce
    byte-identical files.
    """
    rows = ("%d,%.17g\n" % row for row in enumerate(spec.values.tolist()))
    _write_csv(path, [comment and f"# {comment}", "ell,lambda"], rows)
