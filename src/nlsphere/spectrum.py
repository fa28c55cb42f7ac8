"""Eigenvalues of the nonlocal Laplace--Beltrami operator on the sphere.

The operator acts on spherical harmonics diagonally; its eigenvalue at
degree ell is a weighted integral of (P_ell(t(x)) - 1)/(1-x) against the
algebraic weight (1-x)^alpha on [-1, 1], where t(x) interpolates between
1 and 1 - delta^2/2.  A modified Clenshaw--Curtis rule absorbs the
singular factor; ``specfun._m1_over_hav_from_q`` evaluates the integrand
at its nodes, with the cancellation-free ratio series near the singular
end.  ``spectrum(n)`` serves all degrees through n with one rule and one
three-term recurrence whose rows it hands to that integrand.
``eigenvalue(ell)`` has its own rule and lets the integrand evaluate
P_ell too: by the recurrence below degree 550, and from there on by the
Bessel-series asymptotics, O(1) per node, away from the singular end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import cc_weights
from .sht import _write_csv
from .specfun import _m1_over_hav_from_q

__all__ = [
    "KernelParams",
    "eigenvalue",
    "local_eigenvalue",
    "local_spectrum",
    "spectrum",
    "write_spectrum",
]

#: Degrees per block of Legendre rows in ``spectrum``; keeps its memory O(n).
_SWEEP_BLOCK = 64


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
    g = _m1_over_hav_from_q(ell, _node_haversine(params.delta, panels))
    # (P - 1)/(1 - x) = (delta^2/8) g folds delta out of the constant factor
    return (1.0 + params.alpha) * 2.0 ** (-1.0 - params.alpha) * float(rule.weights @ g)


def eigenvalue(ell, params):
    """Eigenvalue lambda(ell) of the nonlocal operator.

    Degree zero returns exactly 0.0 without quadrature -- constants are
    invariant and downstream solvers rely on the mean mode being exact.
    For ell >= 1 the integral uses a modified Clenshaw--Curtis rule with
    max(ell+1, 8) panels, which integrates the polynomial part of the
    integrand exactly.  The integrand is the one ``spectrum`` and
    ``specfun.legendre_m1_over_hav`` share: the ratio series near the
    singular end, and elsewhere P_ell from the recurrence, or from degree
    550 on from the four-term Bessel-series asymptotics at the nodes with
    haversine above 1e-2.
    """
    ell = _check_ell(ell)
    if not isinstance(params, KernelParams):
        raise TypeError("params must be a KernelParams instance")
    if ell == 0:
        return 0.0
    return _eigenvalue_with_panels(ell, params, max(ell + 1, 8))


def spectrum(n, params):
    """All eigenvalues lambda(ell), ell = 0..n, as a read-only float array
    of shape (n+1,), from one rule with max(n+1, 8) panels.

    ``values[0]`` is exactly zero (constants are in the kernel of the
    operator) and every entry lies in [-ell(ell+1), 0] up to roundoff.
    """
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
        rows = np.empty((ells.size, t.size))
        for row, ell in zip(rows, ells):
            np.divide((2.0 * ell - 1.0) * t * p - (ell - 1.0) * p_prev, ell, out=row)
            p_prev, p = p, row
        g = _m1_over_hav_from_q(ells[:, None], q, rows)
        # (P - 1)/(1 - x) = (delta^2/8) g folds delta out of the constant factor
        values[first : first + g.shape[0]] = g @ rule.weights
    values[1:] *= (1.0 + params.alpha) * 2.0 ** (-1.0 - params.alpha)
    values.setflags(write=False)
    return values


def local_eigenvalue(ell):
    """Eigenvalue -ell(ell+1) of the classical Laplace--Beltrami operator."""
    ell = _check_ell(ell)
    return -float(ell * (ell + 1))


def local_spectrum(n):
    """Eigenvalues -ell(ell+1) of the classical operator through degree
    ``n``, as a read-only float array of shape (n+1,)."""
    n = _check_ell(n)
    ells = np.arange(n + 1, dtype=float)
    values = -ells * (ells + 1.0)
    values.setflags(write=False)
    return values


def write_spectrum(values, path, comment=None):
    """Write the eigenvalues ``values[ell]`` as CSV: header ``ell,lambda``,
    17 significant digits.

    ``comment`` (if given) is emitted first as a single ``#``-prefixed
    metadata line.  The output is deterministic: identical spectra produce
    byte-identical files.
    """
    rows = ("%d,%.17g\n" % row for row in enumerate(np.asarray(values, dtype=float).tolist()))
    _write_csv(path, [comment and f"# {comment}", "ell,lambda"], rows)
