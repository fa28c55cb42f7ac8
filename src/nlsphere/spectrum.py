"""Eigenvalues of the nonlocal Laplace--Beltrami operator on the sphere.

The operator acts on spherical harmonics diagonally; its eigenvalue at
degree ell is a weighted integral of (P_ell(t(x)) - 1)/(1-x) against the
algebraic weight (1-x)^alpha on [-1, 1], where t(x) interpolates between
1 and 1 - delta^2/2.  A modified Clenshaw--Curtis rule absorbs the
singular factor and a cancellation-free ratio series evaluates the
near-zero region.  ``spectrum(n)`` serves all degrees through n with one
rule and one three-term recurrence; ``eigenvalue(ell)`` has its own rule
and the recurrence or Bessel-series asymptotics (for isolated large ell).
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
    _m1_over_hav_from_q,
    _m1_series_from_hav,
    _szego_from_haversine,
    legendre_rec,
)

__all__ = [
    "ASYMPTOTIC",
    "DEFAULT_METHOD",
    "EvalMethod",
    "KernelParams",
    "RECURRENCE",
    "Spectrum",
    "eigenvalue",
    "hybrid",
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


@dataclass(frozen=True)
class EvalMethod:
    """How Legendre values inside the eigenvalue integrand are computed.

    ``recurrence`` is exact-degree but O(ell) per node; ``asymptotic``
    uses the Bessel-series expansion, accurate at large degree at O(1)
    per node; ``hybrid`` switches from the former to the latter above
    ``switch_degree``.  Use the module constants ``RECURRENCE`` and
    ``ASYMPTOTIC`` or the ``hybrid()`` factory.
    """

    kind: str
    switch_degree: int = 50

    def __post_init__(self):
        if self.kind not in ("recurrence", "asymptotic", "hybrid"):
            raise ValueError(f"unknown evaluation method {self.kind!r}")
        if not isinstance(self.switch_degree, (int, np.integer)) or self.switch_degree < 0:
            raise ValueError(
                f"switch_degree must be a non-negative integer, got {self.switch_degree!r}"
            )

    def uses_asymptotics(self, ell: int) -> bool:
        return self.kind == "asymptotic" or (
            self.kind == "hybrid" and ell > self.switch_degree
        )


RECURRENCE = EvalMethod("recurrence")
ASYMPTOTIC = EvalMethod("asymptotic")


def hybrid(switch_degree: int = 50) -> EvalMethod:
    """Recurrence up to ``switch_degree``, asymptotics above it."""
    return EvalMethod("hybrid", switch_degree)


#: Recurrence through degree 50, asymptotics beyond: the crossover where
#: the Bessel-series accuracy overtakes the cost of the exact recurrence.
DEFAULT_METHOD = hybrid(50)


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


def _eigenvalue_with_panels(ell, params, method, panels):
    """Quadrature evaluation with an explicit panel count (ell >= 1)."""
    rule = cc_weights(params.alpha, 0.0, panels)
    x = rule.nodes
    d2 = params.delta * params.delta
    # q = sin^2(theta/2) of the geodesic angle the chordal kernel reaches;
    # clip guards the delta = 2 endpoint where roundoff could push q past 1
    q = np.clip(d2 * (1.0 - x) / 8.0, 0.0, 1.0)
    g = np.empty_like(x)
    near = q <= _SERIES_HAV_MAX
    if near.any():
        g[near] = (d2 / 8.0) * _m1_over_hav_from_q(ell, q[near])
    far = ~near
    if far.any():
        if method.uses_asymptotics(ell):
            p = _szego_from_haversine(ell, q[far])
        else:
            p = legendre_rec(ell, 1.0 - 2.0 * q[far])
        g[far] = (p - 1.0) / (1.0 - x[far])
    prefactor = (1.0 + params.alpha) * 2.0 ** (2.0 - params.alpha) / d2
    return prefactor * float(rule.weights @ g)


def eigenvalue(ell, params, method=DEFAULT_METHOD):
    """Eigenvalue lambda(ell) of the nonlocal operator.

    Degree zero returns exactly 0.0 without quadrature -- constants are
    invariant and downstream solvers rely on the mean mode being exact.
    For ell >= 1 the integral uses a modified Clenshaw--Curtis rule with
    max(ell+1, 8) panels, which integrates the polynomial part of the
    integrand exactly under recurrence evaluation.
    """
    ell = _check_ell(ell)
    if not isinstance(params, KernelParams):
        raise TypeError("params must be a KernelParams instance")
    if not isinstance(method, EvalMethod):
        raise TypeError("method must be an EvalMethod instance")
    if ell == 0:
        return 0.0
    return _eigenvalue_with_panels(ell, params, method, max(ell + 1, 8))


def spectrum(n, params):
    """All eigenvalues through degree ``n`` from one rule with max(n+1, 8) panels."""
    n = _check_ell(n)
    if not isinstance(params, KernelParams):
        raise TypeError("params must be a KernelParams instance")
    values = np.zeros(n + 1)
    rule = cc_weights(params.alpha, 0.0, max(n + 1, 8))
    q = np.clip(params.delta**2 * (1.0 - rule.nodes) / 8.0, 0.0, 1.0)
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
