"""Eigenvalues of the nonlocal Laplace--Beltrami operator on the sphere.

The operator acts on spherical harmonics diagonally; its eigenvalue at
degree ell is a weighted integral of (P_ell(t(x)) - 1)/(1-x) against the
algebraic weight (1-x)^alpha on [-1, 1], where t(x) interpolates between
1 and 1 - delta^2/2.  A modified Clenshaw--Curtis rule absorbs the
singular factor.  The integrand has one evaluation, the recurrence
``specfun._m1_over_hav_rows``, and the eigenvalues one route:
``spectrum(n)`` sums its rows through degree n against one rule, and
``eigenvalue(ell)`` is ``spectrum(ell)[ell]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import cc_weights
from .sht import _csv_body, _write_csv
from .specfun import _check_array, _check_count, _check_real, _m1_over_hav_rows

__all__ = [
    "KernelParams",
    "eigenvalue",
    "local_spectrum",
    "spectrum",
    "write_spectrum",
]

@dataclass(frozen=True)
class KernelParams:
    """Kernel of the nonlocal operator: singularity strength and horizon.

    ``alpha`` in (-1, 1) sets the strength of the algebraic singularity
    of the kernel at zero separation; ``delta`` in (0, 2] is the horizon,
    measured as chordal distance, so ``delta = 2`` couples every pair of
    points on the sphere.
    """

    alpha: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_real(self.alpha, "alpha", -1, 1))
        object.__setattr__(self, "delta", _check_real(self.delta, "delta", 0, 2, closed=True))


def _node_haversine(delta, panels):
    """q = delta^2 (1 - x_j) / 8 at the Clenshaw--Curtis nodes x_j =
    cos(j pi / panels), from the node angle: q = (delta^2/4) sin^2(j pi /
    (2 panels)).  It is sin^2(theta/2) of the geodesic angle the chordal
    kernel reaches.  Formed from the rounded x_j, 1 - x_j loses its
    relative accuracy near x = 1, where the integrand is largest."""
    half = np.sin(0.5 * np.pi * np.arange(panels + 1) / panels)
    # clip guards the delta = 2 endpoint where roundoff could push q past 1
    return np.clip(0.25 * delta * delta * half * half, 0.0, 1.0)


def eigenvalue(ell, params):
    """Eigenvalue lambda(ell) of the nonlocal operator, as a float: the
    last entry of ``spectrum(ell, params)``, bit for bit.  It costs a full
    spectrum through degree ell, O(ell^2) work."""
    return float(spectrum(ell, params)[ell])


def spectrum(n, params):
    """All eigenvalues lambda(ell), ell = 0..n, as a read-only float array
    of shape (n+1,), from one rule with max(n+1, 8) panels.

    ``values[0]`` is exactly zero (constants are in the kernel of the
    operator) and every entry lies in [-ell(ell+1), 0] up to roundoff.
    """
    n = _check_count(n, "degree")
    if not isinstance(params, KernelParams):
        raise TypeError(f"params must be a KernelParams instance, got {params!r}")
    values = np.zeros(n + 1)
    panels = max(n + 1, 8)
    weights = cc_weights(params.alpha, panels)
    q = _node_haversine(params.delta, panels)
    for first, g in _m1_over_hav_rows(q, n):
        # (P - 1)/(1 - x) = (delta^2/8) g folds delta out of the constant factor
        values[first : first + g.shape[0]] = g @ weights
    values[1:] *= (1.0 + params.alpha) * 2.0 ** (-1.0 - params.alpha)
    values.setflags(write=False)
    return values


def local_spectrum(n):
    """Eigenvalues -ell(ell+1) of the classical operator through degree
    ``n``, as a read-only float array of shape (n+1,)."""
    n = _check_count(n, "degree")
    ells = np.arange(n + 1, dtype=float)
    # 0 - x, not -x, so that degree 0 holds +0.0 and prints "0", not "-0"
    values = 0.0 - ells * (ells + 1.0)
    values.setflags(write=False)
    return values


def write_spectrum(values, path, comment=None):
    """Write the eigenvalues ``values[ell]`` as CSV: header ``ell,lambda``,
    17 significant digits.

    ``comment`` (if given) is emitted first as a single ``#``-prefixed
    metadata line; one holding a line break raises ValueError.  The
    output is deterministic: identical spectra produce
    byte-identical files.
    """
    values = _check_array(values, (None,), "values")
    # ell as a float: '%.17g' writes an integer below 10^17 as "%d" does
    table = np.column_stack([np.arange(values.size, dtype=float), values])
    _write_csv(path, [comment and f"# {comment}", "ell,lambda"], _csv_body(table))
