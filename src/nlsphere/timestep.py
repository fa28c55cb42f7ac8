"""Fourth-order exponential time differencing (ETDRK4) for stiff systems.

The PDEs handled here have the form u_t = L u + N(u) where L is diagonal
in the spherical harmonic basis and N is a bounded nonlinearity.  L is
given as a plain float array of shape (n+1,), one eigenvalue per degree,
which the tables broadcast over the orders.  ETDRK4 treats L exactly
through per-mode exponentials and integrates N with a fourth-order
Runge--Kutta-like rule whose coefficients are the matrix functions

    stage = h (e^{z/2} - 1)/z,
    f1 = h [-4 - z + e^z (4 - 3z + z^2)] / z^3,
    f2 = h [ 2 + z + e^z (-2 + z)      ] / z^3,
    f3 = h [-4 - 3z - z^2 + e^z (4 - z)] / z^3,     z = h lambda.

Evaluated literally these lose all accuracy near z = 0 (the z^3 division
cancels); below |z| = 1/2 they are therefore computed from Taylor series
carried to 16 terms, which keeps the two evaluation paths within 1e-14
of each other at the seam.

The integrator state is one float array of shape (k, n+1, 2n+1): k
fields (k = 1 for a single field), each in the coefficient layout of
:mod:`nlsphere.sht`.  The tables are stacked the same way, so a step is
the same vector formula for every k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sht import _per_degree, analysis, synthesis

__all__ = [
    "BlowUpError",
    "ETDRK4Tables",
    "StabilityWarning",
    "etdrk4_step",
    "etdrk4_tables",
    "evolve",
    "pseudospectral",
]

#: Switch point between the direct formulas and their Taylor expansions.
_Z_STAR = 0.5

#: Taylor terms carried; the term after the last is below 1e-16 relative
#: at |z| = _Z_STAR.
_TAYLOR_TERMS = 16


class StabilityWarning(UserWarning):
    """The linear part has growing modes; the scheme remains well defined."""


class BlowUpError(RuntimeError):
    """The solution left floating-point range during time stepping."""

    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(
            f"non-finite coefficients after step {step_index}; "
            "the time step is likely too large for this problem"
        )


@dataclass(frozen=True)
class ETDRK4Tables:
    """Precomputed per-mode ETDRK4 coefficients of k stacked operators at h."""

    h: float
    degree: int
    exp_full: np.ndarray
    exp_half: np.ndarray
    stage: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    def __post_init__(self):
        for name in ("exp_full", "exp_half", "stage", "f1", "f2", "f3"):
            getattr(self, name).setflags(write=False)


def _phi_direct(z):
    """(stage, f1, f2, f3) / h by the closed formulas; |z| not small."""
    ez = np.exp(z)
    eh = np.exp(0.5 * z)
    z2 = z * z
    z3 = z2 * z
    stage = (eh - 1.0) / z
    f1 = (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3
    f2 = (2.0 + z + ez * (-2.0 + z)) / z3
    f3 = (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3
    return stage, f1, f2, f3


def _phi_taylor(z):
    """(stage, f1, f2, f3) / h by Taylor series about z = 0.

    stage = 1/2 sum_k (z/2)^k / (k+1)!,  f1 = sum_k (k+1)^2 z^k / (k+3)!,
    f2 = sum_k (k+1) z^k / (k+3)!,       f3 = sum_k (1-k) z^k / (k+3)!.
    At z = 0 only the k = 0 terms survive, giving the exact limits
    (1/2, 1/6, 1/6, 1/6).
    """
    stage = np.zeros_like(z)
    f1 = np.zeros_like(z)
    f2 = np.zeros_like(z)
    f3 = np.zeros_like(z)
    zp = np.ones_like(z)
    for k in range(_TAYLOR_TERMS):
        c = 1.0 / math.factorial(k + 3)
        f1 += ((k + 1) * (k + 1) * c) * zp
        f2 += ((k + 1) * c) * zp
        f3 += ((1 - k) * c) * zp
        stage += (0.5 / (2.0**k * math.factorial(k + 1))) * zp
        zp = zp * z
    return stage, f1, f2, f3


def etdrk4_tables(operators, h):
    """Coefficient tables for k diagonal operators of one degree n at step
    size h, stacked to shape (k, n+1, 2n+1) in one pass (they are
    elementwise in z = h lambda).

    ``operators`` holds one per-degree array lambda[ell], ell = 0..n, per
    field, which must stack to a (k, n+1) float array; anything else, a
    non-finite h, or a non-finite h lambda raises ValueError.  Positive
    eigenvalues (growing modes) are allowed but warn.
    """
    try:
        lam = np.asarray(tuple(operators), dtype=float)
    except (TypeError, ValueError):
        lam = None
    if lam is None or lam.ndim != 2 or lam.shape[1] == 0:
        raise ValueError(
            "operators must be k per-degree arrays of one length n+1 "
            "that stack to a (k, n+1) float array"
        )
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    with np.errstate(over="ignore"):
        z_deg = h * lam
    if not np.all(np.isfinite(z_deg)):
        field, ell = np.argwhere(~np.isfinite(z_deg))[0]
        raise ValueError(
            f"operator {field} at degree {ell}: h * lambda is not finite "
            f"(h = {h!r}, lambda = {float(lam[field, ell])!r})"
        )
    if np.any(lam > 0.0):
        warnings.warn(
            "diagonal operator has positive eigenvalues: linear modes grow",
            StabilityWarning,
            stacklevel=2,
        )
    z = _per_degree(z_deg)
    small = np.abs(z) < _Z_STAR
    parts = [np.empty_like(z) for _ in range(4)]
    if small.any():
        for dst, src in zip(parts, _phi_taylor(z[small])):
            dst[small] = src
    big = ~small
    if big.any():
        for dst, src in zip(parts, _phi_direct(z[big])):
            dst[big] = src
    stage, f1, f2, f3 = (h * p for p in parts)
    return ETDRK4Tables(
        h=h,
        degree=lam.shape[1] - 1,
        exp_full=np.exp(z),
        exp_half=np.exp(0.5 * z),
        stage=stage,
        f1=f1,
        f2=f2,
        f3=f3,
    )


def _check_shape(state, tables):
    if state.shape != tables.exp_full.shape:
        raise ValueError(
            f"state shape {state.shape} does not match the coefficient "
            f"tables {tables.exp_full.shape}"
        )


def etdrk4_step(state, tables, nonlinearity, step_index=None):
    """One ETDRK4 step (Cox--Matthews stages with half-step exponentials).

    ``state`` is a (k, n+1, 2n+1) coefficient array of k fields and
    ``tables`` their stacked coefficients.  ``nonlinearity`` maps such an
    array to one of the same shape -- wrap a pointwise grid-space function
    with :func:`pseudospectral` to obtain one.  Returns the new state;
    raises BlowUpError when any output coefficient is non-finite.
    """
    _check_shape(state, tables)
    t = tables
    n_u = nonlinearity(state)
    a = t.exp_half * state + t.stage * n_u
    n_a = nonlinearity(a)
    b = t.exp_half * state + t.stage * n_a
    n_b = nonlinearity(b)
    c = t.exp_half * a + t.stage * (2.0 * n_b - n_u)
    n_c = nonlinearity(c)
    new = t.exp_full * state + t.f1 * n_u + 2.0 * t.f2 * (n_a + n_b) + t.f3 * n_c
    if not np.all(np.isfinite(new)):
        raise BlowUpError(step_index if step_index is not None else "?")
    return new


def evolve(initial, operators, nonlinearity, h, steps, observers=(),
           observer_stride=1):
    """Integrate ``steps`` ETDRK4 steps of size ``h`` from ``initial``.

    ``initial`` holds the coefficient arrays of k fields, stacked to shape
    (k, n+1, 2n+1) (k = 1 for a single field), and ``operators`` one
    per-degree array of shape (n+1,) per field, as ``etdrk4_tables`` takes.
    ``observers`` are callables ``(step, time, state)`` invoked with
    read-only state at step 0 and then every ``observer_stride`` steps;
    their outputs are owned by the caller.  Returns the final state array;
    a BlowUpError carries the failing step.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not isinstance(observer_stride, (int, np.integer)) or observer_stride < 1:
        raise ValueError(
            f"observer_stride must be a positive integer, got {observer_stride!r}"
        )
    state = np.asarray(initial, dtype=float)
    tables = etdrk4_tables(operators, h)
    _check_shape(state, tables)
    for obs in observers:
        obs(0, 0.0, state)
    for k in range(1, int(steps) + 1):
        state = etdrk4_step(state, tables, nonlinearity, step_index=k)
        if k % int(observer_stride) == 0:
            for obs in observers:
                obs(k, k * h, state)
    return state


def pseudospectral(pointwise, grid):
    """Lift a pointwise grid function to a coefficient-space nonlinearity.

    The result maps a (k, n+1, 2n+1) coefficient array to one of the same
    shape.  The k fields are synthesized on ``grid`` in one stacked
    transform; ``pointwise`` receives the k value arrays as positional
    arguments and returns a tuple of k arrays (a single field may return
    a bare array), which are analyzed back in one stacked transform.  No
    dealiasing is applied.
    """

    def coefficient_nonlinearity(state):
        outs = pointwise(*synthesis(state, grid))
        if not isinstance(outs, tuple):
            outs = (outs,)
        if len(outs) != len(state):
            raise TypeError(
                f"pointwise function returned {len(outs)} arrays "
                f"for {len(state)} fields"
            )
        return analysis(np.stack(outs), grid)

    return coefficient_nonlinearity
