"""Fourth-order exponential time differencing (ETDRK4) for stiff systems.

The PDEs handled here have the form u_t = L u + N(u) where L is diagonal
in the spherical harmonic basis and N is a bounded nonlinearity.  L is
given as a plain float array of shape (n+1,), one eigenvalue per degree,
which the tables view over the orders.  ETDRK4 treats L exactly
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
:mod:`nlsphere.sht`.  The tables have that shape too, as read-only
views of their per-degree values (``sht._per_degree``), so a step is the
same vector formula for every k and the tables hold O(k n) numbers.

A step forms its stages in place, in three buffers, with the operands and
the order of the literal formulas, so its numbers are theirs bit for bit.
It multiplies by a contiguous copy of each table, made in one scratch
array that ``evolve`` allocates once for all steps: numpy multiplies by a
strided view through its buffered iterator, which allocates on every
call, and with that churn (or with a scratch array per step) the heap
sometimes grew, and faulted in fresh pages, tens of steps into a run.
A nonlinearity may return its argument or a view of it: the step copies
such an output before it overwrites the buffer, and never writes into
what a nonlinearity returns.  Each step returns a fresh state array, which
observers may keep.

Arrays are checked where they enter, by ``specfun._check_array``, which
uses a float64 ndarray as it is, so the aliasing rule above sees the
caller's own arrays: ``etdrk4_tables``' operators, ``evolve``'s initial
state, and ``etdrk4_step``'s state, scratch and first nonlinearity output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sht import _keep_tables, _per_degree, analysis, synthesis
from .specfun import _check_array, _check_count, _check_real

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
    """Precomputed per-mode ETDRK4 coefficients of k stacked operators at h.

    Each table has the (k, n+1, 2n+1) shape of the state and is read-only;
    ``etdrk4_tables`` makes them views of per-degree values, not copies.
    """

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
    size h, of shape (k, n+1, 2n+1): each function is evaluated once per
    degree and once at z = 0, and each table is a read-only view of those
    values over the coefficient layout (``sht._per_degree``), whose
    structural-zero slots read the z = 0 limit.

    ``operators`` holds one per-degree array lambda[ell], ell = 0..n, per
    field, which must stack to a (k, n+1) float array; anything else, a
    non-finite h, or a non-finite h lambda raises ValueError.  Positive
    eigenvalues (growing modes) are allowed but warn.
    """
    lam = _check_array(operators, (None, None), "operators")
    if not lam.size:
        raise ValueError(f"operators must not be empty, got shape {lam.shape}")
    h = _check_real(h, "step size", 0, math.inf)
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
    # the appended z = 0 column gives the structural slots' exact limits
    z = np.concatenate([z_deg, np.zeros((lam.shape[0], 1))], axis=1)
    small = np.abs(z) < _Z_STAR
    parts = [np.empty_like(z) for _ in range(4)]
    if small.any():
        for dst, src in zip(parts, _phi_taylor(z[small])):
            dst[small] = src
    big = ~small
    if big.any():
        for dst, src in zip(parts, _phi_direct(z[big])):
            dst[big] = src
    exp_full, exp_half, stage, f1, f2, f3 = (
        _per_degree(p[:, :-1], p[0, -1])
        for p in (np.exp(z), np.exp(0.5 * z), *(h * p for p in parts))
    )
    return ETDRK4Tables(
        exp_full=exp_full,
        exp_half=exp_half,
        stage=stage,
        f1=f1,
        f2=f2,
        f3=f3,
    )


def _apart(out, *buffers):
    """``out``, or a copy of it when it shares memory with one of the
    ``buffers``, which the step overwrites later."""
    if any(np.may_share_memory(out, buf) for buf in buffers):
        return np.array(out)
    return out


def etdrk4_step(state, tables, nonlinearity, step_index=None, scratch=None):
    """One ETDRK4 step (Cox--Matthews stages with half-step exponentials).

    ``state`` is a (k, n+1, 2n+1) coefficient array of k fields and
    ``tables`` their stacked coefficients.  ``nonlinearity`` must map such
    an array to one of the same shape (another output shape raises
    ValueError) -- wrap a pointwise grid-space function with
    :func:`pseudospectral` to obtain one.  It may return its argument, a
    view of it or an array of its own, which the step never writes into.
    The stages are formed in place (see the module docstring).
    ``scratch``, a float array of the state's shape that the step
    overwrites, receives a contiguous copy of each table before its
    products; the step allocates one when none is given.  Returns the new
    state, a fresh array; raises BlowUpError when any output coefficient
    is non-finite.
    """
    t = tables
    state = _check_array(state, t.exp_full.shape, "state")
    table = (np.empty_like(state) if scratch is None
             else _check_array(scratch, state.shape, "scratch"))
    # a stack of another field count would broadcast against the tables
    n_u = _check_array(nonlinearity(state), state.shape, "nonlinearity output")
    # a = e^{h/2 L} u + stage N(u), b = e^{h/2 L} u + stage N(a)
    np.copyto(table, t.exp_half)
    decayed = np.multiply(table, state)
    np.copyto(table, t.stage)
    a = np.multiply(table, n_u)
    a += decayed
    n_a = _apart(nonlinearity(a), a)
    b = np.multiply(table, n_a)
    b += decayed
    n_b = _apart(nonlinearity(b), a, b)
    # c = e^{h/2 L} a + stage (2 N(b) - N(u)), built in decayed
    c = np.multiply(2.0, n_b, out=decayed)
    c -= n_u
    c *= table
    np.copyto(table, t.exp_half)
    c += np.multiply(table, a, out=b)
    n_c = _apart(nonlinearity(c), a, b)
    # new = e^{hL} u + f1 N(u) + 2 f2 (N(a) + N(b)) + f3 N(c), a and b scratch
    np.copyto(table, t.exp_full)
    new = np.multiply(table, state)
    np.copyto(table, t.f1)
    new += np.multiply(table, n_u, out=a)
    np.copyto(table, t.f2)
    scaled = np.multiply(2.0, table, out=a)
    scaled *= np.add(n_a, n_b, out=b)
    new += scaled
    np.copyto(table, t.f3)
    new += np.multiply(table, n_c, out=a)
    if not np.all(np.isfinite(new)):
        raise BlowUpError(step_index if step_index is not None else "?")
    return new


def evolve(initial, operators, nonlinearity, h, steps, observers=()):
    """Integrate ``steps`` ETDRK4 steps of size ``h`` from ``initial``.

    ``initial`` holds the coefficient arrays of k fields, stacked to shape
    (k, n+1, 2n+1) (k = 1 for a single field), and ``operators`` one
    per-degree array of shape (n+1,) per field, as ``etdrk4_tables`` takes.
    ``observers`` are callables ``(step, time, state)`` invoked with a
    read-only view of the state at step 0 and after every step (a stride
    is the observer's own); their outputs are owned by the caller.  Returns
    the final state array; a BlowUpError carries the failing step.
    """
    steps = _check_count(steps, "steps", 1)
    tables = etdrk4_tables(operators, h)
    h = float(h)  # once the tables have accepted it
    state = _check_array(initial, tables.exp_full.shape, "initial")
    # observers get read-only views: broadcast_to never returns a writable one
    for obs in observers:
        obs(0, 0.0, np.broadcast_to(state, state.shape))
    scratch = np.empty_like(state)
    for k in range(1, steps + 1):
        state = etdrk4_step(state, tables, nonlinearity, step_index=k, scratch=scratch)
        for obs in observers:
            obs(k, k * h, np.broadcast_to(state, state.shape))
    return state


def pseudospectral(pointwise, grid):
    """Lift a pointwise grid function to a coefficient-space nonlinearity.

    The result maps a (k, n+1, 2n+1) coefficient array to a (j, n+1, 2n+1)
    one.  The k fields are synthesized on ``grid`` in one stacked
    transform; ``pointwise`` receives the k value arrays as positional
    arguments and returns a tuple of j arrays (j = 1 may return a bare
    array), which are analyzed back in one stacked transform.  j need not
    be k: a model whose reaction is linear but for one product returns
    that product alone and forms the linear terms from the coefficients.
    Each output must have the grid values' shape; another is refused with
    a ValueError naming it ("pointwise output 2").  No dealiasing is
    applied.  The result transforms at every evaluation,
    so ``grid`` keeps its Legendre tables.
    """
    _keep_tables(grid, grid.degree)

    shape = (grid.degree + 1, grid.lon_nodes.size)

    def coefficient_nonlinearity(state):
        outs = pointwise(*synthesis(state, grid))
        outs = [_check_array(out, shape, f"pointwise output {j}")
                for j, out in enumerate(outs if isinstance(outs, tuple) else (outs,), 1)]
        # one output is analyzed as it stands, not copied into a stack
        values = outs[0][None] if len(outs) == 1 else np.stack(outs)
        return analysis(values, grid)

    return coefficient_nonlinearity
