"""Quadrature rules on [-1, 1].

Two families are provided:

* modified Clenshaw--Curtis rules that absorb the weight ``(1-x)^alpha``
  into the weights, built from the modified Chebyshev moments of that
  weight (``jacobi_moments``), and
* classical Gauss--Legendre rules computed by Newton iteration on the
  Legendre recurrence.

The Clenshaw--Curtis construction is what lets the operator eigenvalue
integrals handle an algebraic kernel singularity at x = 1 with spectral
accuracy: the singular factor lives in the moments, so the rule only ever
sees the smooth part of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_count, _check_real, _legendre_pair

__all__ = [
    "GLRule",
    "cc_weights",
    "gauss_legendre",
    "jacobi_moments",
]


@dataclass(frozen=True)
class GLRule:
    """Gauss--Legendre rule: nodes descending in (-1, 1), weights > 0."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def jacobi_moments(alpha, count):
    """Modified Chebyshev moments of the weight (1-x)^alpha.

    Returns ``mu[k] = integral_{-1}^{1} T_k(x) (1-x)^alpha dx`` for
    k = 0..count-1, computed by the three-term forward recurrence

        mu_{l+1} = -(2 alpha mu_l + (alpha-l+2) mu_{l-1}) / (alpha+l+2),

    seeded with mu_0 = 2^(alpha+1) B(alpha+1, 1) and
    mu_1 = -alpha mu_0 / (alpha+2).  The recurrence is mildly
    forward-stable here: against the same recurrence in 40-digit arithmetic
    (alpha in {-0.9, -0.5, 0.3, 0.9}) the relative error grows about like
    0.3 k eps, worst at alpha = -0.5 with 151 / 607 / 1516 eps through
    k = 511 / 2000 / 5000 (3.4e-13 at k = 5000).
    """
    alpha = _check_real(alpha, "alpha", -1, math.inf)
    count = _check_count(count, "count", 1)
    mu = np.empty(count)
    lg = math.lgamma(alpha + 1.0) - math.lgamma(alpha + 2.0)
    mu[0] = math.exp((alpha + 1.0) * math.log(2.0) + lg)
    if count == 1:
        return mu
    # 0.0 - alpha, not -alpha: mu_1 of alpha = 0 is +0.0
    mu[1] = (0.0 - alpha) / (alpha + 2.0) * mu[0]
    for k in range(1, count - 1):
        mu[k + 1] = -(
            2.0 * alpha * mu[k] + (alpha - k + 2.0) * mu[k - 1]
        ) / (alpha + k + 2.0)
    return mu


def cc_weights(alpha, n):
    """Weights of the modified Clenshaw--Curtis rule with n+1 nodes for
    the weight (1-x)^alpha, as a read-only array.

    ``n`` is the number of Chebyshev panels; the weights belong to the
    nodes cos(k pi / n), k = 0..n, and are

        w_j = c_j / n * (mu_0 + (-1)^j mu_n
                         + 2 sum_{k=1}^{n-1} mu_k cos(pi j k / n)),

    where c_j = 1/2 at the two endpoints and 1 elsewhere.  The bracket is
    a type-I discrete cosine transform of the moment sequence, evaluated
    by the FFT in O(n log n); the test suite checks it against the
    literal O(n^2) sum.
    """
    n = _check_count(n, "panel count", 1)
    mu = jacobi_moments(alpha, n + 1)
    # DCT-I via an even extension of length 2n; rfft of a real even
    # sequence is real up to roundoff
    ext = np.concatenate([mu, mu[-2:0:-1]])
    bracket = np.fft.rfft(ext).real[: n + 1]
    w = bracket / n
    w[0] *= 0.5
    w[n] *= 0.5
    w.setflags(write=False)
    return w


def gauss_legendre(n):
    """Gauss--Legendre rule with n nodes via Newton iteration.

    Starts from the Chebyshev-like estimate cos(pi (i + 3/4) / (n + 1/2))
    and polishes each root of P_n with Newton steps using
    P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1); convergence takes three or
    four iterations, with a RuntimeError after 100 as a safety stop.
    Nodes are returned in descending order and are exactly antisymmetric,
    enforced by averaging each root with its mirror image.
    """
    n = _check_count(n, "node count", 1)
    i = np.arange(n)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(100):
        p, p_prev = _legendre_pair(n, x)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed for n={n}")
    x = 0.5 * (x - x[::-1])
    p, p_prev = _legendre_pair(n, x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return GLRule(nodes=x, weights=w)
