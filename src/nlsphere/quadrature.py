"""Quadrature rules on [-1, 1].

Two families are provided:

* modified Clenshaw--Curtis rules that absorb a Jacobi weight
  ``(1-x)^alpha (1+x)^beta`` into the weights, built from the modified
  Chebyshev moments of that weight (``jacobi_moments``), and
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

__all__ = [
    "CCRule",
    "GLRule",
    "cc_weights",
    "gauss_legendre",
    "jacobi_moments",
]


@dataclass(frozen=True)
class CCRule:
    """Modified Clenshaw--Curtis rule for the weight (1-x)^alpha (1+x)^beta.

    ``nodes`` are the n+1 Chebyshev points cos(k pi / n), k = 0..n, in
    descending order from +1 to -1; ``weights`` integrate polynomial
    integrands against the Jacobi weight, exactly through degree n.
    """

    alpha: float
    beta: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return self.nodes.size


@dataclass(frozen=True)
class GLRule:
    """Gauss--Legendre rule: nodes descending in (-1, 1), weights > 0."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return self.nodes.size


def _check_exponent(name, value):
    value = float(value)
    if not math.isfinite(value) or value <= -1.0:
        raise ValueError(f"{name} must be a finite number > -1, got {value!r}")
    return value


def jacobi_moments(alpha, beta, count):
    """Modified Chebyshev moments of the Jacobi weight.

    Returns ``mu[k] = integral_{-1}^{1} T_k(x) (1-x)^alpha (1+x)^beta dx``
    for k = 0..count-1, computed by the three-term forward recurrence

        mu_{l+1} = -(2 (alpha-beta) mu_l + (alpha+beta-l+2) mu_{l-1})
                   / (alpha+beta+l+2),

    seeded with mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1) and
    mu_1 = (beta-alpha) mu_0 / (alpha+beta+2).  The recurrence is mildly
    forward-stable here: against the same recurrence in 40-digit arithmetic
    (beta = 0, alpha in {-0.9, -0.5, 0.3, 0.9}) the relative error grows
    about like 0.3 k eps, worst at alpha = -0.5 with 151 / 607 / 1516 eps
    through k = 511 / 2000 / 5000 (3.4e-13 at k = 5000).
    """
    alpha = _check_exponent("alpha", alpha)
    beta = _check_exponent("beta", beta)
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    mu = np.empty(int(count))
    lg = (
        math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )
    mu[0] = math.exp((alpha + beta + 1.0) * math.log(2.0) + lg)
    if count == 1:
        return mu
    mu[1] = (beta - alpha) / (alpha + beta + 2.0) * mu[0]
    for k in range(1, int(count) - 1):
        mu[k + 1] = -(
            2.0 * (alpha - beta) * mu[k] + (alpha + beta - k + 2.0) * mu[k - 1]
        ) / (alpha + beta + k + 2.0)
    return mu


def cc_weights(alpha, beta, n):
    """Modified Clenshaw--Curtis rule with n+1 nodes for the Jacobi weight.

    ``n`` is the number of Chebyshev panels; the rule consists of the
    nodes cos(k pi / n) with weights

        w_j = c_j / n * (mu_0 + (-1)^j mu_n
                         + 2 sum_{k=1}^{n-1} mu_k cos(pi j k / n)),

    where c_j = 1/2 at the two endpoints and 1 elsewhere.  The bracket is
    a type-I discrete cosine transform of the moment sequence, evaluated
    by the FFT in O(n log n); the test suite checks it against the
    literal O(n^2) sum.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"panel count must be a positive integer, got {n!r}")
    n = int(n)
    mu = jacobi_moments(alpha, beta, n + 1)
    # DCT-I via an even extension of length 2n; rfft of a real even
    # sequence is real up to roundoff
    ext = np.concatenate([mu, mu[-2:0:-1]])
    bracket = np.fft.rfft(ext).real[: n + 1]
    w = bracket / n
    w[0] *= 0.5
    w[n] *= 0.5
    nodes = np.cos(np.pi * np.arange(n + 1) / n)
    return CCRule(alpha=float(alpha), beta=float(beta), nodes=nodes, weights=w)


def _legendre_pair(n, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence (n >= 1)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2.0 * k + 1.0) * x * p - k * p_prev) / (k + 1.0), p
    return p, p_prev


def gauss_legendre(n):
    """Gauss--Legendre rule with n nodes via Newton iteration.

    Starts from the Chebyshev-like estimate cos(pi (i + 3/4) / (n + 1/2))
    and polishes each root of P_n with Newton steps using
    P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1); convergence takes three or
    four iterations, with a RuntimeError after 100 as a safety stop.
    Nodes are returned in descending order and are exactly antisymmetric,
    enforced by averaging each root with its mirror image.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    n = int(n)
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
