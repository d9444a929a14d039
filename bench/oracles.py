"""Reference values the benchmark checks witness-lab's outputs against.

Computed without the program's ``analytic``, ``quadrature`` and ``special``
modules: Gaussian laws from ``math.erfc``, the elliptic-integral law of the
scaled partial-transpose eigenvalues from ``scipy.special.ellipk``/``ellipe``
integrated with ``scipy.integrate.quad``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# statistical checks allow this many standard errors
Z = 5.0
# one-sided probability of a false alarm for the distribution-function checks
KS_FALSE_ALARM = 1e-6

W_EDGES = np.linspace(-4.0, 6.0, 81)
Y_EDGES = np.linspace(-4.5, 4.5, 91)


def centers(edges: np.ndarray) -> np.ndarray:
    return (edges[:-1] + edges[1:]) / 2


def gauss_pdf(x: float, var: float) -> float:
    """Density of a Gaussian with mean 1 and variance ``var``."""
    return math.exp(-0.5 * (x - 1.0) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def gauss_cdf(x: float, var: float) -> float:
    return 0.5 * math.erfc((1.0 - x) / math.sqrt(2.0 * var))


def gauss_neg_tail(k: float) -> float:
    """P(w < 0) for w ~ N(1, 1/k): rank-k witnesses and m-fold mixtures."""
    return 0.5 * math.erfc(math.sqrt(k / 2.0))


def w_variance(n: int, k: int) -> float:
    """Exact variance of w = N^2 <psi|W|psi> over Haar pure states on N x N
    for a rank-k witness with uniform weights on orthonormal vectors:
    (N^2 tr W^2 - 1) / (N^2 + 1) with tr W^2 = 1/k."""
    d = n * n
    return (d / k - 1.0) / (d + 1.0)


def dkw_bound(n: int, false_alarm: float = KS_FALSE_ALARM) -> float:
    """Distance between an empirical and the true distribution function of
    n i.i.d. samples that is exceeded with probability at most
    ``false_alarm`` (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return math.sqrt(math.log(2.0 / false_alarm) / (2.0 * n))


def log_slope(ms, ps) -> float:
    """Least-squares slope of log p against m."""
    return float(np.polyfit(np.asarray(ms, float), np.log(np.asarray(ps, float)), 1)[0])


def log_slope_std_err(ms, ps, ns) -> float:
    """Binomial standard error of ``log_slope``: the delta method gives
    var(log p) = (1 - p) / (n p) per point."""
    ms = np.asarray(ms, float)
    ps = np.asarray(ps, float)
    dev = ms - ms.mean()
    var_logp = (1.0 - ps) / (np.asarray(ns, float) * ps)
    return float(math.sqrt(np.sum(dev**2 * var_logp)) / np.sum(dev**2))


def pt_law_pdf(y: float) -> float:
    """Density of y = N lambda for the eigenvalues +-mu_i mu_j of the partial
    transpose of a Haar pure state, N -> infinity, in the parameter
    convention m = 1 - y^2 / 16 of scipy's K and E.  K is evaluated from
    1 - m (``ellipkm1``), which keeps the log divergence at y = 0 exact."""
    if abs(y) >= 4.0 or y == 0.0:
        return 0.0 if abs(y) >= 4.0 else math.inf
    p = y * y / 16.0
    val = ((16.0 + y * y) * special.ellipkm1(p) - 32.0 * special.ellipe(1.0 - p)) / (8.0 * math.pi**2)
    return max(float(val), 0.0)


def pt_law_cdf(y: float) -> float:
    """Distribution function of ``pt_law_pdf``; the law is even, so
    F(y) = 1/2 + sign(y) * integral_0^|y|."""
    a = min(abs(y), 4.0)
    if a == 0.0:
        return 0.5
    half, _ = integrate.quad(pt_law_pdf, 0.0, a, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 0.5 + math.copysign(half, y)
