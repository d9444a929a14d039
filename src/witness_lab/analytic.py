"""Closed-form densities and detection probabilities for the witness
statistic w and for partial-transpose spectra.

These are the ground truth that the Monte Carlo ensembles are checked
against: the unit Gaussian for full-Schmidt-rank witnesses, its 1/k-width
version for rank-k witnesses and m-fold mixtures, the two-branch exponential
mixture for Schmidt-rank-2 witnesses, and the elliptic-integral law for
scaled partial-transpose eigenvalues y = N*lambda on [-4, 4].

Each law has one array pdf and one array cdf (``density_on_array``,
``cdf_on_sorted``).  The Gaussian and rank-2 CDFs are closed forms; the
elliptic law's CDF is two convergent power series, summed elementwise, and
its density is the same pair differentiated term by term.  The
module holds only what the subcommands evaluate, and the one-point cases
``density_eval`` and ``cdf_eval``, which the benchmark's tracer wraps by
name (bench/spans.py); the test suite integrates the densities with its
own oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import erfc

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.frompyfunc(erfc, 1, 1)  # elementwise, with the bits of math.erfc
# lambda with |1 - 2 lambda| below this is evaluated with the lambda = 1/2
# limit: the generic branch keeps a 0/0 cancellation of order eps/delta^2 in
# delta = 1 - 2 lambda, and the limit is off by order delta^2; both are
# about 5e-9 here
_RANK2_HALF_EPS = 2e-4

GAUSS_WIDTH = "gauss_width"
RANK2 = "rank2"
PT_EIGS = "pt_eigs"


@dataclass(frozen=True)
class AnalyticDensity:
    """A named closed-form density with its parameters."""

    kind: str
    lam: float | None = None
    k: float | None = None

    def __post_init__(self) -> None:
        if self.kind == RANK2:
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ValueError(f"rank2 density needs lambda in (0, 1), got {self.lam}")
        elif self.kind == GAUSS_WIDTH:
            if self.k is None or self.k <= 0:
                raise ValueError(f"gauss_width density needs k > 0, got {self.k}")
        elif self.kind != PT_EIGS:
            raise ValueError(f"unknown density kind {self.kind!r}")


def gauss_width(k: float) -> AnalyticDensity:
    """Gaussian of mean 1 and variance 1/k (k need not be an integer; an
    m-fold mixture measured with a rank-k witness has k_eff = m k)."""
    return AnalyticDensity(GAUSS_WIDTH, k=float(k))


def rank2(lam: float) -> AnalyticDensity:
    return AnalyticDensity(RANK2, lam=float(lam))


def pt_eigs() -> AnalyticDensity:
    return AnalyticDensity(PT_EIGS)


def _four_s_minus_two(lam: float, s: float) -> float:
    """4s - 2 for s = sqrt(lam (1 - lam)), without cancellation: with
    delta = 1 - 2 lam, 2s = sqrt(1 - delta^2), so 4s - 2 equals
    -2 delta^2 / (1 + 2s)."""
    return -2.0 * (1.0 - 2.0 * lam) ** 2 / (1.0 + 2.0 * s)


def _rank2_pdf(lam: float, w: np.ndarray) -> np.ndarray:
    # each branch sees only its own side of 0, so the unused one cannot overflow
    neg, pos = np.minimum(w, 0.0), np.maximum(w, 0.0)
    if abs(1.0 - 2.0 * lam) < _RANK2_HALF_EPS:
        right = (1.0 + 4.0 * pos + 8.0 * pos * pos) * np.exp(-2.0 * pos) / 4.0
        return np.where(w < 0.0, np.exp(2.0 * neg) / 4.0, right)
    s = math.sqrt(lam * (1.0 - lam))
    right = (lam * np.exp(-pos / lam) + (1.0 - lam) * np.exp(-pos / (1.0 - lam))) / (1.0 - 2.0 * lam) ** 2
    right += np.exp(-pos / s) / _four_s_minus_two(lam, s)
    return np.where(w < 0.0, np.exp(neg / s) / (4.0 * s + 2.0), right)


def _rank2_cdf(lam: float, w: np.ndarray) -> np.ndarray:
    neg, pos = np.minimum(w, 0.0), np.maximum(w, 0.0)
    if abs(1.0 - 2.0 * lam) < _RANK2_HALF_EPS:
        right = 1.0 - np.exp(-2.0 * pos) * (8.0 * pos * pos + 12.0 * pos + 7.0) / 8.0
        return np.where(w < 0.0, np.exp(2.0 * neg) / 8.0, right)
    s = math.sqrt(lam * (1.0 - lam))
    neg_mass = s / (4.0 * s + 2.0)
    right = (
        lam**2 * (1.0 - np.exp(-pos / lam)) + (1.0 - lam) ** 2 * (1.0 - np.exp(-pos / (1.0 - lam)))
    ) / (1.0 - 2.0 * lam) ** 2
    right += s / _four_s_minus_two(lam, s) * (1.0 - np.exp(-pos / s))
    return np.where(w < 0.0, neg_mass * np.exp(neg / s), neg_mass + right)


def _pt_cdf_series() -> tuple[list[float], list[float], list[float]]:
    """Coefficients (c, b, g) of the two series of G(k) = int_0^{4k} p, the
    mass of the elliptic law on [0, 4k], k in [0, 1]:

        G = k [ln(1/k) sum_j c_j k^2j + sum_j b_j k^2j]   (k^2 <= 1/2)
        G = 1/2 - m sum_n g_n m^n, m = 1 - k^2            (k^2 > 1/2)

    With y = 4t, G = (8/pi^2) int_0^k [(1 + t^2) K(1 - t^2) - 2 E(1 - t^2)] dt.
    The first series integrates, term by term, the expansions of K and E
    about parameter 1 (DLMF 19.12.1-2), with a_n = (1/2)_n / n! and
    d_n = psi(n + 1) - psi(n + 1/2).  The second integrates their Maclaurin
    series (DLMF 19.5.1-2) times dt = -dm / (2 sqrt(1 - m)), whose series has
    the coefficients a_n again.  At k^2 = 1/2 the terms past the 50th add
    less than 2e-18 to either series."""
    n_terms = 50
    a = [1.0]
    d = [2.0 * math.log(2.0)]
    for n in range(1, n_terms):
        a.append(a[-1] * (n - 0.5) / n)
        d.append(d[-1] + 1.0 / n - 1.0 / (n - 0.5))
    # coefficients of t^2j ln(1/t) (alpha) and t^2j (beta) in (1 + t^2) K - 2 E
    alpha = [1.0] + [(a[j - 1] - a[j]) ** 2 for j in range(1, n_terms)]
    beta = [d[0] - 2.0] + [
        a[j] ** 2 * d[j] + a[j - 1] ** 2 * d[j - 1] - 2.0 * a[j - 1] * a[j] * (d[j - 1] - 1.0 / ((2 * j - 1) * 2 * j))
        for j in range(1, n_terms)
    ]
    scale = 8.0 / math.pi**2
    c = [scale * alpha[j] / (2 * j + 1) for j in range(n_terms)]
    b = [scale * (alpha[j] / (2 * j + 1) + beta[j]) / (2 * j + 1) for j in range(n_terms)]
    # coefficients of m^n in ((1 + t^2) K - 2 E) / (pi / 2), then times 1 / sqrt(1 - m)
    gamma = [0.0] + [4 * n * a[n] ** 2 / (2 * n - 1) - a[n - 1] ** 2 for n in range(1, n_terms)]
    e = [sum(gamma[i] * a[n - i] for i in range(n + 1)) for n in range(n_terms)]
    g = [2.0 / math.pi * e[n] / (n + 1) for n in range(n_terms)]
    return c, b, g


_PT_C, _PT_B, _PT_G = _pt_cdf_series()
# the density p(y) = G'(k) / 4 differentiates both series term by term:
# G' = ln(1/k) sum_j (2j+1) c_j k^2j + sum_j ((2j+1) b_j - c_j) k^2j below
# the split, k sum_n 2(n+1) g_n m^n above it
_PT_DC = [(2 * j + 1) * c for j, c in enumerate(_PT_C)]
_PT_DB = [(2 * j + 1) * b - c for j, (b, c) in enumerate(zip(_PT_B, _PT_C))]
_PT_DG = [2 * (n + 1) * g for n, g in enumerate(_PT_G)]


def _horner(coefs: list[float], x: np.ndarray) -> np.ndarray:
    """sum_n coefs[n] x^n by Horner's rule, elementwise.  numpy's ``polyval``
    gives the same bits on every series, but importing ``numpy.polynomial``
    costs 3-5 ms on a 2-core Xeon, about 15% of a 32 x 32 ``ptspec`` run."""
    out = np.full_like(x, coefs[-1])
    for coef in coefs[-2::-1]:
        out *= x
        out += coef
    return out


def _pt_variables(ys: np.ndarray):
    """(k, k^2, m = 1 - k^2, ln(1/k)) at k = min(|y|, 4) / 4, elementwise;
    k = 0 takes the log of the smallest normal double, where k ln(1/k) is 0."""
    k = np.minimum(np.abs(ys), 4.0) / 4.0
    return k, k * k, (1.0 - k) * (1.0 + k), -np.log(np.maximum(k, np.finfo(float).tiny))


def _pt_pdf(ys: np.ndarray) -> np.ndarray:
    """Elliptic law of y = N*lambda, G'(k) / 4; 0 at and beyond |y| = 4,
    where m = 0 and g_0 = 0."""
    k, k2, m, log_inv_k = _pt_variables(ys)
    near_zero = log_inv_k * _horner(_PT_DC, k2) + _horner(_PT_DB, k2)
    return np.where(k2 <= 0.5, near_zero, k * _horner(_PT_DG, m)) / 4.0


def density_on_array(d: AnalyticDensity, xs) -> np.ndarray:
    """Density at an array of points, elementwise, so each point gets the
    bits it gets alone; zero outside the support.  Far tails underflow to 0
    without a floating-point warning."""
    xs = np.asarray(xs, dtype=float)
    if d.kind == PT_EIGS:
        return _pt_pdf(xs)
    with np.errstate(under="ignore"):
        if d.kind == GAUSS_WIDTH:
            return math.sqrt(d.k) / _SQRT_2PI * np.exp(-0.5 * d.k * (xs - 1.0) ** 2)
        return _rank2_pdf(d.lam, xs)


def density_eval(d: AnalyticDensity, x: float) -> float:
    """Density at one point: the one-point case of ``density_on_array``."""
    return float(density_on_array(d, [x])[0])


def cdf_on_sorted(d: AnalyticDensity, xs: np.ndarray) -> np.ndarray:
    """CDF at an array of points, elementwise, so each point gets the bits
    ``cdf_eval`` gives it alone; the points need not be sorted.

    The PT law is even, so F(y) = 1/2 + sgn(y) G(k) with k = min(|y|, 4) / 4
    and G the series of ``_pt_cdf_series``; F is exactly 1/2 at 0, where
    G = 0, and 0 and 1 at and beyond -4 and 4, where G = 1/2."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(under="ignore"):
        if d.kind == GAUSS_WIDTH:
            return 0.5 * _erfc((1.0 - xs) * math.sqrt(d.k / 2.0)).astype(float)
        if d.kind == RANK2:
            return _rank2_cdf(d.lam, xs)
    k, k2, m, log_inv_k = _pt_variables(xs)
    near_zero = k * (log_inv_k * _horner(_PT_C, k2) + _horner(_PT_B, k2))
    return 0.5 + np.sign(xs) * np.where(k2 <= 0.5, near_zero, 0.5 - m * _horner(_PT_G, m))


def cdf_eval(d: AnalyticDensity, x: float) -> float:
    """CDF at one point: the one-point case of ``cdf_on_sorted``."""
    return float(cdf_on_sorted(d, np.array([x], dtype=float))[0])


def detection_probability(d: AnalyticDensity) -> float:
    """Closed-form probability mass below zero, i.e. the chance that one
    measurement of w on a random state certifies entanglement."""
    if d.kind == GAUSS_WIDTH:
        return 0.5 * erfc(math.sqrt(d.k / 2.0))
    if d.kind == RANK2:
        return 1.0 / (4.0 + 2.0 / math.sqrt(d.lam * (1.0 - d.lam)))
    raise ValueError(f"no negative-tail semantics for density kind {d.kind!r}")
