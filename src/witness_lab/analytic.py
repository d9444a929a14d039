"""Closed-form densities and detection probabilities for the witness
statistic w and for partial-transpose spectra.

These are the ground truth that the Monte Carlo ensembles are checked
against: the unit Gaussian for full-Schmidt-rank witnesses, its 1/k-width
version for rank-k witnesses and m-fold mixtures, the two-branch exponential
mixture for Schmidt-rank-2 witnesses, the elliptic-integral law for scaled
partial-transpose eigenvalues y = N*lambda on [-4, 4], and the
Marcenko-Pastur law for scaled reduced-density eigenvalues tau = N*mu^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .special import _agm_ke, erfc

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# lambda with |1 - 2 lambda| below this is evaluated with the lambda = 1/2
# limit: the generic branch keeps a 0/0 cancellation of order eps/delta^2 in
# delta = 1 - 2 lambda, and the limit is off by order delta^2; both are
# about 5e-9 here
_RANK2_HALF_EPS = 2e-4

GAUSS_WIDTH = "gauss_width"
RANK2 = "rank2"
PT_EIGS = "pt_eigs"
MARCENKO_PASTUR = "marcenko_pastur"


@dataclass(frozen=True)
class AnalyticDensity:
    """A named closed-form density with its parameters.

    ``support`` is the exact support; ``quad_support`` is a finite interval
    carrying all but a negligible (< 1e-15) tail mass, used for quadrature.
    """

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
        elif self.kind not in (PT_EIGS, MARCENKO_PASTUR):
            raise ValueError(f"unknown density kind {self.kind!r}")

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == PT_EIGS:
            return (-4.0, 4.0)
        if self.kind == MARCENKO_PASTUR:
            return (0.0, 4.0)
        return (-math.inf, math.inf)

    @property
    def quad_support(self) -> tuple[float, float]:
        if self.kind == GAUSS_WIDTH:
            half = 12.0 / math.sqrt(self.k)
            return (1.0 - half, 1.0 + half)
        if self.kind == RANK2:
            return (-25.0, 45.0)
        return self.support

    @property
    def singular_points(self) -> tuple[float, ...]:
        if self.kind in (PT_EIGS, MARCENKO_PASTUR):
            return (0.0,)
        return ()


def gauss_unit() -> AnalyticDensity:
    return gauss_width(1.0)


def gauss_width(k: float) -> AnalyticDensity:
    """Gaussian of mean 1 and variance 1/k (k need not be an integer; an
    m-fold mixture measured with a rank-k witness has k_eff = m k)."""
    return AnalyticDensity(GAUSS_WIDTH, k=float(k))


def rank2(lam: float) -> AnalyticDensity:
    return AnalyticDensity(RANK2, lam=float(lam))


def rank2_half() -> AnalyticDensity:
    return rank2(0.5)


def pt_eigs() -> AnalyticDensity:
    return AnalyticDensity(PT_EIGS)


def marcenko_pastur() -> AnalyticDensity:
    return AnalyticDensity(MARCENKO_PASTUR)


def _rank2_half_pdf(w: float) -> float:
    if w < 0.0:
        return math.exp(2.0 * w) / 4.0
    return (1.0 + 4.0 * w + 8.0 * w * w) * math.exp(-2.0 * w) / 4.0


def _four_s_minus_two(lam: float, s: float) -> float:
    """4s - 2 for s = sqrt(lam (1 - lam)), without cancellation: with
    delta = 1 - 2 lam, 2s = sqrt(1 - delta^2), so 4s - 2 equals
    -2 delta^2 / (1 + 2s)."""
    return -2.0 * (1.0 - 2.0 * lam) ** 2 / (1.0 + 2.0 * s)


def _rank2_pdf(lam: float, w: float) -> float:
    if abs(1.0 - 2.0 * lam) < _RANK2_HALF_EPS:
        return _rank2_half_pdf(w)
    s = math.sqrt(lam * (1.0 - lam))
    if w < 0.0:
        return math.exp(w / s) / (4.0 * s + 2.0)
    a = (lam * math.exp(-w / lam) + (1.0 - lam) * math.exp(-w / (1.0 - lam))) / (1.0 - 2.0 * lam) ** 2
    return a + math.exp(-w / s) / _four_s_minus_two(lam, s)


def _pt_eigs_pdf(y):
    """Elliptic-integral law of y = N*lambda; acts elementwise on arrays."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) <= 4.0
    # the elliptic parameter is 1 - y^2/16, so the AGM starts from |y|/4
    # exactly; y = 0, where K has an integrable log divergence, is moved to
    # the smallest normal double to keep the value finite
    b0 = np.where(inside, np.maximum(np.abs(y) / 4.0, np.finfo(float).tiny), 1.0)
    big_k, big_e = _agm_ke(b0)
    val = ((16.0 + y * y) * big_k - 32.0 * big_e) / (8.0 * math.pi**2)
    return np.where(inside, np.maximum(val, 0.0), 0.0)


def _marcenko_pastur_pdf(tau):
    """Marcenko-Pastur law of tau = N*mu^2; acts elementwise on arrays."""
    tau = np.asarray(tau, dtype=float)
    inside = (0.0 < tau) & (tau <= 4.0)
    t = np.where(inside, tau, 1.0)
    return np.where(inside, np.sqrt(t * (4.0 - t)) / (2.0 * math.pi * t), 0.0)


def density_eval(d: AnalyticDensity, x: float) -> float:
    """Pointwise density value; zero outside the support."""
    x = float(x)
    if d.kind == GAUSS_WIDTH:
        return math.sqrt(d.k) / _SQRT_2PI * math.exp(-0.5 * d.k * (x - 1.0) ** 2)
    if d.kind == RANK2:
        return _rank2_pdf(d.lam, x)
    if d.kind == PT_EIGS:
        return float(_pt_eigs_pdf(x))
    return float(_marcenko_pastur_pdf(x))


def _rank2_cdf(lam: float, w: float) -> float:
    if abs(1.0 - 2.0 * lam) < _RANK2_HALF_EPS:
        if w < 0.0:
            return math.exp(2.0 * w) / 8.0
        return 1.0 - math.exp(-2.0 * w) * (8.0 * w * w + 12.0 * w + 7.0) / 8.0
    s = math.sqrt(lam * (1.0 - lam))
    neg_mass = s / (4.0 * s + 2.0)
    if w < 0.0:
        return neg_mass * math.exp(w / s)
    pos = (
        lam**2 * (1.0 - math.exp(-w / lam)) + (1.0 - lam) ** 2 * (1.0 - math.exp(-w / (1.0 - lam)))
    ) / (1.0 - 2.0 * lam) ** 2
    pos += s / _four_s_minus_two(lam, s) * (1.0 - math.exp(-w / s))
    return neg_mass + pos


def cdf_eval(d: AnalyticDensity, x: float) -> float:
    """Cumulative distribution; closed form where available, adaptive
    quadrature for the compactly supported spectral laws."""
    x = float(x)
    if d.kind == GAUSS_WIDTH:
        return 0.5 * erfc((1.0 - x) * math.sqrt(d.k / 2.0))
    if d.kind == RANK2:
        return _rank2_cdf(d.lam, x)
    lo, hi = d.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return quadrature.integrate(
        lambda t: density_eval(d, t), lo, x, singularities=d.singular_points
    )


def cdf_on_sorted(d: AnalyticDensity, xs: np.ndarray) -> np.ndarray:
    """CDF at an ascending array of points; one cumulative quadrature sweep
    for the spectral laws instead of one integral per point."""
    xs = np.asarray(xs, dtype=float)
    if d.kind in (GAUSS_WIDTH, RANK2):
        return np.array([cdf_eval(d, float(x)) for x in xs])
    lo, hi = d.support
    clipped = np.clip(xs, lo, hi)
    pdf = _pt_eigs_pdf if d.kind == PT_EIGS else _marcenko_pastur_pdf
    return quadrature.cumulative(pdf, lo, clipped, singularities=d.singular_points)


def integral_over_support(d: AnalyticDensity) -> float:
    lo, hi = d.quad_support
    return quadrature.integrate(lambda t: density_eval(d, t), lo, hi, singularities=d.singular_points)


def detection_probability(d: AnalyticDensity) -> float:
    """Closed-form probability mass below zero, i.e. the chance that one
    measurement of w on a random state certifies entanglement."""
    if d.kind == GAUSS_WIDTH:
        return 0.5 * erfc(math.sqrt(d.k / 2.0))
    if d.kind == RANK2:
        return 1.0 / (4.0 + 2.0 / math.sqrt(d.lam * (1.0 - d.lam)))
    raise ValueError(f"no negative-tail semantics for density kind {d.kind!r}")


def detection_probability_asymptotic(m: int) -> float:
    """Large-m tail approximation exp(-m/2)/sqrt(2 pi m) of the exact
    erfc form for an m-component mixture."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.exp(-m / 2.0) / math.sqrt(2.0 * math.pi * m)


def rank2_density_convolution_oracle(lam: float, samples: int, rng: np.random.Generator):
    """Empirical distribution of w sampled from the two-eigenvalue overlap
    model (exponential magnitudes, uniform phases).  Entirely bypasses the
    quantum state sampler, so it validates the rank-2 closed form and the
    simulator against each other."""
    from .ensemble import empirical_from_samples
    from .witness import sample_w_overlap_model

    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    return empirical_from_samples(sample_w_overlap_model(np.array([lam, 1.0 - lam]), rng, size=samples))
