import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from witness_lab import analytic
from witness_lab.analytic import (
    cdf_eval,
    cdf_on_sorted,
    density_eval,
    density_on_array,
    detection_probability,
    detection_probability_asymptotic,
    gauss_width,
    marcenko_pastur,
    pt_eigs,
    rank2,
)
from witness_lab.ensemble import ks_statistic

from conftest import law_interval, rank2_overlap_distribution, rng, total_mass

# gauss_width(1) carries the id of the former gauss_unit case, so the test
# ids stay stable
ALL_KINDS = [
    pytest.param(gauss_width(1.0), id="gauss_unit-None-None"),
    gauss_width(4),
    gauss_width(16),
    rank2(0.5),
    rank2(1 / 26),
    rank2(0.12),
    pt_eigs(),
    marcenko_pastur(),
]


class TestDensities:
    def test_gauss_unit_peak(self):
        assert density_eval(gauss_width(1.0), 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_rank2_half_branches(self):
        d = rank2(0.5)
        for w in (-2.0, -0.3):
            assert density_eval(d, w) == pytest.approx(math.exp(2 * w) / 4, abs=1e-12)
        for w in (0.4, 2.2):
            expected = (1 + 4 * w + 8 * w * w) * math.exp(-2 * w) / 4
            assert density_eval(d, w) == pytest.approx(expected, abs=1e-12)

    def test_rank2_continuity_at_zero(self):
        for lam in (0.5, 1 / 26, 0.31):
            left = density_eval(rank2(lam), -1e-9)
            right = density_eval(rank2(lam), 1e-9)
            assert abs(left - right) < 1e-6

    # position ids as when ALL_KINDS listed rank2(0.5) twice, so the ids of
    # pt_eigs (d7) and marcenko_pastur (d8) stay stable
    @pytest.mark.parametrize("d", ALL_KINDS, ids=[None, "d1", "d2", "d3", "d4", "d5", "d7", "d8"])
    def test_array_density_equals_pointwise_bit_for_bit(self, d):
        # the overlays are one array call; their CSVs must keep the bits of
        # one density_eval per bin centre, and the KS the bits of cdf_eval
        xs = np.concatenate([np.linspace(-4.5, 4.5, 91), [-4.0, 0.0, 4.0, 1e-300]])
        assert density_on_array(d, xs).tolist() == [density_eval(d, float(x)) for x in xs]
        xs = np.sort(xs)
        pointwise = [cdf_eval(d, float(x)) for x in xs]
        assert cdf_on_sorted(d, xs).tolist() == pointwise
        if d.kind == analytic.PT_EIGS:
            assert {cdf_eval(d, x) for x in xs if x <= -4.0} == {0.0}
            assert {cdf_eval(d, x) for x in xs if x >= 4.0} == {1.0}

    @pytest.mark.parametrize("d", [rank2(0.3), rank2(0.5), gauss_width(1.0)], ids=["rank2-0.3", "rank2-0.5", "gauss"])
    def test_closed_forms_raise_no_floating_point_warning_far_out(self, d):
        # each rank-2 branch is evaluated on its own side of 0, so the unused
        # one cannot overflow; far tails underflow to 0 quietly
        xs = np.array([-1e4, 1e4])
        with np.errstate(all="raise"):
            pdf = density_on_array(d, xs)
            cdf = cdf_on_sorted(d, xs)
            points = [density_eval(d, x) for x in xs] + [cdf_eval(d, x) for x in xs]
        assert pdf.tolist() == [0.0, 0.0] and points[:2] == [0.0, 0.0]
        np.testing.assert_allclose(cdf, [0.0, 1.0], rtol=0, atol=1e-15)
        assert points[2:] == cdf.tolist()

    def test_pt_eigs_finite_at_zero_and_even(self):
        d = pt_eigs()
        mid = density_eval(d, 0.0)
        assert math.isfinite(mid)
        assert mid > 0
        for y in (0.3, 1.5, 3.9):
            assert density_eval(d, y) == pytest.approx(density_eval(d, -y), abs=1e-14)
        assert density_eval(d, 4.2) == 0.0
        assert density_eval(d, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_marcenko_pastur_midpoint(self):
        # sqrt(tau (4 - tau)) / (2 pi tau) at tau = 2 is 1/(2 pi)
        assert density_eval(marcenko_pastur(), 2.0) == pytest.approx(1 / (2 * math.pi), abs=1e-14)
        assert density_eval(marcenko_pastur(), -0.5) == 0.0
        assert density_eval(marcenko_pastur(), 5.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            rank2(0.0)
        with pytest.raises(ValueError):
            rank2(1.0)
        with pytest.raises(ValueError):
            gauss_width(0)

    @pytest.mark.parametrize("dens", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.lam}-{d.k}")
    def test_normalization(self, dens):
        assert total_mass(dens) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dens", ALL_KINDS, ids=lambda d: f"{d.kind}-{d.lam}-{d.k}")
    def test_nonnegative_on_support(self, dens):
        lo, hi = law_interval(dens)
        for x in np.linspace(lo, hi, 201):
            assert density_eval(dens, float(x)) >= 0.0

    def test_gauss_width_second_moment(self):
        for k in (4.0, 16.0):
            d = gauss_width(k)
            lo, hi = law_interval(d)
            from witness_lab.quadrature import integrate

            m2 = integrate(lambda x: (x - 1.0) ** 2 * density_eval(d, x), lo, hi)
            assert m2 == pytest.approx(1.0 / k, abs=1e-9)


class TestCdf:
    def test_gauss_matches_scipy(self):
        d = gauss_width(1.0)
        for x in (-2.0, 0.0, 1.0, 3.5):
            assert cdf_eval(d, x) == pytest.approx(sp_special.ndtr(x - 1.0), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1 / 26, 0.37])
    def test_rank2_cdf_matches_quadrature(self, lam):
        d = rank2(lam)
        for x in (-1.0, -0.1, 0.0, 0.5, 2.0):
            pts = [0.0] if x > 0 else None
            oracle, err = sp_integrate.quad(lambda t: density_eval(d, t), -30.0, x, limit=200, points=pts)
            assert err < 1e-6
            assert cdf_eval(d, x) == pytest.approx(oracle, abs=1e-7)

    def test_pt_eigs_cdf_symmetry(self):
        d = pt_eigs()
        assert cdf_eval(d, 0.0) == pytest.approx(0.5, abs=1e-7)
        assert cdf_eval(d, -4.0) == 0.0
        assert cdf_eval(d, 4.0) == 1.0
        xs = np.array([-3.0, -1.0, 0.5, 2.0])
        vals = cdf_on_sorted(d, xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(cdf_eval(d, float(x)), abs=1e-7)

    def test_pt_eigs_mass_near_zero_is_kept(self):
        # the log peak at y = 0 keeps its mass only if K is evaluated from
        # |y|/4 itself: the parameter 1 - y^2/16 drops the low bits of
        # y^2/16 and rounds to 1 for |y| below 3e-8
        d = pt_eigs()
        assert abs(total_mass(d) - 1.0) < 1e-9
        assert abs(cdf_eval(d, 0.0) - 0.5) < 1e-9


def _rank2_oracle(lam: float, w: float) -> tuple[Decimal, Decimal]:
    """Rank-2 density and CDF from the generic closed form in 50-digit
    decimal arithmetic, where the 1/(1 - 2 lam)^2 cancellation is harmless."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam, w, one = Decimal(lam), Decimal(w), Decimal(1)
        s = (lam * (one - lam)).sqrt()
        neg_mass = s / (4 * s + 2)
        if w < 0:
            return (w / s).exp() / (4 * s + 2), neg_mass * (w / s).exp()
        e_lam, e_mu, e_s = (-w / lam).exp(), (-w / (one - lam)).exp(), (-w / s).exp()
        d2 = (one - 2 * lam) ** 2
        pdf = (lam * e_lam + (one - lam) * e_mu) / d2 + e_s / (4 * s - 2)
        cdf = neg_mass + (lam**2 * (one - e_lam) + (one - lam) ** 2 * (one - e_mu)) / d2
        return pdf, cdf + s / (4 * s - 2) * (one - e_s)


def test_rank2_accurate_as_lambda_approaches_half():
    # delta = 1 - 2 lambda from 1e-1 down to 1e-8, on both sides of 1/2
    worst = 0.0
    for delta in 10.0 ** -np.arange(1.0, 8.01, 0.25):
        for lam in ((1.0 - delta) / 2, (1.0 + delta) / 2):
            d = rank2(lam)
            for w in (-3.0, -0.5, -1e-3, 0.0, 1e-3, 0.05, 0.3, 1.0, 2.5, 6.0, 15.0):
                pdf, cdf = _rank2_oracle(lam, w)
                worst = max(worst, abs(float(Decimal(density_eval(d, w)) - pdf)))
                worst = max(worst, abs(float(Decimal(cdf_eval(d, w)) - cdf)))
    assert worst <= 1e-8


class TestDetectionProbability:
    def test_gauss_unit_value(self):
        p = detection_probability(gauss_width(1.0))
        assert p == pytest.approx(0.15865525393145707, abs=1e-12)
        assert round(p, 3) == 0.159

    def test_rank2_balanced(self):
        assert detection_probability(rank2(0.5)) == pytest.approx(1 / 8, abs=1e-12)

    def test_rank2_small_lambda(self):
        assert detection_probability(rank2(1 / 26)) == pytest.approx(5 / 72, abs=1e-12)

    def test_gauss_width_four(self):
        # frozen from the scipy erfc oracle
        assert detection_probability(gauss_width(4)) == pytest.approx(0.022750131948179195, abs=1e-12)

    def test_maximized_at_balanced_lambda(self):
        grid = np.arange(0.05, 0.951, 0.05)
        probs = [detection_probability(rank2(float(lam))) for lam in grid]
        assert np.argmax(probs) == np.argmin(np.abs(grid - 0.5))

    def test_spectral_laws_have_no_tail_semantics(self):
        with pytest.raises(ValueError):
            detection_probability(pt_eigs())
        with pytest.raises(ValueError):
            detection_probability(marcenko_pastur())


class TestAsymptoticDecay:
    def test_m_one_value(self):
        assert detection_probability_asymptotic(1) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15
        )
        assert detection_probability_asymptotic(1) == pytest.approx(0.2420, abs=5e-5)

    def test_ratio_to_exact_at_m_nine(self):
        exact = detection_probability(gauss_width(9))
        ratio = detection_probability_asymptotic(9) / exact
        assert 0.9 < ratio < 1.2

    def test_log_slope_approaches_minus_half(self):
        # d log P / dm of the exact erfc form tends to -1/2
        ms = np.arange(200, 211)
        logs = [math.log(detection_probability(gauss_width(int(m)))) for m in ms]
        slope = np.polyfit(ms, logs, 1)[0]
        assert abs(slope + 0.5) < 0.005

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            detection_probability_asymptotic(0)


class TestConvolutionOracle:
    def test_balanced_matches_closed_form(self):
        dist = rank2_overlap_distribution(0.5, 1_000_000, rng(40))
        ks = ks_statistic(dist.samples, lambda xs: cdf_on_sorted(rank2(0.5), xs))
        assert ks < 0.005

    def test_small_lambda_detection_probability(self):
        dist = rank2_overlap_distribution(1 / 26, 200_000, rng(41))
        se = math.sqrt((5 / 72) * (1 - 5 / 72) / dist.sample_count)
        assert abs(dist.neg_tail - 5 / 72) < 3 * se

    def test_near_product_limit_has_tiny_negative_mass(self):
        dist = rank2_overlap_distribution(1e-3, 100_000, rng(42))
        assert dist.neg_tail < 0.02
