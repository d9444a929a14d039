"""Special functions and quadrature against independent oracles (scipy and
direct integration of the defining integrals)."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from witness_lab import analytic, quadrature, special
from witness_lab.quadrature import cumulative, integrate
from witness_lab.special import elliptic_ke, erf, erfc


def test_erf_zero_and_symmetry():
    assert erf(0.0) == 0.0
    for x in (0.3, 1.0, 2.5, 4.0, 5.7):
        assert erf(-x) == -erf(x)


def test_erf_against_scipy_grid():
    xs = np.linspace(-6.0, 6.0, 1201)
    worst = max(abs(erf(float(x)) - float(sp_special.erf(x))) for x in xs)
    assert worst < 1e-12


def test_erf_value_against_quadrature_oracle():
    # independent oracle: integrate the defining Gaussian directly
    target = 1.0 / math.sqrt(2.0)
    oracle, err = sp_integrate.quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, target)
    assert err < 1e-12
    assert abs(oracle - 0.6826894921370859) < 1e-12  # frozen from the oracle
    assert abs(erf(target) - oracle) < 1e-12


def test_erfc_tail_accuracy():
    for x in (2.0, 3.0, 5.0, 8.0):
        rel = abs(erfc(x) - float(sp_special.erfc(x))) / float(sp_special.erfc(x))
        assert rel < 1e-12


def test_elliptic_endpoints():
    k0, e0 = elliptic_ke(0.0)
    assert k0 == pytest.approx(math.pi / 2, abs=1e-15)
    assert e0 == pytest.approx(math.pi / 2, abs=1e-15)
    k1, e1 = elliptic_ke(1.0)
    assert math.isinf(k1)
    assert e1 == 1.0


def test_elliptic_out_of_range_rejected():
    with pytest.raises(ValueError):
        elliptic_ke(-0.1)
    with pytest.raises(ValueError):
        elliptic_ke(1.1)


def test_elliptic_half_against_defining_integrals():
    k, e = elliptic_ke(0.5)
    k_oracle, _ = sp_integrate.quad(lambda th: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(th) ** 2), 0.0, math.pi / 2)
    e_oracle, _ = sp_integrate.quad(lambda th: math.sqrt(1.0 - 0.5 * math.sin(th) ** 2), 0.0, math.pi / 2)
    assert abs(k - k_oracle) < 1e-9
    assert abs(e - e_oracle) < 1e-9
    # frozen oracle values
    assert k == pytest.approx(1.8540746773013719, abs=1e-12)
    assert e == pytest.approx(1.3506438810476755, abs=1e-12)


def test_elliptic_relative_error_near_one():
    for m in (0.9, 0.99, 0.999999, 1.0 - 1e-12):
        k, e = elliptic_ke(m)
        assert abs(k - sp_special.ellipk(m)) / sp_special.ellipk(m) < 1e-10
        assert abs(e - sp_special.ellipe(m)) / sp_special.ellipe(m) < 1e-10


def test_elliptic_agm_stops_within_ten_steps_near_one(monkeypatch):
    # the AGM stops at machine epsilon: ten steps suffice down to m = 1 - 1e-16
    # (it raises if any element is still iterating), and E no longer picks up
    # rounding from steps spent in a 1-ulp oscillation of a and b
    ms = np.concatenate([np.linspace(0.0, 1.0, 201)[1:-1], 1.0 - 10.0 ** -np.arange(1, 17)])
    assert 1.0 - 1e-12 in ms and 1.0 - 1e-16 in ms
    monkeypatch.setattr(special, "_MAX_AGM_STEPS", 10)
    k, e = elliptic_ke(ms)
    assert np.max(np.abs(k - sp_special.ellipk(ms)) / sp_special.ellipk(ms)) < 4e-15
    assert np.max(np.abs(e - sp_special.ellipe(ms)) / sp_special.ellipe(ms)) < 4e-15


def test_elliptic_array_matches_scalar_calls():
    ms = np.concatenate([[0.0, 1.0, 1e-300, 0.5, 1.0 - 1e-16], np.random.default_rng(5).uniform(0, 1, 200)])
    k, e = elliptic_ke(ms.reshape(5, 41))
    assert k.shape == e.shape == (5, 41)
    scalar = [elliptic_ke(float(m)) for m in ms]
    assert np.array_equal(k.ravel(), [v[0] for v in scalar])
    assert np.array_equal(e.ravel(), [v[1] for v in scalar])
    assert k[0, 0] == e[0, 0] == math.pi / 2
    assert math.isinf(k[0, 1]) and e[0, 1] == 1.0
    with pytest.raises(ValueError):
        elliptic_ke(np.array([0.2, 1.0 + 1e-12]))
    with pytest.raises(ValueError):
        elliptic_ke(np.array([-1e-300, 0.5]))


def test_quadrature_polynomial_exact():
    # antiderivative x^4/4 - x^2 + x gives 2 - (-7/4) = 3.75
    assert integrate(lambda x: x**3 - 2 * x + 1, -1.0, 2.0) == pytest.approx(3.75, abs=1e-12)


def test_quadrature_gaussian():
    val = integrate(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -10.0, 10.0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_quadrature_log_singularity():
    val = integrate(lambda x: math.log(1.0 / abs(x)), -1.0, 1.0, singularities=(0.0,))
    assert val == pytest.approx(2.0, abs=1e-7)


def test_cumulative_matches_point_integrals():
    points = [0.5, 1.0, 2.0]
    vals = cumulative(lambda x: x * x, 0.0, points)
    for x, v in zip(points, vals):
        assert v == pytest.approx(x**3 / 3, abs=1e-12)


def test_quadrature_raises_when_panel_cap_misses_tolerance(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(ArithmeticError, match="tol 1e-09"):
        integrate(lambda x: abs(x) ** -0.5, 0.0, 1.0)


def test_cumulative_rejects_descending_points():
    with pytest.raises(ValueError):
        cumulative(np.cos, 0.0, [0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        cumulative(np.cos, 0.0, [-0.1, 0.4])


def _running_integrals(f, start, points, singularities):
    """The gap-by-gap sum that ``cumulative`` reproduces: one scalar
    ``integrate`` per nonempty gap, added in order."""
    out, acc, prev = [], 0.0, start
    for x in points:
        if x > prev:
            inner = [s for s in singularities if prev < s < x]
            acc += integrate(f, prev, x, singularities=inner)
            prev = x
        out.append(acc)
    return np.array(out)


def test_pt_law_sweep_equals_per_gap_integrate_bit_for_bit():
    d = analytic.pt_eigs()
    xs = np.sort(
        np.concatenate(
            [
                np.random.default_rng(6).uniform(-3.9, 3.9, 300),
                [-4.3, -4.0, -4.0, -1e-7, 0.7, 0.7, 0.7, 3.999999, 4.0, 4.0, 4.5],
            ]
        )
    )
    got = analytic.cdf_on_sorted(d, xs)
    want = _running_integrals(lambda t: analytic.density_eval(d, t), -4.0, np.clip(xs, -4.0, 4.0), [0.0])
    assert np.array_equal(got, want)
    assert got[0] == got[1] == got[2] == 0.0 and got[-1] == got[-2] == got[-3]
    # one gap, from -1e-7 to 0.7, straddles the singular point
    assert np.sum((xs[:-1] < 0.0) & (xs[1:] > 0.0)) == 1


def test_mp_law_goes_through_the_array_path(monkeypatch):
    d = analytic.marcenko_pastur()
    xs = np.sort(np.concatenate([np.random.default_rng(7).uniform(-0.2, 4.2, 200), [0.0, 4.0, 4.0]]))
    want = _running_integrals(lambda t: analytic.density_eval(d, t), 0.0, np.clip(xs, 0.0, 4.0), [0.0])
    shapes = []
    pdf = analytic._marcenko_pastur_pdf

    def recording_pdf(tau):
        shapes.append(np.shape(tau))
        return pdf(tau)

    monkeypatch.setattr(analytic, "_marcenko_pastur_pdf", recording_pdf)
    monkeypatch.setattr(np, "vectorize", None)
    got = analytic.cdf_on_sorted(d, xs)
    assert np.array_equal(got, want)
    # one call on the 15 nodes of every nonempty gap; scalar calls only for
    # the gaps that refine (the 1/sqrt(tau) edge at 0, the edge at 4)
    assert shapes[0] == (15, np.count_nonzero(np.diff(np.clip(xs, 0.0, 4.0), prepend=0.0)))
    assert set(shapes[1:]) == {()}
