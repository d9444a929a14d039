"""Special functions and quadrature against independent oracles (scipy and
direct integration of the defining integrals)."""

import math
import warnings

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
    # split at the singular point: no Kronrod node lies on a panel's end
    val = sum(integrate(lambda x: math.log(1.0 / abs(x)), a, b) for a, b in ((-1.0, 0.0), (0.0, 1.0)))
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


def _running_integrals(f, start, points):
    """The gap-by-gap sum that ``cumulative`` reproduces: one scalar
    ``integrate`` per nonempty gap, added in order."""
    out, acc, prev = [], 0.0, start
    for x in points:
        if x > prev:
            acc += integrate(f, prev, x)
            prev = x
        out.append(acc)
    return np.array(out)


def test_pt_law_cdf_within_1e9_of_per_gap_integrate():
    # the contract of the quadrature sweep the series replaced: the law is
    # even, F(y) = 1/2 + sgn(y) * (running integral from 0 over the sorted
    # |y|), exactly 0 and 1 at and beyond -4 and 4
    d = analytic.pt_eigs()
    xs = np.sort(
        np.concatenate(
            [
                np.random.default_rng(6).uniform(-3.9, 3.9, 300),
                [-4.3, -4.0, -4.0, -0.7, -1e-7, 0.0, 0.7, 0.7, 0.7, 3.999999, 4.0, 4.0, 4.5],
            ]
        )
    )
    got = analytic.cdf_on_sorted(d, xs)
    half = np.minimum(np.abs(xs), 4.0)
    sweep = np.sort(half)
    running = _running_integrals(lambda t: analytic.density_eval(d, t), 0.0, sweep)
    want = 0.5 + np.sign(xs) * running[np.searchsorted(sweep, half)]
    want[xs <= -4.0] = 0.0
    want[xs >= 4.0] = 1.0
    assert np.abs(got - want).max() <= 1e-9
    assert got[0] == got[1] == got[2] == 0.0 and got[-1] == got[-2] == got[-3] == 1.0
    assert got[xs == 0.0] == 0.5


@pytest.mark.parametrize("y", [0.0, 1e-12, -1e-12, 1e-7, -1e-7, 3.999999, -3.999999, 4.0, -4.0, 4.5, -4.5])
def test_pt_law_cdf_against_scipy_quad(y):
    d = analytic.pt_eigs()
    pdf = lambda t: analytic.density_eval(d, t)  # noqa: E731
    if y <= -4.0:
        want = 0.0
    elif y >= 4.0:
        want = 1.0
    else:
        # from -4, in pieces that put the log peak at y = 0 on an endpoint
        cuts = [c for c in (-4.0, -1.0, -1e-3, 0.0, 1e-3, 1.0) if c < y] + [y]
        pieces = [sp_integrate.quad(pdf, a, b, limit=200, epsabs=1e-14, epsrel=1e-14) for a, b in zip(cuts, cuts[1:])]
        want = sum(val for val, _ in pieces)
        assert sum(err for _, err in pieces) < 1e-12
    xs = np.array([-5.0, y, 5.0])
    assert abs(analytic.cdf_on_sorted(d, xs)[1] - want) <= 1e-9
    assert abs(analytic.cdf_eval(d, y) - want) <= 1e-9


def test_pt_law_cdf_makes_no_quadrature_or_density_call(monkeypatch):
    d = analytic.pt_eigs()
    pos = np.random.default_rng(8).uniform(0.01, 3.99, 400)
    xs = np.sort(np.concatenate([pos, -pos, [-4.5, -4.0, 0.0, 4.0, 4.5]]))
    want = analytic.cdf_on_sorted(d, xs)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the PT-law CDF went through quadrature or the density")

    for name in ("cumulative", "integrate", "_adaptive", "_gk15"):
        monkeypatch.setattr(quadrature, name, no_quadrature)
    monkeypatch.setattr(analytic, "_pt_eigs_pdf", no_quadrature)
    assert np.array_equal(analytic.cdf_on_sorted(d, xs), want)
    assert analytic.cdf_eval(d, -4.0) == 0.0 and analytic.cdf_eval(d, 4.0) == 1.0


def test_pt_law_cdf_within_1e12_of_scipy_quad():
    d = analytic.pt_eigs()
    pdf = lambda t: analytic.density_eval(d, t)  # noqa: E731
    interior = [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 2.8, 3.0, 3.5, 3.9, 3.999999]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        oracle = [sp_integrate.quad(pdf, 0.0, y, limit=200, epsabs=1e-14, epsrel=1e-14) for y in interior]
    checked = [(y, val) for y, (val, err) in zip(interior, oracle) if err < 1e-13]
    assert len(checked) >= 8
    for y, val in checked:
        assert abs(analytic.cdf_eval(d, y) - (0.5 + val)) <= 1e-12
        assert abs(analytic.cdf_eval(d, -y) - (0.5 - val)) <= 1e-12


def test_pt_law_series_meet_at_the_split_and_cdf_is_nondecreasing():
    # G(k) = k [ln(1/k) C(k^2) + B(k^2)] for k^2 <= 1/2, 1/2 - m H(m) above
    for k in np.sqrt(0.5) + np.array([-1e-3, 0.0, 1e-3]):
        m = (1.0 - k) * (1.0 + k)
        near_zero = k * (-np.log(k) * analytic._horner(analytic._PT_C, k * k) + analytic._horner(analytic._PT_B, k * k))
        near_one = 0.5 - m * analytic._horner(analytic._PT_G, m)
        assert abs(near_zero - near_one) <= 1e-15
    ys = np.arange(-40_000, 40_001) * 1e-4
    cdf = analytic.cdf_on_sorted(analytic.pt_eigs(), ys)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] == 0.0 and cdf[40_000] == 0.5 and cdf[-1] == 1.0


def test_mp_law_goes_through_the_array_path(monkeypatch):
    d = analytic.marcenko_pastur()
    pdf = lambda t: analytic.density_eval(d, t)  # noqa: E731
    xs = np.sort(np.concatenate([np.random.default_rng(7).uniform(-0.2, 4.2, 200), [0.0, 4.0, 4.0]]))
    # the contract of the quadrature sweep this closed form replaced
    swept = _running_integrals(pdf, 0.0, np.clip(xs, 0.0, 4.0))
    interior = [1e-6, 1e-3, 0.3, 1.0, 2.0, 3.0, 3.9, 3.999999]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        oracle = [sp_integrate.quad(pdf, 0.0, x, limit=200, epsabs=1e-14, epsrel=1e-14) for x in interior]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the Marcenko-Pastur CDF went through quadrature")

    for name in ("cumulative", "integrate", "_adaptive", "_gk15"):
        monkeypatch.setattr(quadrature, name, no_quadrature)
    got = analytic.cdf_on_sorted(d, xs)
    assert np.abs(got - swept).max() <= 1e-9
    assert set(got[xs <= 0.0]) == {0.0} and set(got[xs >= 4.0]) == {1.0}
    assert analytic.cdf_eval(d, 4.0) == 1.0
    checked = [(x, val) for x, (val, err) in zip(interior, oracle) if err < 1e-13]
    assert len(checked) >= 6
    for x, val in checked:
        assert abs(analytic.cdf_eval(d, x) - val) <= 1e-12
