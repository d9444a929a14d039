"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with -s to see them).

Everything is statistical at desk scale (dims up to 32x32, ~1e5 samples)
with fixed seeds, so runs are deterministic and worker-count independent.
"""

import math

import numpy as np
import pytest

from witness_lab import analytic
from witness_lab.analytic import cdf_on_sorted, gauss_width, pt_eigs, rank2 as rank2_density
from witness_lab.ensemble import (
    WitnessSpec,
    empirical_from_samples,
    ks_statistic,
    kurtosis_ratio,
    run_lambda_min_scan,
    run_mixture_decay,
    run_pt_spectrum,
    run_w_ensemble,
)
from witness_lab.qstate import (
    BipartiteDims,
    ghz_state,
    partial_transpose_b,
    sample_random_pure,
    schmidt,
)
from witness_lab.witness import expectation, optimal_witness, witness_from_vector

from conftest import product_density, rng, total_mass


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_mean_and_width(gauss_ensemble):
    _, dist = gauss_ensemble
    ok = abs(dist.mean - 1.0) < 0.01 and abs(dist.k2 - 1.0) < 0.03
    assert report(
        "01 mean/width",
        ok,
        f"mean w = {dist.mean:.5f} (need 1 +- 0.01), k2 = {dist.k2:.5f} (need 1 +- 0.03)",
    )


def test_c02_gaussian_detection_probability(gauss_ensemble):
    _, dist = gauss_ensemble
    ok = 0.147 <= dist.neg_tail <= 0.171
    assert report(
        "02 gaussian tail",
        ok,
        f"P(w<0) = {dist.neg_tail:.5f} +- {dist.neg_tail_std_err:.5f} (need [0.147, 0.171])",
    )


def test_c03_rank2_closed_forms(rank2_half_ensemble):
    _, dist_half = rank2_half_ensemble
    ok_half = abs(dist_half.neg_tail - 0.125) < 0.004
    ks_half = ks_statistic(dist_half.samples, lambda xs: cdf_on_sorted(rank2_density(0.5), xs))

    lam = 1 / 26
    dist_small = run_w_ensemble(
        BipartiteDims(32, 32), 100_000, seed=0, workers=2, witness_spec=WitnessSpec("rank2", lam=lam)
    )
    ok_small = abs(dist_small.neg_tail - 5 / 72) < 0.003
    ks_small = ks_statistic(dist_small.samples, lambda xs: cdf_on_sorted(rank2_density(lam), xs))

    ok = ok_half and ok_small and ks_half < 0.01 and ks_small < 0.01
    assert report(
        "03 rank-2 forms",
        ok,
        f"lam=1/2: P = {dist_half.neg_tail:.5f} (need 0.125 +- 0.004), KS = {ks_half:.4f}; "
        f"lam=1/26: P = {dist_small.neg_tail:.5f} (need {5 / 72:.5f} +- 0.003), KS = {ks_small:.4f} (need < 0.01)",
    )


def test_c04_rank_k_width():
    details = []
    ok = True
    for k in (4, 16):
        dist = run_w_ensemble(
            BipartiteDims(32, 32), 100_000, seed=0, workers=2, witness_spec=WitnessSpec("rankk", k=k)
        )
        ok = ok and abs(dist.variance - 1.0 / k) < 0.05 / k
        details.append(f"k={k}: var = {dist.variance:.5f} (need {1 / k:.5f} +- 5%)")
    assert report("04 rank-k width", ok, "; ".join(details))


def test_c05_mixture_decay():
    scan = run_mixture_decay(
        BipartiteDims(32, 32), m_max=6, samples_base=100_000, seed=0, workers=2
    )
    ok = True
    details = []
    for row in scan.rows:
        exact = analytic.detection_probability(gauss_width(float(row.m)))
        z = (row.value - exact) / row.std_err
        ok = ok and abs(z) <= 3.0
        details.append(f"m={row.m}: z = {z:+.2f}")
    slope = scan.metadata["slope"]
    ok = ok and -0.6 <= slope <= -0.4
    details.append(f"slope = {slope:.4f} (need [-0.6, -0.4])")
    assert report("05 mixture decay", ok, "; ".join(details))


def test_c06_pt_eigenvalue_density():
    dist = run_pt_spectrum(BipartiteDims(32, 32), m=1, states=10, seed=0, workers=2)
    ks = ks_statistic(dist.samples, lambda xs: cdf_on_sorted(pt_eigs(), xs))
    ok = ks < 0.02
    assert report(
        "06 PT density",
        ok,
        f"KS vs elliptic law = {ks:.4f} over {dist.sample_count} eigenvalues (need < 0.02)",
    )


def test_c07a_lambda_min_scaling():
    # the asymptotic mean is -4/N; at desk-scale N the Tracy-Widom edge
    # correction (about +6.5 N^(-2/3)) keeps N*mean well above -4, so this
    # criterion cannot pass as stated -- kept faithful and red; see the
    # decisions ledger
    scan = run_lambda_min_scan([8, 16, 32], [1], repetitions=150, seed=0, workers=2)
    details = []
    ok = True
    for n in (8, 16, 32):
        _, vals, ses = scan.for_n(n)
        scaled = n * vals[0]
        ok = ok and abs(scaled + 4.0) < 0.4
        details.append(f"N={n}: N*mean = {scaled:.3f} +- {n * ses[0]:.3f}")
    assert report("07a N*lambda_min in -4 +- 0.4", ok, "; ".join(details))


def test_c07b_m_star_bracket():
    n = 8
    scan = run_lambda_min_scan(
        [n], [160, 192, 224, 256, 288, 320], repetitions=220, seed=0, workers=2
    )
    m_star = scan.metadata["m_star"][n]
    ok = m_star is not None and 3 * n**2 <= m_star <= 5 * n**2
    assert report(
        "07b m* bracket",
        ok,
        f"m* = {m_star if m_star is None else f'{m_star:.1f}'} at N^2 = {n**2} "
        f"(need [{3 * n**2}, {5 * n**2}])",
    )


def test_c08_semicircle_signature():
    dist = run_pt_spectrum(BipartiteDims(16, 16), m=256, states=10, seed=0, workers=2)
    ratio = kurtosis_ratio(dist.samples)
    ok = abs(ratio - 2.0) < 0.15
    assert report(
        "08 semicircle",
        ok,
        f"mu4/mu2^2 = {ratio:.3f} for centered N^2*lambda (need 2.0 +- 0.15)",
    )


def test_c09_ghz_contrast():
    ok = True
    details = []
    for n_qubits in (2, 4, 8):
        g = ghz_state(n_qubits)
        res = optimal_witness(g)
        w = expectation(res.witness, g)
        total = g.dims.total
        ok = ok and abs(res.lambda_min + 0.5) < 1e-10 and abs(w + total / 2) < 1e-7
        details.append(f"n={n_qubits}: lambda_min = {res.lambda_min:.12f}, w = {w:.6f}")
    assert report("09 GHZ contrast", ok, "; ".join(details))


def test_c10_random_state_entropy():
    dims = BipartiteDims(32, 32)
    r = rng(0)
    vals = []
    for _ in range(1000):
        p = schmidt(sample_random_pure(dims, r)).probabilities
        p = p[p > 0]
        vals.append(float(-(p * np.log2(p)).sum()))
    mean = float(np.mean(vals))
    expected = 5.0 - 1.0 / math.log(4.0)
    ok = abs(mean - expected) < 0.02
    assert report(
        "10 entropy",
        ok,
        f"mean S(rho_A) = {mean:.4f} (need {expected:.4f} +- 0.02)",
    )


def test_c11_property_suites():
    failures = []

    # partial-transpose involution and trace preservation
    r = rng(31)
    for dims in (BipartiteDims(4, 4), BipartiteDims(4, 8)):
        g = r.standard_normal((dims.total, dims.total)) + 1j * r.standard_normal((dims.total, dims.total))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        pt = partial_transpose_b(rho, dims)
        if np.abs(partial_transpose_b(pt, dims) - rho).max() > 1e-14:
            failures.append("PT involution")
        if abs(np.trace(pt).real - 1.0) > 1e-12:
            failures.append("PT trace")

    # witness nonnegativity on separable product states
    dims = BipartiteDims(4, 4)
    w = witness_from_vector(sample_random_pure(dims, r)).to_matrix()
    if any(np.trace(w @ product_density(dims, r)).real < -1e-10 for _ in range(100)):
        failures.append("witness positivity")

    # pure-state PT spectrum identity {+-mu_i mu_j} U {mu_i^2}
    from witness_lab.qstate import mixture_pt_eigenvalues

    psi = sample_random_pure(dims, r)
    eigenvalues = np.linalg.eigvalsh(partial_transpose_b(psi.to_matrix(), dims))
    if np.abs(eigenvalues - np.sort(mixture_pt_eigenvalues(psi.amplitudes[None], dims))).max() > 1e-9:
        failures.append("PT spectrum identity")

    # closed-form density normalizations
    for dens in (gauss_width(1.0), gauss_width(4), rank2_density(0.3), pt_eigs(), analytic.marcenko_pastur()):
        if abs(total_mass(dens) - 1.0) > 1e-6:
            failures.append(f"normalization {dens.kind}")

    # determinism under varying worker counts
    d1, d2 = (run_w_ensemble(dims, 5000, m=2, seed=42, workers=workers) for workers in (1, 2))
    if not (np.array_equal(d1.samples, d2.samples) and d1.mean == d2.mean):
        failures.append("worker determinism")

    ok = not failures
    assert report("11 property suites", ok, "all invariants hold" if ok else f"failed: {failures}")
