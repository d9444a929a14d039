import math

import numpy as np
import pytest

from witness_lab.ensemble import empirical_from_samples, ks_statistic, ks_statistic_two_sample
from witness_lab.qstate import (
    BipartiteDims,
    MixedState,
    PureState,
    ghz_state,
    hermitian_spectrum,
    mix_random_states,
    partial_transpose_b,
    sample_product_density,
    sample_random_pure,
    sample_random_pure_batch,
)
from witness_lab.witness import (
    Witness,
    expectation,
    optimal_witness,
    pt_quadratic_form_batch,
    predicted_cumulants,
    random_haar_witness,
    random_rank_k_witness,
    rank2_state,
    sample_w_overlap_model,
    trace_powers,
    witness_from_vector,
    witness_rank_k,
    witness_spectrum,
)

from conftest import rng


def product_state(dims):
    amp = np.zeros(dims.total, complex)
    amp[0] = 1.0
    return PureState(dims, amp)


def schmidt_diag_state(dims, probs):
    """State with prescribed Schmidt probabilities in the computational
    basis."""
    mat = np.zeros((dims.n_a, dims.n_b), complex)
    for i, p in enumerate(probs):
        mat[i, i] = np.sqrt(p)
    return PureState(dims, mat.reshape(-1))


def w_batch(witness, dims, count, r):
    """w over `count` Haar states, vectorized."""
    amps = sample_random_pure_batch(dims, count, r).reshape(count, dims.n_a, dims.n_b)
    q = np.zeros(count)
    for d, phi in zip(witness.q_weights, witness.q_vectors):
        q += d * pt_quadratic_form_batch(phi.matrix, amps)
    return dims.total * q


class TestConstruction:
    def test_rank1_trace_one(self):
        w = witness_from_vector(sample_random_pure(BipartiteDims(3, 3), rng(1)))
        assert np.trace(w.to_matrix()).real == pytest.approx(1.0, abs=1e-12)

    def test_bell_witness_eigenvalues(self):
        w = witness_from_vector(ghz_state(2))
        ev = np.sort(np.linalg.eigvalsh(w.to_matrix()))
        np.testing.assert_allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_vector_gives_psd_witness(self):
        dims = BipartiteDims(3, 3)
        w = witness_from_vector(product_state(dims))
        assert np.linalg.eigvalsh(w.to_matrix())[0] > -1e-12
        vals = w_batch(w, dims, 50, rng(2))
        assert np.all(vals >= 0)

    def test_rank_k_requires_orthonormal(self):
        dims = BipartiteDims(2, 2)
        a = product_state(dims)
        amp = np.zeros(4, complex)
        amp[0] = amp[3] = 1 / np.sqrt(2)
        b = PureState(dims, amp)  # overlap 1/sqrt(2) with a
        with pytest.raises(ValueError):
            witness_rank_k([a, b])

    def test_rank_one_special_case_matches(self):
        phi = sample_random_pure(BipartiteDims(3, 2), rng(3))
        w1 = witness_from_vector(phi)
        wk = witness_rank_k([phi])
        np.testing.assert_allclose(w1.to_matrix(), wk.to_matrix(), atol=0)

    def test_weights_must_normalize(self):
        dims = BipartiteDims(2, 2)
        with pytest.raises(ValueError):
            Witness(dims, np.array([0.5, 0.4]), (product_state(dims), ghz_state(2)))

    def test_witness_property_on_separable_states(self):
        dims = BipartiteDims(4, 4)
        r = rng(4)
        witnesses = [
            random_haar_witness(dims, r),
            witness_from_vector(rank2_state(dims, 0.3)),
            random_rank_k_witness(dims, 4, r),
        ]
        for w in witnesses:
            mat = w.to_matrix()
            for _ in range(100):
                rho = sample_product_density(dims, r)
                assert np.trace(mat @ rho).real >= -1e-10


class TestExpectation:
    def test_dims_mismatch(self):
        w = witness_from_vector(ghz_state(2))
        psi = sample_random_pure(BipartiteDims(3, 3), rng(5))
        with pytest.raises(ValueError):
            expectation(w, psi)

    def test_rescaling_is_exact(self):
        dims = BipartiteDims(3, 4)
        w = witness_from_vector(sample_random_pure(dims, rng(6)))
        psi = sample_random_pure(dims, rng(7))
        s = expectation(w, psi)
        assert s.w == dims.total * s.raw
        assert s.m == 1

    def test_quadratic_form_matches_explicit_matrix_path(self):
        # the two evaluation routes must agree to near round-off
        r = rng(8)
        for dims in (BipartiteDims(2, 2), BipartiteDims(3, 4), BipartiteDims(8, 8)):
            w = random_rank_k_witness(dims, 2, r)
            mat = w.to_matrix()
            psi = sample_random_pure(dims, r)
            direct = float(np.vdot(psi.amplitudes, mat @ psi.amplitudes).real)
            assert abs(expectation(w, psi).raw - direct) < 1e-10
            mixed = mix_random_states(dims, 3, r)
            explicit = float(np.trace(mat @ mixed.to_matrix()).real)
            assert abs(expectation(w, mixed).raw - explicit) < 1e-10
            rebuilt = MixedState.from_matrix(dims, mixed.to_matrix())
            assert abs(expectation(w, rebuilt).raw - explicit) < 1e-10

    def test_p_part_shifts_expectation(self):
        dims = BipartiteDims(2, 2)
        base = witness_from_vector(ghz_state(2))
        shifted = Witness(dims, base.q_weights, base.q_vectors, p_part=np.eye(4) * 0.1)
        psi = sample_random_pure(dims, rng(9))
        assert expectation(shifted, psi).raw == pytest.approx(expectation(base, psi).raw + 0.1, abs=1e-12)

    def test_ensemble_mean_is_one(self):
        dims = BipartiteDims(16, 16)
        w = random_haar_witness(dims, rng(10))
        vals = w_batch(w, dims, 20_000, rng(11))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_optimal_witness_on_own_state(self):
        dims = BipartiteDims(4, 4)
        st = mix_random_states(dims, 2, rng(12))
        res = optimal_witness(st)
        s = expectation(res.witness, st)
        assert s.raw == pytest.approx(res.lambda_min, abs=1e-9)
        assert s.w == pytest.approx(-dims.total * abs(res.lambda_min), abs=1e-7)


class TestOptimalWitness:
    def test_ghz_minimal_eigenvalue(self):
        for n in (2, 4, 6):
            res = optimal_witness(ghz_state(n))
            assert res.lambda_min == pytest.approx(-0.5, abs=1e-10)
            assert not res.ppt

    def test_maximally_mixed_is_ppt(self):
        dims = BipartiteDims(4, 4)
        res = optimal_witness(MixedState.from_matrix(dims, np.eye(16) / 16))
        assert res.ppt
        assert res.lambda_min == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_mean_minimal_eigenvalue_approaches_minus_four_over_n(self):
        # the asymptotic value of N * mean(lambda_min) is -4; finite N sits
        # well above it and decreases with N (about -4 + 6.5 N^(-2/3))
        means = {}
        for n, reps in ((16, 200), (32, 120)):
            r = rng(13)
            vals = [optimal_witness(sample_random_pure(BipartiteDims(n, n), r)).lambda_min for _ in range(reps)]
            means[n] = n * float(np.mean(vals))
        assert -4.0 < means[32] < means[16] < -2.5

    def test_pure_state_closed_form_matches_dense_spectrum(self):
        # lambda_min = -mu_1 mu_2, including the degenerate GHZ Schmidt spectrum
        states = [
            sample_random_pure(BipartiteDims(3, 3), rng(30)),
            sample_random_pure(BipartiteDims(3, 5), rng(31)),
            ghz_state(4),
        ]
        for st in states:
            res = optimal_witness(st)
            rho_tb = partial_transpose_b(st.density_matrix(), st.dims)
            dense = hermitian_spectrum(rho_tb, want_vectors=False)
            assert res.lambda_min == pytest.approx(dense.min_eigenvalue, abs=1e-12)
            vec = res.witness.q_vectors[0].amplitudes
            assert np.abs(rho_tb @ vec - res.lambda_min * vec).max() < 1e-12
            assert expectation(res.witness, st).raw == pytest.approx(res.lambda_min, abs=1e-12)

    def test_no_random_vector_beats_lambda_min(self):
        dims = BipartiteDims(4, 4)
        r = rng(14)
        for _ in range(20):
            st = mix_random_states(dims, 2, r)
            res = optimal_witness(st)
            rho_tb = partial_transpose_b(st.to_matrix(), dims)
            phis = sample_random_pure_batch(dims, 1000, r)
            vals = np.einsum("ki,ij,kj->k", phis.conj(), rho_tb, phis).real
            assert vals.min() >= res.lambda_min - 1e-9


class TestWitnessSpectrum:
    @staticmethod
    def _check_against_dense(witness):
        spec = witness_spectrum(witness)
        full = np.sort(np.concatenate([spec.nonzero, np.zeros(spec.zeros)]))
        dense = np.linalg.eigvalsh(witness.to_matrix())
        assert np.abs(full - dense).max() < 1e-12
        return spec

    def test_haar_rank_one_square_and_rectangular(self):
        for dims in (BipartiteDims(4, 4), BipartiteDims(3, 5), BipartiteDims(5, 3)):
            spec = self._check_against_dense(random_haar_witness(dims, rng(32)))
            r = dims.schmidt_len
            assert spec.zeros == dims.total - r * r

    def test_product_vector(self):
        dims = BipartiteDims(4, 4)
        spec = self._check_against_dense(witness_from_vector(product_state(dims)))
        assert spec.nonzero.tolist() == [1.0]
        assert spec.zeros == dims.total - 1

    def test_rank2_zero_count(self):
        dims = BipartiteDims(4, 5)
        spec = self._check_against_dense(witness_from_vector(rank2_state(dims, 0.3)))
        assert spec.zeros == dims.total - 4
        expected = np.sort([0.3, 0.7, np.sqrt(0.21), -np.sqrt(0.21)])
        assert np.abs(spec.nonzero - expected).max() < 1e-12

    def test_rank_k_dense_path(self):
        dims = BipartiteDims(3, 4)
        spec = self._check_against_dense(random_rank_k_witness(dims, 3, rng(33)))
        assert spec.nonzero.sum() == pytest.approx(1.0, abs=1e-12)


class TestOverlapModel:
    def test_single_eigenvalue_is_exponential(self):
        draws = sample_w_overlap_model(np.array([1.0]), rng(15), size=100_000)
        assert np.all(draws > 0)
        ks = ks_statistic(draws, lambda xs: 1.0 - np.exp(-xs))
        assert ks < 0.01

    def test_balanced_rank2_detection_probability(self):
        draws = sample_w_overlap_model(np.array([0.5, 0.5]), rng(16), size=1_000_000)
        p = np.mean(draws < 0)
        se = np.sqrt(0.125 * 0.875 / len(draws))
        assert abs(p - 0.125) < 3 * se

    def test_large_rank_gaussian_limit(self):
        from witness_lab.analytic import cdf_on_sorted, gauss_unit

        lam = np.full(64, 1.0 / 64.0)
        r = rng(17)
        out = np.concatenate(
            [sample_w_overlap_model(lam, r, size=2048) for _ in range(49)]
        )
        ks = ks_statistic(out, lambda xs: cdf_on_sorted(gauss_unit(), xs))
        assert ks < 0.01

    def test_matches_complex_phase_form_and_moments(self):
        # reference: the overlap model as first written, with exponential
        # magnitudes y_ij and uniform phases phi_ij,
        # w = sum_ij sqrt(lam_i lam_j) sqrt(y_ij y_ji) cos(phi_ij - phi_ji)
        lam = np.array([0.6, 0.3, 0.1])
        n = 100_000
        r = rng(21)
        y = r.exponential(size=(n, 3, 3))
        z = np.sqrt(lam)[:, None] * np.sqrt(y) * np.exp(1j * r.uniform(0.0, 2.0 * np.pi, size=(n, 3, 3)))
        reference = np.einsum("kij,kji->k", z, z.conj()).real

        draws = sample_w_overlap_model(lam, rng(22), size=n)
        # DKW bound on each empirical CDF, false-alarm probability 1e-6 in all
        eps = 2 * math.sqrt(math.log(2 / 0.5e-6) / (2 * n))
        assert ks_statistic_two_sample(draws, reference) < eps

        dist = empirical_from_samples(draws)
        assert abs(dist.mean - 1.0) < 5 * dist.mean_std_err
        assert abs(dist.variance - 1.0) < 5 * dist.k2_std_err
        assert abs(dist.k3 - 2 * np.sum(lam**3)) < 5 * dist.k3_std_err

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            sample_w_overlap_model(np.array([0.7, 0.7]), rng(18))
        with pytest.raises(ValueError):
            sample_w_overlap_model(np.array([1.5, -0.5]), rng(18))

    @pytest.mark.slow
    def test_matches_quantum_simulation(self):
        # two-sample KS between the overlap model and the full simulation,
        # r = 2 and r = 64, 1e5 draws each
        for r_rank, probs, dims, seed in (
            (2, np.array([0.5, 0.5]), BipartiteDims(32, 32), 19),
            (64, np.full(64, 1 / 64), BipartiteDims(64, 64), 20),
        ):
            r_model = rng(seed)
            model = np.concatenate(
                [sample_w_overlap_model(probs, r_model, size=2048) for _ in range(49)]
            )
            w = witness_from_vector(schmidt_diag_state(dims, probs))
            r_quantum = rng(seed + 100)
            quantum = np.concatenate(
                [w_batch(w, dims, 4096, r_quantum) for _ in range(25)]
            )
            ks = ks_statistic_two_sample(model, quantum)
            assert ks < 0.02, f"rank {r_rank}: KS = {ks}"


class TestTracePowers:
    def test_product_vector_all_ones(self):
        w = witness_from_vector(product_state(BipartiteDims(3, 3)))
        np.testing.assert_allclose(trace_powers(w, 5), np.ones(5), atol=1e-12)

    def test_rank2_balanced_closed_form(self):
        # oracle: explicit matrix powers on the 4x4 witness
        w = witness_from_vector(rank2_state(BipartiteDims(2, 2), 0.5))
        tp = trace_powers(w, 4)
        np.testing.assert_allclose(tp, [1.0, 1.0, 0.25, 0.25], atol=1e-12)
        mat = w.to_matrix()
        power = np.eye(4)
        for n in range(1, 5):
            power = power @ mat
            assert np.trace(power).real == pytest.approx(tp[n - 1], abs=1e-12)

    def test_matrix_power_oracle_random_vector(self):
        dims = BipartiteDims(3, 4)
        w = witness_from_vector(sample_random_pure(dims, rng(21)))
        tp = trace_powers(w, 6)
        mat = w.to_matrix()
        power = np.eye(dims.total)
        for n in range(1, 7):
            power = power @ mat
            assert np.trace(power).real == pytest.approx(tp[n - 1], abs=1e-10)

    def test_full_rank_cubic_trace_is_small(self):
        w = random_haar_witness(BipartiteDims(32, 32), rng(22))
        t3 = trace_powers(w, 3)[2]
        assert 0 < t3 < 20.0 / 32**2

    def test_requires_rank_one(self):
        w = random_rank_k_witness(BipartiteDims(3, 3), 2, rng(23))
        with pytest.raises(ValueError):
            trace_powers(w, 3)


class TestWidthStatistics:
    def test_orthonormal_rank2_width(self):
        # Var(w) = sum d_i^2 = 1/2 for two orthonormal vectors
        dims = BipartiteDims(32, 32)
        w = random_rank_k_witness(dims, 2, rng(24))
        r = rng(25)
        vals = np.concatenate([w_batch(w, dims, 4096, r) for _ in range(25)])
        var = vals.var()
        se = np.sqrt(2.0 / len(vals)) * var
        assert abs(var - 0.5) < 3 * se + 0.01

    def test_correlated_vectors_widen_the_distribution(self):
        # overlapping (non-orthogonal) vectors: the variance picks up
        # 2 d1 d2 |<phi_1|phi_2>|^2; built directly, bypassing the
        # orthonormality guard
        dims = BipartiteDims(32, 32)
        r = rng(26)
        base = sample_random_pure_batch(dims, 2, r)
        mix = 0.6 * base[0] + 0.8 * base[1]
        mix /= np.linalg.norm(mix)
        phi1 = PureState(dims, base[0])
        phi2 = PureState(dims, mix)
        d1, d2 = 0.5, 0.5
        w = Witness(dims, np.array([d1, d2]), (phi1, phi2))
        overlap_sq = abs(np.vdot(phi1.amplitudes, phi2.amplitudes)) ** 2
        predicted = d1**2 + d2**2 + 2 * d1 * d2 * overlap_sq
        r27 = rng(27)
        vals = np.concatenate([w_batch(w, dims, 4096, r27) for _ in range(25)])
        var = vals.var()
        se = np.sqrt(2.0 / len(vals)) * predicted
        assert abs(var - predicted) < 3 * se + 0.01

    def test_cumulant_contract_full_rank(self, gauss_ensemble):
        cfg, dist = gauss_ensemble
        from witness_lab.ensemble import derive_witness

        w = derive_witness(cfg)
        tp = trace_powers(w, 4)
        assert abs(dist.k2 - 1.0) < 0.02
        assert abs(dist.k3 - 2.0 * tp[2]) < 0.05
        assert abs(dist.k4 - 6.0 * tp[3]) < 0.2

    def test_predicted_cumulants_mixture_scaling(self):
        w = witness_from_vector(rank2_state(BipartiteDims(4, 4), 0.5))
        p1 = predicted_cumulants(w, m=1)
        p4 = predicted_cumulants(w, m=4)
        assert p4[2] == pytest.approx(p1[2] / 4)
        assert p4[3] == pytest.approx(p1[3] / 16)
        assert p4[4] == pytest.approx(p1[4] / 64)

    def test_detection_invariant_under_local_rotations(self):
        # a rank-2 vector rotated by local unitaries detects with the same
        # probability (Haar ensemble is unitarily invariant)
        dims = BipartiteDims(16, 16)
        lam = 0.5
        r = rng(28)
        plain = witness_from_vector(rank2_state(dims, lam))
        ua, _ = np.linalg.qr(r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16)))
        ub, _ = np.linalg.qr(r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16)))
        rotated_mat = ua @ plain.q_vectors[0].matrix @ ub.T
        rotated = witness_from_vector(PureState(dims, rotated_mat.reshape(-1)))
        n = 40_000
        p_plain = np.mean(w_batch(plain, dims, n, rng(29)) < 0)
        p_rot = np.mean(w_batch(rotated, dims, n, rng(30)) < 0)
        se = np.sqrt(2 * 0.125 * 0.875 / n)
        assert abs(p_plain - p_rot) < 2.5 * se
