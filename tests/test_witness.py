import math

import numpy as np
import pytest
from scipy import stats

from witness_lab import qstate
from witness_lab.ensemble import ScanResult, ScanRow, empirical_from_samples, ks_statistic
from witness_lab.qstate import (
    BipartiteDims,
    MixedState,
    PureState,
    ghz_state,
    mix_random_states,
    partial_transpose_b,
    sample_random_pure,
    sample_random_pure_batch,
    schmidt,
)
from witness_lab.witness import (
    Witness,
    expectation,
    optimal_witness,
    pt_quadratic_form,
    pt_quadratic_form_batch,
    predicted_cumulants,
    random_haar_witness,
    random_rank_k_witness,
    rank2_state,
    witness_from_vector,
    witness_rank_k,
    witness_spectrum,
)

from conftest import maximally_mixed, product_density, rng, sample_w_overlap_model


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
    for phi in witness.q_vectors:
        q += pt_quadratic_form_batch(phi.reshape(dims.n_a, dims.n_b), amps)
    return dims.total * q / witness.rank


def schmidt_diag_w(mu, amps):
    """w of a (count, n_a, n_b) stack of amplitude matrices against the
    witness of the Schmidt-diagonal vector sum_i mu_i |ii>.  With Phi =
    diag(mu) the contraction is sum_ij mu_i mu_j psi_ij conj(psi_ji), an
    elementwise sum over the len(mu) x len(mu) corner of each matrix."""
    r, block = len(mu), 256  # blocks of states that stay in cache
    q = np.empty(len(amps))
    for s in range(0, len(amps), block):
        psi = amps[s : s + block, :r, :r]
        q[s : s + block] = np.einsum("ij,kij,kji->k", np.outer(mu, mu), psi, psi.conj()).real
    return amps.shape[1] * amps.shape[2] * q


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

    @pytest.mark.parametrize("weights", [(0.3, 0.7), (0.2, 0.3, 0.5)])
    def test_weighted_q_is_the_uniform_mixture_of_dft_rows(self, weights):
        # sum_i d_i |e_i><e_i| is the uniform mixture of the normalized rows
        # phi_j = sum_i sqrt(d_i) omega^(ij) e_i, omega = exp(2 pi i / k)
        dims = BipartiteDims(3, 4)
        d = np.array(weights)
        k = len(d)
        e = random_rank_k_witness(dims, k, rng(32)).q_vectors
        omega = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
        phis = omega.T @ (np.sqrt(d)[:, None] * e)
        q = e.T @ (d[:, None] * e.conj())
        want = partial_transpose_b(q, dims)
        assert np.abs(Witness(dims, phis).to_matrix() - want).max() <= 1e-14

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
                rho = product_density(dims, r)
                assert np.trace(mat @ rho).real >= -1e-10


# one instance of each type that holds arrays, or a dict (ScanResult)
ARRAY_HOLDERS = {
    "PureState": lambda: ghz_state(2),
    "MixedState": lambda: maximally_mixed(BipartiteDims(2, 2)),
    "SchmidtDecomposition": lambda: schmidt(ghz_state(2)),
    "Witness": lambda: witness_from_vector(ghz_state(2)),
    "EmpiricalDistribution": lambda: empirical_from_samples(np.arange(40.0)),
    "ScanResult": lambda: ScanResult(kind="x", rows=(ScanRow(1, 1, 0.0, 0.0),), metadata={}),
}


@pytest.mark.parametrize("holder", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash(holder):
    # equality is identity: comparing arrays field by field would raise, and
    # hashing a dict field would
    a, b = ARRAY_HOLDERS[holder](), ARRAY_HOLDERS[holder]()
    assert (a == a) is True and (a == b) is False
    assert len({a, b, a}) == 2


# the two types that hold amplitude rows, with the name of their row array
ROW_HOLDERS = {
    "MixedState": (lambda dims, rows: MixedState(dims, rows), "amplitudes"),
    "Witness": (lambda dims, rows: Witness(dims, rows), "q_vectors"),
}


class TestRowForm:
    DIMS = BipartiteDims(2, 3)

    @pytest.mark.parametrize("holder", sorted(ROW_HOLDERS))
    @pytest.mark.parametrize("case", ["norm", "nan", "1-D", "empty", "width"])
    def test_rejects_malformed_rows(self, holder, case):
        good = np.eye(2, 6, dtype=complex)
        off = good.copy()
        off[1, 1] = 1 + 2e-12
        rows, message = {
            "norm": (off, "not normalized"),
            "nan": (np.full((2, 6), np.nan), "not normalized"),
            "1-D": (good[0], "rows of 6 amplitudes"),
            "empty": (good[:0], "rows of 6 amplitudes"),
            "width": (np.eye(2, 7), "rows of 6 amplitudes"),
        }[case]
        with pytest.raises(ValueError, match=message):
            ROW_HOLDERS[holder][0](self.DIMS, rows)

    @pytest.mark.parametrize("holder", sorted(ROW_HOLDERS))
    def test_rows_are_a_read_only_copy(self, holder):
        build, name = ROW_HOLDERS[holder]
        rows = np.eye(2, 6, dtype=complex)
        held = getattr(build(self.DIMS, rows), name)
        assert held.shape == (2, 6) and not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0] = 0
        rows[0, 0] = 0
        assert held[0, 0] == 1

    def test_mixture_expectation_is_the_mean_over_rows(self):
        dims = BipartiteDims(4, 5)
        r = rng(50)
        w = random_rank_k_witness(dims, 3, r)
        rows = sample_random_pure_batch(dims, 7, r)
        mixed = expectation(w, MixedState(dims, rows))
        per_row = [expectation(w, PureState(dims, a)) / dims.total for a in rows]
        assert abs(mixed / dims.total - np.mean(per_row)) <= 1e-15


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
        phi = w.q_vectors[0].reshape(dims.n_a, dims.n_b)
        assert expectation(w, psi) == dims.total * pt_quadratic_form(phi, psi.matrix)

    def test_quadratic_form_matches_explicit_matrix_path(self):
        # the two evaluation routes must agree to near round-off
        r = rng(8)
        for dims in (BipartiteDims(2, 2), BipartiteDims(3, 4), BipartiteDims(8, 8)):
            w = random_rank_k_witness(dims, 2, r)
            mat = w.to_matrix()
            psi = sample_random_pure(dims, r)
            direct = float(np.vdot(psi.amplitudes, mat @ psi.amplitudes).real)
            assert abs(expectation(w, psi) / dims.total - direct) < 1e-10
            mixed = mix_random_states(dims, 3, r)
            explicit = float(np.trace(mat @ mixed.to_matrix()).real)
            assert abs(expectation(w, mixed) / dims.total - explicit) < 1e-10

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
        assert s / dims.total == pytest.approx(res.lambda_min, abs=1e-9)
        assert s == pytest.approx(-dims.total * abs(res.lambda_min), abs=1e-7)


class TestOptimalWitness:
    def test_ghz_minimal_eigenvalue(self):
        for n in (2, 4, 6):
            res = optimal_witness(ghz_state(n))
            assert res.lambda_min == pytest.approx(-0.5, abs=1e-10)
            assert res.lambda_min < 0

    def test_maximally_mixed_is_ppt(self):
        dims = BipartiteDims(4, 4)
        res = optimal_witness(maximally_mixed(dims))
        assert res.lambda_min >= 0
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
            rho_tb = partial_transpose_b(st.to_matrix(), st.dims)
            assert res.lambda_min == pytest.approx(np.linalg.eigvalsh(rho_tb)[0], abs=1e-12)
            vec = res.witness.q_vectors[0]
            assert np.abs(rho_tb @ vec - res.lambda_min * vec).max() < 1e-12
            assert expectation(res.witness, st) / st.dims.total == pytest.approx(res.lambda_min, abs=1e-12)

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

    # k = 16 exceeds n_a n_b = 15 at 3 x 5 and 5 x 3: there the witness has
    # full rank, W = I/15, with one fifteen-fold eigenvalue
    @pytest.mark.parametrize("k", [2, 3, 16])
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (8, 8), (32, 32)])
    def test_dense_spectrum_matches_eigvalsh(self, shape, k):
        dims = BipartiteDims(*shape)
        w = random_rank_k_witness(dims, min(k, dims.total), rng(34))
        spec = witness_spectrum(w)
        full = np.sort(np.concatenate([spec.nonzero, np.zeros(spec.zeros)]))
        dense = np.linalg.eigvalsh(w.to_matrix())
        assert np.abs(full - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.skipif(qstate._OPENBLAS_THREADS is None, reason="numpy's OpenBLAS was not found")
    def test_dense_spectrum_runs_on_one_blas_thread(self):
        w = random_rank_k_witness(BipartiteDims(32, 32), 16, rng(35))
        get, put = qstate._OPENBLAS_THREADS
        spectra = []
        for threads in (1, 2):
            put(threads)  # as if a caller set it after import; the solve sets it back to 1
            spectra.append(witness_spectrum(w))
            assert get() == 1
        assert np.array_equal(spectra[0].nonzero, spectra[1].nonzero)
        assert spectra[0].zeros == spectra[1].zeros

    def test_dense_spectrum_without_the_binding_is_eigvalsh(self, monkeypatch):
        w = random_rank_k_witness(BipartiteDims(5, 3), 3, rng(36))
        monkeypatch.setattr(qstate, "_ZHEEVD_2STAGE", None)
        mat = w.to_matrix()
        assert np.array_equal(qstate.hermitian_eigenvalues(mat), np.linalg.eigvalsh(w.to_matrix()))
        assert np.array_equal(mat, w.to_matrix())  # eigvalsh leaves its input alone
        spec = witness_spectrum(w)
        assert np.array_equal(spec.nonzero, np.linalg.eigvalsh(w.to_matrix())) and spec.zeros == 0

    @pytest.mark.skipif(qstate._ZHEEVD_2STAGE is None, reason="no zheevd_2stage in numpy's OpenBLAS")
    def test_dense_spectrum_failure_is_loud(self):
        with pytest.raises(np.linalg.LinAlgError, match="zheevd_2stage"):
            qstate.hermitian_eigenvalues(np.full((4, 4), np.nan, dtype=np.complex128))


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
        from witness_lab.analytic import cdf_on_sorted, gauss_width

        lam = np.full(64, 1.0 / 64.0)
        r = rng(17)
        out = np.concatenate(
            [sample_w_overlap_model(lam, r, size=2048) for _ in range(49)]
        )
        ks = ks_statistic(out, lambda xs: cdf_on_sorted(gauss_width(1.0), xs))
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
        assert stats.ks_2samp(draws, reference, method="asymp").statistic < eps

        dist = empirical_from_samples(draws)
        assert abs(dist.mean - 1.0) < 5 * dist.mean_std_err
        assert abs(dist.variance - 1.0) < 5 * dist.k2_std_err
        assert abs(dist.k3 - 2 * np.sum(lam**3)) < 5 * dist.k3_std_err

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            sample_w_overlap_model(np.array([0.7, 0.7]), rng(18), size=1)
        with pytest.raises(ValueError):
            sample_w_overlap_model(np.array([1.5, -0.5]), rng(18), size=1)

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
            mu = np.sqrt(probs)
            r_quantum = rng(seed + 100)
            shape = (4096, dims.n_a, dims.n_b)
            batches = (sample_random_pure_batch(dims, 4096, r_quantum).reshape(shape) for _ in range(25))
            quantum = np.concatenate([schmidt_diag_w(mu, amps) for amps in batches])
            # the elementwise form against the generic contraction kernel
            phi = schmidt_diag_state(dims, probs).matrix
            small = sample_random_pure_batch(dims, 64, rng(seed + 200)).reshape(64, dims.n_a, dims.n_b)
            generic = dims.total * pt_quadratic_form_batch(phi, small)
            np.testing.assert_allclose(schmidt_diag_w(mu, small), generic, rtol=0, atol=1e-12)
            ks = stats.ks_2samp(model, quantum, method="asymp").statistic
            assert ks < 0.02, f"rank {r_rank}: KS = {ks}"


def trace_powers(witness, k_max):
    """tr W^n for n = 1..k_max from the eigenvalues of W."""
    lam = witness_spectrum(witness).nonzero
    return np.array([np.sum(lam**n) for n in range(1, k_max + 1)])


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
        d1, d2 = 0.5, 0.5  # a witness weighs its rows uniformly
        w = Witness(dims, np.stack([base[0], mix]))
        overlap_sq = abs(np.vdot(base[0], mix)) ** 2
        predicted = d1**2 + d2**2 + 2 * d1 * d2 * overlap_sq
        r27 = rng(27)
        vals = np.concatenate([w_batch(w, dims, 4096, r27) for _ in range(25)])
        var = vals.var()
        se = np.sqrt(2.0 / len(vals)) * predicted
        assert abs(var - predicted) < 3 * se + 0.01

    def test_cumulant_contract_full_rank(self, gauss_ensemble):
        w, dist = gauss_ensemble
        tp = trace_powers(w, 4)
        assert abs(dist.k2 - 1.0) < 0.02
        assert abs(dist.k3 - 2.0 * tp[2]) < 0.05
        assert abs(dist.k4 - 6.0 * tp[3]) < 0.2

    def test_predicted_cumulants_mixture_scaling(self):
        w = witness_from_vector(rank2_state(BipartiteDims(4, 4), 0.5))
        p1 = predicted_cumulants(witness_spectrum(w), m=1)
        p4 = predicted_cumulants(witness_spectrum(w), m=4)
        assert p4[2] == pytest.approx(p1[2] / 4)
        assert p4[3] == pytest.approx(p1[3] / 16)
        assert p4[4] == pytest.approx(p1[4] / 64)

    @pytest.mark.parametrize("m", [1, 3])
    def test_predicted_variance_is_exact(self, m):
        # Var(w) = (n tr W^2 - 1) / ((n + 1) m) for any witness, including
        # a directly built one on non-orthogonal vectors
        dims = BipartiteDims(4, 6)
        r = rng(29)
        base = sample_random_pure_batch(dims, 2, r)
        witnesses = [
            random_haar_witness(dims, r),
            witness_from_vector(rank2_state(dims, 0.3)),
            random_rank_k_witness(dims, 5, r),
            witness_from_vector(product_state(dims)),
            Witness(dims, base),
        ]
        for w in witnesses:
            spectrum = witness_spectrum(w)
            var = (dims.total * np.sum(spectrum.nonzero**2) - 1) / ((dims.total + 1) * m)
            assert predicted_cumulants(spectrum, m=m)[2] == pytest.approx(var, rel=1e-13, abs=0)

    def test_detection_invariant_under_local_rotations(self):
        # a rank-2 vector rotated by local unitaries detects with the same
        # probability (Haar ensemble is unitarily invariant)
        dims = BipartiteDims(16, 16)
        lam = 0.5
        r = rng(28)
        plain = witness_from_vector(rank2_state(dims, lam))
        ua, _ = np.linalg.qr(r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16)))
        ub, _ = np.linalg.qr(r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16)))
        rotated_mat = ua @ plain.q_vectors[0].reshape(16, 16) @ ub.T
        rotated = witness_from_vector(PureState(dims, rotated_mat.reshape(-1)))
        n = 40_000
        p_plain = np.mean(w_batch(plain, dims, n, rng(29)) < 0)
        p_rot = np.mean(w_batch(rotated, dims, n, rng(30)) < 0)
        se = np.sqrt(2 * 0.125 * 0.875 / n)
        assert abs(p_plain - p_rot) < 2.5 * se
