import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witness_lab.qstate import (
    BipartiteDims,
    PureState,
    ghz_state,
    mix_random_states,
    mixture_density,
    mixture_pt_eigenvalues,
    partial_trace_b,
    partial_transpose_b,
    sample_random_pure,
    sample_random_pure_batch,
    schmidt,
    von_neumann_entropy,
)

from conftest import product_density, rng


def random_density(n, r):
    g = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pt_spectrum(amps, dims, include_diagonal):
    """``mixture_pt_eigenvalues``, less a pure state's last ``schmidt_len``
    values (the mu_i^2) unless ``include_diagonal``: the slice that
    ``run_pt_spectrum`` takes at m = 1."""
    got = mixture_pt_eigenvalues(amps, dims)
    return got if include_diagonal or amps.shape[-2] > 1 else got[..., : -dims.schmidt_len]


class TestDims:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            BipartiteDims(1, 4)
        with pytest.raises(ValueError):
            BipartiteDims(4, 0)

    def test_total(self):
        assert BipartiteDims(3, 5).total == 15


class TestSampling:
    def test_unit_norm(self):
        psi = sample_random_pure(BipartiteDims(2, 2), rng(11))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("n_a, n_b, n", [(2, 2, 1), (3, 5, 7), (16, 16, 300)])
    def test_batch_equals_complex_division_bit_for_bit(self, n_a, n_b, n):
        dims = BipartiteDims(n_a, n_b)
        x = rng(n).standard_normal((n, 2 * dims.total))
        ref = x.view(np.complex128) / np.sqrt(np.einsum("ki,ki->k", x, x))[:, None]
        got = sample_random_pure_batch(dims, n, rng(n))
        np.testing.assert_array_equal(got.view(np.float64), ref.view(np.float64))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(BipartiteDims(2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_haar_coordinate_statistics(self):
        # E[N^2 |c_i|^2] = 1 for every coordinate, 1e5 samples at (32, 32)
        dims = BipartiteDims(32, 32)
        total = np.zeros(dims.total)
        n = 100_000
        r = rng(5)
        done = 0
        while done < n:
            k = min(8192, n - done)
            amps = sample_random_pure_batch(dims, k, r)
            total += np.einsum("ki,ki->i", amps, amps.conj()).real
            done += k
        scaled = dims.total * total / n
        assert scaled.min() > 0.98
        assert scaled.max() < 1.02

    def test_mean_reduced_entropy_close_to_maximal(self):
        # ensemble average of S(rho_A) versus log2(N) - 1/ln(4)
        dims = BipartiteDims(32, 32)
        r = rng(7)
        vals = []
        for _ in range(3000):
            psi = sample_random_pure(dims, r)
            p = schmidt(psi).probabilities
            p = p[p > 0]
            vals.append(float(-(p * np.log2(p)).sum()))
        expected = 5.0 - 1.0 / np.log(4.0)
        assert abs(np.mean(vals) - expected) < 0.02


class TestMixtures:
    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            mix_random_states(BipartiteDims(2, 2), 0, rng(0))

    def test_pure_mixture_has_unit_purity(self):
        rho = mix_random_states(BipartiteDims(2, 2), 1, rng(1)).to_matrix()
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_two_component_purity_matches_algebra(self):
        # direct oracle: purity of (|a><a| + |b><b|)/2 is (1 + |<a|b>|^2)/2
        st8 = mix_random_states(BipartiteDims(2, 2), 2, rng(2))
        a, b = st8.amplitudes
        ov = abs(np.vdot(a, b)) ** 2
        rho = st8.to_matrix()
        assert np.trace(rho @ rho).real == pytest.approx((1.0 + ov) / 2.0, abs=1e-12)

    def test_large_m_approaches_maximally_mixed(self):
        # spectrum of a d-dimensional mixture of m Haar states concentrates
        # around 1/d inside edges (1 +- sqrt(d/m))^2 / d
        dims = BipartiteDims(8, 8)
        target = 1.0 / dims.total
        st16 = mix_random_states(dims, 16 * dims.total, rng(3))
        vals = np.linalg.eigvalsh(st16.to_matrix())
        assert vals.min() > (1 - 0.25) ** 2 * target * 0.9
        assert vals.max() < (1 + 0.25) ** 2 * target * 1.1
        st64 = mix_random_states(dims, 64 * dims.total, rng(3))
        vals64 = np.linalg.eigvalsh(st64.to_matrix())
        assert np.abs(vals64 - target).max() < np.abs(vals - target).max()
        assert np.abs(vals64 / target - 1.0).max() < 0.35



class TestSchmidt:
    def test_product_state(self):
        dims = BipartiteDims(2, 2)
        amp = np.zeros(4, complex)
        amp[0] = 1.0
        sd = schmidt(PureState(dims, amp))
        assert sd.rank == 1
        assert sd.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(sd.coefficients[1:] < 1e-12)

    def test_bell_state(self):
        sd = schmidt(ghz_state(2))
        assert sd.rank == 2
        np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_probabilities_match_reduced_eigenvalues(self):
        psi = sample_random_pure(BipartiteDims(8, 8), rng(4))
        mu2 = np.sort(schmidt(psi).probabilities)
        ev = np.sort(np.linalg.eigvalsh(partial_trace_b(psi)))
        np.testing.assert_allclose(mu2, ev, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), na=st.integers(2, 6), nb=st.integers(2, 6))
    def test_reconstruction_and_orthonormality(self, seed, na, nb):
        psi = sample_random_pure(BipartiteDims(na, nb), rng(seed))
        sd = schmidt(psi)
        assert abs((sd.coefficients**2).sum() - 1.0) < 1e-10
        k = len(sd.coefficients)
        np.testing.assert_allclose(sd.basis_a.conj() @ sd.basis_a.T, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(sd.basis_b.conj() @ sd.basis_b.T, np.eye(k), atol=1e-10)
        rebuilt = np.einsum("k,ki,ka->ia", sd.coefficients, sd.basis_a, sd.basis_b).reshape(-1)
        assert np.linalg.norm(rebuilt - psi.amplitudes) < 1e-10


class TestPartialTrace:
    def test_product_basis_state(self):
        dims = BipartiteDims(2, 2)
        amp = np.zeros(4, complex)
        amp[0] = 1.0
        np.testing.assert_allclose(partial_trace_b(PureState(dims, amp)), np.diag([1.0, 0.0]), atol=1e-14)

    def test_bell_reduction_is_maximally_mixed(self):
        rho_a = partial_trace_b(ghz_state(2))
        np.testing.assert_allclose(rho_a, np.eye(2) / 2, atol=1e-14)

    def test_random_pure_against_schmidt(self):
        psi = sample_random_pure(BipartiteDims(2, 2), rng(9))
        ev = np.sort(np.linalg.eigvalsh(partial_trace_b(psi)))
        mu2 = np.sort(schmidt(psi).probabilities)
        np.testing.assert_allclose(ev, mu2, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), na=st.integers(2, 5), nb=st.integers(2, 5))
    def test_reduced_spectra_agree_up_to_padding(self, seed, na, nb):
        psi = sample_random_pure(BipartiteDims(na, nb), rng(seed))
        ev_a = np.sort(np.linalg.eigvalsh(partial_trace_b(psi)))[::-1]
        rho_b = psi.matrix.T @ psi.matrix.conj()
        ev_b = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
        k = min(na, nb)
        np.testing.assert_allclose(ev_a[:k], ev_b[:k], atol=1e-9)
        assert np.all(np.abs(ev_a[k:]) < 1e-9)
        assert np.all(np.abs(ev_b[k:]) < 1e-9)
        s_a = von_neumann_entropy(partial_trace_b(psi))
        s_b = von_neumann_entropy(rho_b)
        assert abs(s_a - s_b) < 1e-9

    def test_mixed_state_forms_agree(self):
        st8 = mix_random_states(BipartiteDims(3, 4), 3, rng(12))
        from_list = partial_trace_b(st8)
        from_matrix = partial_trace_b(st8.to_matrix(), st8.dims)
        np.testing.assert_allclose(from_list, from_matrix, atol=1e-12)


class TestPartialTranspose:
    def test_identity_fixed(self):
        dims = BipartiteDims(3, 3)
        rho = np.eye(9) / 9
        np.testing.assert_allclose(partial_transpose_b(rho, dims), rho, atol=0)

    def test_bell_eigenvalues(self):
        rho = ghz_state(2).to_matrix()
        pt = partial_transpose_b(rho, BipartiteDims(2, 2))
        ev = np.sort(np.linalg.eigvalsh(pt))
        np.testing.assert_allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_separable_product_states_stay_psd(self):
        dims = BipartiteDims(4, 4)
        r = rng(13)
        for _ in range(100):
            rho = product_density(dims, r)
            pt = partial_transpose_b(rho, dims)
            assert np.linalg.eigvalsh(pt)[0] >= -1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), na=st.integers(2, 5), nb=st.integers(2, 5))
    def test_involution_and_trace(self, seed, na, nb):
        dims = BipartiteDims(na, nb)
        rho = random_density(dims.total, rng(seed))
        pt = partial_transpose_b(rho, dims)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
        back = partial_transpose_b(pt, dims)
        assert np.abs(back - rho).max() < 1e-14
        assert np.abs(pt - pt.conj().T).max() < 1e-12


class TestSpectrum:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_pure_pt_spectrum_law(self, seed, n):
        # eigenvalues of the partially transposed projector are +-mu_i mu_j
        # (i < j) together with mu_i^2
        psi = sample_random_pure(BipartiteDims(n, n), rng(seed))
        pt = partial_transpose_b(psi.to_matrix(), psi.dims)
        direct = np.sort(np.linalg.eigvalsh(pt))
        law = np.sort(mixture_pt_eigenvalues(psi.amplitudes[None], psi.dims))
        np.testing.assert_allclose(direct, law, atol=1e-9)

    @pytest.mark.parametrize(
        "n_a, n_b, m, include_diagonal",
        [(3, 5, 1, True), (3, 5, 1, False), (3, 5, 3, True), (4, 4, 3, True)],
    )
    def test_mixture_pt_eigenvalues_match_explicit_spectrum(self, n_a, n_b, m, include_diagonal):
        dims = BipartiteDims(n_a, n_b)
        amps = sample_random_pure_batch(dims, m, rng(40 + n_a + m))
        # rho^T_B built entry by entry, (rho^T_B)_{i alpha, j beta} = rho_{i beta, j alpha}
        a = amps.reshape(m, n_a, n_b)
        rho_tb = np.einsum("kib,kja->iajb", a, a.conj()).reshape(dims.total, dims.total) / m
        direct = np.linalg.eigvalsh(rho_tb)
        got = pt_spectrum(amps, dims, include_diagonal)
        if m > 1:
            np.testing.assert_allclose(got, direct, atol=1e-12)
            return
        # pure state: +mu_i mu_j, then -mu_i mu_j, then mu_i^2 unless sliced
        # off, in that order; the rest of the spectrum is zeros
        r = dims.schmidt_len
        half = r * (r - 1) // 2
        assert len(got) == 2 * half + (r if include_diagonal else 0)
        assert np.all(got[:half] > 0)
        np.testing.assert_array_equal(got[half : 2 * half], -got[:half])
        mu_sq = np.linalg.svd(a[0], compute_uv=False) ** 2
        if include_diagonal:
            np.testing.assert_array_equal(got[2 * half :], mu_sq)
        full = np.concatenate([got[: 2 * half], mu_sq, np.zeros(dims.total - 2 * half - r)])
        np.testing.assert_allclose(np.sort(full), direct, atol=1e-12)

    @pytest.mark.parametrize("include_diagonal", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n_a, n_b", [(3, 5), (5, 3)])
    def test_stack_equals_separate_calls_bit_for_bit(self, n_a, n_b, m, include_diagonal):
        # a (k, m, d) stack is k mixtures: one batched SVD at m = 1, one
        # eigensolve per mixture otherwise; leading axes keep their shape
        dims = BipartiteDims(n_a, n_b)
        amps = sample_random_pure_batch(dims, 6 * m, rng(70 + n_a + m)).reshape(6, m, dims.total)
        got = pt_spectrum(amps, dims, include_diagonal)
        assert np.array_equal(got, np.array([pt_spectrum(a, dims, include_diagonal) for a in amps]))
        nested = pt_spectrum(amps.reshape(2, 3, m, dims.total), dims, include_diagonal)
        assert np.array_equal(nested, got.reshape(2, 3, -1))


class TestMixtureDensity:
    @pytest.mark.parametrize("rows", [slice(None), slice(None, None, 2)], ids=["contiguous", "row-slice"])
    def test_matches_complex_product_and_is_hermitian(self, rows):
        amps = sample_random_pure_batch(BipartiteDims(4, 6), 9, rng(3))[rows]
        rho = mixture_density(amps)
        ref = amps.T @ amps.conj() / len(amps)
        assert np.abs(rho - ref).max() < 1e-15
        np.testing.assert_array_equal(rho, rho.conj().T)

    @pytest.mark.parametrize("n_a, n_b", [(3, 5), (5, 3), (4, 2)])
    @pytest.mark.parametrize("m", [2, 7, 40])
    def test_mixture_pt_eigenvalues_match_dense_path(self, n_a, n_b, m):
        dims = BipartiteDims(n_a, n_b)
        amps = sample_random_pure_batch(dims, m, rng(100 + 10 * n_a + m))
        rho = amps.T @ amps.conj() / m
        direct = np.linalg.eigvalsh(partial_transpose_b(rho, dims))
        np.testing.assert_allclose(mixture_pt_eigenvalues(amps, dims), direct, rtol=0, atol=1e-14)


class TestEntropy:
    def test_pure_state_zero(self):
        psi = sample_random_pure(BipartiteDims(2, 3), rng(31))
        assert von_neumann_entropy(psi.to_matrix()) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_qubit_is_one_bit(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([1.2, -0.2]))


class TestGHZ:
    def test_two_qubit_amplitudes(self):
        g = ghz_state(2)
        np.testing.assert_allclose(g.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            ghz_state(3)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_schmidt_rank_two_and_one_bit(self, n):
        g = ghz_state(n)
        sd = schmidt(g)
        assert sd.rank == 2
        np.testing.assert_allclose(sd.coefficients[:2], [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert von_neumann_entropy(partial_trace_b(g)) == pytest.approx(1.0, abs=1e-10)
