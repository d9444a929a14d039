"""Decomposable entanglement witnesses W = P + Q^T_B and the rescaled
expectation statistic w = n_a * n_b * tr(W rho).

Only the Q part matters for detection (a PSD P just shifts expectations
upward), so witnesses are Q^T_B with tr Q = 1 and no P block.  A negative w
certifies entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import (
    BipartiteDims,
    PureState,
    _rows,
    hermitian_eigenvalues,
    mixture_pt_eigenvalues,
    partial_transpose_b,
    sample_random_pure_batch,
)

ORTHONORMAL_TOL = 1e-8
ZERO_EIGENVALUE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Witness:
    """Witness Q^T_B with Q = (1/k) sum_i |phi_i><phi_i|, the uniform mixture
    of the k normalized rows |phi_i> of ``q_vectors``, a (k, n_a n_b) array.

    Unequal weights lose nothing: for orthonormal e_i, sum_i d_i |e_i><e_i|
    is the uniform mixture of the k normalized rows
    phi_j = sum_i sqrt(d_i) omega^(ij) e_i, omega = exp(2 pi i / k).
    Builders enforce orthonormality of the vectors; constructing the
    dataclass directly bypasses that check (used deliberately in
    correlated-vector experiments).
    """

    dims: BipartiteDims
    q_vectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_vectors", _rows(self.q_vectors, self.dims))

    @property
    def rank(self) -> int:
        return len(self.q_vectors)

    def to_matrix(self) -> np.ndarray:
        """Materialize W = Q^T_B as an explicit Hermitian matrix."""
        v = self.q_vectors
        return partial_transpose_b(v.T @ ((1.0 / len(v)) * v.conj()), self.dims)


class WitnessSpectrum(NamedTuple):
    """Spectrum of W: the magnitudes p > 0 of its exact +-p eigenvalue
    pairs, its other nonzero eigenvalues, and the number of zero
    eigenvalues; 2 len(pairs) + len(unpaired) + zeros = n_a * n_b.  Only
    the Schmidt form of a rank-one witness names pairs (its +-mu_i mu_j); a
    dense solve reports none, and its unpaired values come ascending."""

    pairs: np.ndarray
    unpaired: np.ndarray
    zeros: int

    @property
    def nonzero(self) -> np.ndarray:
        """Every nonzero eigenvalue, ascending."""
        return np.sort(np.concatenate([-self.pairs, self.pairs, self.unpaired]))


def witness_from_vector(phi: PureState) -> Witness:
    """Rank-one witness (|phi><phi|)^T_B."""
    return Witness(phi.dims, phi.amplitudes[None])


def witness_rank_k(phis: "list[PureState] | tuple[PureState, ...]") -> Witness:
    """Witness on k orthonormal vectors.  Rejects non-orthonormal inputs."""
    phis = tuple(phis)
    if not phis:
        raise ValueError("need at least one vector")
    v = np.stack([p.amplitudes for p in phis])
    gram = v.conj() @ v.T
    if np.abs(gram - np.eye(len(phis))).max() > ORTHONORMAL_TOL:
        raise ValueError("witness vectors are not orthonormal")
    return Witness(phis[0].dims, v)


def rank2_state(dims: BipartiteDims, lam: float) -> PureState:
    """Schmidt-rank-2 vector sqrt(lam)|00> + sqrt(1-lam)|11> in the
    computational basis.  Haar unitary invariance makes the basis choice
    immaterial for ensemble statistics."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly in (0, 1), got {lam}")
    amp = np.zeros(dims.total, dtype=np.complex128)
    amp[0] = np.sqrt(lam)
    amp[1 * dims.n_b + 1] = np.sqrt(1.0 - lam)
    return PureState(dims, amp)


def random_haar_witness(dims: BipartiteDims, rng: np.random.Generator) -> Witness:
    """Rank-one witness from a Haar-random vector (full Schmidt rank a.s.)."""
    return Witness(dims, sample_random_pure_batch(dims, 1, rng))


def random_rank_k_witness(dims: BipartiteDims, k: int, rng: np.random.Generator) -> Witness:
    """Witness on k orthonormal vectors obtained by QR-orthonormalizing k
    Haar draws."""
    if not 1 <= k <= dims.total:
        raise ValueError(f"need 1 <= k <= {dims.total}, got {k}")
    v = sample_random_pure_batch(dims, k, rng)
    q, _ = np.linalg.qr(v.T)
    return Witness(dims, q.T)


def pt_quadratic_form(phi_matrix: np.ndarray, psi_matrix: np.ndarray) -> float:
    """<phi| (|psi><psi|)^T_B |phi> without forming any n^2 x n^2 matrix.

    With C = Psi Phi^T (an n_a x n_a product of the amplitude matrices) the
    value is sum_ij C_ij conj(C_ji), real by Hermiticity; the one-state
    case of ``pt_quadratic_form_batch``.
    """
    return float(pt_quadratic_form_batch(phi_matrix, psi_matrix[None])[0])


def pt_quadratic_form_batch(phi_matrix: np.ndarray, psi_matrices: np.ndarray) -> np.ndarray:
    """``pt_quadratic_form`` of each state of a (k, n_a, n_b) stack."""
    k, n_a, n_b = psi_matrices.shape
    c = (psi_matrices.reshape(k * n_a, n_b) @ phi_matrix.T).reshape(k, n_a, n_a)
    return np.einsum("kij,kji->k", c, c.conj()).real


def witness_spectrum(witness: Witness) -> WitnessSpectrum:
    """Eigenvalues of W.

    A rank-one witness has the closed-form spectrum of a partially
    transposed pure state, the pairs +-mu_i mu_j (i < j) and the unpaired
    mu_i^2 from the Schmidt coefficients of its vector; anything else takes
    one dense eigensolve of the (n_a n_b)^2 matrix,
    ``qstate.hermitian_eigenvalues`` on the fresh buffer of ``to_matrix``.
    Eigenvalues within ``ZERO_EIGENVALUE_RTOL`` of zero, relative to the
    largest, count as zeros.
    """
    if witness.rank == 1:
        # schmidt_pt_eigenvalues' layout: the s(s-1)/2 mu_i mu_j, their
        # negatives, then the s values mu_i^2
        s = witness.dims.schmidt_len
        eig = mixture_pt_eigenvalues(witness.q_vectors, witness.dims)
        off, diag = eig[: s * (s - 1) // 2], eig[s * (s - 1) :]
    else:
        eig = hermitian_eigenvalues(witness.to_matrix())
        off, diag = eig[:0], eig
    floor = ZERO_EIGENVALUE_RTOL * np.abs(eig).max()
    pairs, unpaired = off[off > floor], diag[np.abs(diag) > floor]
    return WitnessSpectrum(pairs, unpaired, witness.dims.total - 2 * len(pairs) - len(unpaired))


def predicted_cumulants(spectrum: WitnessSpectrum, m: int = 1) -> dict[int, float]:
    """Exact cumulants kappa_2..kappa_4 of w for uniform mixtures of m Haar
    states measured against a witness with this spectrum.

    For one state w - 1 = sum_k c_k D_k with c = n lam - 1 over all
    n = n_a n_b eigenvalues (a zero gives c = -1) and D flat Dirichlet, so
    the central moments are h_r(c) / C(n + r - 1, r), with the complete
    homogeneous polynomials h_r from the power sums p_j by Newton's
    identities r h_r = sum_j p_j h_(r-j); a mean of m copies divides
    kappa_r by m^(r-1).
    """
    n = len(spectrum.nonzero) + spectrum.zeros
    c = n * spectrum.nonzero - 1.0
    sums = np.cumprod([np.ones_like(c)] + [c] * 4, axis=0).sum(axis=1)  # sum c**j by running products
    p = [float(s) + spectrum.zeros * (-1.0) ** j for j, s in enumerate(sums)]
    h = [1.0]
    for r in range(1, 5):
        h.append(sum(p[j] * h[r - j] for j in range(1, r + 1)) / r)
    mu = [h[r] / math.comb(n + r - 1, r) for r in range(5)]
    kappa = {2: mu[2], 3: mu[3], 4: mu[4] - 3.0 * mu[2] ** 2}
    return {r: k / m ** (r - 1) for r, k in kappa.items()}
