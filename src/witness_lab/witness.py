"""Decomposable entanglement witnesses W = P + Q^T_B and the rescaled
expectation statistic w = n_a * n_b * tr(W rho).

Only the Q part matters for detection (a PSD P just shifts expectations
upward), so witnesses are built as Q^T_B with tr Q = 1; the optional P block
is kept for completeness checks.  A negative w certifies entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qstate import (
    BipartiteDims,
    MixedState,
    PureState,
    hermitian_spectrum,
    partial_transpose_b,
    pure_pt_eigenvalues,
    sample_random_pure_batch,
    schmidt,
    schmidt_coefficients,
)

ORTHONORMAL_TOL = 1e-8
ZERO_EIGENVALUE_RTOL = 1e-12


@dataclass(frozen=True)
class Witness:
    """Witness Q^T_B (+ optional P) with Q = sum_i d_i |phi_i><phi_i|.

    ``q_weights`` are the positive d_i summing to one, ``q_vectors`` the
    corresponding pure states.  Builders enforce orthonormality of the
    vectors; constructing the dataclass directly bypasses that check (used
    deliberately in correlated-vector experiments).
    """

    dims: BipartiteDims
    q_weights: np.ndarray
    q_vectors: tuple[PureState, ...]
    p_part: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.q_weights, dtype=np.float64)
        if w.ndim != 1 or len(w) != len(self.q_vectors) or len(w) == 0:
            raise ValueError("need one positive weight per vector")
        if np.any(w <= 0):
            raise ValueError("witness weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"witness weights must sum to 1, got {w.sum()!r}")
        for phi in self.q_vectors:
            if phi.dims != self.dims:
                raise ValueError("witness vector dims mismatch")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "q_weights", w)

    @property
    def rank(self) -> int:
        return len(self.q_vectors)

    @property
    def sigma_sq(self) -> float:
        """sum_i d_i^2, the Gaussian width of w for orthonormal vectors."""
        return float(np.sum(self.q_weights**2))

    def q_matrix(self) -> np.ndarray:
        v = np.stack([phi.amplitudes for phi in self.q_vectors])
        return v.T @ (self.q_weights[:, None] * v.conj())

    def to_matrix(self) -> np.ndarray:
        """Materialize W = P + Q^T_B as an explicit Hermitian matrix."""
        w = partial_transpose_b(self.q_matrix(), self.dims)
        if self.p_part is not None:
            w = w + np.asarray(self.p_part, dtype=np.complex128)
        return w


class WitnessSample(NamedTuple):
    """One measured expectation: rescaled w, raw tr(W rho), mixture size."""

    w: float
    raw: float
    m: int | None


class WitnessSpectrum(NamedTuple):
    """Spectrum of W: the nonzero eigenvalues, ascending, and the number of
    zero eigenvalues; len(nonzero) + zeros = n_a * n_b."""

    nonzero: np.ndarray
    zeros: int


class OptimalWitnessResult(NamedTuple):
    witness: Witness
    lambda_min: float
    ppt: bool


def witness_from_vector(phi: PureState) -> Witness:
    """Rank-one witness (|phi><phi|)^T_B."""
    return Witness(dims=phi.dims, q_weights=np.array([1.0]), q_vectors=(phi,))


def witness_rank_k(phis: "list[PureState] | tuple[PureState, ...]") -> Witness:
    """Witness from k orthonormal vectors with uniform weights 1/k.  Rejects
    non-orthonormal inputs."""
    phis = tuple(phis)
    if not phis:
        raise ValueError("need at least one vector")
    v = np.stack([p.amplitudes for p in phis])
    gram = v.conj() @ v.T
    if np.abs(gram - np.eye(len(phis))).max() > ORTHONORMAL_TOL:
        raise ValueError("witness vectors are not orthonormal")
    k = len(phis)
    return Witness(dims=phis[0].dims, q_weights=np.full(k, 1.0 / k), q_vectors=phis)


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
    amp = sample_random_pure_batch(dims, 1, rng)[0]
    return witness_from_vector(PureState(dims, amp))


def random_rank_k_witness(dims: BipartiteDims, k: int, rng: np.random.Generator) -> Witness:
    """Uniform-weight witness on k orthonormal vectors obtained by
    QR-orthonormalizing k Haar draws."""
    if not 1 <= k <= dims.total:
        raise ValueError(f"need 1 <= k <= {dims.total}, got {k}")
    v = sample_random_pure_batch(dims, k, rng)
    q, _ = np.linalg.qr(v.T)
    phis = tuple(PureState(dims, q[:, i]) for i in range(k))
    return witness_rank_k(phis)


def pt_quadratic_form(phi_matrix: np.ndarray, psi_matrix: np.ndarray) -> float:
    """<phi| (|psi><psi|)^T_B |phi> without forming any n^2 x n^2 matrix.

    With C = Psi Phi^T (an n_a x n_a product of the amplitude matrices) the
    value is sum_ij C_ij conj(C_ji), real by Hermiticity.
    """
    c = psi_matrix @ phi_matrix.T
    return float(np.einsum("ij,ji->", c, c.conj()).real)


def pt_quadratic_form_batch(phi_matrix: np.ndarray, psi_matrices: np.ndarray) -> np.ndarray:
    """Vectorized ``pt_quadratic_form`` over a (k, n_a, n_b) stack."""
    k, n_a, n_b = psi_matrices.shape
    c = (psi_matrices.reshape(k * n_a, n_b) @ phi_matrix.T).reshape(k, n_a, n_a)
    return np.einsum("kij,kji->k", c, c.conj()).real


def _raw_expectation_pure(witness: Witness, psi: PureState) -> float:
    psi_m = psi.matrix
    val = sum(
        d * pt_quadratic_form(phi.matrix, psi_m)
        for d, phi in zip(witness.q_weights, witness.q_vectors)
    )
    if witness.p_part is not None:
        val += float(np.vdot(psi.amplitudes, witness.p_part @ psi.amplitudes).real)
    return val


def expectation(witness: Witness, state: "PureState | MixedState") -> WitnessSample:
    """tr(W rho), rescaled by n_a * n_b.

    List-form mixtures are averaged component by component; explicit matrices
    go through the partial transpose (tr(Q^T_B rho) = tr(Q rho^T_B)).
    """
    if state.dims != witness.dims:
        raise ValueError(f"dims mismatch: witness {witness.dims}, state {state.dims}")
    if isinstance(state, PureState):
        raw = _raw_expectation_pure(witness, state)
        m = 1
    elif state.components is not None:
        raw = sum(_raw_expectation_pure(witness, st) for st in state.components) / len(state.components)
        m = len(state.components)
    else:
        rho_tb = partial_transpose_b(state.to_matrix(), state.dims)
        raw = sum(
            float(d * np.vdot(phi.amplitudes, rho_tb @ phi.amplitudes).real)
            for d, phi in zip(witness.q_weights, witness.q_vectors)
        )
        if witness.p_part is not None:
            raw += float(np.trace(witness.p_part @ state.to_matrix()).real)
        m = state.m
    return WitnessSample(w=witness.dims.total * raw, raw=raw, m=m)


def witness_spectrum(witness: Witness) -> WitnessSpectrum:
    """Eigenvalues of W.

    A rank-one witness without P block has the closed-form spectrum of a
    partially transposed pure state, {mu_i^2} and {+-mu_i mu_j} from the
    Schmidt coefficients of its vector; anything else takes one dense
    eigensolve of the (n_a n_b)^2 matrix.  Eigenvalues within
    ``ZERO_EIGENVALUE_RTOL`` of zero, relative to the largest, count as zeros.
    """
    if witness.rank == 1 and witness.p_part is None:
        eig = pure_pt_eigenvalues(witness.q_vectors[0])
    else:
        eig = np.linalg.eigvalsh(witness.to_matrix())
    nonzero = eig[np.abs(eig) > ZERO_EIGENVALUE_RTOL * np.abs(eig).max()]
    return WitnessSpectrum(nonzero=nonzero, zeros=witness.dims.total - len(nonzero))


def optimal_witness(state: "PureState | MixedState") -> OptimalWitnessResult:
    """Best decomposable witness for a known state: the projector onto the
    eigenvector of rho^T_B with minimal eigenvalue, partially transposed.

    Guarantees tr(W_opt rho) = lambda_min.  A nonnegative lambda_min means
    the state is PPT and undetectable this way; the ``ppt`` flag is set and
    the witness is still returned.

    For a pure state sum_i mu_i |a_i b_i> the answer is closed form:
    lambda_min = -mu_1 mu_2 with eigenvector (|a_1 b_2*> - |a_2 b_1*>)/sqrt(2),
    where b* is the complex conjugate of b.  Mixed states take a dense
    eigensolve.
    """
    if isinstance(state, PureState):
        sd = schmidt(state)
        a, b = sd.basis_a, sd.basis_b.conj()
        vec = (np.kron(a[0], b[1]) - np.kron(a[1], b[0])) / np.sqrt(2.0)
        lam_min = -float(sd.coefficients[0] * sd.coefficients[1])
    else:
        rho_tb = partial_transpose_b(state.to_matrix(), state.dims)
        spec = hermitian_spectrum(rho_tb, want_vectors=True)
        vec, lam_min = spec.min_eigenvector, spec.min_eigenvalue
    w = witness_from_vector(PureState(state.dims, vec))
    return OptimalWitnessResult(witness=w, lambda_min=lam_min, ppt=lam_min >= 0)


def sample_w_overlap_model(
    sigma_a_eigenvalues: np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> "float | np.ndarray":
    """Draw w from the overlap model: independent exponential overlap
    magnitudes y_ij and uniform phases give

        w = sum_ij sqrt(lam_i lam_j) sqrt(y_ij y_ji) cos(phi_ij - phi_ji).

    sqrt(y) e^{i phi} is a standard complex Gaussian, and for two of them
    2 Re(a conj(b)) = E - E' with E, E' independent Exp(1) (the squared
    moduli of (a +- b)/sqrt(2)).  So w has the law of sum_k c_k E_k with
    c = {lam_i} and {+sqrt(lam_i lam_j), -sqrt(lam_i lam_j)} for i < j,
    which is how it is drawn.

    This is a purely classical sampler over the witness's reduced spectrum
    lam_i, independent of the quantum simulation path, and serves as its
    statistical oracle.
    """
    lam = np.asarray(sigma_a_eigenvalues, dtype=np.float64)
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues must sum to 1, got {lam.sum()!r}")
    off = np.sqrt(np.outer(lam, lam)[np.triu_indices(len(lam), k=1)])
    c = np.concatenate([lam, off, -off])
    n = 1 if size is None else int(size)
    w = rng.standard_exponential((n, len(c))) @ c
    return float(w[0]) if size is None else w


def trace_powers(witness: Witness, k_max: int) -> np.ndarray:
    """tr W^n for n = 1..k_max of a rank-one witness, via the closed form in
    the Schmidt probabilities lam of its vector:

        tr W^(2k) = (sum lam^k)^2,   tr W^(2k+1) = sum lam^(2k+1).
    """
    if witness.rank != 1:
        raise ValueError("trace powers in closed form need a rank-one witness")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lam = schmidt_coefficients(witness.q_vectors[0].matrix) ** 2
    out = np.empty(k_max)
    for n in range(1, k_max + 1):
        if n % 2 == 0:
            out[n - 1] = np.sum(lam ** (n // 2)) ** 2
        else:
            out[n - 1] = np.sum(lam**n)
    return out


def predicted_cumulants(witness: Witness, m: int = 1) -> dict[int, float]:
    """Leading-order cumulants of w for random pure states measured against
    this witness: kappa_2 = tr W^2, kappa_3 = 2 tr W^3, kappa_4 = 6 tr W^4
    per rank-one component, combined as kappa_n = sum_i d_i^n kappa_n^(i) and
    scaled by 1/m^(n-1) for an m-component mixture."""
    coef = {2: 1.0, 3: 2.0, 4: 6.0}
    out = {2: 0.0, 3: 0.0, 4: 0.0}
    for d, phi in zip(witness.q_weights, witness.q_vectors):
        tp = trace_powers(witness_from_vector(phi), 4)
        for n in (2, 3, 4):
            out[n] += d**n * coef[n] * tp[n - 1]
    for n in (2, 3, 4):
        out[n] /= m ** (n - 1)
    return out
