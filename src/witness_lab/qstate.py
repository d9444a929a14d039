"""Bipartite quantum states: Haar sampling, mixtures, Schmidt decomposition,
partial trace / partial transpose, spectra and entropy.

Conventions
-----------
The joint basis is ordered row-major as |i alpha> with the A index slow:
``amplitudes[i * n_b + alpha]``.  Reshaping a state vector to an
``(n_a, n_b)`` matrix therefore puts subsystem A on the rows.  The partial
transpose is always taken over subsystem B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-10
PSD_TOL = 1e-10
SCHMIDT_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (n_a, n_b) of a bipartite Hilbert space."""

    n_a: int
    n_b: int

    def __post_init__(self) -> None:
        if self.n_a < 2 or self.n_b < 2:
            raise ValueError(f"subsystem dimensions must be >= 2, got ({self.n_a}, {self.n_b})")

    @property
    def total(self) -> int:
        return self.n_a * self.n_b

    @property
    def schmidt_len(self) -> int:
        return min(self.n_a, self.n_b)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on H_A (x) H_B."""

    dims: BipartiteDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.dims.total,):
            raise ValueError(f"expected {self.dims.total} amplitudes, got shape {amp.shape}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _frozen_array(amp))

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as the n_a x n_b coefficient matrix (A on rows)."""
        return self.amplitudes.reshape(self.dims.n_a, self.dims.n_b)

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class MixedState:
    """Density operator, stored as a uniform mixture of pure states and/or an
    explicit Hermitian matrix.

    The pure-component list is kept whenever available so that expectation
    values can be evaluated component-wise without materializing the full
    matrix (which is quadratically larger).  ``m`` is the number of mixture
    components; it is None for states constructed directly from a matrix.
    """

    dims: BipartiteDims
    components: tuple[PureState, ...] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.components is None and self.matrix is None:
            raise ValueError("MixedState needs pure components or an explicit matrix")
        if self.components is not None:
            for st in self.components:
                if st.dims != self.dims:
                    raise ValueError("component dims mismatch")
        if self.matrix is not None:
            mat = np.asarray(self.matrix, dtype=np.complex128)
            d = self.dims.total
            if mat.shape != (d, d):
                raise ValueError(f"expected {d}x{d} matrix, got {mat.shape}")
            if np.abs(mat - mat.conj().T).max() > 1e-12:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(mat).real - 1.0) > 1e-12:
                raise ValueError("density matrix trace differs from 1")
            object.__setattr__(self, "matrix", _frozen_array(mat))

    @classmethod
    def from_components(cls, states: "list[PureState] | tuple[PureState, ...]") -> "MixedState":
        states = tuple(states)
        if not states:
            raise ValueError("need at least one pure component")
        return cls(dims=states[0].dims, components=states)

    @classmethod
    def from_matrix(cls, dims: BipartiteDims, matrix: np.ndarray) -> "MixedState":
        state = cls(dims=dims, matrix=matrix)
        lo = float(np.linalg.eigvalsh(state.matrix)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix is not PSD: min eigenvalue {lo:.3e}")
        return state

    @property
    def m(self) -> int | None:
        return len(self.components) if self.components is not None else None

    @cached_property
    def _materialized(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        v = np.stack([st.amplitudes for st in self.components])
        rho = (v.T @ v.conj()) / len(self.components)
        return _frozen_array(rho)

    def to_matrix(self) -> np.ndarray:
        """Explicit density matrix; materialized lazily and cached."""
        return self._materialized

    def purity(self) -> float:
        if self.components is not None:
            v = np.stack([st.amplitudes for st in self.components])
            gram = v.conj() @ v.T
            return float(np.sum(np.abs(gram) ** 2).real) / len(self.components) ** 2
        rho = self.to_matrix()
        return float(np.trace(rho @ rho).real)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a pure state: nonincreasing coefficients mu_i and the
    matching orthonormal bases of the two subsystems."""

    coefficients: np.ndarray
    basis_a: np.ndarray  # rows are the |a_i>
    basis_b: np.ndarray  # rows are the |b_i>
    rank: int

    @property
    def probabilities(self) -> np.ndarray:
        """Squared coefficients, i.e. the eigenvalues of the reduced state."""
        return self.coefficients**2


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    min_eigenvalue: float
    min_eigenvector: np.ndarray | None


def sample_random_pure(dims: BipartiteDims, rng: np.random.Generator) -> PureState:
    """Draw a Haar-distributed pure state.

    Each amplitude is an independent standard complex Gaussian; the vector is
    then normalized.  This gives the unique unitarily invariant distribution,
    with E[c_i c_j*] = delta_ij / (n_a n_b).
    """
    return PureState(dims, sample_random_pure_batch(dims, 1, rng)[0])


def sample_random_pure_batch(dims: BipartiteDims, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` Haar states at once; returns an (n, total) complex array of
    normalized amplitude vectors."""
    x = rng.standard_normal((n, 2 * dims.total))
    nrm = np.sqrt(np.einsum("ki,ki->k", x, x))
    return x.view(np.complex128) / nrm[:, None]


def mix_random_states(dims: BipartiteDims, m: int, rng: np.random.Generator) -> MixedState:
    """Uniform mixture of ``m`` independently drawn Haar pure states."""
    if m < 1:
        raise ValueError(f"mixture size must be >= 1, got {m}")
    amps = sample_random_pure_batch(dims, m, rng)
    return MixedState.from_components([PureState(dims, a) for a in amps])


def sample_product_density(dims: BipartiteDims, rng: np.random.Generator) -> np.ndarray:
    """Random separable product state rho_A (x) rho_B (full-rank Wishart
    factors).  Useful as a PPT / witness-positivity probe."""

    def _rand_density(n: int) -> np.ndarray:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    return np.kron(_rand_density(dims.n_a), _rand_density(dims.n_b))


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the amplitude matrix.

    Coefficients are sorted nonincreasing; the rank counts coefficients above
    ``SCHMIDT_RANK_RTOL`` relative to the largest one.
    """
    u, s, vh = np.linalg.svd(state.matrix, full_matrices=False)
    rank = int(np.sum(s > SCHMIDT_RANK_RTOL * s[0]))
    return SchmidtDecomposition(
        coefficients=_frozen_array(s),
        basis_a=_frozen_array(u.T),
        basis_b=_frozen_array(vh),
        rank=rank,
    )


def schmidt_coefficients(amplitude_matrix: np.ndarray) -> np.ndarray:
    """Singular values of an (n_a, n_b) amplitude matrix, nonincreasing."""
    return np.linalg.svd(amplitude_matrix, compute_uv=False)


def _as_density(obj, dims: BipartiteDims | None) -> tuple[np.ndarray, BipartiteDims]:
    if isinstance(obj, PureState):
        return obj.density_matrix(), obj.dims
    if isinstance(obj, MixedState):
        return obj.to_matrix(), obj.dims
    if dims is None:
        raise ValueError("dims are required when passing a bare matrix")
    return np.asarray(obj, dtype=np.complex128), dims


def partial_trace_b(obj, dims: BipartiteDims | None = None) -> np.ndarray:
    """Reduced state on A: (rho_A)_ij = sum_alpha rho_{i alpha, j alpha}."""
    if isinstance(obj, PureState):
        a = obj.matrix
        return a @ a.conj().T
    if isinstance(obj, MixedState) and obj.components is not None:
        acc = np.zeros((obj.dims.n_a, obj.dims.n_a), dtype=np.complex128)
        for st in obj.components:
            a = st.matrix
            acc += a @ a.conj().T
        return acc / len(obj.components)
    rho, d = _as_density(obj, dims)
    return np.einsum("iaja->ij", rho.reshape(d.n_a, d.n_b, d.n_a, d.n_b))


def partial_trace_a(obj, dims: BipartiteDims | None = None) -> np.ndarray:
    """Reduced state on B: (rho_B)_ab = sum_i rho_{i a, i b}."""
    if isinstance(obj, PureState):
        a = obj.matrix
        return a.T @ a.conj()
    if isinstance(obj, MixedState) and obj.components is not None:
        acc = np.zeros((obj.dims.n_b, obj.dims.n_b), dtype=np.complex128)
        for st in obj.components:
            a = st.matrix
            acc += a.T @ a.conj()
        return acc / len(obj.components)
    rho, d = _as_density(obj, dims)
    return np.einsum("iaib->ab", rho.reshape(d.n_a, d.n_b, d.n_a, d.n_b))


def partial_transpose_b(obj, dims: BipartiteDims | None = None) -> np.ndarray:
    """Partial transpose over B: out_{i alpha, j beta} = rho_{i beta, j alpha}.

    Hermiticity and the trace are preserved; applying it twice gives back the
    input exactly (it is a permutation of matrix entries).
    """
    rho, d = _as_density(obj, dims)
    r = rho.reshape(d.n_a, d.n_b, d.n_a, d.n_b)
    return r.transpose(0, 3, 2, 1).reshape(d.total, d.total)


def hermitian_spectrum(matrix: np.ndarray, want_vectors: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix, ascending.

    The input must be Hermitian within ``HERM_TOL`` (it is symmetrized as
    (A + A^dagger)/2 before solving); anything worse is rejected.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dev = float(np.abs(mat - mat.conj().T).max())
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
    herm = (mat + mat.conj().T) / 2
    if want_vectors:
        vals, vecs = np.linalg.eigh(herm)
        return Spectrum(
            eigenvalues=_frozen_array(vals),
            eigenvectors=_frozen_array(vecs),
            min_eigenvalue=float(vals[0]),
            min_eigenvector=_frozen_array(vecs[:, 0]),
        )
    vals = np.linalg.eigvalsh(herm)
    return Spectrum(
        eigenvalues=_frozen_array(vals),
        eigenvectors=None,
        min_eigenvalue=float(vals[0]),
        min_eigenvector=None,
    )


def mixture_pt_eigenvalues(amps: np.ndarray, dims: BipartiteDims, include_diagonal: bool = True) -> np.ndarray:
    """Eigenvalues of the partial transpose of the uniform mixture of the
    normalized rows of ``amps`` (an (m, n_a n_b) array).

    A single row is a pure state, whose spectrum follows from its Schmidt
    coefficients alone: +-mu_i mu_j for i < j, then the n "diagonal" values
    mu_i^2 unless excluded, in that (unsorted) order.  More rows take one
    dense eigensolve of rho^T_B and come back ascending.
    """
    m = len(amps)
    if m == 1:
        mu = schmidt_coefficients(amps[0].reshape(dims.n_a, dims.n_b))
        off = np.outer(mu, mu)[np.triu_indices(len(mu), k=1)]
        parts = [off, -off, mu**2] if include_diagonal else [off, -off]
        return np.concatenate(parts)
    rho = (amps.T @ amps.conj()) / m
    return np.linalg.eigvalsh(partial_transpose_b(rho, dims))


def pure_pt_eigenvalues(state: PureState, include_diagonal: bool = True) -> np.ndarray:
    """Ascending eigenvalues of the partial transpose of a pure-state
    projector, from the Schmidt coefficients alone (see
    ``mixture_pt_eigenvalues``).

    Much cheaper than an explicit eigensolve and exact; the diagonal block can
    be dropped, which is how spectral histograms isolate the +-mu_i mu_j part.
    """
    return np.sort(mixture_pt_eigenvalues(state.amplitudes[None], state.dims, include_diagonal))


def von_neumann_entropy(obj, dims: BipartiteDims | None = None) -> float:
    """Entropy -sum(lam * log2(lam)) in bits of a PSD, trace-one matrix.

    Eigenvalues below -1e-8 are rejected; small negative round-off is clipped
    to zero and 0*log(0) is taken as 0.
    """
    if isinstance(obj, MixedState):
        mat = obj.to_matrix()
    elif isinstance(obj, PureState):
        mat = obj.density_matrix()
    else:
        mat = np.asarray(obj, dtype=np.complex128)
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    if vals[0] < -1e-8:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]:.3e}")
    if abs(vals.sum() - 1.0) > 1e-8:
        raise ValueError(f"trace differs from 1 by {abs(vals.sum() - 1.0):.3e}")
    vals = vals[vals > 0]
    return float(-(vals * np.log2(vals)).sum())


def ghz_state(n_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on the symmetric bipartition of an even
    number of qubits, i.e. dims (2^(n/2), 2^(n/2))."""
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ValueError(f"need an even number of qubits >= 2, got {n_qubits}")
    half = 2 ** (n_qubits // 2)
    dims = BipartiteDims(half, half)
    amp = np.zeros(dims.total, dtype=np.complex128)
    amp[0] = amp[-1] = 1 / np.sqrt(2)
    return PureState(dims, amp)
