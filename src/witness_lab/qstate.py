"""Bipartite quantum states: Haar sampling, mixtures, Schmidt decomposition,
partial trace / partial transpose, spectra and entropy.

Conventions
-----------
The joint basis is ordered row-major as |i alpha> with the A index slow:
``amplitudes[i * n_b + alpha]``.  Reshaping a state vector to an
``(n_a, n_b)`` matrix therefore puts subsystem A on the rows.  The partial
transpose is always taken over subsystem B.

BLAS threads
------------
A process computes every result on one BLAS thread, whatever count it
started with (see the "Thread policy" of ``ensemble``).  The command line
sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads, unless the user set
it, so OpenBLAS starts no idle server thread.  A library caller may have
loaded numpy first, and the library never writes the environment, so
importing this module also sets numpy's bundled OpenBLAS to one thread,
before any numeric work of the package.  ``BLAS_THREADS_AT_START`` is
OpenBLAS's count before that pin.  When no OpenBLAS is found, nothing is
set and both are None.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NORM_TOL = 1e-12
SCHMIDT_RANK_RTOL = 1e-12

# per symbol naming of numpy's bundled OpenBLAS: its thread-count getter and
# setter, LAPACKE's two-stage Hermitian eigensolver, and LAPACK's integer
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "scipy_LAPACKE_zheevd_2stage64_", ctypes.c_int64),
    ("openblas_get_num_threads", "openblas_set_num_threads", "LAPACKE_zheevd_2stage", ctypes.c_int),
)
_LAPACK_COL_MAJOR = 102


def _openblas():
    """((get, set) of the thread count, zheevd_2stage) from numpy's bundled
    OpenBLAS; the solver is None when the library lacks it, and both are
    None when the library or its thread controls are not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name, eig_name, lapack_int in _OPENBLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            eig = getattr(lib, eig_name, None)
            if eig is not None:
                # (layout, jobz, uplo, n, a, lda, w) -> info
                ptr = ctypes.c_void_p
                eig.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, lapack_int, ptr, lapack_int, ptr]
                eig.restype = lapack_int
            return (get, put), eig
    return None, None


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread unless it is there already:
    setting it anew after a fork restarts its thread pool, whose idle
    threads then spin."""
    if _OPENBLAS_THREADS is not None:
        get, put = _OPENBLAS_THREADS
        if get() != 1:
            put(1)


_OPENBLAS_THREADS, _ZHEEVD_2STAGE = _openblas()
BLAS_THREADS_AT_START = None if _OPENBLAS_THREADS is None else _OPENBLAS_THREADS[0]()
_one_blas_thread()
BLAS_THREADS_PER_TASK = None if _OPENBLAS_THREADS is None else 1
DENSE_EIGENSOLVER = "eigvalsh" if _ZHEEVD_2STAGE is None else "zheevd_2stage"


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


def _rows(amplitudes, dims: BipartiteDims) -> np.ndarray:
    """``amplitudes`` as a read-only, C-ordered complex (m, n_a n_b) array of
    m >= 1 normalized rows; any other shape, or a row whose norm is off by
    more than ``NORM_TOL`` (or is NaN), raises ValueError."""
    amp = np.array(amplitudes, dtype=np.complex128, order="C")
    if amp.ndim != 2 or len(amp) == 0 or amp.shape[1] != dims.total:
        raise ValueError(f"expected m >= 1 rows of {dims.total} amplitudes, got shape {amp.shape}")
    off = np.abs(np.linalg.norm(amp, axis=1) - 1.0).max()
    if not off <= NORM_TOL:  # a NaN amplitude fails too
        raise ValueError(f"state is not normalized: |norm - 1| = {off:.3e}")
    amp.setflags(write=False)
    return amp


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on H_A (x) H_B."""

    dims: BipartiteDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _rows(np.asarray(self.amplitudes)[None], self.dims)[0])

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as the n_a x n_b coefficient matrix (A on rows)."""
        return self.amplitudes.reshape(self.dims.n_a, self.dims.n_b)

    def to_matrix(self) -> np.ndarray:
        """Density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class MixedState:
    """Uniform mixture of the m pure states whose amplitudes are the rows of
    ``amplitudes``, an (m, n_a n_b) array.

    Expectation values are evaluated row-wise, without materializing the
    full matrix (which is quadratically larger).
    """

    dims: BipartiteDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _rows(self.amplitudes, self.dims))

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    def to_matrix(self) -> np.ndarray:
        """Explicit density matrix, formed anew on each call."""
        return mixture_density(self.amplitudes)


@dataclass(frozen=True, eq=False)
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
    # in place, and bit for bit what dividing the complex view by the norm
    # gives: numpy divides a complex number by a real one as a * (1 / c)
    x *= (1.0 / np.sqrt(np.einsum("ki,ki->k", x, x)))[:, None]
    return x.view(np.complex128)


def mix_random_states(dims: BipartiteDims, m: int, rng: np.random.Generator) -> MixedState:
    """Uniform mixture of ``m`` >= 1 independently drawn Haar pure states."""
    return MixedState(dims, sample_random_pure_batch(dims, m, rng))


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


def schmidt_pt_eigenvalues(mu: np.ndarray) -> np.ndarray:
    """Partial-transpose spectrum of a pure state from its nonincreasing
    Schmidt coefficients ``mu``: +-mu_i mu_j for i < j, then the n
    "diagonal" values mu_i^2, in that (unsorted) order.  A (k, n) stack of
    coefficients gives a (k, n^2) stack of spectra."""
    i, j = np.triu_indices(mu.shape[-1], k=1)
    off = mu[..., i] * mu[..., j]
    return np.concatenate([off, -off, mu**2], axis=-1)


def partial_trace_b(obj, dims: BipartiteDims | None = None) -> np.ndarray:
    """Reduced state on A: (rho_A)_ij = sum_alpha rho_{i alpha, j alpha}.
    A pure or mixed state is read from its amplitude rows (a pure state is a
    mixture of one); a bare density matrix needs its ``dims``."""
    if isinstance(obj, (PureState, MixedState)):
        mats = obj.amplitudes.reshape(-1, obj.dims.n_a, obj.dims.n_b)
        return np.einsum("kab,kcb->ac", mats, mats.conj()) / len(mats)
    if dims is None:
        raise ValueError("dims are required when passing a bare matrix")
    rho = np.asarray(obj, dtype=np.complex128)
    return np.einsum("iaja->ij", rho.reshape(dims.n_a, dims.n_b, dims.n_a, dims.n_b))


def partial_transpose_b(mat: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Partial transpose over B of a (d, d) matrix on the space of ``dims``:
    out_{i alpha, j beta} = rho_{i beta, j alpha}.

    Hermiticity and the trace are preserved; applying it twice gives back the
    input exactly (it is a permutation of matrix entries).
    """
    r = np.asarray(mat, dtype=np.complex128).reshape(dims.n_a, dims.n_b, dims.n_a, dims.n_b)
    return r.transpose(0, 3, 2, 1).reshape(dims.total, dims.total)


def mixture_density(amps: np.ndarray) -> np.ndarray:
    """Density matrix amps^T amps* / m of the uniform mixture of the rows of
    ``amps`` (an (m, d) complex array), exactly Hermitian.

    It is formed as x^T x over the real (m, 2d) view x of the amplitudes,
    which numpy runs as one symmetric rank-m update (BLAS syrk), half the
    flops of the complex product; see ``gram_density``.
    """
    x = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    return gram_density(x.T @ x, len(amps))


def gram_density(gram: np.ndarray, m: int) -> np.ndarray:
    """Density matrix of the uniform mixture of m states from the real
    (2d, 2d) Gram x^T x of their (m, 2d) real amplitude view x: with
    s[i, p, j, q] = sum_k x[k, 2i + p] x[k, 2j + q], Re rho = s[:, 0, :, 0]
    + s[:, 1, :, 1] and Im rho = s[:, 1, :, 0] - s[:, 0, :, 1], over m."""
    d = len(gram) // 2
    s = gram.reshape(d, 2, d, 2)
    rho = np.empty((d, d), dtype=np.complex128)
    rho.real = s[:, 0, :, 0] + s[:, 1, :, 1]
    rho.imag = s[:, 1, :, 0] - s[:, 0, :, 1]
    rho /= m
    return rho


def mixture_pt_eigenvalues(amps: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Eigenvalues of the partial transpose of the uniform mixture of the
    normalized rows of ``amps``, an (m, n_a n_b) array; a (..., m, n_a n_b)
    stack gives one spectrum per mixture, stacked the same way.

    Pure states (m = 1) take their spectra from their Schmidt coefficients
    alone, with one batched SVD, in the order of ``schmidt_pt_eigenvalues``.
    A mixture takes one dense eigensolve of its rho^T_B, one mixture at a
    time, and comes back ascending.
    """
    *stack, m, d = amps.shape
    if m == 1:
        # one batched SVD gives every matrix the bits it gets alone
        mu = np.linalg.svd(amps.reshape(*stack, dims.n_a, dims.n_b), compute_uv=False)
        return schmidt_pt_eigenvalues(mu)
    spectra = [np.linalg.eigvalsh(partial_transpose_b(mixture_density(a), dims)) for a in amps.reshape(-1, m, d)]
    return np.reshape(spectra, (*stack, d))


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian (d, d) matrix, read from its
    lower triangle; a C-ordered, writeable complex128 ``mat`` is destroyed.

    LAPACK's two-stage tridiagonal reduction (``DENSE_EIGENSOLVER``
    zheevd_2stage, eigenvalues only) solves it on one BLAS thread about as
    fast as ``np.linalg.eigvalsh`` does on two.  Read column-major, the
    C-ordered buffer is mat^T, whose upper triangle is mat's lower one and
    whose eigenvalues are mat's, so LAPACKE makes no transposed copy.
    Builds without the symbol take ``np.linalg.eigvalsh``.
    """
    if _ZHEEVD_2STAGE is None:
        return np.linalg.eigvalsh(mat)
    a = np.require(mat, np.complex128, ["C", "W"])
    n = len(a)
    vals = np.empty(n)
    _one_blas_thread()
    info = _ZHEEVD_2STAGE(_LAPACK_COL_MAJOR, b"N", b"U", n, a.ctypes.data, n, vals.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd_2stage failed with info = {info}")
    return vals


def von_neumann_entropy(mat: np.ndarray) -> float:
    """Entropy -sum(lam * log2(lam)) in bits of a PSD, trace-one matrix.

    Eigenvalues below -1e-8 are rejected; small negative round-off is clipped
    to zero and 0*log(0) is taken as 0.
    """
    mat = np.asarray(mat, dtype=np.complex128)
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
