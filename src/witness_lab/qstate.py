"""Bipartite quantum states: Haar sampling, mixtures, the partial
transpose and its spectra, and the dense Hermitian eigensolver.

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


@dataclass(frozen=True, eq=False)
class MixedState:
    """Uniform mixture of the m pure states whose amplitudes are the rows of
    ``amplitudes``, an (m, n_a n_b) array."""

    dims: BipartiteDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _rows(self.amplitudes, self.dims))

    @property
    def m(self) -> int:
        return len(self.amplitudes)


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


def schmidt_pt_eigenvalues(mu: np.ndarray) -> np.ndarray:
    """Partial-transpose spectrum of a pure state from its nonincreasing
    Schmidt coefficients ``mu``: +-mu_i mu_j for i < j, then the n
    "diagonal" values mu_i^2, in that (unsorted) order.  A (k, n) stack of
    coefficients gives a (k, n^2) stack of spectra."""
    i, j = np.triu_indices(mu.shape[-1], k=1)
    off = mu[..., i] * mu[..., j]
    return np.concatenate([off, -off, mu**2], axis=-1)


def partial_transpose_b(mat: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Partial transpose over B of a (d, d) matrix on the space of ``dims``:
    out_{i alpha, j beta} = rho_{i beta, j alpha}.

    Hermiticity and the trace are preserved; applying it twice gives back the
    input exactly (it is a permutation of matrix entries).
    """
    r = np.asarray(mat, dtype=np.complex128).reshape(dims.n_a, dims.n_b, dims.n_a, dims.n_b)
    return r.transpose(0, 3, 2, 1).reshape(dims.total, dims.total)


def mixture_pt_densities(amps: np.ndarray, ms, dims: BipartiteDims):
    """For each m of the strictly ascending ``ms``, a fresh, exactly Hermitian
    rho^T_B of the uniform mixture of the first m rows of ``amps`` (M, d).

    The real Gram x^T x of the rows' real (M, 2d) view x, which numpy runs
    as a symmetric rank-k update (BLAS syrk, half the flops of the complex
    product), grows by the rows each m adds.  As g[i,a,p,j,b,q] it holds
    m rho_{ia,jb} = g[..0..0] + g[..1..1] + i (g[..1..0] - g[..0..1]), so
    rho^T_B_{ia,jb} = rho_{ib,ja} is read from it without forming rho.
    """
    x = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    n_a, n_b = dims.n_a, dims.n_b
    done = 0
    for m in ms:
        if not done < m <= len(x):
            raise ValueError(f"mixture sizes must ascend from 1 to at most {len(x)}, got {m} after {done}")
        block = x[done:m]
        if done:
            gram += block.T @ block
        else:
            gram = block.T @ block
        done = m
        g = gram.reshape(n_a, n_b, 2, n_a, n_b, 2)
        out = np.empty((n_a, n_b, n_a, n_b), dtype=np.complex128)
        out.real = (g[:, :, 0, :, :, 0] + g[:, :, 1, :, :, 1]).transpose(0, 3, 2, 1)
        out.imag = (g[:, :, 1, :, :, 0] - g[:, :, 0, :, :, 1]).transpose(0, 3, 2, 1)
        out /= m
        yield out.reshape(dims.total, dims.total)


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
    spectra = [np.linalg.eigvalsh(rho) for a in amps.reshape(-1, m, d) for rho in mixture_pt_densities(a, [m], dims)]
    return np.reshape(spectra, (*stack, d))


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian (d, d) matrix, read from its
    lower triangle; a C-ordered, writeable complex128 ``mat`` is destroyed.

    LAPACK's two-stage tridiagonal reduction (``DENSE_EIGENSOLVER``
    zheevd_2stage, eigenvalues only) solves it on one BLAS thread about as
    fast as ``np.linalg.eigvalsh`` does on two.  Read column-major, the
    C-ordered buffer is mat^T, whose upper triangle is mat's lower one and
    whose eigenvalues are mat's, so LAPACKE makes no transposed copy.
    Builds without the symbol take ``np.linalg.eigvalsh``.  On a 2-core Xeon
    eigvalsh here made ``wdist --witness rankk:16`` at 32 x 32 16% slower,
    yet takes 8.6 ms against 11 at 256^2, so mixtures stay on eigvalsh.
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
