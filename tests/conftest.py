"""Shared fixtures, and the states, witnesses and laws that only the tests
use: single Haar draws, GHZ states, Schmidt decompositions, explicit
density matrices, the dense partial trace and entropy, the optimal witness
of a known state, the contraction oracle ``expectation`` and the
Marcenko-Pastur law."""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate

from witness_lab import analytic
from witness_lab.analytic import AnalyticDensity
from witness_lab.ensemble import WitnessSpec, derive_witness, empirical_from_samples, run_w_ensemble
from witness_lab.qstate import (
    BipartiteDims,
    MixedState,
    PureState,
    mixture_pt_densities,
    partial_transpose_b,
    sample_random_pure_batch,
)
from witness_lab.witness import Witness, pt_quadratic_form_batch, witness_from_vector

SCHMIDT_RANK_RTOL = 1e-12
MARCENKO_PASTUR = "marcenko_pastur"


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def product_density(dims: BipartiteDims, r: np.random.Generator) -> np.ndarray:
    """Random separable product state rho_A (x) rho_B with full-rank Wishart
    factors: a PPT / witness-positivity probe."""

    def _rand_density(n: int) -> np.ndarray:
        g = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    return np.kron(_rand_density(dims.n_a), _rand_density(dims.n_b))


def maximally_mixed(dims: BipartiteDims) -> MixedState:
    """I/d as the uniform mixture of the d basis vectors (exactly I/d when
    d is a power of two)."""
    return MixedState(dims, np.eye(dims.total))


def sample_random_pure(dims: BipartiteDims, rng: np.random.Generator) -> PureState:
    """Draw a Haar-distributed pure state.

    Each amplitude is an independent standard complex Gaussian; the vector is
    then normalized.  This gives the unique unitarily invariant distribution,
    with E[c_i c_j*] = delta_ij / (n_a n_b).
    """
    return PureState(dims, sample_random_pure_batch(dims, 1, rng)[0])


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


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


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


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the amplitude matrix.

    Coefficients are sorted nonincreasing; the rank counts coefficients above
    ``SCHMIDT_RANK_RTOL`` relative to the largest one.
    """
    u, s, vh = np.linalg.svd(state.amplitudes.reshape(state.dims.n_a, state.dims.n_b), full_matrices=False)
    rank = int(np.sum(s > SCHMIDT_RANK_RTOL * s[0]))
    return SchmidtDecomposition(
        coefficients=_frozen_array(s),
        basis_a=_frozen_array(u.T),
        basis_b=_frozen_array(vh),
        rank=rank,
    )


def density_matrix(state: PureState | MixedState) -> np.ndarray:
    """Explicit density matrix of a state, formed anew on each call: the
    outer product |psi><psi| of a pure state; for a mixture, the partial
    transpose of the rho^T_B that ``qstate.mixture_pt_densities`` builds
    (the transpose is an involution, so rho keeps the bits of the Gram)."""
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return partial_transpose_b(next(mixture_pt_densities(state.amplitudes, [state.m], state.dims)), state.dims)


def pt_densities_by_dense_transpose(amps: np.ndarray, ms, dims: BipartiteDims) -> list[np.ndarray]:
    """rho^T_B of the mixture of the first m rows of ``amps`` for each m of
    the ascending ``ms``, formed as the package formed it up to 0.19.0: the
    real Gram x^T x grown block by block, decoded into rho by four slices,
    then a dense partial transpose.  The bit reference of
    ``qstate.mixture_pt_densities``."""
    x = np.ascontiguousarray(amps).view(np.float64)
    d = dims.total
    out, done = [], 0
    for m in ms:
        block = x[done:m]
        if done:
            gram += block.T @ block
        else:
            gram = block.T @ block
        done = m
        s = gram.reshape(d, 2, d, 2)
        rho = np.empty((d, d), dtype=np.complex128)
        rho.real = s[:, 0, :, 0] + s[:, 1, :, 1]
        rho.imag = s[:, 1, :, 0] - s[:, 0, :, 1]
        rho /= m
        out.append(partial_transpose_b(rho, dims))
    return out


def partial_trace_b(state: PureState | MixedState) -> np.ndarray:
    """Reduced state on A: (rho_A)_ij = sum_alpha rho_{i alpha, j alpha}, read
    from the amplitude rows of the state (a pure state is a mixture of one)."""
    mats = state.amplitudes.reshape(-1, state.dims.n_a, state.dims.n_b)
    return np.einsum("kab,kcb->ac", mats, mats.conj()) / len(mats)


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


def scan_curve(scan, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, value, std_err) of the rows of a ``ScanResult`` at dimension n,
    in ascending m."""
    sel = sorted((r for r in scan.rows if r.n == n), key=lambda r: r.m)
    return (
        np.array([r.m for r in sel]),
        np.array([r.value for r in sel]),
        np.array([r.std_err for r in sel]),
    )


def expectation(witness: Witness, state: "PureState | MixedState") -> float:
    """w = n_a n_b tr(W rho); the raw tr(W rho) is w / (n_a n_b).

    The amplitude rows of the state (a pure state is one row) take one
    ``pt_quadratic_form_batch`` call per witness vector, and w is the mean
    over all pairs of a witness row and a state row.
    """
    dims = witness.dims
    if state.dims != dims:
        raise ValueError(f"dims mismatch: witness {dims}, state {state.dims}")
    psis = state.amplitudes.reshape(-1, dims.n_a, dims.n_b)
    phis = witness.q_vectors.reshape(-1, dims.n_a, dims.n_b)
    return dims.total * float(np.mean([pt_quadratic_form_batch(phi, psis) for phi in phis]))


class OptimalWitnessResult(NamedTuple):
    witness: Witness
    lambda_min: float  # nonnegative when the state is PPT


def optimal_witness(state: "PureState | MixedState") -> OptimalWitnessResult:
    """Best decomposable witness for a known state: the projector onto the
    eigenvector of rho^T_B with minimal eigenvalue, partially transposed.

    Guarantees tr(W_opt rho) = lambda_min.  A nonnegative lambda_min means
    the state is PPT and undetectable this way; the witness is still
    returned.

    For a pure state sum_i mu_i |a_i b_i> the answer is closed form:
    lambda_min = -mu_1 mu_2 with eigenvector (|a_1 b_2*> - |a_2 b_1*>)/sqrt(2),
    where b* is the complex conjugate of b.  Mixed states take a dense
    eigensolve; their rho^T_B is exactly Hermitian (see
    ``qstate.mixture_pt_densities``).
    """
    if isinstance(state, PureState):
        sd = schmidt(state)
        a, b = sd.basis_a, sd.basis_b.conj()
        vec = (np.kron(a[0], b[1]) - np.kron(a[1], b[0])) / np.sqrt(2.0)
        lam_min = -float(sd.coefficients[0] * sd.coefficients[1])
    else:
        vals, vecs = np.linalg.eigh(next(mixture_pt_densities(state.amplitudes, [state.m], state.dims)))
        vec, lam_min = vecs[:, 0], float(vals[0])
    w = witness_from_vector(PureState(state.dims, vec))
    return OptimalWitnessResult(witness=w, lambda_min=lam_min)


def marcenko_pastur() -> SimpleNamespace:
    """The Marcenko-Pastur law of tau = N*mu^2, the scaled eigenvalues of a
    reduced state, with the fields of an ``AnalyticDensity``."""
    return SimpleNamespace(kind=MARCENKO_PASTUR, lam=None, k=None)


def _marcenko_pastur_pdf(tau):
    """Marcenko-Pastur law of tau = N*mu^2; acts elementwise on arrays."""
    tau = np.asarray(tau, dtype=float)
    inside = (0.0 < tau) & (tau <= 4.0)
    t = np.where(inside, tau, 1.0)
    return np.where(inside, np.sqrt(t * (4.0 - t)) / (2.0 * math.pi * t), 0.0)


def _marcenko_pastur_cdf(tau):
    """(2 theta + sin 2 theta) / pi with tau = 4 sin^2 theta, exactly 0 and
    1 at and beyond 0 and 4; acts elementwise on arrays."""
    theta = np.arcsin(np.sqrt(np.clip(np.asarray(tau, dtype=float), 0.0, 4.0)) / 2.0)
    return (2.0 * theta + np.sin(2.0 * theta)) / math.pi


# the evaluators of witness_lab.analytic, which also take the Marcenko-Pastur law
def density_on_array(d, xs) -> np.ndarray:
    return _marcenko_pastur_pdf(xs) if d.kind == MARCENKO_PASTUR else analytic.density_on_array(d, xs)


def cdf_on_sorted(d, xs) -> np.ndarray:
    return _marcenko_pastur_cdf(xs) if d.kind == MARCENKO_PASTUR else analytic.cdf_on_sorted(d, xs)


def density_eval(d, x: float) -> float:
    return float(_marcenko_pastur_pdf([x])[0]) if d.kind == MARCENKO_PASTUR else analytic.density_eval(d, x)


def cdf_eval(d, x: float) -> float:
    return float(_marcenko_pastur_cdf([x])[0]) if d.kind == MARCENKO_PASTUR else analytic.cdf_eval(d, x)


def law_interval(d: AnalyticDensity) -> tuple[float, float]:
    """The support of a law, or for an unbounded one a finite interval that
    carries all but a negligible (< 1e-15) tail mass."""
    if d.kind == "gauss_width":
        half = 12.0 / math.sqrt(d.k)
        return (1.0 - half, 1.0 + half)
    return {"rank2": (-25.0, 45.0), "pt_eigs": (-4.0, 4.0), "marcenko_pastur": (0.0, 4.0)}[d.kind]


def total_mass(d: AnalyticDensity) -> float:
    """Integral of a law's density over ``law_interval`` by scipy's adaptive
    quadrature, split at 0, where the rank-2 law has a kink and the PT and
    Marcenko-Pastur laws diverge."""
    lo, hi = law_interval(d)
    pieces = [(a, b) for a, b in ((lo, 0.0), (0.0, hi)) if a < b]
    return sum(integrate.quad(lambda t: density_eval(d, t), a, b, limit=200, epsabs=1e-13)[0] for a, b in pieces)


def sample_w_overlap_model(sigma_a_eigenvalues: np.ndarray, generator: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values of w from the overlap model: independent
    exponential overlap magnitudes y_ij and uniform phases give

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
    return generator.standard_exponential((int(size), len(c))) @ c


def rank2_overlap_distribution(lam: float, samples: int, generator: np.random.Generator):
    """Empirical distribution of w from the two-eigenvalue overlap model,
    which bypasses the quantum state sampler: an independent oracle for the
    rank-2 closed form and the simulator."""
    return empirical_from_samples(sample_w_overlap_model(np.array([lam, 1 - lam]), generator, size=samples))


def _ensemble_at_32(spec: WitnessSpec):
    """(witness, distribution) of a 1e5-sample w ensemble at (32, 32),
    seed 0, on two workers."""
    dims = BipartiteDims(32, 32)
    return derive_witness(dims, spec, 0), run_w_ensemble(dims, 100_000, seed=0, workers=2, witness_spec=spec)


@pytest.fixture(scope="session")
def gauss_ensemble():
    """Shared w ensemble with a Haar rank-one witness; used by the
    mean/width, tail and cumulant checks."""
    return _ensemble_at_32(WitnessSpec("random"))


@pytest.fixture(scope="session")
def rank2_half_ensemble():
    return _ensemble_at_32(WitnessSpec("rank2", lam=0.5))
