import math

import numpy as np
import pytest
from scipy import integrate

from witness_lab.analytic import AnalyticDensity, density_eval
from witness_lab.ensemble import WitnessSpec, derive_witness, empirical_from_samples, run_w_ensemble
from witness_lab.qstate import BipartiteDims, MixedState


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
