import numpy as np
import pytest

from witness_lab.ensemble import EnsembleConfig, WitnessSpec, empirical_from_samples, run_w_ensemble
from witness_lab.qstate import BipartiteDims
from witness_lab.witness import sample_w_overlap_model


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def rank2_overlap_distribution(lam: float, samples: int, generator: np.random.Generator):
    """Empirical distribution of w from the two-eigenvalue overlap model,
    which bypasses the quantum state sampler: an independent oracle for the
    rank-2 closed form and the simulator."""
    return empirical_from_samples(sample_w_overlap_model(np.array([lam, 1 - lam]), generator, size=samples))


@pytest.fixture(scope="session")
def gauss_ensemble():
    """Shared 1e5-sample w ensemble at (32, 32) with a Haar rank-one
    witness; used by the mean/width, tail and cumulant checks."""
    cfg = EnsembleConfig(
        dims=BipartiteDims(32, 32),
        samples=100_000,
        m=1,
        witness_spec=WitnessSpec("random_full_rank"),
        seed=0,
        workers=2,
    )
    return cfg, run_w_ensemble(cfg)


@pytest.fixture(scope="session")
def rank2_half_ensemble():
    cfg = EnsembleConfig(
        dims=BipartiteDims(32, 32),
        samples=100_000,
        m=1,
        witness_spec=WitnessSpec("rank2", lam=0.5),
        seed=0,
        workers=2,
    )
    return cfg, run_w_ensemble(cfg)
