"""Entanglement detection statistics of high-dimensional random bipartite
states, measured with decomposable entanglement witnesses.

The package simulates ensembles of Haar-random pure states and their
m-component mixtures, evaluates witness expectations and partial-transpose
spectra, and compares the Monte Carlo results against the matching
closed-form laws (Gaussian and exponential-mixture densities for the
rescaled statistic w, an elliptic-integral law and the Marcenko-Pastur law
for spectra).
"""

__version__ = "0.3.0"

from .qstate import (
    BipartiteDims,
    MixedState,
    PureState,
    SchmidtDecomposition,
    Spectrum,
    ghz_state,
    hermitian_spectrum,
    mix_random_states,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    pure_pt_eigenvalues,
    sample_random_pure,
    schmidt,
    von_neumann_entropy,
)
from .witness import (
    OptimalWitnessResult,
    Witness,
    WitnessSample,
    WitnessSpectrum,
    expectation,
    optimal_witness,
    rank2_state,
    sample_w_overlap_model,
    trace_powers,
    witness_from_vector,
    witness_rank_k,
    witness_spectrum,
)
from .analytic import (
    AnalyticDensity,
    density_eval,
    detection_probability,
    detection_probability_asymptotic,
    gauss_unit,
    gauss_width,
    marcenko_pastur,
    pt_eigs,
    rank2,
    rank2_half,
)
from .ensemble import (
    EmpiricalDistribution,
    EnsembleConfig,
    ScanResult,
    WitnessSpec,
    critical_m,
    cumulant_report,
    dense_coding_usable,
    run_lambda_min_scan,
    run_mixture_decay,
    run_pt_spectrum,
    run_w_ensemble,
)
