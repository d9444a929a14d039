"""Monte Carlo ensemble engine: histograms, cumulants, detection
probabilities, spectra, and parameter scans over mixture size and dimension.

Reproducibility model
---------------------
Work is split into fixed-size chunks of consecutive sample indices.  Chunk
``i`` of a run draws from its own generator seeded with the entropy tuple
``(seed, stream_tag, ..., i)``, and chunk results are reduced in index
order, so results are bit-identical for any worker count.  Inside a chunk,
batch sizes depend only on the configuration, never on the machine.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    BipartiteDims,
    MixedState,
    mixture_pt_eigenvalues,
    partial_trace_b,
    sample_random_pure_batch,
    von_neumann_entropy,
)
from .witness import (
    Witness,
    WitnessSpectrum,
    predicted_cumulants,
    random_haar_witness,
    random_rank_k_witness,
    rank2_state,
    witness_from_vector,
    witness_spectrum,
)

CHUNK_SAMPLES = 4096
_MAX_BATCH_VARIATES = 1 << 16  # per-batch draw budget; keeps a batch in cache
_JACKKNIFE_BLOCKS = 20
_FLAG_Z = 4.0  # |z| above which cumulant_report flags a cumulant
# the decay slope is fitted over m >= this; the first couple of points carry
# the sqrt(m) prefactor and would bias the exponential rate
_SLOPE_FIT_MIN_M = 3

# Stream tags.  numpy zero-pads SeedSequence entropy, so (seed, t, c) and
# (seed, t, c, 0) give the same stream: every tag is used with entropy tuples
# of one length only.
_STREAM_WITNESS = 0  # (seed, tag)
_STREAM_W = 1  # (seed, tag, chunk)
_STREAM_PT = 2  # (seed, tag, state)
_STREAM_LMIN = 3  # (seed, tag, point, rep)
_STREAM_DC = 4  # (seed, tag, point, rep)
_STREAM_DECAY = 5  # (seed, tag, m, chunk)

DEFAULT_W_BINS = np.linspace(-4.0, 6.0, 81)
DEFAULT_Y_BINS = np.linspace(-4.5, 4.5, 91)

WITNESS_KINDS = ("random_full_rank", "rank2", "rank_k", "optimal_per_state")


@dataclass(frozen=True)
class WitnessSpec:
    """Which witness an ensemble measures: a Haar rank-one vector, a fixed
    Schmidt-rank-2 vector with weight lambda, k orthonormalized Haar vectors,
    or the per-state optimal witness."""

    kind: str
    lam: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.kind == "rank2" and (self.lam is None or not 0.0 < self.lam < 1.0):
            raise ValueError(f"rank2 witness needs lambda in (0, 1), got {self.lam}")
        if self.kind == "rank_k" and (self.k is None or self.k < 1):
            raise ValueError(f"rank_k witness needs k >= 1, got {self.k}")

    @classmethod
    def parse(cls, text: str) -> "WitnessSpec":
        """Parse the CLI syntax: random | rank2:LAMBDA | rankk:K | optimal."""
        head, _, arg = text.partition(":")
        head = head.strip().lower()
        if head in ("random", "random_full_rank"):
            return cls("random_full_rank")
        if head == "rank2":
            try:
                return cls("rank2", lam=float(arg))
            except ValueError as exc:
                raise ValueError(f"bad rank2 witness spec {text!r}: {exc}") from None
        if head in ("rankk", "rank_k"):
            try:
                return cls("rank_k", k=int(arg))
            except ValueError:
                raise ValueError(f"bad rankk witness spec {text!r}") from None
        if head in ("optimal", "optimal_per_state"):
            return cls("optimal_per_state")
        raise ValueError(f"unknown witness spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "rank2":
            return f"rank2:{self.lam:g}"
        if self.kind == "rank_k":
            return f"rankk:{self.k}"
        return "random" if self.kind == "random_full_rank" else "optimal"


@dataclass(frozen=True)
class EnsembleConfig:
    """Full description of one w-ensemble run; equal configs (same seed)
    produce bit-identical results."""

    dims: BipartiteDims
    samples: int
    m: int = 1
    witness_spec: WitnessSpec = WitnessSpec("random_full_rank")
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.m < 1:
            raise ValueError(f"mixture size must be >= 1, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Histogram plus summary statistics of one scalar ensemble.

    Densities are normalized so that sum(density * bin_width) = 1 over the
    in-range samples.  Cumulant standard errors come from a 20-block
    jackknife; the negative-tail error is binomial.
    """

    bin_edges: np.ndarray
    densities: np.ndarray
    sample_count: int
    mean: float
    mean_std_err: float
    variance: float
    k2: float
    k3: float
    k4: float
    k2_std_err: float
    k3_std_err: float
    k4_std_err: float
    neg_tail: float
    neg_tail_std_err: float
    samples: np.ndarray | None = field(default=None, repr=False)

    def cumulant(self, order: int) -> tuple[float, float]:
        table = {2: (self.k2, self.k2_std_err), 3: (self.k3, self.k3_std_err), 4: (self.k4, self.k4_std_err)}
        return table[order]


def _central_moments(n: float, s1: float, s2: float, s3: float, s4: float) -> tuple[float, float, float, float]:
    m1 = s1 / n
    m2 = s2 / n - m1 * m1
    m3 = s3 / n - 3 * m1 * s2 / n + 2 * m1**3
    m4 = s4 / n - 4 * m1 * s3 / n + 6 * m1 * m1 * s2 / n - 3 * m1**4
    return m1, m2, m3, m4


def _cumulants_from_moments(m2: float, m3: float, m4: float) -> tuple[float, float, float]:
    return m2, m3, m4 - 3 * m2 * m2


def empirical_from_samples(
    samples: np.ndarray,
    bin_edges: np.ndarray = DEFAULT_W_BINS,
    keep_samples: bool = True,
) -> EmpiricalDistribution:
    """Summarize a sample array (in sampling order, for block jackknife)."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValueError("need at least one sample")

    s1, s2, s3, s4 = (float(np.sum(x**p)) for p in (1, 2, 3, 4))
    m1, m2, m3, m4 = _central_moments(n, s1, s2, s3, s4)
    k2, k3, k4 = _cumulants_from_moments(m2, m3, m4)

    # leave-one-block-out jackknife over contiguous blocks
    blocks = np.array_split(x, min(_JACKKNIFE_BLOCKS, n))
    nb = len(blocks)
    theta = np.empty((nb, 3))
    for i, blk in enumerate(blocks):
        bn = n - len(blk)
        b1 = s1 - float(np.sum(blk))
        b2 = s2 - float(np.sum(blk**2))
        b3 = s3 - float(np.sum(blk**3))
        b4 = s4 - float(np.sum(blk**4))
        _, c2, c3, c4 = _central_moments(bn, b1, b2, b3, b4)
        theta[i] = _cumulants_from_moments(c2, c3, c4)
    if nb > 1:
        dev = theta - theta.mean(axis=0)
        jk = np.sqrt((nb - 1) / nb * np.sum(dev**2, axis=0))
    else:
        jk = np.zeros(3)

    neg = float(np.count_nonzero(x < 0)) / n
    neg_se = math.sqrt(neg * (1.0 - neg) / n)

    edges = np.asarray(bin_edges, dtype=np.float64)
    counts, _ = np.histogram(x, bins=edges)
    in_range = counts.sum()
    widths = np.diff(edges)
    dens = counts / (in_range * widths) if in_range > 0 else np.zeros(len(counts))

    return EmpiricalDistribution(
        bin_edges=edges,
        densities=dens,
        sample_count=n,
        mean=m1,
        mean_std_err=math.sqrt(max(m2, 0.0) / n),
        variance=m2,
        k2=k2,
        k3=k3,
        k4=k4,
        k2_std_err=float(jk[0]),
        k3_std_err=float(jk[1]),
        k4_std_err=float(jk[2]),
        neg_tail=neg,
        neg_tail_std_err=neg_se,
        samples=x if keep_samples else None,
    )


def ks_statistic(samples: np.ndarray, cdf_on_sorted) -> float:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable that
    accepts an ascending array."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    f = np.asarray(cdf_on_sorted(x), dtype=np.float64)
    up = np.abs(np.arange(1, n + 1) / n - f)
    lo = np.abs(np.arange(n) / n - f)
    return float(np.max(np.maximum(up, lo)))


def ks_statistic_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def kurtosis_ratio(samples: np.ndarray) -> float:
    """mu_4 / mu_2^2 of the centered samples (2 for a semicircle, 3 for a
    Gaussian)."""
    x = np.asarray(samples, dtype=np.float64)
    c = x - x.mean()
    m2 = float(np.mean(c**2))
    m4 = float(np.mean(c**4))
    return m4 / (m2 * m2)


def _rng_for(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def derive_witness(config: EnsembleConfig) -> Witness | None:
    """The fixed witness an ensemble measures, reproducible from the seed.
    Returns None for the per-state optimal spec."""
    spec = config.witness_spec
    rng = _rng_for(config.seed, _STREAM_WITNESS)
    if spec.kind == "random_full_rank":
        return random_haar_witness(config.dims, rng)
    if spec.kind == "rank2":
        return witness_from_vector(rank2_state(config.dims, spec.lam))
    if spec.kind == "rank_k":
        return random_rank_k_witness(config.dims, spec.k, rng)
    return None


def _map_ordered(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _mean_and_std_err(vals: np.ndarray) -> tuple[float, float]:
    n = len(vals)
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def _w_chunk_task(task) -> np.ndarray:
    (entropy, chunk_idx, count, m, n_a, n_b, spectrum) = task
    rng = _rng_for(*entropy, chunk_idx)
    dim = n_a * n_b
    out = np.empty(count)

    if spectrum is None:  # per-state optimal witness: w = dim * lambda_min
        dims = BipartiteDims(n_a, n_b)
        for i in range(count):
            comps = sample_random_pure_batch(dims, m, rng)
            out[i] = dim * float(mixture_pt_eigenvalues(comps, dims).min())
        return out

    # Haar invariance: <psi|W|psi> = sum_k lam_k E_k / sum_k E_k exactly, with
    # E_k i.i.d. Exp(1) over all n_a n_b eigenvalues of W; the zeros of the
    # spectrum contribute only their sum, one Gamma(zeros) draw
    lam, zeros = spectrum
    group = max(1, min(count, _MAX_BATCH_VARIATES // (m * len(lam))))
    done = 0
    while done < count:
        g = min(group, count - done)
        e = rng.standard_exponential((g * m, len(lam)))
        total = e.sum(axis=1)
        if zeros:
            total += rng.standard_gamma(zeros, g * m)
        out[done : done + g] = dim * (e @ lam / total).reshape(g, m).mean(axis=1)
        done += g
    return out


def _w_samples(
    dims: BipartiteDims,
    samples: int,
    m: int,
    spectrum: WitnessSpectrum | None,
    entropy: tuple[int, ...],
    workers: int,
) -> np.ndarray:
    """w for ``samples`` uniform mixtures of m Haar states, measured against
    the witness with this spectrum, or against each state's optimal witness
    when ``spectrum`` is None."""
    tasks = []
    start = 0
    chunk_idx = 0
    while start < samples:
        count = min(CHUNK_SAMPLES, samples - start)
        tasks.append((entropy, chunk_idx, count, m, dims.n_a, dims.n_b, spectrum))
        start += count
        chunk_idx += 1
    parts = _map_ordered(_w_chunk_task, tasks, workers)
    return np.concatenate(parts)


def run_w_ensemble(
    config: EnsembleConfig,
    keep_samples: bool = True,
    witness: Witness | None = None,
) -> EmpiricalDistribution:
    """Distribution of w over ``samples`` states, each a uniform mixture of
    ``m`` fresh Haar states, measured against one witness drawn from the
    witness spec (or the per-state optimal one).

    A caller that already holds ``derive_witness(config)`` passes it as
    ``witness`` so that it is not built again."""
    if witness is None:
        witness = derive_witness(config)
    w = _w_samples(
        config.dims,
        config.samples,
        config.m,
        None if witness is None else witness_spectrum(witness),
        (config.seed, _STREAM_W),
        config.workers,
    )
    return empirical_from_samples(w, DEFAULT_W_BINS, keep_samples=keep_samples)


@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    value: float
    std_err: float


@dataclass(frozen=True)
class ScanResult:
    """Rows of (N, m, statistic, std_err) plus scan-level metadata."""

    kind: str
    rows: tuple[ScanRow, ...]
    metadata: dict

    def for_n(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sel = sorted((r for r in self.rows if r.n == n), key=lambda r: r.m)
        return (
            np.array([r.m for r in sel]),
            np.array([r.value for r in sel]),
            np.array([r.std_err for r in sel]),
        )

    @property
    def n_values(self) -> list[int]:
        return sorted({r.n for r in self.rows})


def _interp_crossing(ms: np.ndarray, vals: np.ndarray, target: float) -> float | None:
    """First m where the (nondecreasing) curve crosses ``target``, linearly
    interpolated between bracketing grid points."""
    for i in range(len(ms) - 1):
        lo, hi = vals[i], vals[i + 1]
        if lo < target <= hi:
            frac = (target - lo) / (hi - lo)
            return float(ms[i] + frac * (ms[i + 1] - ms[i]))
    return None


def run_mixture_decay(
    dims: BipartiteDims,
    m_max: int,
    samples_base: int,
    seed: int = 0,
    workers: int = 1,
    witness_spec: WitnessSpec = WitnessSpec("random_full_rank"),
) -> ScanResult:
    """Detection probability P(w < 0) versus mixture size m = 1..m_max for
    one fixed witness, with a log-slope fit over the asymptotic points
    m >= ``_SLOPE_FIT_MIN_M``.

    Point m takes samples_base * min(m, 8) samples so that the shrinking
    tail keeps enough hits per point.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    base_cfg = EnsembleConfig(dims=dims, samples=1, witness_spec=witness_spec, seed=seed)
    witness = derive_witness(base_cfg)
    if witness is None:
        raise ValueError("mixture decay needs a fixed witness, not optimal_per_state")

    spectrum = witness_spectrum(witness)
    rows = []
    for m in range(1, m_max + 1):
        n_samp = samples_base * min(m, 8)
        w = _w_samples(dims, n_samp, m, spectrum, (seed, _STREAM_DECAY, m), workers)
        p = float(np.count_nonzero(w < 0)) / n_samp
        se = math.sqrt(p * (1.0 - p) / n_samp)
        rows.append(ScanRow(n=dims.n_a, m=m, value=p, std_err=se))

    fit = [(r.m, r.value) for r in rows if r.m >= _SLOPE_FIT_MIN_M and r.value > 0]
    meta: dict = {"witness_spec": str(witness_spec), "slope_fit_min_m": _SLOPE_FIT_MIN_M}
    if len(fit) >= 2:
        ms = np.array([f[0] for f in fit], dtype=float)
        logp = np.log([f[1] for f in fit])
        slope, intercept = np.polyfit(ms, logp, 1)
        resid = logp - (slope * ms + intercept)
        dof = max(len(ms) - 2, 1)
        slope_se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((ms - ms.mean()) ** 2)))
        meta.update(slope=float(slope), intercept=float(intercept), slope_std_err=slope_se)
    return ScanResult(kind="detection_probability", rows=tuple(rows), metadata=meta)


def _pt_state_task(task) -> np.ndarray:
    (seed, index, m, n_a, n_b, include_diagonal) = task
    rng = _rng_for(seed, _STREAM_PT, index)
    dims = BipartiteDims(n_a, n_b)
    comps = sample_random_pure_batch(dims, m, rng)
    return mixture_pt_eigenvalues(comps, dims, include_diagonal)


def run_pt_spectrum(
    dims: BipartiteDims,
    m: int,
    states: int,
    seed: int = 0,
    workers: int = 1,
    include_diagonal: bool = False,
) -> EmpiricalDistribution:
    """Pooled spectrum of rho^T_B over an ensemble of ``states`` mixtures,
    as the scaled variable y = n_a * lambda.

    For pure states (m = 1) the spectrum comes straight from the Schmidt
    coefficients, and the n_a algebraically known "diagonal" eigenvalues
    mu_i^2 are excluded by default since the off-diagonal law is what the
    histogram is compared against; for m > 1 the full matrix is solved and
    nothing is excluded.
    """
    if m < 1:
        raise ValueError(f"mixture size must be >= 1, got {m}")
    if states < 1:
        raise ValueError(f"need at least one state, got {states}")
    tasks = [(seed, i, m, dims.n_a, dims.n_b, include_diagonal) for i in range(states)]
    parts = _map_ordered(_pt_state_task, tasks, workers)
    y = dims.n_a * np.concatenate(parts)
    return empirical_from_samples(y, DEFAULT_Y_BINS)


def _lmin_point_task(task) -> tuple[float, float]:
    (seed, point_idx, n, m, reps) = task
    dims = BipartiteDims(n, n)
    vals = np.empty(reps)
    for rep in range(reps):
        comps = sample_random_pure_batch(dims, m, _rng_for(seed, _STREAM_LMIN, point_idx, rep))
        vals[rep] = mixture_pt_eigenvalues(comps, dims).min()
    return _mean_and_std_err(vals)


def run_lambda_min_scan(
    n_list,
    m_list,
    repetitions: int,
    seed: int = 0,
    workers: int = 1,
) -> ScanResult:
    """Mean minimal eigenvalue of rho^T_B on a grid of symmetric dimensions
    N and mixture sizes m; locates the sign change m* per N by linear
    interpolation between bracketing grid points."""
    if repetitions < 2:
        raise ValueError("need at least 2 repetitions for a standard error")
    n_list = [int(n) for n in n_list]
    m_list = sorted(int(m) for m in m_list)
    points = [(n, m) for n in n_list for m in m_list]
    tasks = [(seed, idx, n, m, repetitions) for idx, (n, m) in enumerate(points)]
    results = _map_ordered(_lmin_point_task, tasks, workers)
    rows = tuple(
        ScanRow(n=n, m=m, value=mean, std_err=se)
        for (n, m), (mean, se) in zip(points, results)
    )
    scan = ScanResult(kind="lambda_min", rows=rows, metadata={"repetitions": repetitions})
    m_star = {}
    monotone = {}
    for n in scan.n_values:
        ms, vals, ses = scan.for_n(n)
        m_star[n] = _interp_crossing(ms, vals, 0.0)
        diffs = np.diff(vals)
        slack = 2.0 * np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
        monotone[n] = bool(np.all(diffs >= -slack))
    scan.metadata["m_star"] = m_star
    scan.metadata["monotone_in_m"] = monotone
    return scan


@dataclass(frozen=True)
class CriticalMRow:
    n: int
    epsilon: float
    m_crit: float | None
    censored: bool  # scan range ended before the curve reached -epsilon


def critical_m(scan: ScanResult, epsilon: float, scaling: str = "const") -> tuple[CriticalMRow, ...]:
    """Largest mixture size still detectable at measurement accuracy
    epsilon(N), i.e. where the mean minimal eigenvalue crosses -epsilon(N);
    epsilon scales as epsilon0 * {1, 1/N, 1/N^2} per the ``scaling`` tag.

    Crossings are linearly interpolated like m*; with epsilon = 0 this is
    exactly m*.  m_crit = 0 means not even the smallest scanned m is
    detectable; a censored row means the scan ended while still detectable.
    """
    if scaling not in ("const", "inv_N", "inv_N2"):
        raise ValueError(f"unknown scaling tag {scaling!r}")
    if scan.kind != "lambda_min":
        raise ValueError("critical_m needs a lambda_min scan")
    out = []
    for n in scan.n_values:
        eps_n = epsilon / {"const": 1.0, "inv_N": n, "inv_N2": n * n}[scaling]
        ms, vals, _ = scan.for_n(n)
        target = -eps_n
        if vals[0] >= target:
            out.append(CriticalMRow(n=n, epsilon=eps_n, m_crit=0.0, censored=False))
        elif vals[-1] < target:
            out.append(CriticalMRow(n=n, epsilon=eps_n, m_crit=None, censored=True))
        else:
            out.append(CriticalMRow(n=n, epsilon=eps_n, m_crit=_interp_crossing(ms, vals, target), censored=False))
    return tuple(out)


@dataclass(frozen=True)
class DenseCodingResult:
    usable: bool
    margin_bits: float


def dense_coding_usable(state: MixedState) -> DenseCodingResult:
    """Dense-coding criterion S(rho_A) - S(rho) > 0, with the margin in
    bits."""
    s_a = von_neumann_entropy(partial_trace_b(state), state.dims)
    s_full = von_neumann_entropy(state.to_matrix())
    margin = s_a - s_full
    return DenseCodingResult(usable=margin > 0, margin_bits=margin)


@dataclass(frozen=True)
class CumulantComparison:
    order: int
    empirical: float
    std_err: float
    predicted: float
    z_score: float
    flagged: bool


def cumulant_report(
    dist: EmpiricalDistribution,
    witness: Witness,
    m: int = 1,
) -> tuple[CumulantComparison, ...]:
    """Empirical cumulants kappa_2..kappa_4 against the trace-power
    predictions, with jackknife z-scores; |z| above ``_FLAG_Z`` is
    flagged."""
    pred = predicted_cumulants(witness, m=m)
    rows = []
    for order in (2, 3, 4):
        emp, se = dist.cumulant(order)
        diff = emp - pred[order]
        z = diff / se if se > 0 else (0.0 if diff == 0 else math.copysign(math.inf, diff))
        rows.append(
            CumulantComparison(
                order=order,
                empirical=emp,
                std_err=se,
                predicted=pred[order],
                z_score=float(z),
                flagged=abs(z) > _FLAG_Z,
            )
        )
    return tuple(rows)


def _dc_point_task(task) -> tuple[float, float]:
    (seed, point_idx, n_a, n_b, m, reps) = task
    dims = BipartiteDims(n_a, n_b)
    vals = np.empty(reps)
    for rep in range(reps):
        comps = sample_random_pure_batch(dims, m, _rng_for(seed, _STREAM_DC, point_idx, rep))
        rho = (comps.T @ comps.conj()) / m
        mats = comps.reshape(m, n_a, n_b)
        rho_a = np.einsum("kab,kcb->ac", mats, mats.conj()) / m
        vals[rep] = von_neumann_entropy(rho_a) - von_neumann_entropy(rho)
    return _mean_and_std_err(vals)


def dense_coding_scan(
    dims: BipartiteDims,
    m_list,
    repetitions: int = 4,
    seed: int = 0,
    workers: int = 1,
) -> ScanResult:
    """Mean dense-coding margin S(rho_A) - S(rho) in bits versus mixture
    size, plus the first m where the margin turns nonpositive (linearly
    interpolated, None if it never does) as ``margin_sign_change_m``."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    m_list = [int(m) for m in m_list]
    tasks = [(seed, idx, dims.n_a, dims.n_b, m, repetitions) for idx, m in enumerate(m_list)]
    results = _map_ordered(_dc_point_task, tasks, workers)
    rows = tuple(ScanRow(n=dims.n_a, m=m, value=mean, std_err=se) for m, (mean, se) in zip(m_list, results))
    margins = np.array([r.value for r in rows])
    crossing = _interp_crossing(np.array(m_list), -margins, 0.0)
    meta = {"repetitions": repetitions, "margin_sign_change_m": crossing}
    return ScanResult(kind="dense_coding_margin", rows=rows, metadata=meta)
