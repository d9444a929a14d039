"""Monte Carlo ensemble engine: histograms, cumulants, detection
probabilities, spectra, and parameter scans over mixture size and dimension.

Reproducibility model
---------------------
Work is split into fixed-size chunks of consecutive sample indices.  Chunk
``i`` of a run (state ``i``, for spectra) draws from its own generator
seeded with the entropy tuple ``(seed, stream_tag, ..., i)``, and chunk
results are reduced in index order, so results are bit-identical for any
worker count.  Inside a chunk, batch sizes depend only on the
configuration, never on the machine.

A lambda_min scan maps one task per (N, repetition) instead.  Repetition r
at the i-th N draws max(m_list) Haar states from (seed, _STREAM_LMIN, i, r),
and its value at each m is that of the mixture of the first m of them
(``qstate.mixture_pt_densities``).  The rows of one N therefore share their
draws (common random numbers), while each row is still the mean over
independent repetitions, with the same law and standard error as rows
drawn apart.

A decay scan maps one run of pure-state w values, chunked as above on
(seed, _STREAM_DECAY, chunk), and point m averages its first n_m * m in
groups of m: the points share their draws, each with the law it had alone.
A chunk draws its exponentials from its seed sequence, and the Gamma
variates (zero eigenvalues and paired halves) and the signs of a
witness's +-p eigenvalue pairs from its first and second child, each a
fixed count per pure state.  So the first k values of a run do not
depend on its length, and a longer scan keeps the rows of a shorter one.

Thread policy
-------------
Every numeric step runs on one BLAS thread, so ``workers`` is the only
parallelism and the BLAS thread count a process starts with cannot change
a bit of its results.  ``cli`` sets ``OPENBLAS_NUM_THREADS`` to 1 before
numpy loads (by ``setdefault``, keeping a user's value), and pool workers
inherit it; importing ``qstate`` then sets numpy's bundled OpenBLAS to one
thread, for library callers and a user's value alike.  So the witness
build and its dense spectrum (``qstate.hermitian_eigenvalues``) run on one
thread as the tasks do.  ``_map_ordered``, before it runs a task or forks
a pool, and the dense spectrum, before its solve, set it back to one if a
caller has raised it; they never restore the caller's count.  When no
OpenBLAS is found, nothing is set and ``qstate.BLAS_THREADS_PER_TASK`` is
None.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    BipartiteDims,
    MixedState,
    _one_blas_thread,
    mix_random_states,
    mixture_pt_densities,
    mixture_pt_eigenvalues,
    sample_random_pure_batch,
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
_STREAM_LMIN = 3  # (seed, tag, N index, rep): max(m_list) states for every m of one N
_STREAM_DC = 4  # (seed, tag, point, rep)
_STREAM_DECAY = 5  # (seed, tag, chunk): pure-state w shared by every m of a scan

DEFAULT_W_BINS = np.linspace(-4.0, 6.0, 81)
DEFAULT_Y_BINS = np.linspace(-4.5, 4.5, 91)

WITNESS_KINDS = ("random", "rank2", "rankk", "optimal")


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
        if self.kind == "rankk" and (self.k is None or self.k < 1):
            raise ValueError(f"rankk witness needs k >= 1, got {self.k}")

    @classmethod
    def parse(cls, text: str) -> "WitnessSpec":
        """Parse the CLI syntax: random | rank2:LAMBDA | rankk:K | optimal."""
        head, sep, arg = text.partition(":")
        head = head.strip().lower()
        if head in ("random", "optimal"):
            if sep:
                raise ValueError(f"witness spec {head} takes no argument, got {text!r}")
            return cls(head)
        if head in ("rank2", "rankk"):
            try:
                return cls("rank2", lam=float(arg)) if head == "rank2" else cls("rankk", k=int(arg))
            except ValueError as exc:
                raise ValueError(f"bad {head} witness spec {text!r}: {exc}") from None
        raise ValueError(f"unknown witness spec {text!r}")

    def __str__(self) -> str:
        if self.kind == "rank2":
            return f"rank2:{self.lam:g}"
        if self.kind == "rankk":
            return f"rankk:{self.k}"
        return self.kind


@dataclass(frozen=True, eq=False)
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
    samples: np.ndarray = field(repr=False)

    def cumulant(self, order: int) -> tuple[float, float]:
        table = {2: (self.k2, self.k2_std_err), 3: (self.k3, self.k3_std_err), 4: (self.k4, self.k4_std_err)}
        return table[order]


def _cumulants(n, s1, s2, s3, s4):
    """Cumulants 2..4 from power sums about any origin; elementwise on arrays."""
    m1 = s1 / n
    sq = m1 * m1
    m2 = s2 / n - sq
    m3 = s3 / n - 3 * m1 * s2 / n + 2 * sq * m1
    m4 = s4 / n - 4 * m1 * s3 / n + 6 * sq * s2 / n - 3 * sq * sq
    return m2, m3, m4 - 3 * m2 * m2


def empirical_from_samples(samples: np.ndarray, bin_edges: np.ndarray = DEFAULT_W_BINS) -> EmpiricalDistribution:
    """Summarize a sample array (in sampling order, for block jackknife).
    Power sums are taken about the mean, so a narrow law far from zero does
    not cancel."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise ValueError("need at least one sample")

    mean = float(x.mean())
    powers = np.empty((4, n))
    y = np.subtract(x, mean, out=powers[0])
    y2 = np.multiply(y, y, out=powers[1])
    np.multiply(y2, y, out=powers[2])
    np.multiply(y2, y2, out=powers[3])
    sums = powers.sum(axis=1)
    k2, k3, k4 = map(float, _cumulants(n, *sums))

    # leave-one-block-out jackknife over np.array_split's contiguous blocks
    nb = min(_JACKKNIFE_BLOCKS, n)
    jk = np.zeros(3)
    if nb > 1:
        size, extra = divmod(n, nb)
        starts = np.arange(nb) * size + np.minimum(np.arange(nb), extra)
        rest = sums[:, None] - np.add.reduceat(powers, starts, axis=1)
        theta = np.array(_cumulants(n - np.diff(starts, append=n), *rest))
        dev = theta - theta.mean(axis=1, keepdims=True)
        jk = np.sqrt((nb - 1) / nb * np.sum(dev * dev, axis=1))

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
        mean=mean,
        mean_std_err=math.sqrt(max(k2, 0.0) / n),
        variance=k2,
        k2=k2,
        k3=k3,
        k4=k4,
        k2_std_err=float(jk[0]),
        k3_std_err=float(jk[1]),
        k4_std_err=float(jk[2]),
        neg_tail=neg,
        neg_tail_std_err=neg_se,
        samples=x,
    )


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against an elementwise CDF
    callable on arrays."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    f = np.asarray(cdf(x), dtype=np.float64)
    up = np.abs(np.arange(1, n + 1) / n - f)
    lo = np.abs(np.arange(n) / n - f)
    return float(np.max(np.maximum(up, lo)))


def kurtosis_ratio(samples: np.ndarray) -> float:
    """mu_4 / mu_2^2 of the centered samples (2 for a semicircle, 3 for a
    Gaussian)."""
    x = np.asarray(samples, dtype=np.float64)
    c = x - x.mean()
    c2 = c * c
    m2 = float(np.mean(c2))
    m4 = float(np.mean(c2 * c2))
    return m4 / (m2 * m2)


def _rng_for(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def derive_witness(dims: BipartiteDims, spec: WitnessSpec, seed: int) -> Witness | None:
    """The fixed witness an ensemble measures, reproducible from the seed.
    Returns None for the per-state optimal spec."""
    rng = _rng_for(seed, _STREAM_WITNESS)
    if spec.kind == "random":
        return random_haar_witness(dims, rng)
    if spec.kind == "rank2":
        return witness_from_vector(rank2_state(dims, spec.lam))
    if spec.kind == "rankk":
        return random_rank_k_witness(dims, spec.k, rng)
    return None


def _map_ordered(fn, tasks, workers: int):
    """``[fn(t) for t in tasks]``, over a process pool when ``workers`` > 1,
    each task on one BLAS thread (see the module docstring)."""
    _one_blas_thread()
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _states_per_batch(dims: BipartiteDims) -> int:
    """Pure states drawn and decomposed together: their 2 n_a n_b normals
    each stay within the batch budget."""
    return max(1, _MAX_BATCH_VARIATES // (2 * dims.total))


def _mean_and_std_err(vals: np.ndarray) -> tuple[float, float]:
    n = len(vals)
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), se


def _w_chunk_task(task) -> np.ndarray:
    (entropy, chunk_idx, count, m, dims, spectrum) = task
    seq = np.random.SeedSequence([*entropy, chunk_idx])
    rng = np.random.default_rng(seq)
    dim = dims.total
    out = np.empty(count)

    if spectrum is None:  # per-state optimal witness: w = dim * lambda_min
        # g mixtures of m states per draw, their spectra in one call
        group = max(1, _states_per_batch(dims) // m)
        for start in range(0, count, group):
            g = min(group, count - start)
            amps = sample_random_pure_batch(dims, g * m, rng).reshape(g, m, dim)
            out[start : start + g] = dim * mixture_pt_eigenvalues(amps, dims).min(axis=-1)
        return out

    # Haar invariance: <psi|W|psi> = sum_k lam_k E_k / sum_k E_k exactly, with
    # E_k i.i.d. Exp(1) over all n_a n_b eigenvalues of W.  A pair +-p adds
    # p (E+ - E-) and E+ + E-, which have the joint law of p s X and X + 2Y:
    # X = |E+ - E-| and 2Y = 2 min(E+, E-) are independent Exp(1) and the sign
    # s is fair (memorylessness).  So a row draws one exponential per pair and
    # per unpaired value, one sign per pair, and one Gamma(zeros + pairs) for
    # the zeros and every 2Y.  The Gammas and the signs (one raw 64-bit word
    # per 64 pairs) come from two child streams, each a fixed count per row,
    # so no bit depends on a chunk's batch lengths.
    pairs, unpaired, zeros = spectrum
    coef = np.concatenate([pairs, unpaired])
    p, words = len(pairs), -(-len(pairs) // 64)
    gamma_seq, sign_seq = seq.spawn(2)
    gamma_rng = np.random.default_rng(gamma_seq)
    sign_bits = np.random.PCG64(sign_seq)
    group = max(1, min(count, _MAX_BATCH_VARIATES // (m * len(coef))))
    flipped = np.empty((group * m, p))  # a pair's exponential where its sign is -, else 0
    done = 0
    while done < count:
        g = min(group, count - done)
        rows = g * m
        e = rng.standard_exponential((rows, len(coef)))
        total = e.sum(axis=1)
        if zeros + p:
            total += gamma_rng.standard_gamma(zeros + p, rows)
        num = e @ coef
        if p:
            raw = sign_bits.random_raw(rows * words).astype("<u8", copy=False).view(np.uint8)
            neg = np.unpackbits(raw.reshape(rows, 8 * words), axis=1, count=p, bitorder="little")
            num -= 2.0 * (np.multiply(e[:, :p], neg.view(bool), out=flipped[:rows]) @ pairs)
        out[done : done + g] = dim * (num / total).reshape(g, m).mean(axis=1)
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
    when ``spectrum`` is None.  Chunk i holds the next ``CHUNK_SAMPLES``
    samples (the last chunk the rest) and draws from the stream
    ``(*entropy, i)``."""
    tasks = [
        (entropy, i, min(CHUNK_SAMPLES, samples - start), m, dims, spectrum)
        for i, start in enumerate(range(0, samples, CHUNK_SAMPLES))
    ]
    return np.concatenate(_map_ordered(_w_chunk_task, tasks, workers))


def run_w_ensemble(
    dims: BipartiteDims,
    samples: int,
    m: int = 1,
    seed: int = 0,
    workers: int = 1,
    witness_spec: WitnessSpec = WitnessSpec("random"),
) -> EmpiricalDistribution:
    """Distribution of w over ``samples`` states, each a uniform mixture of
    ``m`` fresh Haar states, measured against the one witness derived from
    ``witness_spec`` (or each state's optimal one); equal arguments give
    bit-identical results for any worker count."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if m < 1:
        raise ValueError(f"mixture size must be >= 1, got {m}")
    witness = derive_witness(dims, witness_spec, seed)
    spectrum = None if witness is None else witness_spectrum(witness)
    w = _w_samples(dims, samples, m, spectrum, (seed, _STREAM_W), workers)
    return empirical_from_samples(w, DEFAULT_W_BINS)


@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    value: float
    std_err: float


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Rows of (N, m, statistic, std_err) plus scan-level metadata."""

    kind: str
    rows: tuple[ScanRow, ...]
    metadata: dict

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
    witness_spec: WitnessSpec = WitnessSpec("random"),
) -> ScanResult:
    """Detection probability P(w < 0) versus mixture size m = 1..m_max for
    one fixed witness, with a log-slope fit over the asymptotic points
    m >= ``_SLOPE_FIT_MIN_M`` with a hit, listed in ``slope_fit_m`` (empty,
    and no fit, when fewer than two); a two-point fit has no std error.

    Point m takes n_m = samples_base * min(m, 8) samples so that the
    shrinking tail keeps enough hits per point; a mixture's w is the mean
    of m consecutive values of one run of pure-state w that all points share.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if samples_base < 1:
        raise ValueError(f"samples_base must be >= 1, got {samples_base}")
    witness = derive_witness(dims, witness_spec, seed)
    if witness is None:
        raise ValueError("mixture decay needs a fixed witness, not optimal")

    sizes = {m: samples_base * min(m, 8) for m in range(1, m_max + 1)}
    spectrum = witness_spectrum(witness)
    pure = _w_samples(dims, max(m * n for m, n in sizes.items()), 1, spectrum, (seed, _STREAM_DECAY), workers)
    rows = []
    for m, n_samp in sizes.items():
        w = pure[: n_samp * m].reshape(n_samp, m).mean(axis=1)
        p = float(np.count_nonzero(w < 0)) / n_samp
        se = math.sqrt(p * (1.0 - p) / n_samp)
        rows.append(ScanRow(n=dims.n_a, m=m, value=p, std_err=se))

    fit = [r.m for r in rows if r.m >= _SLOPE_FIT_MIN_M and r.value > 0]  # log p needs a hit
    fit = fit if len(fit) >= 2 else []
    meta: dict = {"witness_spec": str(witness_spec), "slope_fit_min_m": _SLOPE_FIT_MIN_M, "slope_fit_m": fit}
    if fit:
        ms = np.array(fit, dtype=float)
        logp = np.log([rows[m - 1].value for m in fit])
        slope, intercept = np.polyfit(ms, logp, 1)
        resid = logp - (slope * ms + intercept)
        sxx = float(np.sum((ms - ms.mean()) ** 2))
        # a line through two points has no residual to give it an error
        slope_se = math.sqrt(float(np.sum(resid**2)) / (len(ms) - 2) / sxx) if len(ms) > 2 else None
        meta.update(slope=float(slope), intercept=float(intercept), slope_std_err=slope_se)
    return ScanResult(kind="detection_probability", rows=tuple(rows), metadata=meta)


def _pt_state_task(task) -> np.ndarray:
    """PT eigenvalues of ``count`` consecutive states, state i drawn from the
    stream (seed, _STREAM_PT, i), concatenated in state order; one
    ``mixture_pt_eigenvalues`` call on their stack.  A pure state's spectrum
    drops its last ``schmidt_len`` values, the diagonal mu_i^2."""
    (seed, start, count, m, dims) = task
    amps = np.stack(
        [sample_random_pure_batch(dims, m, _rng_for(seed, _STREAM_PT, i)) for i in range(start, start + count)]
    )
    spectra = mixture_pt_eigenvalues(amps, dims)
    return (spectra[:, : -dims.schmidt_len] if m == 1 else spectra).ravel()


def run_pt_spectrum(
    dims: BipartiteDims,
    m: int,
    states: int,
    seed: int = 0,
    workers: int = 1,
) -> EmpiricalDistribution:
    """Pooled spectrum of rho^T_B over an ensemble of ``states`` mixtures,
    as the scaled variable y = min(n_a, n_b) * lambda.

    For pure states (m = 1) the spectrum comes straight from the Schmidt
    coefficients, and the algebraically known "diagonal" eigenvalues mu_i^2
    are excluded, since the off-diagonal law is what the histogram is
    compared against; for m > 1 the full matrix is solved and nothing is
    excluded.

    State i always draws from the stream (seed, _STREAM_PT, i), so the
    samples are the same bits for any worker count.  Pure states go to the
    workers in chunks of ``_states_per_batch`` states (32 at 32 x 32) that
    take one batched SVD, so a small ensemble is a single task and runs
    in-process; a mixed state costs a dense eigensolve and is a task of
    its own.
    """
    if m < 1:
        raise ValueError(f"mixture size must be >= 1, got {m}")
    if states < 1:
        raise ValueError(f"need at least one state, got {states}")
    per_task = _states_per_batch(dims) if m == 1 else 1
    tasks = [(seed, start, min(per_task, states - start), m, dims) for start in range(0, states, per_task)]
    parts = _map_ordered(_pt_state_task, tasks, workers)
    y = dims.schmidt_len * np.concatenate(parts)
    return empirical_from_samples(y, DEFAULT_Y_BINS)


def _lmin_point_task(task) -> np.ndarray:
    """lambda_min of rho^T_B for each m of the sorted ``m_list``, rho the
    mixture of the first m of one draw of max(m_list) Haar states.  A pure
    state takes the Schmidt closed form; the mixtures take
    ``qstate.mixture_pt_densities``, one growing Gram for every m > 1."""
    (seed, n_idx, n, m_list, rep) = task
    dims = BipartiteDims(n, n)
    amps = sample_random_pure_batch(dims, m_list[-1], _rng_for(seed, _STREAM_LMIN, n_idx, rep))
    pure = [mixture_pt_eigenvalues(amps[:1], dims).min()] if m_list[0] == 1 else []
    mixed = [np.linalg.eigvalsh(rho)[0] for rho in mixture_pt_densities(amps, m_list[len(pure) :], dims)]
    return np.array(pure + mixed)


def _monotone_in_m(v: np.ndarray) -> bool:
    """Whether the mean of row j of ``v`` (repetitions along axis 1) does not
    fall from one row to the next by more than twice its standard error.
    The rows share their draws, so a step's error is that of the
    per-repetition differences."""
    steps = np.diff(v, axis=0)
    slack = 2.0 * steps.std(axis=1, ddof=1) / math.sqrt(v.shape[1])
    return bool(np.all(steps.mean(axis=1) >= -slack))


def _reject_repeats(name: str, values: list[int]) -> None:
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} {repeated[0]} is repeated")


def run_lambda_min_scan(
    n_list,
    m_list,
    repetitions: int,
    seed: int = 0,
    workers: int = 1,
) -> ScanResult:
    """Mean minimal eigenvalue of rho^T_B on a grid of symmetric dimensions
    N and mixture sizes m; locates the sign change m* per N by linear
    interpolation between bracketing grid points.

    Repetition r at the i-th N draws max(m_list) Haar states from the
    stream (seed, _STREAM_LMIN, i, r), and row m takes the mixture of the
    first m of them.  Each row is the mean over independent repetitions;
    the rows of one N share their draws."""
    if repetitions < 2:
        raise ValueError("need at least 2 repetitions for a standard error")
    n_list = [int(n) for n in n_list]
    m_list = sorted(int(m) for m in m_list)
    if not n_list or not m_list:
        raise ValueError("need at least one dimension N and one mixture size m")
    if m_list[0] < 1:
        raise ValueError(f"mixture size must be >= 1, got {m_list[0]}")
    _reject_repeats("dimension N", n_list)
    _reject_repeats("mixture size m", m_list)
    tasks = [(seed, i, n, tuple(m_list), rep) for i, n in enumerate(n_list) for rep in range(repetitions)]
    results = _map_ordered(_lmin_point_task, tasks, workers)
    rows = []
    m_star = {}
    monotone = {}
    for i, n in enumerate(n_list):
        # v[j, r]: lambda_min at m_list[j] in repetition r
        v = np.stack(results[i * repetitions : (i + 1) * repetitions], axis=1)
        stats = [_mean_and_std_err(row) for row in v]
        rows += [ScanRow(n=n, m=m, value=mean, std_err=se) for m, (mean, se) in zip(m_list, stats)]
        m_star[n] = _interp_crossing(np.array(m_list), np.array([mean for mean, _ in stats]), 0.0)
        monotone[n] = _monotone_in_m(v)
    meta = {"repetitions": repetitions, "m_star": m_star, "monotone_in_m": monotone}
    return ScanResult(kind="lambda_min", rows=tuple(rows), metadata=meta)


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p over the positive entries of ``p``."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def dense_coding_margin(state: MixedState) -> float:
    """Dense-coding margin S(rho_A) - S(rho) in bits; the state is usable
    for dense coding when it is positive.  For the (m, d) amplitude rows A
    and their n_a x (m n_b) block row B = [Psi_1 ... Psi_m], rho = A^T A* / m
    and rho_A = B B^dagger / m have the nonzero spectra sigma(A)^2 / m and
    sigma(B)^2 / m, each summing to 1 as every row is normalized."""
    amps, m, n_a = state.amplitudes, state.m, state.dims.n_a
    blocks = amps.reshape(m, n_a, -1).transpose(1, 0, 2).reshape(n_a, -1)
    s_a, s = (_entropy_bits(np.linalg.svd(x, compute_uv=False) ** 2 / m) for x in (blocks, amps))
    return s_a - s


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
    """Empirical cumulants kappa_2..kappa_4 against the exact predictions
    from the witness spectrum, with jackknife z-scores; |z| above
    ``_FLAG_Z`` is flagged."""
    pred = predicted_cumulants(witness_spectrum(witness), m=m)
    rows = []
    for order in (2, 3, 4):
        emp, se = dist.cumulant(order)
        diff = emp - pred[order]
        z = float(diff / se) if se > 0 else (0.0 if diff == 0 else math.copysign(math.inf, diff))
        rows.append(
            CumulantComparison(
                order=order,
                empirical=emp,
                std_err=se,
                predicted=pred[order],
                z_score=z,
                flagged=abs(z) > _FLAG_Z,
            )
        )
    return tuple(rows)


def _dc_point_task(task) -> tuple[float, float]:
    (seed, point_idx, dims, m, reps) = task
    vals = np.empty(reps)
    for rep in range(reps):
        state = mix_random_states(dims, m, _rng_for(seed, _STREAM_DC, point_idx, rep))
        vals[rep] = dense_coding_margin(state)
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
    if not m_list:
        raise ValueError("need at least one mixture size m")
    bad = [m for m in m_list if m < 1]
    if bad:
        raise ValueError(f"mixture size must be >= 1, got {bad[0]}")
    _reject_repeats("mixture size m", m_list)
    tasks = [(seed, idx, dims, m, repetitions) for idx, m in enumerate(m_list)]
    results = _map_ordered(_dc_point_task, tasks, workers)
    rows = tuple(ScanRow(n=dims.n_a, m=m, value=mean, std_err=se) for m, (mean, se) in zip(m_list, results))
    margins = np.array([r.value for r in rows])
    crossing = _interp_crossing(np.array(m_list), -margins, 0.0)
    meta = {"repetitions": repetitions, "margin_sign_change_m": crossing}
    return ScanResult(kind="dense_coding_margin", rows=rows, metadata=meta)
