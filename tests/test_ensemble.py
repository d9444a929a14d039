import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from witness_lab.analytic import cdf_on_sorted, rank2 as rank2_density
from witness_lab import ensemble, qstate
from witness_lab.ensemble import (
    EmpiricalDistribution,
    WitnessSpec,
    critical_m,
    cumulant_report,
    dense_coding_margin,
    dense_coding_scan,
    derive_witness,
    empirical_from_samples,
    kurtosis_ratio,
    run_lambda_min_scan,
    run_mixture_decay,
    run_pt_spectrum,
    run_w_ensemble,
)
from witness_lab.ensemble import _STREAM_LMIN, _monotone_in_m, _rng_for
from witness_lab.qstate import (
    BipartiteDims,
    mix_random_states,
    mixture_density,
    mixture_pt_eigenvalues,
    partial_transpose_b,
    sample_random_pure_batch,
)
from witness_lab.witness import pt_quadratic_form_batch, witness_spectrum

from conftest import maximally_mixed, rank2_overlap_distribution, rng


def _pure_pt_reference(amps: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """PT eigenvalues of one pure state as the Schmidt closed form was
    written before it took stacks: one SVD, then +-mu_i mu_j (i < j) and
    mu_i^2."""
    mu = np.linalg.svd(amps.reshape(dims.n_a, dims.n_b), compute_uv=False)
    off = np.outer(mu, mu)[np.triu_indices(len(mu), k=1)]
    return np.concatenate([off, -off, mu**2])


def _equal_dists(a: EmpiricalDistribution, b: EmpiricalDistribution) -> bool:
    return (
        np.array_equal(a.bin_edges, b.bin_edges)
        and np.array_equal(a.densities, b.densities)
        and np.array_equal(a.samples, b.samples)
        and a.mean == b.mean
        and a.k2 == b.k2
        and a.k3 == b.k3
        and a.k4 == b.k4
        and a.neg_tail == b.neg_tail
    )


class TestWitnessSpec:
    def test_parse_round_trip(self):
        for text, kind in (
            ("random", "random"),
            ("rank2:0.5", "rank2"),
            ("rankk:4", "rankk"),
            ("optimal", "optimal"),
        ):
            spec = WitnessSpec.parse(text)
            assert spec.kind == kind
            assert str(spec) == text
            assert WitnessSpec.parse(str(spec)) == spec

    def test_parse_rejects_garbage(self):
        for text in ("rank2", "rank2:1.5", "rankk:zero", "banana", "random:16", "optimal:junk"):
            with pytest.raises(ValueError):
                WitnessSpec.parse(text)

    def test_parse_error_keeps_the_reason(self):
        with pytest.raises(ValueError, match=r"bad rankk witness spec 'rankk:0': .*needs k >= 1"):
            WitnessSpec.parse("rankk:0")
        with pytest.raises(ValueError, match=r"bad rank2 witness spec 'rank2:1.5': .*lambda in \(0, 1\)"):
            WitnessSpec.parse("rank2:1.5")

    def test_config_validation(self):
        dims = BipartiteDims(4, 4)
        with pytest.raises(ValueError):
            run_w_ensemble(dims, 0)
        with pytest.raises(ValueError):
            run_w_ensemble(dims, 10, m=0)
        with pytest.raises(ValueError):
            run_w_ensemble(dims, 10, seed=-1)


def _exact_summary(x: np.ndarray):
    """k2..k4, their leave-one-block-out jackknife errors and mu4 / mu2^2 of
    a float array in exact rationals: the floats are dyadic, so den * x is
    an integer array and n * (den * x) - sum(den * x) centres it exactly."""
    fracs = [Fraction(v) for v in x.tolist()]
    den = max(f.denominator for f in fracs)
    ints = [f.numerator * (den // f.denominator) for f in fracs]

    def moments(part):
        n, total = len(part), sum(part)
        b = [n * a - total for a in part]
        return [Fraction(sum(v**r for v in b), n ** (r + 1) * den**r) for r in (2, 3, 4)]

    def cumulants(part):
        m2, m3, m4 = moments(part)
        return [m2, m3, m4 - 3 * m2 * m2]

    m2, _, m4 = moments(ints)
    blocks = np.array_split(np.arange(len(ints)), min(20, len(ints)))
    theta = [cumulants(ints[: blk[0]] + ints[blk[-1] + 1 :]) for blk in blocks]
    nb = len(theta)
    errors = []
    for r in range(3):
        centre = sum(t[r] for t in theta) / nb
        errors.append(math.sqrt(Fraction(nb - 1, nb) * sum((t[r] - centre) ** 2 for t in theta)))
    return cumulants(ints), errors, m4 / (m2 * m2)


class TestEmpirical:
    def test_histogram_normalization(self):
        x = rng(1).normal(1.0, 1.0, size=20_000)
        dist = empirical_from_samples(x)
        widths = np.diff(dist.bin_edges)
        assert abs(float(np.sum(dist.densities * widths)) - 1.0) < 1e-9

    def test_moments_against_numpy(self):
        x = rng(2).normal(0.3, 2.0, size=50_000)
        dist = empirical_from_samples(x)
        assert dist.mean == pytest.approx(float(np.mean(x)), abs=1e-12)
        c = x - np.mean(x)
        assert dist.k2 == pytest.approx(float(np.mean(c**2)), rel=1e-10)
        assert dist.k3 == pytest.approx(float(np.mean(c**3)), rel=1e-8, abs=1e-10)
        assert dist.k4 == pytest.approx(float(np.mean(c**4) - 3 * np.mean(c**2) ** 2), rel=1e-6, abs=1e-8)

    def test_jackknife_errors_are_sane(self):
        # k2 jackknife std err of n gaussian samples ~ sqrt(2/n) * k2
        x = rng(3).normal(0.0, 1.0, size=100_000)
        dist = empirical_from_samples(x)
        expected = math.sqrt(2.0 / len(x))
        assert 0.5 * expected < dist.k2_std_err < 2.0 * expected

    @pytest.mark.parametrize(
        "x",
        [rng(11).standard_exponential(n) - 0.5 for n in (2, 3, 21, 1001)] + [1.0 + 1e-3 * rng(12).standard_normal(2000)],
        ids=["n2", "n3", "n21", "n1001", "narrow_far_from_zero"],
    )
    def test_matches_exact_rational_oracle(self, x):
        dist = empirical_from_samples(x)
        cumulants, errors, ratio = _exact_summary(x)
        for order, k, se in zip((2, 3, 4), cumulants, errors):
            tol = 1e-12 * float(cumulants[0]) ** (order / 2)
            assert dist.cumulant(order)[0] == pytest.approx(float(k), rel=1e-12, abs=tol)
            assert dist.cumulant(order)[1] == pytest.approx(se, rel=1e-12, abs=tol)
        assert kurtosis_ratio(x) == pytest.approx(float(ratio), rel=1e-12)
        assert dist.mean == np.mean(x)
        assert dist.neg_tail == np.count_nonzero(x < 0) / len(x)
        counts, edges = np.histogram(x, bins=dist.bin_edges)
        assert np.array_equal(dist.densities, counts / (counts.sum() * np.diff(edges)))

    def test_neg_tail_binomial_error(self):
        x = np.array([-1.0] * 25 + [1.0] * 75)
        dist = empirical_from_samples(x)
        assert dist.neg_tail == 0.25
        assert dist.neg_tail_std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 100), abs=1e-15)


def _blas_threads(_task) -> int:
    get, _ = qstate._OPENBLAS_THREADS
    return get()


@pytest.mark.skipif(qstate._OPENBLAS_THREADS is None, reason="numpy's OpenBLAS was not found")
class TestBlasThreadPolicy:
    def test_import_sets_one_thread(self):
        # a process started on two threads computes on one once qstate is imported
        code = "from witness_lab import qstate; print(qstate._OPENBLAS_THREADS[0]())"
        src = Path(ensemble.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
        assert run.stdout.strip() == "1"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_runs_on_one_blas_thread(self, workers):
        _, put = qstate._OPENBLAS_THREADS
        put(2)  # as if a caller raised it after import; the map sets it back to 1
        assert ensemble._map_ordered(_blas_threads, [0, 1, 2, 3], workers) == [1, 1, 1, 1]
        assert qstate.BLAS_THREADS_PER_TASK == 1


class TestDeterminism:
    def test_worker_count_invariance(self):
        dims = BipartiteDims(8, 8)
        base = dict(m=2, seed=123, witness_spec=WitnessSpec("rank2", lam=0.5))
        d1 = run_w_ensemble(dims, 9000, workers=1, **base)
        d2 = run_w_ensemble(dims, 9000, workers=2, **base)
        assert _equal_dists(d1, d2)

    def test_same_config_bitwise_identical(self):
        dims = BipartiteDims(4, 4)
        assert _equal_dists(run_w_ensemble(dims, 3000, seed=9), run_w_ensemble(dims, 3000, seed=9))

    def test_seed_changes_results(self):
        dims = BipartiteDims(4, 4)
        a = run_w_ensemble(dims, 1000, seed=1)
        b = run_w_ensemble(dims, 1000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_rank_k_mixture_worker_count_invariance(self):
        base = dict(m=2, seed=17, witness_spec=WitnessSpec("rankk", k=3))
        d1 = run_w_ensemble(BipartiteDims(4, 4), 9000, workers=1, **base)
        d2 = run_w_ensemble(BipartiteDims(4, 4), 9000, workers=2, **base)
        assert _equal_dists(d1, d2)

    def test_decay_and_wdist_streams_differ(self):
        from witness_lab.ensemble import _STREAM_DECAY, _STREAM_W, _rng_for

        # SeedSequence zero-pads its entropy, which is why every tag keeps one
        # entropy length; decay chunks (seed, tag, chunk) must not repeat the
        # wdist chunks (seed, tag, chunk)
        assert np.array_equal(_rng_for(7, 1, 2).random(4), _rng_for(7, 1, 2, 0).random(4))
        for c in range(4):
            wdist_chunk = _rng_for(7, _STREAM_W, c).random(4)
            decay_chunk = _rng_for(7, _STREAM_DECAY, c).random(4)
            assert not np.array_equal(wdist_chunk, decay_chunk)

    def test_pt_spectrum_worker_invariance(self):
        dims = BipartiteDims(8, 8)
        a = run_pt_spectrum(dims, m=2, states=6, seed=5, workers=1)
        b = run_pt_spectrum(dims, m=2, states=6, seed=5, workers=2)
        assert _equal_dists(a, b)

    def test_lambda_min_scan_worker_invariance(self):
        a = run_lambda_min_scan([4, 8], [1, 3, 20, 70], repetitions=5, seed=3, workers=1)
        b = run_lambda_min_scan([4, 8], [1, 3, 20, 70], repetitions=5, seed=3, workers=2)
        assert a.rows == b.rows
        assert a.metadata == b.metadata


class TestWEnsemble:
    def test_mean_is_one_within_errors(self):
        dist = run_w_ensemble(BipartiteDims(16, 16), 20_000, seed=4, workers=2)
        assert abs(dist.mean - 1.0) < 3 * dist.mean_std_err

    def test_tail_error_shrinks_with_samples(self):
        dims = BipartiteDims(8, 8)
        small = run_w_ensemble(dims, 10_000, seed=6, workers=2)
        large = run_w_ensemble(dims, 40_000, seed=6, workers=2)
        assert large.neg_tail_std_err < 0.8 * small.neg_tail_std_err

    def test_optimal_per_state_matches_direct(self):
        from witness_lab.witness import optimal_witness

        dims = BipartiteDims(4, 4)
        dist = run_w_ensemble(dims, 5, m=2, seed=8, witness_spec=WitnessSpec("optimal"))
        assert np.all(dist.samples < 0)
        # each w equals total_dim * lambda_min of an independently drawn
        # mixture, so the range must be physical
        assert np.all(dist.samples > -dims.total)
        res = optimal_witness(mix_random_states(dims, 2, rng(10)))
        assert -dims.total < dims.total * res.lambda_min < 0

    @pytest.mark.parametrize(
        "shape,samples,m",
        [
            pytest.param((3, 5), 4100, 1, id="shape0-4100"),
            pytest.param((5, 3), 4100, 1, id="shape1-4100"),
            pytest.param((8, 8), 600, 1, id="shape2-600"),
            pytest.param((32, 32), 70, 1, id="shape3-70"),
            pytest.param((3, 5), 1100, 2, id="3x5-m2-1100"),
            pytest.param((3, 5), 800, 3, id="3x5-m3-800"),
        ],
    )
    def test_optimal_pure_batches_equal_a_per_sample_loop(self, shape, samples, m):
        # 3 x 5 draws in groups of 2184 states, so its first chunk of 4096
        # holds two groups and the second chunk the last 4; 32 x 32 draws
        # in groups of 32; mixtures of m come in groups of 2184 // m (1092
        # and 728 at 3 x 5), so both m > 1 runs span two groups
        dims = BipartiteDims(*shape)
        got = run_w_ensemble(dims, samples, m, seed=19, workers=2, witness_spec=WitnessSpec("optimal")).samples
        want = []
        for chunk, start in enumerate(range(0, samples, ensemble.CHUNK_SAMPLES)):
            gen = ensemble._rng_for(19, ensemble._STREAM_W, chunk)
            for _ in range(min(ensemble.CHUNK_SAMPLES, samples - start)):
                comps = sample_random_pure_batch(dims, m, gen)
                if m == 1:
                    lmin = _pure_pt_reference(comps[0], dims).min()
                else:
                    lmin = np.linalg.eigvalsh(partial_transpose_b(mixture_density(comps), dims))[0]
                want.append(dims.total * float(lmin))
        assert np.array_equal(got, np.array(want))

    def test_cross_oracle_rank2_agreement(self):
        quantum = run_w_ensemble(
            BipartiteDims(32, 32), 100_000, seed=11, workers=2, witness_spec=WitnessSpec("rank2", lam=0.25)
        )
        model = rank2_overlap_distribution(0.25, 100_000, rng(12))
        assert stats.ks_2samp(quantum.samples, model.samples, method="asymp").statistic < 0.02


class TestSpectralSampler:
    """The fixed-witness sampler against direct contractions of Haar states
    with the witness vectors, and against the exact finite-N moments."""

    SAMPLES = 20_000

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("spec", ["random", "rank2:0.3", "rankk:3"])
    @pytest.mark.parametrize("shape", [(4, 4), (3, 5)])
    def test_matches_contraction_oracle_and_moments(self, shape, spec, m):
        from witness_lab.ensemble import _w_samples

        dims = BipartiteDims(*shape)
        n = self.SAMPLES
        witness = derive_witness(dims, WitnessSpec.parse(spec), 41)
        spectrum = witness_spectrum(witness)
        w = _w_samples(dims, n, m, spectrum, (42, 1), workers=1)

        psi = sample_random_pure_batch(dims, n * m, rng(43)).reshape(n * m, dims.n_a, dims.n_b)
        phis = witness.q_vectors.reshape(-1, dims.n_a, dims.n_b)
        q = sum(pt_quadratic_form_batch(phi, psi) for phi in phis) / witness.rank
        oracle = dims.total * q.reshape(n, m).mean(axis=1)
        # DKW bound on each empirical CDF, false-alarm probability 1e-6 in all
        eps = 2 * math.sqrt(math.log(2 / 0.5e-6) / (2 * n))
        assert stats.ks_2samp(w, oracle, method="asymp").statistic < eps

        dist = empirical_from_samples(w)
        tr_w2 = float(np.sum(spectrum.nonzero**2))
        var = (dims.total * tr_w2 - 1) / (dims.total + 1) / m
        assert abs(dist.mean - 1.0) < 5 * dist.mean_std_err
        assert abs(dist.variance - var) < 5 * dist.k2_std_err

    def test_a_longer_run_extends_a_shorter_one(self):
        # 4 nonzero and 60 zero eigenvalues: a chunk of up to 16,384 samples
        # is one batch, so its Gamma(60) draws must not share the stream of
        # its exponentials for the first 1000 values to keep their bits
        dims = BipartiteDims(8, 8)
        spectrum = witness_spectrum(derive_witness(dims, WitnessSpec.parse("rank2:0.3"), 0))
        assert (len(spectrum.nonzero), spectrum.zeros) == (4, 60)
        short, long = (ensemble._w_samples(dims, n, 1, spectrum, (0, ensemble._STREAM_W), 1) for n in (1000, 1001))
        assert np.array_equal(long[:1000], short)


class TestRankKGaussianity:
    def test_ks_report_for_moderate_ranks(self):
        # how fast the rank-k distribution becomes Gaussian is left open;
        # report the KS distances for k = 4 and 16 (visible with -s) and
        # only pin a loose sanity ceiling
        from witness_lab.analytic import gauss_width
        from witness_lab.ensemble import ks_statistic

        for k in (4, 16):
            dist = run_w_ensemble(
                BipartiteDims(32, 32), 50_000, seed=30 + k, workers=2, witness_spec=WitnessSpec("rankk", k=k)
            )
            ks = ks_statistic(dist.samples, lambda xs: cdf_on_sorted(gauss_width(k), xs))
            print(f"rank-k Gaussianity: k={k} KS vs width-1/k Gaussian = {ks:.4f}")
            assert ks < 0.1


class TestPtSpectrum:
    def test_pure_support_is_wigner_like(self):
        dims = BipartiteDims(32, 32)
        dist = run_pt_spectrum(dims, m=1, states=10, seed=13, workers=2)
        frac_outside = np.mean(np.abs(dist.samples) > 4.5)
        assert frac_outside <= 1e-3
        assert dist.sample_count == 10 * 32 * 31

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (16, 16)])
    def test_chunks_equal_a_per_state_loop(self, shape):
        # 300 states at 16 x 16 are three chunks (128, 128, 44)
        dims = BipartiteDims(*shape)
        dist = run_pt_spectrum(dims, m=1, states=300, seed=21)
        want = np.concatenate(
            [
                _pure_pt_reference(
                    sample_random_pure_batch(dims, 1, ensemble._rng_for(21, ensemble._STREAM_PT, i))[0], dims
                )[: -dims.schmidt_len]
                for i in range(300)
            ]
        )
        assert np.array_equal(dist.samples, dims.schmidt_len * want)

    @pytest.mark.parametrize("shape", [(6, 10), (10, 6)])
    def test_pure_samples_drop_the_diagonal_block(self, shape):
        # 600 states at 6 x 10 are two chunks (546, 54); each state's whole
        # spectrum ends in its schmidt_len values mu_i^2, which are dropped
        dims = BipartiteDims(*shape)
        dist = run_pt_spectrum(dims, m=1, states=600, seed=24)
        amps = np.stack([sample_random_pure_batch(dims, 1, _rng_for(24, ensemble._STREAM_PT, i)) for i in range(600)])
        want = mixture_pt_eigenvalues(amps, dims)[:, : -dims.schmidt_len].ravel()
        assert np.array_equal(dist.samples, dims.schmidt_len * want)

    def test_chunks_do_not_depend_on_the_worker_count(self):
        dims = BipartiteDims(16, 16)
        one = run_pt_spectrum(dims, m=1, states=300, seed=22, workers=1)
        two = run_pt_spectrum(dims, m=1, states=300, seed=22, workers=2)
        assert _equal_dists(one, two)

    def test_pool_only_for_more_than_one_chunk(self, monkeypatch):
        pools = []

        class CountingPool(ensemble.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
        run_pt_spectrum(BipartiteDims(32, 32), m=1, states=20, seed=23, workers=2)
        assert pools == []  # one chunk of 20 states runs in-process
        run_pt_spectrum(BipartiteDims(16, 16), m=1, states=300, seed=23, workers=2)
        assert len(pools) == 1

    def test_mixture_spectrum_tightens(self):
        dims = BipartiteDims(8, 8)
        d1 = run_pt_spectrum(dims, m=1, states=5, seed=15)
        d16 = run_pt_spectrum(dims, m=16, states=5, seed=15)
        assert d16.samples.std() < d1.samples.std()

    def test_semicircle_kurtosis_for_large_m(self):
        dims = BipartiteDims(16, 16)
        dist = run_pt_spectrum(dims, m=256, states=4, seed=16, workers=2)
        assert abs(kurtosis_ratio(dist.samples) - 2.0) < 0.2


def _lmin_values(seed: int, stream: tuple[int, ...], n: int, m: int) -> float:
    """lambda_min of rho^T_B for a mixture of m Haar states drawn from the
    stream ``(seed, _STREAM_LMIN, *stream)``."""
    dims = BipartiteDims(n, n)
    comps = sample_random_pure_batch(dims, m, _rng_for(seed, _STREAM_LMIN, *stream))
    return float(mixture_pt_eigenvalues(comps, dims).min())


class TestLambdaMinScan:
    def test_rows_equal_a_per_prefix_loop(self):
        n_list, m_list, reps, seed = [3, 4, 8], [1, 2, 10, 17, 70], 4, 11
        scan = run_lambda_min_scan(n_list, m_list, repetitions=reps, seed=seed, workers=1)
        rows = iter(scan.rows)
        for i, n in enumerate(n_list):
            for m in m_list:
                # the first m states of a stream are the states of an m-draw
                vals = np.array([_lmin_values(seed, (i, rep), n, m) for rep in range(reps)])
                row = next(rows)
                assert (row.n, row.m) == (n, m)
                assert row.value == pytest.approx(vals.mean(), rel=0, abs=1e-12 / n**2)
                se = vals.std(ddof=1) / math.sqrt(reps)
                assert row.std_err == pytest.approx(se, rel=0, abs=1e-12 / n**2)

    def test_single_m_scans_keep_their_streams(self):
        # one m per N: the row of the i-th N is, bit for bit, the mean over
        # repetitions of lambda_min of m states from (seed, LMIN, i, rep)
        for n_list, m in (([8, 16], 1), ([4, 6], 5)):
            scan = run_lambda_min_scan(n_list, [m], repetitions=6, seed=2, workers=1)
            for i, (n, row) in enumerate(zip(n_list, scan.rows)):
                vals = np.array([_lmin_values(2, (i, rep), n, m) for rep in range(6)])
                assert (row.value, row.std_err) == (vals.mean(), vals.std(ddof=1) / math.sqrt(6))

    def test_first_row_of_first_n_keeps_its_bits(self):
        scan = run_lambda_min_scan([4, 8], [2, 7, 30], repetitions=5, seed=1, workers=1)
        vals = np.array([_lmin_values(1, (0, rep), 4, 2) for rep in range(5)])
        assert scan.rows[0].value == vals.mean()

    def test_each_repetition_draws_max_m_states_once(self, monkeypatch):
        drawn = []
        real = ensemble.sample_random_pure_batch

        def counting(dims, n, rng):
            drawn.append((dims.n_a, n))
            return real(dims, n, rng)

        monkeypatch.setattr(ensemble, "sample_random_pure_batch", counting)
        run_lambda_min_scan([4, 6], [40, 1, 9], repetitions=3, seed=0, workers=1)
        assert drawn == [(4, 40)] * 3 + [(6, 40)] * 3

    @pytest.mark.parametrize(
        "n_list, m_list, message",
        [
            ([4], [0, 2], "mixture size must be >= 1, got 0"),
            ([4], [2, -3], "mixture size must be >= 1, got -3"),
            ([4, 4], [2], "dimension N 4 is repeated"),
            ([4], [2, 5, 2], "mixture size m 2 is repeated"),
            ([4], [], "need at least one dimension N and one mixture size m"),
        ],
    )
    def test_rejects_bad_grids(self, n_list, m_list, message):
        with pytest.raises(ValueError, match=message):
            run_lambda_min_scan(n_list, m_list, repetitions=2)

    def test_monotone_from_paired_differences(self):
        # rows that share a large per-repetition term: a dip of 0.01 sits far
        # inside the independent-rows slack 2 sqrt(se_0^2 + se_1^2) ~ 0.4 but
        # far outside the paired slack 2 std(diff) / sqrt(reps) ~ 4e-4
        g = np.random.default_rng(0)
        shared = g.standard_normal(30)
        dip = np.stack([shared, shared - 0.01 + 1e-3 * g.standard_normal(30)])
        steps = dip[1] - dip[0]
        assert -steps.mean() > 10 * 2 * steps.std(ddof=1) / math.sqrt(30)
        assert not _monotone_in_m(dip)
        assert _monotone_in_m(dip[::-1])
        assert _monotone_in_m(np.stack([shared, shared + 1e-3 * g.standard_normal(30)]))

    def test_pure_state_values_and_m_star_bracket(self):
        scan = run_lambda_min_scan([8], [1, 2], repetitions=40, seed=17, workers=2)
        ms, vals, ses = scan.for_n(8)
        # N * mean lambda_min at m=1 sits in the finite-size band near -2.4
        assert -3.0 < 8 * vals[0] < -2.0
        assert vals[0] < vals[1] < 0  # m=2 is less negative

    def test_monotone_metadata(self):
        scan = run_lambda_min_scan([4], [1, 4, 16, 64], repetitions=30, seed=18, workers=2)
        assert scan.metadata["monotone_in_m"][4]

    def test_m_star_interpolation(self):
        rows = run_lambda_min_scan([4], [32, 48, 64, 96], repetitions=60, seed=19, workers=2)
        m_star = rows.metadata["m_star"][4]
        # m* ~ 3.5 N^2 = 56 at N=4
        assert m_star is None or 32 < m_star < 96

    def test_requires_repetitions(self):
        with pytest.raises(ValueError):
            run_lambda_min_scan([4], [1], repetitions=1)

    def test_all_pure_scan_allocates_no_gram(self):
        # the Gram starts at the first m > 1; a zeroed one at N = 48 would
        # take (2 N^2)^2 doubles, 170 MB
        tracemalloc.start()
        try:
            run_lambda_min_scan([48], [1], repetitions=2, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


@pytest.fixture(scope="module")
def lmin_scan_for_critical_m():
    return run_lambda_min_scan(
        [8, 12], [8, 16, 32, 64, 128, 256, 320, 512, 768], repetitions=60, seed=20, workers=2
    )


class TestCriticalM:
    @pytest.fixture()
    def scan(self, lmin_scan_for_critical_m):
        return lmin_scan_for_critical_m

    def test_zero_epsilon_equals_m_star(self, scan):
        rows = critical_m(scan, 0.0, "const")
        for row in rows:
            assert row.m_crit == pytest.approx(scan.metadata["m_star"][row.n])

    def test_coarse_accuracy_blocks_detection(self, scan):
        # epsilon larger than any |lambda_min| in the scan: nothing detectable
        rows = critical_m(scan, 1.0, "const")
        assert all(row.m_crit == 0.0 for row in rows)

    def test_inv_n2_scaling_tracks_n_squared(self, scan):
        rows = {r.n: r for r in critical_m(scan, 0.5, "inv_N2")}
        for row in rows.values():
            assert row.m_crit is not None
        ratio8 = rows[8].m_crit / 8**2
        ratio12 = rows[12].m_crit / 12**2
        assert 0.5 < ratio8 / ratio12 < 2.0

    def test_inv_n_ratio_shrinks(self, scan):
        rows = {r.n: r for r in critical_m(scan, 0.8, "inv_N")}
        assert rows[12].m_crit / 12 <= rows[8].m_crit / 8 * 1.5

    def test_rejects_wrong_scan_kind(self, scan):
        decay = run_mixture_decay(BipartiteDims(4, 4), 2, 500, seed=1)
        with pytest.raises(ValueError):
            critical_m(decay, 0.1)


class TestMixtureDecay:
    def test_small_scan_structure(self):
        scan = run_mixture_decay(BipartiteDims(8, 8), 3, 4000, seed=21, workers=2)
        assert [r.m for r in scan.rows] == [1, 2, 3]
        assert [r.n for r in scan.rows] == [8, 8, 8]
        assert all(0 <= r.value <= 1 for r in scan.rows)
        # the fit window starts at m=3, so m_max=3 leaves a single point and
        # no slope; one more point makes the fit possible
        assert "slope" not in scan.metadata
        longer = run_mixture_decay(BipartiteDims(8, 8), 4, 4000, seed=21, workers=2)
        assert isinstance(longer.metadata["slope"], float)
        assert longer.metadata["slope"] < 0

    def test_probability_decreases_with_m(self):
        scan = run_mixture_decay(BipartiteDims(16, 16), 4, 20_000, seed=22, workers=2)
        vals = [r.value for r in scan.rows]
        assert vals == sorted(vals, reverse=True)

    def test_optimal_witness_spec_rejected(self):
        with pytest.raises(ValueError):
            run_mixture_decay(BipartiteDims(4, 4), 2, 100, witness_spec=WitnessSpec("optimal"))

    def test_rejects_samples_base_below_one(self):
        with pytest.raises(ValueError, match="samples_base must be >= 1, got 0"):
            run_mixture_decay(BipartiteDims(4, 4), 2, 0)

    # base 3000 at 8 x 8, m_max 4: the pool holds 3000 * 4 * 4 = 48,000 pure
    # samples, 12 chunks
    DIMS, M_MAX, BASE, SEED = BipartiteDims(8, 8), 4, 3000, 25

    def _scan(self, workers, m_max=M_MAX):
        return run_mixture_decay(self.DIMS, m_max, self.BASE, seed=self.SEED, workers=workers)

    def test_points_average_one_run_of_pure_samples(self):
        witness = derive_witness(self.DIMS, WitnessSpec("random"), self.SEED)
        spectrum = witness_spectrum(witness)
        pure = ensemble._w_samples(
            self.DIMS, self.BASE * self.M_MAX**2, 1, spectrum, (self.SEED, ensemble._STREAM_DECAY), 1
        )
        want = []
        for m in range(1, self.M_MAX + 1):
            n = self.BASE * m
            w = pure[: n * m].reshape(n, m).mean(axis=1)
            p = float(np.count_nonzero(w < 0)) / n
            want.append(ensemble.ScanRow(n=8, m=m, value=p, std_err=math.sqrt(p * (1.0 - p) / n)))
        ms = np.array([r.m for r in want[2:]], dtype=float)
        logp = np.log([r.value for r in want[2:]])
        slope, intercept = np.polyfit(ms, logp, 1)
        resid = logp - (slope * ms + intercept)
        dof = max(len(ms) - 2, 1)
        slope_se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((ms - ms.mean()) ** 2)))

        scan = self._scan(1)
        assert scan.rows == tuple(want)
        assert scan.metadata == {
            "witness_spec": "random",
            "slope_fit_min_m": 3,
            "slope": float(slope),
            "intercept": float(intercept),
            "slope_std_err": slope_se,
        }

    def test_worker_count_does_not_change_the_bits(self):
        one, two = self._scan(1), self._scan(2)
        assert one.rows == two.rows
        assert one.metadata == two.metadata

    def test_longer_scan_keeps_the_rows_of_a_shorter_one(self):
        # the shorter pool is a prefix of the longer one bit for bit
        shorter, longer = self._scan(1, m_max=3), self._scan(1, m_max=4)
        assert longer.rows[:3] == shorter.rows

    def test_longer_scan_keeps_the_rows_with_zero_eigenvalues(self):
        # rank2:0.3 at 8 x 8 has 60 zero eigenvalues; at base 3001 the last
        # chunks of the two pools (27,009 and 48,016 samples) differ in length
        spec = WitnessSpec.parse("rank2:0.3")
        shorter, longer = (run_mixture_decay(self.DIMS, m_max, 3001, seed=4, witness_spec=spec) for m_max in (3, 4))
        assert longer.rows[:3] == shorter.rows


class TestDenseCoding:
    def test_pure_random_state_is_usable(self):
        st = mix_random_states(BipartiteDims(16, 16), 1, rng(23))
        margin = dense_coding_margin(st)
        assert margin > 0
        expected = math.log2(16) - 1.0 / math.log(4.0)
        assert abs(margin - expected) < 0.05

    def test_maximally_mixed_margin(self):
        dims = BipartiteDims(8, 8)
        st = maximally_mixed(dims)
        margin = dense_coding_margin(st)
        assert not margin > 0
        assert margin == pytest.approx(-math.log2(8), abs=1e-9)

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError, match="mixture size must be >= 1, got 0"):
            dense_coding_scan(BipartiteDims(4, 4), [0, 2], repetitions=1)

    def test_rejects_repeated_m(self):
        with pytest.raises(ValueError, match="mixture size m 2 is repeated"):
            dense_coding_scan(BipartiteDims(4, 4), [2, 3, 2], repetitions=1)

    def test_rejects_an_empty_m_list(self):
        with pytest.raises(ValueError, match="need at least one mixture size m"):
            dense_coding_scan(BipartiteDims(4, 4), [], repetitions=1)

    def test_margin_crosses_zero_near_m_equals_n(self):
        dims = BipartiteDims(16, 16)
        scan = dense_coding_scan(dims, [4, 8, 16, 32, 64], repetitions=3, seed=24)
        margins = {r.m: r.value for r in scan.rows}
        assert margins[4] > 0
        assert margins[64] < 0
        crossings = [
            m_lo
            for m_lo, m_hi in zip([4, 8, 16, 32], [8, 16, 32, 64])
            if margins[m_lo] > 0 >= margins[m_hi]
        ]
        assert crossings and 4 <= crossings[0] <= 64


class TestCumulantReport:
    def test_full_rank_witness_z_scores(self, gauss_ensemble):
        witness, dist = gauss_ensemble
        rows = cumulant_report(dist, witness)
        assert [r.order for r in rows] == [2, 3, 4]
        assert all(abs(r.z_score) <= 4 for r in rows)
        assert not any(r.flagged for r in rows)

    def test_rank2_third_cumulant(self, rank2_half_ensemble):
        witness, dist = rank2_half_ensemble
        rows = cumulant_report(dist, witness)
        k3 = rows[1]
        assert k3.predicted == pytest.approx(0.49270, abs=5e-6)
        assert abs(k3.predicted - 0.5) < 0.01  # N -> inf: 2 tr W^3 = 2 * 1/4
        assert abs(k3.empirical - 0.5) < 4 * k3.std_err

    def test_product_vector_gives_exponential_cumulants(self):
        # w for a product witness vector is n Beta(1, n - 1), which tends to
        # Exp(1) (kappa_n = (n-1)!) as n -> inf
        from witness_lab.qstate import PureState
        from witness_lab.witness import witness_from_vector, witness_spectrum
        from witness_lab.ensemble import _w_samples

        dims = BipartiteDims(16, 16)
        amp = np.zeros(dims.total, complex)
        amp[0] = 1.0
        witness = witness_from_vector(PureState(dims, amp))
        w = _w_samples(dims, 50_000, 1, witness_spectrum(witness), (25, 1), workers=2)
        dist = empirical_from_samples(w)
        rows = cumulant_report(dist, witness)
        _, var, skew, kurt = stats.beta(1, dims.total - 1).stats("mvsk")
        n = dims.total
        exact = [n**2 * var, n**3 * skew * var**1.5, n**4 * kurt * var**2]
        np.testing.assert_allclose([r.predicted for r in rows], exact, rtol=1e-12, atol=0)
        assert all(abs(r.z_score) <= 4 for r in rows)
        assert np.all(w >= 0)

    @pytest.mark.parametrize(
        "shape, spec, m",
        [((4, 4), "rankk:3", 1), ((4, 4), "rankk:3", 2), ((8, 8), "random", 1), ((8, 8), "rank2:0.3", 1)],
    )
    def test_exact_predictions_flag_nothing(self, shape, spec, m):
        # finite-N sizes: here the N -> inf cumulants are 7-73 standard
        # errors off a correct sampler
        dims, spec = BipartiteDims(*shape), WitnessSpec.parse(spec)
        dist = run_w_ensemble(dims, 100_000, m, seed=0, workers=2, witness_spec=spec)
        rows = cumulant_report(dist, derive_witness(dims, spec, 0), m=m)
        assert all(type(r.flagged) is bool for r in rows)
        assert not any(r.flagged for r in rows), [r.z_score for r in rows]
