import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from witness_lab import __version__, analytic, cli, qstate


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


SMALL_WDIST = ["wdist", "--dims", "8", "8", "--samples", "1500", "--seed", "7", "--workers", "1"]


class TestWdist:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(SMALL_WDIST + ["--out", out]) == 0
        for name in ("wdist_hist.csv", "wdist_analytic.csv", "wdist_summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = read_json(out / "wdist_summary.json")
        assert summary["sample_count"] == 1500
        assert 0.0 <= summary["neg_tail"] <= 1.0
        assert summary["witness"] == "random"
        header = (out / "wdist_hist.csv").read_text().splitlines()[0]
        assert header == "bin_left,bin_right,density"

    def test_rerun_reproduces_outputs_bit_for_bit(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(SMALL_WDIST + ["--out", out1]) == 0
        assert run_cli(SMALL_WDIST + ["--out", out2]) == 0
        for name in ("wdist_hist.csv", "wdist_analytic.csv", "wdist_summary.json"):
            assert file_bytes(out1 / name) == file_bytes(out2 / name)
        m1, m2 = read_json(out1 / "manifest.json"), read_json(out2 / "manifest.json")
        assert m1["outputs"] == m2["outputs"]
        assert m1["seed"] == m2["seed"]

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        base = ["wdist", "--dims", "8", "8", "--samples", "1500", "--seed", "7", "--out"]
        assert run_cli(base[:-1] + ["--workers", "1", "--out", out1]) == 0
        assert run_cli(base[:-1] + ["--workers", "2", "--out", out2]) == 0
        assert file_bytes(out1 / "wdist_hist.csv") == file_bytes(out2 / "wdist_hist.csv")
        assert file_bytes(out1 / "wdist_summary.json") == file_bytes(out2 / "wdist_summary.json")

    def test_rank2_witness_flag(self, tmp_path):
        out = tmp_path / "r2"
        args = ["wdist", "--dims", "8", "8", "--samples", "2000", "--witness", "rank2:0.5", "--seed", "3", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "wdist_summary.json")
        assert summary["analytic_kind"] == "rank2"
        assert summary["analytic_neg_tail"] == pytest.approx(0.125, abs=1e-12)

    def test_rank2_witness_on_mixtures_writes_no_law(self, tmp_path):
        # the law of a rank-2 witness on m >= 2 mixtures is not built, and
        # the Gaussian is far from it, so no overlay, tail or KS is written
        out = tmp_path / "r2m2"
        args = ["wdist", "--dims", "8", "8", "--samples", "2000", "--witness", "rank2:0.5", "--m", "2", "--out", out]
        assert run_cli(args) == 0
        assert not (out / "wdist_analytic.csv").exists()
        summary = read_json(out / "wdist_summary.json")
        assert not {"analytic_kind", "analytic_neg_tail", "ks_vs_analytic"} & set(summary)

    def test_rankk_overlay_width_is_exact(self, tmp_path):
        # the width 1 / sum(d_i^2) of ten weights 1/10 rounds to 9.999999999999996
        out = tmp_path / "rk"
        args = ["wdist", "--dims", "6", "6", "--samples", "500", "--witness", "rankk:10", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "wdist_summary.json")
        assert summary["analytic_params"]["k"] == 10.0
        assert summary["analytic_neg_tail"] == analytic.detection_probability(analytic.gauss_width(10))

    def test_csv_is_locale_independent(self, tmp_path):
        out = tmp_path / "loc"
        assert run_cli(SMALL_WDIST + ["--out", out]) == 0
        body = (out / "wdist_hist.csv").read_text()
        # decimal points only, no thousands separators or exponents with commas
        for line in body.splitlines()[1:]:
            assert len(line.split(",")) == 3
            for field in line.split(","):
                float(field)  # parses with C locale

    def test_invalid_witness_errors_and_leaves_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run_cli(["wdist", "--dims", "8", "8", "--samples", "100", "--witness", "rank2:1.5", "--out", out])
        assert code == 1
        assert "error" in capsys.readouterr().err
        leftover = [p for p in out.iterdir() if p.name != "manifest.json"]
        assert leftover == []

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "fail"
        real_json = cli.OutputTracker.json

        def boom(self, name, payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli.OutputTracker, "json", boom)
        code = run_cli(SMALL_WDIST + ["--out", out])
        assert code == 1
        monkeypatch.setattr(cli.OutputTracker, "json", real_json)
        assert list(out.glob("*.csv")) == []

    def test_zero_workers_rejected(self, tmp_path, capsys):
        out = tmp_path / "w0"
        args = ["wdist", "--dims", "8", "8", "--samples", "100", "--workers", "0", "--out", out]
        assert run_cli(args) == 1
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_one_sample_gives_zero_errors(self, tmp_path):
        out = tmp_path / "one"
        assert run_cli(["wdist", "--dims", "4", "4", "--samples", "1", "--workers", "1", "--out", out]) == 0
        summary = read_json(out / "wdist_summary.json")
        assert summary["sample_count"] == 1
        assert [summary[f"k{r}_std_err"] for r in (2, 3, 4)] == [0.0, 0.0, 0.0]

    def test_zero_m_is_usage_error(self, tmp_path):
        code = run_cli(["wdist", "--dims", "8", "8", "--samples", "100", "--m", "0", "--out", tmp_path / "x"])
        assert code != 0


class TestPtspec:
    def test_pure_outputs(self, tmp_path):
        out = tmp_path / "pt"
        args = ["ptspec", "--dims", "8", "8", "--m", "1", "--states", "4", "--seed", "2", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "ptspec_summary.json")
        assert "ks_vs_pt_law" in summary
        assert (out / "ptspec_overlay.csv").exists()
        assert not (out / "ptspec_hist_scaled.csv").exists()

    def test_rectangular_dims_scale_by_the_smaller_one(self, tmp_path):
        # y = min(n_a, n_b) lambda has one law for 32 x 8 and 8 x 32, and the
        # elliptic law, the N x N case, is not overlaid on it
        variances = []
        for shape in (("32", "8"), ("8", "32")):
            out = tmp_path / "x".join(shape)
            args = ["ptspec", "--dims", *shape, "--m", "1", "--states", "100", "--workers", "1", "--out", out]
            assert run_cli(args) == 0
            summary = read_json(out / "ptspec_summary.json")
            assert "ks_vs_pt_law" not in summary
            assert not (out / "ptspec_overlay.csv").exists()
            variances.append(summary["variance"])
        assert variances[0] == pytest.approx(variances[1], rel=0.05)

    def test_mixture_outputs_scaled_histogram(self, tmp_path):
        out = tmp_path / "ptm"
        args = ["ptspec", "--dims", "8", "8", "--m", "16", "--states", "3", "--seed", "2", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "ptspec_summary.json")
        assert "ks_vs_pt_law" not in summary
        assert "kurtosis_ratio" in summary
        assert (out / "ptspec_hist_scaled.csv").exists()

    def test_zero_m_usage_error(self, tmp_path):
        assert run_cli(["ptspec", "--dims", "8", "8", "--m", "0", "--out", tmp_path / "x"]) != 0

    @pytest.mark.parametrize("exc", [ArithmeticError, KeyboardInterrupt, MemoryError])
    def test_failure_after_first_write_leaves_no_outputs(self, tmp_path, monkeypatch, exc):
        # ptspec writes its histogram and overlay before the KS distance
        def boom(d, xs):
            raise exc("quadrature did not converge")

        monkeypatch.setattr(cli.analytic, "cdf_on_sorted", boom)
        out = tmp_path / "fail"
        args = ["ptspec", "--dims", "8", "8", "--m", "1", "--states", "2", "--workers", "1", "--out", out]
        if exc is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run_cli(args)
        else:
            assert run_cli(args) == 1
        assert list(out.iterdir()) == []


class TestScans:
    def test_lmin_csv_and_m_star(self, tmp_path):
        out = tmp_path / "lm"
        args = ["lmin", "--dims-list", "4", "--m-list", "1,2", "--reps", "5", "--seed", "1", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        lines = (out / "lmin_scan.csv").read_text().splitlines()
        assert lines[0] == "N,m,mean_lambda_min,std_err"
        assert len(lines) == 3
        summary = read_json(out / "lmin_summary.json")
        assert "m_star" in summary

    def test_lmin_accepts_space_separated_lists(self, tmp_path):
        out = tmp_path / "lm2"
        args = ["lmin", "--dims-list", "4", "8", "--m-list", "1", "2", "--reps", "4", "--seed", "1", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        assert len((out / "lmin_scan.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize(
        "args, message",
        [
            (["lmin", "--dims-list", "4", "--m-list", "0,2"], "mixture size must be >= 1, got 0"),
            (["densecoding", "--dims", "4", "4", "--m-list", "0,2"], "mixture size must be >= 1, got 0"),
            (["lmin", "--dims-list", "4", "4", "--m-list", "2"], "dimension N 4 is repeated"),
            (["lmin", "--dims-list", "4", "--m-list", "2,2"], "mixture size m 2 is repeated"),
            (["densecoding", "--dims", "4", "4", "--m-list", "2,2"], "mixture size m 2 is repeated"),
            (["densecoding", "--dims", "4", "4", "--m-list", ","], "need at least one mixture size m"),
        ],
    )
    def test_bad_scan_grid_errors_and_leaves_no_outputs(self, tmp_path, capsys, args, message):
        out = tmp_path / "bad"
        assert run_cli(args + ["--reps", "3", "--workers", "1", "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_decay_outputs(self, tmp_path):
        out = tmp_path / "dc"
        args = ["decay", "--dims", "8", "8", "--m-max", "4", "--samples", "2000", "--seed", "5", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        lines = (out / "decay_scan.csv").read_text().splitlines()
        assert lines[0] == "N,m,detection_probability,std_err"
        assert len(lines) == 5
        summary = read_json(out / "decay_summary.json")
        assert summary["slope"] < 0
        assert len(summary["exact_gaussian_tail"]) == 4

    def test_decay_rankk_gaussian_matches_wdist_overlay(self, tmp_path):
        # a rank-k witness narrows w to variance 1 / (m k), as in wdist
        out = tmp_path / "dk"
        args = ["decay", "--dims", "8", "8", "--m-max", "2", "--samples", "500", "--witness", "rankk:4", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        tails = read_json(out / "decay_summary.json")["exact_gaussian_tail"]
        assert tails["1"] == analytic.detection_probability(analytic.gauss_width(4))
        assert tails["2"] == analytic.detection_probability(analytic.gauss_width(8))

    def test_decay_rank2_writes_no_gaussian_tail(self, tmp_path):
        # at lam = 1/2 and m = 2 the N -> infinity rank-2 law gives 1/16, the
        # Gaussian 0.0786: the Gaussian is not the law of rank-2 draws
        out = tmp_path / "d2"
        args = ["decay", "--dims", "8", "8", "--m-max", "2", "--samples", "500", "--witness", "rank2:0.5", "--workers", "1", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "decay_summary.json")
        assert "exact_gaussian_tail" not in summary
        assert summary["witness"] == "rank2:0.5"

    def test_densecoding_outputs(self, tmp_path):
        out = tmp_path / "den"
        args = ["densecoding", "--dims", "8", "8", "--m-list", "1,8,64", "--reps", "2", "--seed", "5", "--out", out]
        assert run_cli(args) == 0
        lines = (out / "densecoding_scan.csv").read_text().splitlines()
        assert lines[0] == "N,m,margin_bits,std_err"
        summary = read_json(out / "densecoding_summary.json")
        assert summary["usable"]["1"] is True
        assert summary["usable"]["64"] is False

    def test_densecoding_worker_count_does_not_change_outputs(self, tmp_path):
        base = ["densecoding", "--dims", "6", "6", "--m-list", "1,4,16,64", "--reps", "3", "--seed", "5"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli(base + ["--workers", "1", "--out", out1]) == 0
        assert run_cli(base + ["--workers", "2", "--out", out2]) == 0
        for name in ("densecoding_scan.csv", "densecoding_summary.json"):
            assert file_bytes(out1 / name) == file_bytes(out2 / name)


class TestOutputTracker:
    def test_interrupted_csv_leaves_no_file(self, tmp_path):
        out = cli.OutputTracker(tmp_path)

        def rows():
            for i in range(3):
                yield (float(i), i)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            out.csv("half.csv", ["x", "i"], rows())
        assert not (tmp_path / "half.csv").exists()
        out.cleanup()
        assert list(tmp_path.iterdir()) == []

    def test_finished_files_replace_their_temporaries(self, tmp_path):
        out = cli.OutputTracker(tmp_path)
        out.csv("a.csv", ["x"], [(1.5,)])
        out.json("b.json", {"k": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]
        assert out.paths == [tmp_path / "a.csv", tmp_path / "b.json"]
        assert (tmp_path / "a.csv").read_text() == "x\n1.5\n"


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "man"
        assert run_cli(SMALL_WDIST + ["--out", out]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 7
        assert manifest["version"]
        assert manifest["wall_time_s"] >= 0
        assert set(manifest["outputs"]) == {"wdist_hist.csv", "wdist_analytic.csv", "wdist_summary.json"}
        assert "wdist" in manifest["command"]
        assert manifest["workers"] == 1
        assert manifest["blas_threads_per_task"] == qstate.BLAS_THREADS_PER_TASK
        assert manifest["blas_threads_per_task"] in (1, None)
        assert manifest["blas_threads_at_start"] == qstate.BLAS_THREADS_AT_START
        assert manifest["witness_eigensolver"] == qstate.DENSE_EIGENSOLVER
        assert manifest["witness_eigensolver"] in ("zheevd_2stage", "eigvalsh")

    def test_manifest_records_resolved_workers(self, tmp_path):
        out = tmp_path / "default"
        args = ["wdist", "--dims", "8", "8", "--samples", "1500", "--seed", "7", "--out", out]
        assert run_cli(args) == 0
        manifest = read_json(out / "manifest.json")
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert manifest["workers"] == usable
        assert manifest["config"]["workers"] is None  # the flag as given

    def test_default_workers_are_the_cpus_the_process_may_use(self, monkeypatch):
        # a process pinned to one of the host's four CPUs forks no pool
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_workers(None) == 1
        assert cli._resolve_workers(3) == 3
        # where the platform has no affinity mask, the host's count, or 1 when unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._resolve_workers(None) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._resolve_workers(None) == 1

    def test_cli_run_records_one_blas_thread_at_start(self, tmp_path):
        # with no OPENBLAS_NUM_THREADS given, the command line sets it to 1
        # before numpy loads, so OpenBLAS starts on one thread
        out = tmp_path / "fresh"
        args = ["ptspec", "--dims", "4", "4", "--states", "2", "--workers", "1", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "witness_lab.cli", *args], env=_env_without_blas_threads(), check=True, timeout=120)
        expected = None if qstate.BLAS_THREADS_PER_TASK is None else 1
        assert read_json(out / "manifest.json")["blas_threads_at_start"] == expected

    def test_pyproject_version_is_the_package_version(self):
        text = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__


class TestCoreCountIndependence:
    """Every numeric step runs on one BLAS thread, so the BLAS thread count a
    process starts with does not reach the data files.  At 8 x 8 the solver
    stays single-threaded anyway; 16 x 16 mixtures and the dense spectrum of
    a 32 x 32 rank-k witness are where it would not.  The batched SVDs of
    32 x 32 pure states and the Schmidt-form spectra of the random and
    rank-2 witnesses cover the other paths, and the optimal witness the
    per-mixture dense solves of wdist."""

    WDIST_OUTPUTS = ("wdist_hist.csv", "wdist_analytic.csv", "wdist_summary.json")
    RUNS = {
        "lmin": (["lmin", "--dims-list", "16", "--m-list", "300,400", "--reps", "3"], ("lmin_scan.csv", "lmin_summary.json")),
        "ptspec": (["ptspec", "--dims", "16", "16", "--m", "300", "--states", "2"], ("ptspec_hist.csv", "ptspec_hist_scaled.csv", "ptspec_summary.json")),
        "densecoding": (["densecoding", "--dims", "16", "16", "--m-list", "64,300", "--reps", "3"], ("densecoding_scan.csv", "densecoding_summary.json")),
        "wdist-rankk": (["wdist", "--dims", "32", "32", "--samples", "4096", "--witness", "rankk:16", "--seed", "3"], WDIST_OUTPUTS),
        "decay-rankk": (["decay", "--dims", "32", "32", "--m-max", "3", "--samples", "1000", "--witness", "rankk:2", "--seed", "3"], ("decay_scan.csv", "decay_summary.json")),
        "ptspec-pure": (["ptspec", "--dims", "32", "32", "--states", "40"], ("ptspec_hist.csv", "ptspec_overlay.csv", "ptspec_summary.json")),
        "wdist-random": (["wdist", "--dims", "32", "32", "--samples", "4096", "--seed", "3"], WDIST_OUTPUTS),
        "wdist-rank2": (["wdist", "--dims", "32", "32", "--samples", "4096", "--witness", "rank2:0.3", "--seed", "3"], WDIST_OUTPUTS),
        # the optimal witness writes no wdist_analytic.csv
        "wdist-optimal": (["wdist", "--dims", "16", "16", "--m", "2", "--samples", "200", "--witness", "optimal", "--seed", "3"], ("wdist_hist.csv", "wdist_summary.json")),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, name):
        args, outputs = self.RUNS[name]
        src = Path(cli.__file__).resolve().parents[1]
        data = {}
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            cmd = [sys.executable, "-m", "witness_lab.cli", *args, "--workers", "1", "--out", str(out)]
            subprocess.run(cmd, env=env, check=True, timeout=300)
            data[threads] = [file_bytes(out / f) for f in outputs]
        assert data["1"] == data["2"]


def _env_without_blas_threads(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **extra)


class TestBlasPinAtStart:
    """The command line sets OPENBLAS_NUM_THREADS before numpy loads, so
    OpenBLAS starts no server thread; a user's value is kept, and the
    library import writes nothing to the environment."""

    PROBE = (
        "import json, os, witness_lab.cli; from witness_lab import qstate; "
        "tasks = '/proc/self/task'; "
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), qstate.BLAS_THREADS_AT_START, "
        "qstate._OPENBLAS_THREADS and qstate._OPENBLAS_THREADS[0](), "
        "len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))"
    )

    def probe(self, **extra):
        run = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=_env_without_blas_threads(**extra), capture_output=True, text=True, check=True, timeout=120
        )
        return json.loads(run.stdout)

    def test_cli_import_starts_openblas_on_one_thread(self):
        env_value, at_start, now, os_threads = self.probe()
        assert env_value == "1"
        if qstate.BLAS_THREADS_PER_TASK is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        assert (at_start, now) == (1, 1)
        if os_threads is None:
            pytest.skip("no /proc/self/task to count the process's threads")
        assert os_threads == 1

    def test_user_value_is_kept_and_pinned_to_one(self):
        env_value, _, now, _ = self.probe(OPENBLAS_NUM_THREADS="2")
        assert env_value == "2"
        if qstate.BLAS_THREADS_PER_TASK is not None:
            assert now == 1

    def test_library_import_leaves_environment_unchanged(self):
        code = (
            "import os, sys; before = dict(os.environ); "
            "import witness_lab.qstate, witness_lab.witness, witness_lab.ensemble, witness_lab.analytic; "
            "print(dict(os.environ) == before, 'witness_lab.cli' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], env=_env_without_blas_threads(), capture_output=True, text=True, check=True, timeout=120)
        assert run.stdout.split() == ["True", "False"]


def test_cli_import_loads_no_test_only_package():
    # the runtime needs only numpy and the standard library; scipy,
    # hypothesis and pytest serve the test suite's oracles, and mpmath none
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, witness_lab.cli; print([m for m in ('scipy', 'hypothesis', 'pytest', 'mpmath') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.strip() == "[]"


def test_package_import_loads_no_module():
    # the package root holds only the version; every name is imported from
    # the module that defines it
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, witness_lab; "
        "print(witness_lab.__version__, [m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('witness_lab.')])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert run.stdout.split() == [__version__, "[]"]
