import json
import os

import pytest

from witness_lab import cli


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

    def test_env_var_overrides_workers(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        assert run_cli(SMALL_WDIST + ["--out", out1]) == 0
        monkeypatch.delenv(cli.WORKERS_ENV)
        assert run_cli(SMALL_WDIST + ["--out", out2]) == 0
        assert file_bytes(out1 / "wdist_hist.csv") == file_bytes(out2 / "wdist_hist.csv")

    def test_rank2_witness_flag(self, tmp_path):
        out = tmp_path / "r2"
        args = ["wdist", "--dims", "8", "8", "--samples", "2000", "--witness", "rank2:0.5", "--seed", "3", "--out", out]
        assert run_cli(args) == 0
        summary = read_json(out / "wdist_summary.json")
        assert summary["analytic_kind"] == "rank2"
        assert summary["analytic_neg_tail"] == pytest.approx(0.125, abs=1e-12)

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

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_zero_workers_rejected(self, tmp_path, capsys, monkeypatch, how):
        out = tmp_path / "w0"
        args = ["wdist", "--dims", "8", "8", "--samples", "100", "--out", out]
        if how == "flag":
            args += ["--workers", "0"]
        else:
            monkeypatch.setenv(cli.WORKERS_ENV, "0")
        assert run_cli(args) == 1
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("exc", [ArithmeticError, KeyboardInterrupt])
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
