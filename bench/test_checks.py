"""Tests of the benchmark itself: the oracles against independent
computations, every workload check against a deliberately wrong output, and
the tracer's worker merge.

    python3 -m pytest bench

The program runs at reduced sizes here (16 x 16, one worker) so that the
whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import CHECKS, WORKLOADS, Workload, load  # noqa: E402

SMALL = {
    "wdist": Workload(
        "wdist-small", "", ("wdist", "--dims", "16", "16", "--samples", "8192", "--witness", "rankk:4", "--workers", "1"),
        WORKLOADS["wdist-rankk"].outputs,
    ),
    "decay": Workload(
        "decay-small", "", ("decay", "--dims", "16", "16", "--m-max", "6", "--samples", "1000", "--workers", "1"),
        WORKLOADS["decay"].outputs,
    ),
    "ptspec": Workload(
        "ptspec-small", "", ("ptspec", "--dims", "16", "16", "--m", "1", "--states", "20", "--workers", "1"),
        WORKLOADS["ptspec-pure"].outputs,
    ),
    "lmin": Workload(
        "lmin-small", "",
        ("lmin", "--dims-list", "8", "--m-list", "160,192,224,256,288,320", "--reps", "40", "--workers", "1"),
        WORKLOADS["lmin-mixed"].outputs,
    ),
}


@pytest.fixture(scope="module", params=[0, 7])
def outputs(request, tmp_path_factory):
    """Each small workload run once per seed by the program itself."""
    from witness_lab import cli

    data = {}
    for kind, wl in SMALL.items():
        out = tmp_path_factory.mktemp(f"{kind}-{request.param}")
        assert cli.main(wl.argv(request.param, out)) == 0
        data[kind] = load(out, wl.outputs)
    return data


def _run_check(kind, data):
    return CHECKS[kind](data, SMALL[kind].params())


# -- oracles ------------------------------------------------------------------


def test_pt_law_is_a_unit_variance_density():
    mass, _ = integrate.quad(oracles.pt_law_pdf, 0.0, 4.0, limit=200)
    second, _ = integrate.quad(lambda y: y * y * oracles.pt_law_pdf(y), 0.0, 4.0, limit=200)
    assert 2 * mass == pytest.approx(1.0, abs=1e-10)
    # sum_{i != j} mu_i^2 mu_j^2 -> 1 over N(N-1) values of y = N mu_i mu_j
    assert 2 * second == pytest.approx(1.0, abs=1e-10)


def test_pt_law_cdf_is_even_about_one_half():
    assert oracles.pt_law_cdf(0.0) == 0.5
    assert oracles.pt_law_cdf(4.0) == pytest.approx(1.0, abs=1e-12)
    for y in (0.01, 0.7, 2.5, 3.99):
        assert oracles.pt_law_cdf(-y) == pytest.approx(1.0 - oracles.pt_law_cdf(y), abs=1e-13)


def test_gaussian_tail_matches_the_normal_distribution_function():
    for k in (1, 2, 6, 16):
        assert oracles.gauss_neg_tail(k) == pytest.approx(special.ndtr(-math.sqrt(k)), rel=1e-12)
    assert oracles.gauss_cdf(1.0, 0.3) == 0.5


def test_exact_decay_slope_over_m_3_to_6():
    ms = np.arange(3, 7)
    slope = oracles.log_slope(ms, [oracles.gauss_neg_tail(m) for m in ms])
    assert slope == pytest.approx(-0.587, abs=5e-4)


def test_w_variance_against_direct_sampling():
    """Haar states on 4 x 4 against a rank-2 witness, sampled with plain
    numpy: the exact finite-N variance (N^2/k - 1)/(N^2 + 1)."""
    rng = np.random.default_rng(5)
    n, k, samples = 4, 2, 200_000
    d = n * n
    q, _ = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
    proj = q @ q.conj().T / k
    w_op = proj.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(d, d)  # partial transpose on B
    psi = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    w = d * np.einsum("si,ij,sj->s", psi.conj(), w_op, psi).real
    exact = oracles.w_variance(n, k)
    assert w.mean() == pytest.approx(1.0, abs=5 * math.sqrt(exact / samples))
    assert w.var() == pytest.approx(exact, rel=0.02)
    assert oracles.w_variance(32, 1) == pytest.approx(0.99805, abs=1e-5)


# -- every check passes on the program's output ... -----------------------------


@pytest.mark.parametrize("kind", list(SMALL))
def test_checks_pass_on_program_output(outputs, kind):
    assert _run_check(kind, outputs[kind]) == []


# -- ... and rejects a deliberately wrong one ----------------------------------


def _mutated(outputs, kind, mutate):
    data = copy.deepcopy(outputs[kind])
    mutate(data)
    return _run_check(kind, data)


def _edit(key, idx, fn):
    def mutate(data):
        data[key][idx] = fn(data[key][idx])

    return mutate


def _shift_hist(data):
    data["hist"][:, 2] = np.roll(data["hist"][:, 2], 1)


def _wdist_se(data):
    return math.sqrt(oracles.w_variance(16, 4) / data["summary"]["sample_count"])


WRONG = {
    "wdist": {
        "histogram shifted by one bin": _shift_hist,
        "histogram not normalised": _edit("hist", (slice(None), 2), lambda v: v * 1.01),
        "mean moved by 10 standard errors": lambda d: d["summary"].update(mean=1 + 10 * _wdist_se(d)),
        "variance off by 10 standard errors": lambda d: d["summary"].update(
            variance=oracles.w_variance(16, 4) * (1 + 10 * math.sqrt(2 / 8191))
        ),
        "analytic tail off in the 6th digit": lambda d: d["summary"].update(
            analytic_neg_tail=d["summary"]["analytic_neg_tail"] * (1 + 1e-6)
        ),
        "overlay point off in the 6th digit": _edit("analytic", (40, 1), lambda v: v * (1 + 1e-6)),
        "one sample missing": lambda d: d["summary"].update(sample_count=8191),
    },
    "decay": {
        "row m=3 moved by 10 sigma": _edit(
            "scan", (2, 2), lambda v: v + 10 * math.sqrt(oracles.gauss_neg_tail(3) * (1 - oracles.gauss_neg_tail(3)) / 3000)
        ),
        "slope not the fit of the rows": lambda d: d["summary"].update(slope=d["summary"]["slope"] + 0.01),
        "exact tail off in the 6th digit": lambda d: d["summary"]["exact_gaussian_tail"].update(
            {"4": oracles.gauss_neg_tail(4) * (1 + 1e-6)}
        ),
        "std_err not binomial": _edit("scan", (0, 3), lambda v: v * 1.1),
    },
    "ptspec": {
        "histogram shifted by one bin": _shift_hist,
        "mean not zero": lambda d: d["summary"].update(mean=1e-6),
        "KS below the bin-edge distance": lambda d: d["summary"].update(ks_vs_pt_law=1e-4),
        "KS above 0.02": lambda d: d["summary"].update(ks_vs_pt_law=0.025),
        "overlay point off in the 6th digit": _edit("overlay", (50, 1), lambda v: v * (1 + 1e-6)),
        "one eigenvalue too many": lambda d: d["summary"].update(sample_count=d["summary"]["sample_count"] + 1),
    },
    "lmin": {
        "m* above 5 N^2": lambda d: d["summary"]["m_star"].update({"8": 321.0}),
        "m* missing": lambda d: d["summary"]["m_star"].update({"8": None}),
        "m* not the interpolated crossing": lambda d: d["summary"]["m_star"].update(
            {"8": d["summary"]["m_star"]["8"] + 1.0}
        ),
        "not monotone": lambda d: d["summary"]["monotone_in_m"].update({"8": False}),
        "zero standard error": _edit("scan", (1, 3), lambda v: 0.0),
    },
}


@pytest.mark.parametrize(
    "kind,label", [(kind, label) for kind, cases in WRONG.items() for label in cases]
)
def test_checks_reject_wrong_output(outputs, kind, label):
    assert _mutated(outputs, kind, WRONG[kind][label]) != []


# -- benchmark definition and tracer -------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "decay", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_counts_include_workers_and_repeat(tmp_path):
    """Two chunks on two workers: both report, and the counts of two runs
    are identical."""
    wl = Workload("t", "", ("wdist", "--dims", "8", "8", "--samples", "8192", "--witness", "rankk:2", "--workers", "2"), ())
    traces = []
    for i in range(2):
        op = tmp_path / f"op{i}"
        trace_dir = op / "trace"
        trace_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(op / "r.json"), "--trace", str(trace_dir)]
        subprocess.run([*cmd, "--", *wl.argv(3, op / "out")], check=True, timeout=120, env=run._child_env())
        traces.append(json.loads((op / "r.json").read_text())["trace"])
    for tr in traces:
        assert tr["worker_reports"] == 2
        assert tr["calls"]["ensemble.task"] == tr["items"]["ensemble.map"] == 2
        assert tr["calls"]["witness.kernel"] == 2 * 2  # two vectors per chunk
    first, second = (run.layer_metrics(tr, 0.0, 0) for tr in traces)
    for name in run.COUNTS:
        assert first[name] == second[name], name
    # 8192 states and, in each of the two witness builds, 2 vectors of 64 complex amplitudes
    assert first["qstate.variates"] == 2 * 64 * (8192 + 2 * 2)
