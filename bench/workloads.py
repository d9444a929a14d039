"""The benchmark's workloads: one witness-lab subcommand each, and the
checks its outputs must pass.

Every check compares against ``oracles`` (computed apart from the program)
or against a property the method must have.  None compares against stored
output.  A check returns a list of failure messages; empty means passed.
Statistical checks allow ``oracles.Z`` standard errors, and the
distribution-function checks a false-alarm probability of
``oracles.KS_FALSE_ALARM``, so that they pass on any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from oracles import Z

ROUND_OFF = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]  # the subcommand and its options, without --seed/--out
    outputs: tuple[str, ...]  # data files, loaded by ``load`` under these keys

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", str(out)]

    def params(self) -> dict:
        """The options as a dict, e.g. {"dims": ["32", "32"], "samples": ["8192"]}."""
        out: dict[str, list[str]] = {}
        key = None
        for tok in self.args[1:]:
            if tok.startswith("--"):
                key = tok[2:].replace("-", "_")
                out[key] = []
            else:
                out[key].append(tok)
        return out

    def check(self, out_dir: Path) -> list[str]:
        try:
            return CHECKS[self.args[0]](load(out_dir, self.outputs), self.params())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"outputs unreadable or incomplete: {exc!r}"]


def load(out_dir: Path, names) -> dict:
    data = {}
    for name in names:
        path = out_dir / name
        key = name.split(".")[0].split("_", 1)[1]
        if name.endswith(".json"):
            data[key] = json.loads(path.read_text())
        else:
            data[key] = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data


def _close(a: float, b: float, rel: float = ROUND_OFF) -> bool:
    return a is not None and abs(a - b) <= rel * max(abs(b), 1e-300)


def _hist_checks(hist: np.ndarray, edges: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Bin edges as the program's documented grid, unit integral; returns
    the histogram's distribution function at the edges."""
    errs = []
    if hist.shape != (len(edges) - 1, 3):
        return [f"histogram has shape {hist.shape}, expected {(len(edges) - 1, 3)}"], np.zeros(len(edges))
    if np.abs(hist[:, 0] - edges[:-1]).max() > 1e-12 or np.abs(hist[:, 1] - edges[1:]).max() > 1e-12:
        errs.append("histogram bin edges differ from the documented grid")
    mass = hist[:, 2] * (hist[:, 1] - hist[:, 0])
    if abs(mass.sum() - 1.0) > 1e-9:
        errs.append(f"histogram integrates to {mass.sum():.12g}, not 1")
    if np.any(hist[:, 2] < 0):
        errs.append("negative histogram density")
    return errs, np.concatenate([[0.0], np.cumsum(mass)])


def check_wdist(data: dict, p: dict) -> list[str]:
    n_side = int(p["dims"][0])
    k = int(p["witness"][0].split(":")[1])
    samples = int(p["samples"][0])
    s = data["summary"]
    errs: list[str] = []

    if s["sample_count"] != samples:
        errs.append(f"sample_count {s['sample_count']} != {samples} requested")
    var = oracles.w_variance(n_side, k)
    se_mean = math.sqrt(var / samples)
    if abs(s["mean"] - 1.0) > Z * se_mean:
        errs.append(f"mean {s['mean']:.6f} is {(s['mean'] - 1) / se_mean:+.1f} standard errors from 1")
    se_var = var * math.sqrt(2.0 / (samples - 1))
    if abs(s["variance"] - var) > Z * se_var:
        errs.append(
            f"variance {s['variance']:.6f} is {(s['variance'] - var) / se_var:+.1f} "
            f"standard errors from the exact {var:.6f}"
        )
    tail = oracles.gauss_neg_tail(k)
    if not _close(s.get("analytic_neg_tail"), tail):
        errs.append(f"analytic_neg_tail {s.get('analytic_neg_tail')!r} != erfc value {tail!r}")

    overlay = data["analytic"]
    xs = oracles.centers(oracles.W_EDGES)
    if overlay.shape != (len(xs), 2) or np.abs(overlay[:, 0] - xs).max() > 1e-12:
        errs.append("overlay abscissae differ from the histogram bin centres")
    else:
        want = np.array([oracles.gauss_pdf(x, 1.0 / k) for x in xs])
        bad = np.abs(overlay[:, 1] - want) > ROUND_OFF * np.maximum(want, 1e-300)
        if bad.any():
            i = int(np.argmax(bad))
            errs.append(f"overlay density at x={xs[i]:g} is {overlay[i, 1]:.17g}, Gaussian gives {want[i]:.17g}")

    hist_errs, f_hist = _hist_checks(data["hist"], oracles.W_EDGES)
    errs += hist_errs
    if not hist_errs:
        # the finite-N law has the exact variance; the Gaussian with it differs
        # from the sampled law only by cumulants of order 3 and up, far below
        # the sampling bound
        f_law = np.array([oracles.gauss_cdf(e, var) for e in oracles.W_EDGES])
        dist = float(np.abs(f_hist - f_law).max())
        bound = oracles.dkw_bound(samples)
        if dist > bound:
            errs.append(f"histogram is {dist:.4f} from the Gaussian law in distribution, bound {bound:.4f}")
    return errs


def check_decay(data: dict, p: dict) -> list[str]:
    n_side = int(p["dims"][0])
    m_max = int(p["m_max"][0])
    base = int(p["samples"][0])
    rows = data["scan"]
    s = data["summary"]
    errs: list[str] = []
    ms = np.arange(1, m_max + 1)
    if rows.shape != (m_max, 4) or list(rows[:, 1]) != list(ms) or np.any(rows[:, 0] != n_side):
        return [f"decay rows are not N={n_side}, m=1..{m_max}"]
    ns = base * np.minimum(ms, 8)
    exact = np.array([oracles.gauss_neg_tail(m) for m in ms])
    for m, n, pr, se, ex in zip(ms, ns, rows[:, 2], rows[:, 3], exact):
        se_ex = math.sqrt(ex * (1.0 - ex) / n)
        if abs(pr - ex) > Z * se_ex:
            errs.append(f"m={m}: P(w<0) = {pr:.5f} is {(pr - ex) / se_ex:+.1f} binomial errors from {ex:.5f}")
        if not _close(se, math.sqrt(pr * (1.0 - pr) / n)):
            errs.append(f"m={m}: std_err {se:.17g} is not the binomial error of {pr:.17g} over {n} samples")
    for m, ex in zip(ms, exact):
        got = s["exact_gaussian_tail"].get(str(m))
        if not _close(got, ex):
            errs.append(f"exact_gaussian_tail[{m}] = {got!r}, erfc gives {ex:.17g}")

    fit = ms >= s["slope_fit_min_m"]
    if s["slope_fit_min_m"] != 3:
        errs.append(f"slope_fit_min_m is {s['slope_fit_min_m']}, documented as 3")
    if np.all(rows[fit, 2] > 0) and fit.sum() >= 2:
        slope = s["slope"]
        if slope is None or abs(slope - oracles.log_slope(ms[fit], rows[fit, 2])) > 1e-9:
            errs.append(f"slope {slope!r} is not the log-linear fit of the reported points")
        want = oracles.log_slope(ms[fit], exact[fit])
        se = oracles.log_slope_std_err(ms[fit], exact[fit], ns[fit])
        if slope is not None and abs(slope - want) > Z * se:
            errs.append(f"slope {slope:.4f} is {(slope - want) / se:+.1f} standard errors from {want:.4f}")
    else:
        errs.append("no detections at some fitted m; the slope cannot be checked")
    return errs


def check_ptspec(data: dict, p: dict) -> list[str]:
    n_side = int(p["dims"][0])
    states = int(p["states"][0])
    s = data["summary"]
    errs: list[str] = []
    want_n = states * n_side * (n_side - 1)
    if s["sample_count"] != want_n:
        errs.append(f"sample_count {s['sample_count']} != states x N(N-1) = {want_n}")
    if abs(s["mean"]) > 1e-12:
        errs.append(f"mean {s['mean']!r} of +-paired eigenvalues is not 0")

    overlay = data["overlay"]
    ys = oracles.centers(oracles.Y_EDGES)
    if overlay.shape != (len(ys), 2) or np.abs(overlay[:, 0] - ys).max() > 1e-12:
        errs.append("overlay abscissae differ from the histogram bin centres")
    else:
        want = np.array([oracles.pt_law_pdf(y) for y in ys])
        bad = np.abs(overlay[:, 1] - want) > 1e-9 * np.maximum(want, 1e-3)
        if bad.any():
            i = int(np.argmax(bad))
            errs.append(f"overlay density at y={ys[i]:g} is {overlay[i, 1]:.17g}, elliptic law gives {want[i]:.17g}")

    hist_errs, f_hist = _hist_checks(data["hist"], oracles.Y_EDGES)
    errs += hist_errs
    if not hist_errs:
        dens = data["hist"][:, 2]
        if np.abs(dens - dens[::-1]).max() > 1e-9 * dens.max():
            errs.append("histogram of +-paired eigenvalues is not symmetric about 0")
        f_law = np.array([oracles.pt_law_cdf(e) for e in oracles.Y_EDGES])
        edge_ks = float(np.abs(f_hist - f_law).max())
        ks = s.get("ks_vs_pt_law")
        if ks is None or not ks < 0.02:
            errs.append(f"ks_vs_pt_law {ks!r} is not below 0.02")
        elif ks < edge_ks - 1e-6:
            errs.append(f"ks_vs_pt_law {ks:.5f} is below the KS distance {edge_ks:.5f} at the bin edges")
    return errs


def check_lmin(data: dict, p: dict) -> list[str]:
    n_side = int(p["dims_list"][0])
    m_list = sorted(int(m) for m in p["m_list"][0].split(","))
    rows = data["scan"]
    s = data["summary"]
    errs: list[str] = []
    if rows.shape != (len(m_list), 4) or list(rows[:, 1]) != m_list or np.any(rows[:, 0] != n_side):
        return [f"lmin rows are not N={n_side}, m={m_list}"]
    vals, ses = rows[:, 2], rows[:, 3]
    if not np.all(ses > 0):
        errs.append("a standard error is not positive")
    # lambda_min lies below the mean eigenvalue tr(rho^T_B)/N^2 = 1/N^2
    if not np.all(vals < 1.0 / n_side**2):
        errs.append("a mean lambda_min is not below 1/N^2")
    m_star = s["m_star"].get(str(n_side))
    if m_star is None or not 3 * n_side**2 <= m_star <= 5 * n_side**2:
        errs.append(f"m* = {m_star!r} is outside [3N^2, 5N^2] = [{3 * n_side**2}, {5 * n_side**2}]")
    else:
        i = int(np.argmax(vals >= 0))
        if i == 0 or not vals[i - 1] < 0 <= vals[i]:
            errs.append("m* is reported but the rows do not change sign")
        else:
            cross = m_list[i - 1] + (0 - vals[i - 1]) / (vals[i] - vals[i - 1]) * (m_list[i] - m_list[i - 1])
            if not _close(m_star, cross, 1e-9):
                errs.append(f"m* = {m_star!r} is not the interpolated sign change {cross:.17g} of the rows")
    if s["monotone_in_m"].get(str(n_side)) is not True:
        errs.append("monotone_in_m does not hold")
    return errs


CHECKS = {"wdist": check_wdist, "decay": check_decay, "ptspec": check_ptspec, "lmin": check_lmin}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wdist-rankk",
            "w kernel at its heaviest (16 contractions per state) in the process pool, "
            "plus witness build, reductions and the Gaussian KS",
            ("wdist", "--dims", "32", "32", "--samples", "8192", "--m", "1", "--witness", "rankk:16"),
            ("wdist_hist.csv", "wdist_analytic.csv", "wdist_summary.json"),
        ),
        Workload(
            "decay",
            "the headline experiment: the w kernel on pure states and mixtures, "
            "one scan point per mixture size m = 1..6",
            ("decay", "--dims", "32", "32", "--m-max", "6", "--samples", "1000", "--witness", "random"),
            ("decay_scan.csv", "decay_summary.json"),
        ),
        Workload(
            "ptspec-pure",
            "pure-state PT spectra: a few SVDs, then the elliptic-law CDF by "
            "quadrature at every eigenvalue; no w kernel",
            ("ptspec", "--dims", "32", "32", "--m", "1", "--states", "20"),
            ("ptspec_hist.csv", "ptspec_overlay.csv", "ptspec_summary.json"),
        ),
        Workload(
            "lmin-mixed",
            "dense partial transposes and eigensolves of mixed states in one "
            "process; the single-worker baseline",
            ("lmin", "--dims-list", "16", "--m-list", "768,896,1024,1152,1280", "--reps", "20", "--workers", "1"),
            ("lmin_scan.csv", "lmin_summary.json"),
        ),
    )
}
