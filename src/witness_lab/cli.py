"""Command-line front end: each subcommand runs one ensemble experiment and
writes machine-readable CSV/JSON outputs plus a run manifest.

All randomness is controlled by --seed and results are worker-count
invariant, so re-running the command recorded in a manifest reproduces the
output files byte for byte.  Histograms go to CSV (bin_left, bin_right,
density), scalar summaries to JSON; nothing is plotted here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

# One BLAS thread (qstate's "BLAS threads"): set before numpy loads, so that
# OpenBLAS starts no server thread, here or in a pool worker under any start
# method; a value the user set is kept, and qstate still pins one after it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, analytic  # noqa: E402
from .ensemble import (  # noqa: E402
    WitnessSpec,
    dense_coding_scan,
    ks_statistic,
    kurtosis_ratio,
    run_lambda_min_scan,
    run_mixture_decay,
    run_pt_spectrum,
    run_w_ensemble,
)
from .qstate import BLAS_THREADS_AT_START, BLAS_THREADS_PER_TASK, DENSE_EIGENSOLVER, BipartiteDims  # noqa: E402


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class OutputTracker:
    """Collects written files so a failed run can clean up after itself.

    Each file is written under a temporary name in ``out_dir`` and renamed
    into place when complete, so no output is ever seen half-written; the
    temporary name is tracked from before the first byte, so ``cleanup``
    also removes an interrupted write."""

    def __init__(self, out_dir: Path, command: list[str] | None = None):
        self.out_dir = out_dir
        self.command = command or []
        self.paths: list[Path] = []

    @contextmanager
    def atomic_open(self, name: str, newline: str | None = None):
        path = self.out_dir / name
        tmp = self.out_dir / f".{name}.tmp"
        self.paths.append(tmp)
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
        self.paths[self.paths.index(tmp)] = path

    def csv(self, name: str, header: list[str], rows) -> None:
        with self.atomic_open(name, newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")

    def json(self, name: str, payload: dict) -> None:
        with self.atomic_open(name) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def cleanup(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _resolve_workers(workers: int | None) -> int:
    """``workers``, or by default the CPUs this process may run on: its
    affinity mask where the platform has one, else the host's CPU count."""
    if workers is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _int_list(values: list[str]) -> list[int]:
    out: list[int] = []
    for chunk in values:
        out.extend(int(v) for v in chunk.split(",") if v)
    return out


def _write_hist(out: OutputTracker, name: str, edges: np.ndarray, densities: np.ndarray) -> None:
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), densities.tolist())
    out.csv(name, ["bin_left", "bin_right", "density"], rows)


def _write_scan(out: OutputTracker, name: str, column: str, scan) -> None:
    out.csv(name, ["N", "m", column, "std_err"], [(r.n, r.m, r.value, r.std_err) for r in scan.rows])


def _summary_stats(dist) -> dict:
    """The scalar fields of an EmpiricalDistribution."""
    arrays = ("bin_edges", "densities", "samples")
    return {f.name: getattr(dist, f.name) for f in fields(dist) if f.name not in arrays}


def _write_manifest(out: OutputTracker, args: argparse.Namespace, workers: int, t0: float) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    payload = {
        "command": out.command,
        "config": config,
        "seed": args.seed,
        "version": __version__,
        "workers": workers,
        "blas_threads_at_start": BLAS_THREADS_AT_START,
        "blas_threads_per_task": BLAS_THREADS_PER_TASK,
        "witness_eigensolver": DENSE_EIGENSOLVER,
        "wall_time_s": time.time() - t0,
        "outputs": [p.name for p in out.paths],
    }
    out.json("manifest.json", payload)


def _gauss_law(spec: WitnessSpec, m: int):
    """The N -> infinity Gaussian of w for m-fold mixtures: variance 1/(m k)
    for a witness on k orthonormal vectors (k = 1 but for rankk)."""
    return analytic.gauss_width(m * (spec.k or 1))


def _overlay_density(spec: WitnessSpec, m: int):
    """Closed-form curve matching a w ensemble: the rank-2 law for a rank-2
    witness on pure states, otherwise ``_gauss_law``.  None for the
    per-state optimal witness, and for a rank-2 witness on mixtures, whose
    law (the mean of m rank-2 draws) is not built and far from Gaussian."""
    if spec.kind == "optimal" or (spec.kind == "rank2" and m > 1):
        return None
    return analytic.rank2(spec.lam) if spec.kind == "rank2" else _gauss_law(spec, m)


def _write_overlay(out: OutputTracker, name: str, column: str, law, dist) -> float:
    """Write ``law``'s density at the histogram's bin centres to ``name`` and
    return the KS distance of the samples from ``law``."""
    centers = (dist.bin_edges[:-1] + dist.bin_edges[1:]) / 2
    rows = [(float(x), float(p)) for x, p in zip(centers, analytic.density_on_array(law, centers))]
    out.csv(name, [column, "density"], rows)
    return ks_statistic(dist.samples, lambda xs: analytic.cdf_on_sorted(law, xs))


def cmd_wdist(args: argparse.Namespace, workers: int, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    spec = WitnessSpec.parse(args.witness)
    dist = run_w_ensemble(dims, args.samples, args.m, args.seed, workers, spec)

    _write_hist(out, "wdist_hist.csv", dist.bin_edges, dist.densities)

    summary = _summary_stats(dist)
    summary["witness"] = str(spec)
    summary["dims"] = [dims.n_a, dims.n_b]
    summary["m"] = args.m
    overlay = _overlay_density(spec, args.m)
    if overlay is not None:
        ks = _write_overlay(out, "wdist_analytic.csv", "x", overlay, dist)
        summary["analytic_kind"] = overlay.kind
        summary["analytic_params"] = {"lam": overlay.lam, "k": overlay.k}
        summary["analytic_neg_tail"] = analytic.detection_probability(overlay)
        summary["ks_vs_analytic"] = ks
    out.json("wdist_summary.json", summary)


def cmd_ptspec(args: argparse.Namespace, workers: int, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    dist = run_pt_spectrum(dims, args.m, args.states, seed=args.seed, workers=workers)

    _write_hist(out, "ptspec_hist.csv", dist.bin_edges, dist.densities)

    summary = _summary_stats(dist)
    summary["dims"] = [dims.n_a, dims.n_b]
    summary["m"] = args.m
    summary["states"] = args.states
    summary["kurtosis_ratio"] = kurtosis_ratio(dist.samples)
    if args.m == 1 and dims.n_a == dims.n_b:
        # the elliptic law is the N x N case of a law that depends on n_a / n_b
        summary["ks_vs_pt_law"] = _write_overlay(out, "ptspec_overlay.csv", "y", analytic.pt_eigs(), dist)
    if args.m >= dims.n_a:
        # near the maximally mixed regime the natural variable is n_a n_b lambda
        scaled = max(dims.n_a, dims.n_b) * dist.samples
        edges = np.linspace(scaled.min(), scaled.max(), 81)
        counts, _ = np.histogram(scaled, bins=edges)
        _write_hist(out, "ptspec_hist_scaled.csv", edges, counts / counts.sum() / np.diff(edges))
    out.json("ptspec_summary.json", summary)


def cmd_lmin(args: argparse.Namespace, workers: int, out: OutputTracker) -> None:
    n_list = _int_list(args.dims_list)
    m_list = _int_list(args.m_list)
    scan = run_lambda_min_scan(n_list, m_list, args.reps, seed=args.seed, workers=workers)

    _write_scan(out, "lmin_scan.csv", "mean_lambda_min", scan)
    out.json(
        "lmin_summary.json",
        {
            "m_star": {str(n): scan.metadata["m_star"][n] for n in scan.n_values},
            "monotone_in_m": {str(n): scan.metadata["monotone_in_m"][n] for n in scan.n_values},
            "repetitions": args.reps,
        },
    )


def cmd_decay(args: argparse.Namespace, workers: int, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    spec = WitnessSpec.parse(args.witness)
    scan = run_mixture_decay(
        dims,
        m_max=args.m_max,
        samples_base=args.samples,
        seed=args.seed,
        workers=workers,
        witness_spec=spec,
    )
    _write_scan(out, "decay_scan.csv", "detection_probability", scan)
    summary = {
        "slope": scan.metadata.get("slope"),
        "slope_std_err": scan.metadata.get("slope_std_err"),
        "slope_fit_min_m": scan.metadata["slope_fit_min_m"],
        "slope_fit_m": scan.metadata["slope_fit_m"],
        "witness": scan.metadata["witness_spec"],
    }
    if spec.kind != "rank2":  # the Gaussian is not the law of rank-2 draws
        summary["exact_gaussian_tail"] = {str(r.m): analytic.detection_probability(_gauss_law(spec, r.m)) for r in scan.rows}
    out.json("decay_summary.json", summary)


def cmd_densecoding(args: argparse.Namespace, workers: int, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    m_list = _int_list(args.m_list)
    scan = dense_coding_scan(dims, m_list, repetitions=args.reps, seed=args.seed, workers=workers)
    _write_scan(out, "densecoding_scan.csv", "margin_bits", scan)
    out.json(
        "densecoding_summary.json",
        {
            "margin_sign_change_m": scan.metadata["margin_sign_change_m"],
            "usable": {str(r.m): r.value > 0 for r in scan.rows},
            "repetitions": args.reps,
        },
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base seed for all random streams (default 0)")
    p.add_argument("--out", type=Path, required=True, help="output directory (created if missing)")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the CPUs this process may use). Results do not depend on this value.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witness-lab",
        description="Entanglement detection statistics of random bipartite states "
        "measured with decomposable witnesses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "wdist",
        help="distribution of the rescaled witness expectation w",
        description="Histogram of w = N*N' tr(W rho) over random states (mixtures of m "
        "Haar vectors), with the matching closed-form overlay and its KS distance; "
        "none for the optimal witness, nor for rank2 at m >= 2, whose law is not built. "
        "CSV columns: bin_left, bin_right, density.",
    )
    p.add_argument("--dims", type=int, nargs=2, default=[32, 32], metavar=("N_A", "N_B"))
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--m", type=int, default=1, help="number of Haar pure states per mixture")
    p.add_argument(
        "--witness",
        default="random",
        help="witness spec: random | rank2:LAMBDA | rankk:K | optimal (default random)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_wdist)

    p = sub.add_parser(
        "ptspec",
        help="eigenvalue density of the partial transpose",
        description="Pooled eigenvalues of rho^T_B over an ensemble, scaled as "
        "y = min(N_A, N_B)*lambda; for m=1 and N_A = N_B the elliptic-integral law is "
        "overlaid and a KS distance reported; for m >= N_A a histogram of N_A*N_B*lambda "
        "and the semicircle kurtosis ratio.",
    )
    p.add_argument("--dims", type=int, nargs=2, default=[32, 32], metavar=("N_A", "N_B"))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--states", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_ptspec)

    p = sub.add_parser(
        "lmin",
        help="mean minimal PT eigenvalue vs mixture size",
        description="Scan of the mean minimal eigenvalue of rho^T_B over dimensions N and "
        "mixture sizes m; locates the sign change m* per N. Each repetition draws "
        "max(m) states once, and its mixtures of every m are the first m of them. "
        "CSV columns: N, m, mean_lambda_min, std_err.",
    )
    p.add_argument("--dims-list", nargs="+", required=True, help="subsystem dimensions N (space or comma separated)")
    p.add_argument("--m-list", nargs="+", required=True, help="mixture sizes m (space or comma separated)")
    p.add_argument("--reps", type=int, default=10, help="repetitions per N, each one mixture of every m")
    _add_common(p)
    p.set_defaults(func=cmd_lmin)

    p = sub.add_parser(
        "decay",
        help="detection probability decay with mixture size",
        description="P(w<0) for m = 1..m_max with one fixed witness, plus the fitted "
        "log-slope over the asymptotic points with a hit (slope_fit_m). CSV columns: N, m, "
        "detection_probability, std_err.",
    )
    p.add_argument("--dims", type=int, nargs=2, default=[32, 32], metavar=("N_A", "N_B"))
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--samples", type=int, default=100_000, help="base sample count (scaled up per point)")
    p.add_argument("--witness", default="random")
    _add_common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser(
        "densecoding",
        help="dense-coding margin vs mixture size",
        description="Mean margin S(rho_A) - S(rho) in bits over mixtures of m random "
        "states. CSV columns: N, m, margin_bits, std_err.",
    )
    p.add_argument("--dims", type=int, nargs=2, default=[16, 16], metavar=("N_A", "N_B"))
    p.add_argument("--m-list", nargs="+", required=True)
    p.add_argument("--reps", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_densecoding)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    tracker = OutputTracker(args.out, command=["witness-lab", *argv])
    t0 = time.time()
    # remove anything half-written so a failed or interrupted run leaves no
    # outputs; the manifest is written last, so it only marks a complete run
    try:
        workers = _resolve_workers(args.workers)
        args.func(args, workers, tracker)
        _write_manifest(tracker, args, workers, t0)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        tracker.cleanup()
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
