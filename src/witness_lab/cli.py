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
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, analytic
from .ensemble import (
    DEFAULT_W_BINS,
    EnsembleConfig,
    WitnessSpec,
    dense_coding_scan,
    derive_witness,
    ks_statistic,
    kurtosis_ratio,
    run_lambda_min_scan,
    run_mixture_decay,
    run_pt_spectrum,
    run_w_ensemble,
)
from .qstate import BipartiteDims

WORKERS_ENV = "WITNESS_LAB_WORKERS"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class OutputTracker:
    """Collects written files so a failed run can clean up after itself."""

    def __init__(self, out_dir: Path, command: list[str] | None = None):
        self.out_dir = out_dir
        self.command = command or []
        self.paths: list[Path] = []

    def csv(self, name: str, header: list[str], rows) -> None:
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        self.paths.append(path)

    def json(self, name: str, payload: dict) -> None:
        path = self.out_dir / name
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.paths.append(path)

    def cleanup(self) -> None:
        for path in self.paths:
            try:
                path.unlink()
            except OSError:
                pass


def _resolve_workers(flag_value: int | None) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        workers = int(env)
    elif flag_value is not None:
        workers = flag_value
    else:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _int_list(values: list[str]) -> list[int]:
    out: list[int] = []
    for chunk in values:
        out.extend(int(v) for v in chunk.split(",") if v)
    return out


def _hist_rows(dist) -> list[tuple]:
    edges = dist.bin_edges
    return [
        (float(edges[i]), float(edges[i + 1]), float(dist.densities[i]))
        for i in range(len(dist.densities))
    ]


def _summary_stats(dist) -> dict:
    """The scalar fields of an EmpiricalDistribution."""
    arrays = ("bin_edges", "densities", "samples")
    return {f.name: getattr(dist, f.name) for f in fields(dist) if f.name not in arrays}


def _write_manifest(out: OutputTracker, args: argparse.Namespace, t0: float) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    payload = {
        "command": out.command,
        "config": config,
        "seed": args.seed,
        "version": __version__,
        "wall_time_s": time.time() - t0,
        "outputs": [p.name for p in out.paths],
    }
    with open(out.out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _overlay_density(spec: WitnessSpec, m: int, sigma_sq: float | None):
    """Closed-form curve matching a w ensemble: the rank-2 law for a rank-2
    witness on pure states, otherwise a Gaussian whose width follows the
    witness weights and the mixture size (variance sigma_sq / m)."""
    if spec.kind == "optimal_per_state":
        return None
    if spec.kind == "rank2" and m == 1:
        return analytic.rank2(spec.lam)
    if sigma_sq is None:
        return None
    return analytic.gauss_width(m / sigma_sq)


def cmd_wdist(args: argparse.Namespace, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    spec = WitnessSpec.parse(args.witness)
    workers = _resolve_workers(args.workers)
    config = EnsembleConfig(
        dims=dims, samples=args.samples, m=args.m, witness_spec=spec, seed=args.seed, workers=workers
    )
    witness = derive_witness(config)
    dist = run_w_ensemble(config, witness=witness)

    out.csv("wdist_hist.csv", ["bin_left", "bin_right", "density"], _hist_rows(dist))

    summary = _summary_stats(dist)
    summary["witness"] = str(spec)
    summary["dims"] = [dims.n_a, dims.n_b]
    summary["m"] = args.m
    overlay = _overlay_density(spec, args.m, witness.sigma_sq if witness else None)
    if overlay is not None:
        centers = (DEFAULT_W_BINS[:-1] + DEFAULT_W_BINS[1:]) / 2
        out.csv(
            "wdist_analytic.csv",
            ["x", "density"],
            [(float(x), analytic.density_eval(overlay, float(x))) for x in centers],
        )
        summary["analytic_kind"] = overlay.kind
        summary["analytic_params"] = {"lam": overlay.lam, "k": overlay.k}
        summary["analytic_neg_tail"] = analytic.detection_probability(overlay)
        summary["ks_vs_analytic"] = ks_statistic(dist.samples, lambda xs: analytic.cdf_on_sorted(overlay, xs))
    out.json("wdist_summary.json", summary)


def cmd_ptspec(args: argparse.Namespace, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    workers = _resolve_workers(args.workers)
    dist = run_pt_spectrum(dims, args.m, args.states, seed=args.seed, workers=workers)

    out.csv("ptspec_hist.csv", ["bin_left", "bin_right", "density"], _hist_rows(dist))

    summary = _summary_stats(dist)
    summary["dims"] = [dims.n_a, dims.n_b]
    summary["m"] = args.m
    summary["states"] = args.states
    summary["kurtosis_ratio"] = kurtosis_ratio(dist.samples)
    if args.m == 1:
        law = analytic.pt_eigs()
        centers = (dist.bin_edges[:-1] + dist.bin_edges[1:]) / 2
        out.csv(
            "ptspec_overlay.csv",
            ["y", "density"],
            [(float(y), analytic.density_eval(law, float(y))) for y in centers],
        )
        summary["ks_vs_pt_law"] = ks_statistic(dist.samples, lambda xs: analytic.cdf_on_sorted(law, xs))
    if args.m >= dims.n_a:
        # near the maximally mixed regime the natural variable is N^2 lambda
        scaled = dims.n_a * dist.samples
        edges = np.linspace(scaled.min(), scaled.max(), 81)
        counts, _ = np.histogram(scaled, bins=edges)
        width = np.diff(edges)
        dens = counts / counts.sum() / width
        out.csv(
            "ptspec_hist_scaled.csv",
            ["bin_left", "bin_right", "density"],
            [(float(edges[i]), float(edges[i + 1]), float(dens[i])) for i in range(len(dens))],
        )
    out.json("ptspec_summary.json", summary)


def cmd_lmin(args: argparse.Namespace, out: OutputTracker) -> None:
    n_list = _int_list(args.dims_list)
    m_list = _int_list(args.m_list)
    workers = _resolve_workers(args.workers)
    scan = run_lambda_min_scan(n_list, m_list, args.reps, seed=args.seed, workers=workers)

    out.csv(
        "lmin_scan.csv",
        ["N", "m", "mean_lambda_min", "std_err"],
        [(r.n, r.m, r.value, r.std_err) for r in scan.rows],
    )
    out.json(
        "lmin_summary.json",
        {
            "m_star": {str(n): scan.metadata["m_star"][n] for n in scan.n_values},
            "monotone_in_m": {str(n): scan.metadata["monotone_in_m"][n] for n in scan.n_values},
            "repetitions": args.reps,
        },
    )


def cmd_decay(args: argparse.Namespace, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    workers = _resolve_workers(args.workers)
    scan = run_mixture_decay(
        dims,
        m_max=args.m_max,
        samples_base=args.samples,
        seed=args.seed,
        workers=workers,
        witness_spec=WitnessSpec.parse(args.witness),
    )
    out.csv(
        "decay_scan.csv",
        ["N", "m", "detection_probability", "std_err"],
        [(r.n, r.m, r.value, r.std_err) for r in scan.rows],
    )
    summary = {
        "slope": scan.metadata.get("slope"),
        "slope_std_err": scan.metadata.get("slope_std_err"),
        "slope_fit_min_m": scan.metadata["slope_fit_min_m"],
        "witness": scan.metadata["witness_spec"],
        "exact_gaussian_tail": {
            str(r.m): analytic.detection_probability(analytic.gauss_width(float(r.m))) for r in scan.rows
        },
    }
    out.json("decay_summary.json", summary)


def cmd_densecoding(args: argparse.Namespace, out: OutputTracker) -> None:
    dims = BipartiteDims(*args.dims)
    m_list = _int_list(args.m_list)
    workers = _resolve_workers(args.workers)
    scan = dense_coding_scan(dims, m_list, repetitions=args.reps, seed=args.seed, workers=workers)
    out.csv(
        "densecoding_scan.csv",
        ["N", "m", "margin_bits", "std_err"],
        [(r.n, r.m, r.value, r.std_err) for r in scan.rows],
    )
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
        help=f"worker processes (default: all cores; env {WORKERS_ENV} overrides). "
        "Results do not depend on this value.",
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
        "Haar vectors), with the matching closed-form overlay. CSV columns: "
        "bin_left, bin_right, density.",
    )
    p.add_argument("--dims", type=int, nargs=2, default=[32, 32], metavar=("N_A", "N_B"))
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--m", type=int, default=1, help="number of mixture components per state")
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
        description="Pooled eigenvalues of rho^T_B over an ensemble, scaled as y = N*lambda; "
        "for m=1 the elliptic-integral law is overlaid and a KS distance reported; "
        "for m >= N a histogram of N^2*lambda and the semicircle kurtosis ratio.",
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
        "mixture sizes m; locates the sign change m* per N. CSV columns: N, m, "
        "mean_lambda_min, std_err.",
    )
    p.add_argument("--dims-list", nargs="+", required=True, help="subsystem dimensions N (space or comma separated)")
    p.add_argument("--m-list", nargs="+", required=True, help="mixture sizes m (space or comma separated)")
    p.add_argument("--reps", type=int, default=10, help="states per (N, m) point")
    _add_common(p)
    p.set_defaults(func=cmd_lmin)

    p = sub.add_parser(
        "decay",
        help="detection probability decay with mixture size",
        description="P(w<0) for m = 1..m_max with one fixed witness, plus the fitted "
        "log-slope over the asymptotic points. CSV columns: N, m, "
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
        args.func(args, tracker)
        _write_manifest(tracker, args, t0)
    except (ValueError, OSError, ArithmeticError) as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        tracker.cleanup()
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
