"""End-to-end benchmark of the witness-lab command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation starts a fresh Python process
(``child.py``) that imports ``witness_lab.cli`` from ``src/`` and runs one
workload's subcommand with ``--seed N``; operations repeat until S seconds
of them have run, then the outputs of the first are checked (``workloads``)
and every later one must reproduce its data files byte for byte.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the medians of the end-to-end metrics (``--trace 0``) or of
the per-layer metrics of a traced run (``--trace 1``); the lines before it
print the same metrics by name with their units.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # extra import-only processes per run, for a steadier setup_s
DEADLINE_S = 160.0  # per workload: operations still running then are killed and count as failed

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "qstate.variates": ("count", "lower"),
    "qstate.draw_s": ("s", "lower"),
    "qstate.ns_per_variate": ("ns", "lower"),
    "qstate.partial_transposes": ("count", "lower"),
    "qstate.pt_s": ("s", "lower"),
    "qstate.eigensolves": ("count", "lower"),
    "qstate.eigensolve_s": ("s", "lower"),
    "qstate.svds": ("count", "lower"),
    "qstate.svd_s": ("s", "lower"),
    "witness.build_s": ("s", "lower"),
    "witness.kernel_calls": ("count", "lower"),
    "witness.kernel_s": ("s", "lower"),
    "witness.us_per_component": ("us", "lower"),
    "ensemble.pools": ("count", "lower"),
    "ensemble.chunks": ("count", "lower"),
    "ensemble.map_s": ("s", "lower"),
    "ensemble.task_s": ("s", "lower"),
    "ensemble.parallel_efficiency": ("ratio", "higher"),
    "ensemble.reduce_s": ("s", "lower"),
    "ensemble.ks_s": ("s", "lower"),
    "ensemble.self_s": ("s", "lower"),
    "analytic.cdf_points": ("count", "lower"),
    "analytic.cdf_s": ("s", "lower"),
    "analytic.us_per_cdf_point": ("us", "lower"),
    "analytic.density_evals": ("count", "lower"),
    "quadrature.integrals": ("count", "lower"),
    "quadrature.s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "special.s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.run_s": ("s", "lower"),
}
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes")]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tr: dict, run_s: float, bytes_written: int) -> dict:
    """Per-layer figures of one traced operation, from the span totals of
    ``spans.Tracer`` merged over the run process and its workers."""
    calls, items, incl, self_s, extra = (tr[k] for k in ("calls", "items", "incl", "self_s", "extra"))

    def g(table: dict, key: str) -> float:
        return table.get(key, 0)

    variates, draw_s = g(items, "qstate.draw"), g(incl, "qstate.draw")
    comps, kernel_s = g(items, "witness.kernel"), g(incl, "witness.kernel")
    points, cdf_s = g(items, "analytic.cdf"), g(incl, "analytic.cdf")
    task_s = g(incl, "ensemble.task")
    return {
        "qstate.variates": variates,
        "qstate.draw_s": draw_s,
        "qstate.ns_per_variate": _ratio(draw_s, variates, 1e9),
        "qstate.partial_transposes": g(calls, "qstate.pt"),
        "qstate.pt_s": g(incl, "qstate.pt"),
        "qstate.eigensolves": g(calls, "qstate.eigensolve"),
        "qstate.eigensolve_s": g(incl, "qstate.eigensolve"),
        "qstate.svds": g(calls, "qstate.svd"),
        "qstate.svd_s": g(incl, "qstate.svd"),
        "witness.build_s": g(incl, "witness.build"),
        "witness.kernel_calls": g(calls, "witness.kernel"),
        "witness.kernel_s": kernel_s,
        "witness.us_per_component": _ratio(kernel_s, comps, 1e6),
        "ensemble.pools": int(g(extra, "ensemble.pools")),
        "ensemble.chunks": g(items, "ensemble.map"),
        "ensemble.map_s": g(incl, "ensemble.map"),
        "ensemble.task_s": task_s,
        "ensemble.parallel_efficiency": _ratio(task_s, g(extra, "ensemble.worker_s")),
        "ensemble.reduce_s": g(incl, "ensemble.reduce"),
        "ensemble.ks_s": g(self_s, "ensemble.ks"),
        "ensemble.self_s": sum(
            g(self_s, k) for k in ("ensemble.run", "ensemble.task", "ensemble.reduce", "ensemble.ks")
        ),
        "analytic.cdf_points": points,
        "analytic.cdf_s": cdf_s,
        "analytic.us_per_cdf_point": _ratio(cdf_s, points, 1e6),
        "analytic.density_evals": g(calls, "analytic.density"),
        "quadrature.integrals": g(calls, "quadrature.integrate"),
        "quadrature.s": g(self_s, "quadrature.integrate") + g(self_s, "quadrature.cumulative"),
        "special.calls": g(calls, "special.call"),
        "special.s": g(incl, "special.call"),
        "cli.write_s": g(incl, "cli.write"),
        "cli.bytes_written": bytes_written,
        "cli.run_s": run_s,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    # the workloads fix their worker counts on the command line or by default
    env.pop("WITNESS_LAB_WORKERS", None)
    return env


def _data_files(out_dir: Path) -> dict[str, bytes]:
    """The outputs a run lists in its manifest; the manifest itself carries
    a wall time and is left out."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {name: (out_dir / name).read_bytes() for name in manifest["outputs"]}


def _run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill it together with any
    pool workers it started, and wait for them."""
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(), start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_probe(root: Path, timeout: float) -> float:
    t0 = time.monotonic()
    proc = _run_child([sys.executable, str(HERE / "child.py"), str(root / "src"), "-"], timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"import of witness_lab.cli failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def run_op(root: Path, workload, seed: int, op_dir: Path, trace: bool, timeout: float) -> dict:
    """One fresh process running the workload's subcommand; returns the
    child's figures plus set-up time, or a dict with ``error``."""
    out_dir, trace_dir, result = op_dir / "out", op_dir / "trace", op_dir / "result.json"
    trace_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(root / "src"), str(result)]
    if trace:
        cmd += ["--trace", str(trace_dir)]
    cmd += ["--", *workload.argv(seed, out_dir)]
    t0 = time.monotonic()
    try:
        proc = _run_child(cmd, timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    fig = json.loads(result.read_text())
    fig["setup_s"] = fig["ready"] - t0
    fig["out_dir"] = out_dir
    return fig


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool, work: Path):
    """Returns the operations' figures, the metrics and the failed checks."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [setup_probe(root, deadline - time.monotonic()) for _ in range(SETUP_PROBES)]
    ops = []
    t_start = time.monotonic()
    while not ops or time.monotonic() - t_start < seconds:
        ops.append(run_op(root, workload, seed, work / f"op{len(ops)}", trace, deadline - time.monotonic()))
    good = [f for f in ops if "error" not in f]
    problems = [f"operation {i}: {f['error']}" for i, f in enumerate(ops) if "error" in f]
    if not good:
        return ops, {}, problems

    # correctness: the first good output against the oracles, the rest
    # byte-identical to it (a seed fixes every data file)
    first = good[0]["out_dir"]
    problems += workload.check(first)
    try:
        reference = _data_files(first)
        for i, f in enumerate(good[1:], 1):
            if _data_files(f["out_dir"]) != reference:
                problems.append(f"operation {i} did not reproduce the data files of operation 0")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"manifest or outputs unreadable: {exc}")
        reference = {}

    if trace:
        size = sum(len(b) for b in reference.values())
        per_op = []
        for i, f in enumerate(good):
            tr = f["trace"]
            if tr["calls"].get("ensemble.task", 0) != tr["items"].get("ensemble.map", 0):
                problems.append(f"operation {i}: tasks traced != chunks mapped; worker spans were lost")
            per_op.append(layer_metrics(tr, f["run_s"], size))
        for name in COUNTS:
            if len({m[name] for m in per_op}) != 1:
                problems.append(f"count {name} differs between operations: {[m[name] for m in per_op]}")
        metrics = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER}
        metrics.update({name: per_op[0][name] for name in COUNTS})  # equal in every operation
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(f[name] for f in good) for name in END_TO_END}
        metrics["setup_s"] = statistics.median(setups + [f["setup_s"] for f in good])
        units = END_TO_END
    out = {name: {"value": val, "unit": units[name][0]} for name, val in metrics.items()}
    return ops, out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "witness_lab" / "cli.py").is_file():
        print(f"error: {src}/witness_lab not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    # the build step of a Python checkout: byte-compile once, outside any timing
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = root / ".bench_build" / f"run-{os.getpid()}"
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ops, found, problems = run_workload(
                root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work / name
            )
            n_fail = sum("error" in f for f in ops)
            correct, attempted, failed = correct and not problems, attempted + len(ops), failed + n_fail
            print(f"{name}: seed {args.seed}, attempted {len(ops)}, failed {n_fail}, correct {not problems}")
            for i, f in enumerate(ops):
                print(f"  operation {i}: " + (f.get("error") or ", ".join(f"{k} {f[k]:.4f}" for k in END_TO_END)))
            for metric, entry in found.items():
                print(f"  {metric:30s} {entry['value']:>16.6g} {entry['unit']}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = entry
            for p in problems:
                print(f"  check failed: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
