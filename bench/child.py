"""One fresh witness-lab process, as the benchmark starts it.

    python3 bench/child.py SRC_DIR RESULT_JSON [--trace DIR] -- SUBCOMMAND ARGS...

Imports ``witness_lab.cli`` from SRC_DIR, stamps the monotonic clock (the
parent stamped it before starting this process, so the difference is the
set-up time), then runs the subcommand in this process and writes its
run-time figures to RESULT_JSON.  With RESULT_JSON given as ``-`` it stops
after the import and prints the stamp.  ``--trace`` installs the
out-of-program tracer of ``spans.py`` before the subcommand runs.
"""

import sys
import time

_src = sys.argv[1]
sys.path.insert(0, _src)
import witness_lab.cli as cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    if not Path(cli.__file__).resolve().is_relative_to(Path(_src).resolve()):
        print(f"witness_lab was imported from {cli.__file__}, not from {_src}", file=sys.stderr)
        return 2
    result_path = sys.argv[2]
    if result_path == "-":
        print(json.dumps({"ready": READY}))
        return 0
    rest = sys.argv[3:]
    tracer = None
    if rest[0] == "--trace":
        import spans  # this script's directory is on sys.path

        tracer = spans.install("witness_lab", Path(rest[1]))
        rest = rest[2:]
    argv = rest[1:]  # drop the "--" separator

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "ready": READY,
        "exit_code": code,
        "run_s": run_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; children: the largest reaped worker
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.merge_workers()
    Path(result_path).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
