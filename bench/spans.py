"""Out-of-program tracing of one witness-lab run, grouped by layer.

``install`` wraps, in every module namespace of the package, the functions
listed in ``GROUPS`` and the numpy calls the modules make (random draws,
SVDs, eigensolves).  Each wrapper is a span: it adds its duration to its
group when no other span of the same group is open (so recursion and nested
builders are not counted twice) and its self time, i.e. its duration minus
that of the spans it opened, to the group's self time.

Worker processes of the program's process pool are forked from the traced
process and inherit the wrappers.  A worker writes what it recorded to the
trace directory after each task, and ``Tracer.merge_workers`` adds those
files to the main process's totals, so per-layer figures include work done
in workers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy

# group -> functions (module.name) whose calls are spans of that group
GROUPS = {
    "qstate.pt": ["qstate.partial_transpose_b"],
    "witness.build": [
        "witness.random_haar_witness",
        "witness.random_rank_k_witness",
        "witness.witness_from_vector",
        "witness.witness_rank_k",
        "witness.rank2_state",
    ],
    "witness.kernel": ["witness.pt_quadratic_form_batch", "witness.pt_quadratic_form"],
    "ensemble.map": ["ensemble._map_ordered"],
    "ensemble.task": ["ensemble._w_chunk_task", "ensemble._pt_state_task", "ensemble._lmin_point_task"],
    "ensemble.reduce": ["ensemble.empirical_from_samples"],
    "ensemble.ks": ["ensemble.ks_statistic"],
    "ensemble.run": [
        "ensemble.run_w_ensemble",
        "ensemble.run_mixture_decay",
        "ensemble.run_pt_spectrum",
        "ensemble.run_lambda_min_scan",
        "ensemble.derive_witness",
        "ensemble.kurtosis_ratio",
    ],
    "analytic.cdf": ["analytic.cdf_on_sorted", "analytic.cdf_eval"],
    "analytic.density": ["analytic.density_eval"],
    "quadrature.integrate": ["quadrature.integrate"],
    "quadrature.cumulative": ["quadrature.cumulative"],
    "special.call": ["special.erf", "special.erfc", "special.elliptic_ke"],
    "cli.write": ["cli.OutputTracker.csv", "cli.OutputTracker.json", "cli._write_manifest"],
}
MODULES = ("qstate", "witness", "ensemble", "analytic", "quadrature", "special", "cli")
TASK_GROUP = "ensemble.task"


class _Group:
    """Totals of one group in one process."""

    __slots__ = ("calls", "items", "incl", "self_s", "depth")

    def __init__(self):
        self.zero()

    def zero(self) -> None:
        self.calls = 0  # outermost entries; recursion is not counted again
        self.items = 0  # work units of outermost entries (variates, points, ...)
        self.incl = 0.0  # duration of outermost entries
        self.self_s = 0.0  # duration minus that of the spans opened inside
        self.depth = 0


class Tracer:
    """Span and count totals of one process, keyed by group."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.pid = self.main_pid = os.getpid()
        self.dumps = 0
        self.groups: dict[str, _Group] = defaultdict(_Group)
        self.extra: dict[str, float] = defaultdict(float)
        self.stack: list[float] = [0.0]  # time covered by child spans, per open span

    def reset(self) -> None:
        for g in self.groups.values():
            g.zero()
        self.extra.clear()
        self.stack[:] = [0.0]

    def span(self, group: str, fn, items=None):
        """Wrap ``fn`` as a span of ``group``; ``items(args, result, dt)``
        gives the work units of one outermost call."""
        g = self.groups[group]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = g.depth == 0
            g.depth += 1
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                g.self_s += dt - stack.pop()
                stack[-1] += dt
                g.depth -= 1
                if outer:
                    g.calls += 1
                    g.incl += dt
                    if items is not None:
                        g.items += items(args, result, dt)

        if group != TASK_GROUP:
            return wrapper

        @functools.wraps(fn)
        def task_wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                # first task in a freshly forked worker: drop the parent's totals
                self.pid = os.getpid()
                self.reset()
            try:
                return wrapper(*args, **kwargs)
            finally:
                if self.pid != self.main_pid and len(stack) == 1:
                    self._dump_worker()

        return task_wrapper

    def _dump_worker(self) -> None:
        self.dumps += 1
        path = self.trace_dir / f"worker-{self.pid}-{self.dumps}.json"
        path.write_text(json.dumps(self.totals()))
        self.reset()

    def totals(self) -> dict:
        """Tables keyed by group: calls, items, incl, self_s, plus the
        free-form ``extra`` counters."""
        out = {
            table: {name: getattr(g, table) for name, g in self.groups.items() if g.calls}
            for table in ("calls", "items", "incl", "self_s")
        }
        out["extra"] = dict(self.extra)
        return out

    def merge_workers(self) -> dict:
        """Totals of this process plus every worker dump; also counts the
        dumps so the caller can check that every pooled task reported."""
        out = self.totals()
        files = sorted(self.trace_dir.glob("worker-*.json"))
        for path in files:
            part = json.loads(path.read_text())
            for table, values in part.items():
                for key, val in values.items():
                    out[table][key] = out[table].get(key, 0) + val
        out["worker_reports"] = len(files)
        return out


class _GeneratorProxy:
    """Forwards to a numpy Generator; every draw is a ``qstate.draw`` span
    whose work units are the variates drawn."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        return self._tracer.span("qstate.draw", attr, items=lambda args, result, dt: int(numpy.size(result)))


class _Namespace:
    """Attribute-forwarding stand-in for a module, with some names replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


def _numpy_proxy(tracer: Tracer) -> _Namespace:
    linalg = _Namespace(
        numpy.linalg,
        {
            "svd": tracer.span("qstate.svd", numpy.linalg.svd),
            "eigvalsh": tracer.span("qstate.eigensolve", numpy.linalg.eigvalsh),
            "eigh": tracer.span("qstate.eigensolve", numpy.linalg.eigh),
        },
    )
    default_rng = numpy.random.default_rng
    random = _Namespace(
        numpy.random,
        {"default_rng": lambda *a, **k: _GeneratorProxy(default_rng(*a, **k), tracer)},
    )
    return _Namespace(numpy, {"linalg": linalg, "random": random})


def _size(args, result, dt) -> int:
    # components contracted with one witness vector, or CDF points evaluated
    return int(numpy.size(result))


def install(package: str, trace_dir: Path) -> Tracer:
    """Patch the imported modules of ``package`` in place; returns the
    tracer holding this process's totals."""
    import importlib

    tracer = Tracer(trace_dir)

    def map_items(args, result, dt) -> int:
        fn, tasks, workers = args
        used = 1 if workers <= 1 or len(tasks) <= 1 else min(workers, len(tasks))
        tracer.extra["ensemble.worker_s"] += used * dt
        return len(tasks)

    items = {"witness.kernel": _size, "analytic.cdf": _size, "ensemble.map": map_items}
    mods = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
    wrappers = {}  # id of the original function -> its wrapper
    for group, names in GROUPS.items():
        for qual in names:
            mod_name, *path = qual.split(".")
            owner = mods[mod_name]
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            wrapped = tracer.span(group, fn, items.get(group))
            setattr(owner, path[-1], wrapped)
            wrappers[id(fn)] = wrapped
    # rebind names imported from one module into another
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, name, wrappers[id(value)])
        if getattr(mod, "np", None) is numpy:
            mod.np = _numpy_proxy(tracer)

    # count process pools the ensemble starts
    base = mods["ensemble"].ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.extra["ensemble.pools"] += 1

    mods["ensemble"].ProcessPoolExecutor = CountingPool
    return tracer
