"""The benchmark tracer (``bench/spans.py``) wraps package functions that it
looks up by module and name.  A name that no longer resolves makes every
traced benchmark run fail at install, so the names it lists are part of the
package's contract with its tooling."""

import importlib
import sys
from pathlib import Path

from witness_lab import cli, ensemble
from witness_lab.ensemble import WitnessSpec
from witness_lab.qstate import BipartiteDims

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


def _traced_names() -> list[str]:
    return [qual for names in _bench_module("spans").GROUPS.values() for qual in names]


def _resolves(qual: str) -> bool:
    mod_name, *path = qual.split(".")
    owner = importlib.import_module(f"witness_lab.{mod_name}")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_name_resolves_in_the_package():
    names = _traced_names()
    assert "ensemble._w_chunk_task" in names
    # a traced run requires one traced task per mapped chunk of ptspec
    assert "ensemble._pt_state_task" in names
    assert [qual for qual in names if not _resolves(qual)] == []


def test_every_workload_command_line_parses(tmp_path):
    # the benchmark runs these command lines: an option or a witness name
    # that the program no longer accepts fails every run of its workload
    for workload in _bench_module("workloads").WORKLOADS.values():
        args = cli.build_parser().parse_args(workload.argv(0, tmp_path))
        if "witness" in vars(args):
            WitnessSpec.parse(args.witness)


def test_lambda_min_scan_maps_the_traced_task(monkeypatch):
    # a traced run requires one traced task per mapped chunk, so the scan
    # must map the task function that the tracer wraps
    mapped = []

    def recording_map(fn, tasks, workers):
        mapped.append(fn)
        return [fn(t) for t in tasks]

    monkeypatch.setattr(ensemble, "_map_ordered", recording_map)
    ensemble.run_lambda_min_scan([4], [1, 3], repetitions=2)
    assert mapped == [ensemble._lmin_point_task]
    assert "ensemble._lmin_point_task" in _traced_names()


def test_mixture_decay_maps_only_the_traced_chunk_task(monkeypatch):
    # one map over the chunks of the pure-state run: each chunk must be a
    # call of the task function that the tracer wraps
    mapped = []

    def recording_map(fn, tasks, workers):
        mapped.append((fn, len(tasks)))
        return [fn(t) for t in tasks]

    monkeypatch.setattr(ensemble, "_map_ordered", recording_map)
    # base 1000, m_max 3: 1000 * 3 * 3 = 9000 pure samples in 3 chunks
    ensemble.run_mixture_decay(BipartiteDims(4, 4), 3, 1000)
    assert mapped == [(ensemble._w_chunk_task, 3)]
