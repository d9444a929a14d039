"""The benchmark tracer (``bench/spans.py``) wraps package functions that it
looks up by module and name.  A name that no longer resolves makes every
traced benchmark run fail at install, so the names it lists are part of the
package's contract with its tooling."""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _traced_names() -> list[str]:
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH_DIR))
    return [qual for names in spans.GROUPS.values() for qual in names]


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
    assert [qual for qual in names if not _resolves(qual)] == []
