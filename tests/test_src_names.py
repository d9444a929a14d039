"""Every top-level function and class of the package serves a subcommand:
something in ``src`` refers to it outside its own definition.  Code that
only the tests use lives in ``tests/``; the few names that stay without a
caller in ``src`` are listed below with the reason."""

import ast
from collections import Counter
from pathlib import Path

from witness_lab import cli

from test_bench_contract import _traced_names

SRC_DIR = Path(cli.__file__).resolve().parent
TRACED = "wrapped by bench/spans.py (ROADMAP item 1)"
ALLOWED = {
    "quadrature.integrate": TRACED,
    "quadrature.cumulative": TRACED,
    "special.elliptic_ke": TRACED,
    "analytic.cdf_eval": TRACED,
    "analytic.density_eval": TRACED,
    "witness.witness_rank_k": TRACED,
    "witness.pt_quadratic_form": TRACED,
    "ensemble.cumulant_report": "wired into wdist by item 4",
}


def _used_names(node: ast.AST) -> Counter:
    """How often ``node`` names each identifier, as a variable or an attribute."""
    nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in nodes)


def _unreferenced() -> list[str]:
    """module.name of each top-level def or class that no statement of src
    refers to, its own definition aside."""
    modules = {path.stem: ast.parse(path.read_text()).body for path in sorted(SRC_DIR.glob("*.py"))}
    total = sum((_used_names(stmt) for body in modules.values() for stmt in body), Counter())
    return [
        f"{mod}.{stmt.name}"
        for mod, body in modules.items()
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and total[stmt.name] == _used_names(stmt)[stmt.name]
    ]


def test_every_src_name_has_a_caller_in_src_or_a_listed_reason():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_every_listed_name_still_needs_its_reason():
    # a listed name that gained a caller, or that the tracer no longer wraps,
    # leaves the list
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
    traced = set(_traced_names())
    assert [name for name, why in ALLOWED.items() if why == TRACED and name not in traced] == []
