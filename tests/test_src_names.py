"""Every top-level function and class of the package serves a subcommand:
something in ``src`` refers to it outside its own definition.  So does
every method and property of a class: some statement of ``src`` outside
its definition reads an attribute of its name.  Dataclass fields are not
checked (the CLI reads a summary's fields through ``fields()``), nor are
dunder methods, which Python calls itself.  Code that only the tests use
lives in ``tests/``; the few names that stay without a caller in ``src``
are listed below with the reason."""

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
    "ensemble.cumulant_report": "wired into wdist by item 6",
}


def _used_names(node: ast.AST) -> Counter:
    """How often ``node`` names each identifier, as a variable or an attribute."""
    nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in nodes)


def _attributes_read(node: ast.AST) -> Counter:
    """How often ``node`` reads an attribute of each name."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _modules() -> dict[str, list[ast.stmt]]:
    return {path.stem: ast.parse(path.read_text()).body for path in sorted(SRC_DIR.glob("*.py"))}


def _unreferenced() -> list[str]:
    """module.name of each top-level def or class that no statement of src
    refers to, its own definition aside."""
    modules = _modules()
    total = sum((_used_names(stmt) for body in modules.values() for stmt in body), Counter())
    return [
        f"{mod}.{stmt.name}"
        for mod, body in modules.items()
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and total[stmt.name] == _used_names(stmt)[stmt.name]
    ]


def _unread_members() -> list[str]:
    """module.Class.name of each method or property, dunders aside, whose
    name no statement of src reads as an attribute outside its definition."""
    modules = _modules()
    total = sum((_attributes_read(stmt) for body in modules.values() for stmt in body), Counter())
    return [
        f"{mod}.{cls.name}.{fn.name}"
        for mod, body in modules.items()
        for cls in body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("__")
        and total[fn.name] == _attributes_read(fn)[fn.name]
    ]


def test_every_src_name_has_a_caller_in_src_or_a_listed_reason():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_every_listed_name_still_needs_its_reason():
    # a listed name that gained a caller, or that the tracer no longer wraps,
    # leaves the list
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
    traced = set(_traced_names())
    assert [name for name, why in ALLOWED.items() if why == TRACED and name not in traced] == []


def test_every_method_and_property_is_read_in_src():
    assert _unread_members() == []


def _float_views() -> list[str]:
    """module:line of each ``.view(np.float64)`` call in src."""
    return [
        f"{mod}:{node.lineno}"
        for mod, body in _modules().items()
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "view"
        and [ast.unparse(arg) for arg in node.args] == ["np.float64"]
    ]


def test_only_qstate_views_amplitudes_as_floats():
    # the real layout of the Gram behind rho^T_B is a decision of qstate alone
    assert [site for site in _float_views() if not site.startswith("qstate:")] == []
