"""Every private top-level function in the package is referenced.

A private function is reachable only from inside the package, so one that
nothing there names is dead code a deletion left behind.  A reference is any
name or attribute equal to it (``torsion._divisors`` counts) outside the
function's own definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clustertubes"


def top_level_statements():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            yield path.name, stmt


def referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_function_is_referenced():
    statements = list(top_level_statements())
    private = [
        (module, stmt) for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]
    assert private  # the walk found the package
    dead = []
    for module, func in private:
        elsewhere = (stmt for _, stmt in statements if stmt is not func)
        if not any(func.name in referenced_names(stmt) for stmt in elsewhere):
            dead.append(f"{module}:{func.name}")
    assert dead == [], f"private functions nothing references: {dead}"
