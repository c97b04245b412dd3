"""Every private top-level function in the package is referenced, and so is
every public one that ``__init__.py`` does not export.

A private function is reachable only from inside the package, so one that
nothing there names is dead code a deletion left behind.  A public function
the package does not export is in the same position: no user is promised it,
so something in the package must call it.  A reference is any name or
attribute equal to it (``torsion._divisors`` counts) outside the function's
own definition.
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


def unreferenced(functions, statements):
    dead = []
    for module, func in functions:
        elsewhere = (stmt for _, stmt in statements if stmt is not func)
        if not any(func.name in referenced_names(stmt) for stmt in elsewhere):
            dead.append(f"{module}:{func.name}")
    return dead


def test_every_private_function_is_referenced():
    statements = list(top_level_statements())
    private = [
        (module, stmt) for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]
    assert private  # the walk found the package
    dead = unreferenced(private, statements)
    assert dead == [], f"private functions nothing references: {dead}"


def test_every_unexported_public_function_is_referenced():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    statements = list(top_level_statements())
    public = [
        (module, stmt) for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    ]
    assert exported & {stmt.name for _, stmt in public}  # the walk found the exports
    unexported = [(module, stmt) for module, stmt in public if stmt.name not in exported]
    dead = unreferenced(unexported, statements)
    assert dead == [], f"unexported public functions nothing references: {dead}"
