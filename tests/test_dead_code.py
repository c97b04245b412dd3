"""Every private top-level function in the package is referenced, and so is
every public one that ``__init__.py`` does not export, and every method.

A private function is reachable only from inside the package, so one that
nothing there names is dead code a deletion left behind.  A public function
the package does not export is in the same position: no user is promised it,
so something in the package must call it.  A method is held to the same
rule whether or not its class is exported: a command or another part of the
package must call it, and a reference the tests alone need lives in the
tests.  A reference is any name or attribute equal to it
(``sieving._divisors`` counts) outside the function's own definition.
Dunder methods are called by the language, not by name, so they are not
checked.
"""

import ast
from pathlib import Path

import clustertubes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clustertubes"


def top_level_statements():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            yield path.relative_to(PACKAGE).as_posix(), stmt


def referenced_names(node, skip=None):
    """Names and attributes under ``node``, leaving out the subtree ``skip``."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        stack.extend(ast.iter_child_nodes(sub))


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
    exported = set(clustertubes.__all__)
    statements = list(top_level_statements())
    public = [
        (module, stmt) for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    ]
    assert exported & {stmt.name for _, stmt in public}  # the walk found the exports
    unexported = [(module, stmt) for module, stmt in public if stmt.name not in exported]
    dead = unreferenced(unexported, statements)
    assert dead == [], f"unexported public functions nothing references: {dead}"


# Methods no code in the package calls, each kept for a stated reason.
METHOD_ALLOW = {
    # perfbench/replay.py binds it by name (its METHODS table), and
    # tests/test_scripts.py runs that harness.
    "torsion.py:WingDecomposition.from_json",
    # reprlib.Repr.repr1 dispatches to it by the name of the value's type.
    "config.py:_Echo.repr_int",
}


def test_every_method_is_referenced():
    statements = list(top_level_statements())
    methods = [
        (module, cls, func) for module, cls in statements if isinstance(cls, ast.ClassDef)
        for func in cls.body
        if isinstance(func, ast.FunctionDef)
        and not (func.name.startswith("__") and func.name.endswith("__"))
    ]
    assert methods  # the walk found the classes
    dead = [
        f"{module}:{cls.name}.{func.name}" for module, cls, func in methods
        if not any(func.name in referenced_names(stmt, skip=func) for _, stmt in statements)
    ]
    assert sorted(dead) == sorted(METHOD_ALLOW), f"methods nothing references: {dead}"
