"""Every name a module imports is used in that module, and the cross-checking
routes import none of each other.

No linter ships with the project; this catches the stale imports a deletion
leaves behind.  ``__init__.py`` is skipped, as its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clustertubes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports but never uses {unused}"


def package_imports(tree):
    """The package modules a module imports, wherever the import statement is."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import counting, torsion
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clustertubes."):
            yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("clustertubes."):
                    yield alias.name.split(".")[1]


# The closed forms and the series check each other and the grammar, and the
# cell statistics of the polygon grammar are checked against the series: none
# may share code with the routes it is compared against.
@pytest.mark.parametrize("module, forbidden", [
    ("counting", {"series", "torsion", "polygons", "qpolys", "sieving"}),
    ("series", {"counting", "torsion", "polygons"}),
    ("polygons", {"series", "counting", "qpolys", "sieving", "torsion"}),
], ids=["counting", "series", "polygons"])
def test_independent_routes_share_no_code(module, forbidden):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    shared = sorted(set(package_imports(tree)) & forbidden)
    assert shared == [], f"{module}.py imports {shared}"
