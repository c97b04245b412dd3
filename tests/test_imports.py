"""Every name a module imports is used in that module, the cross-checking
routes import none of each other, and a command loads only what it runs,
of the package and of the standard library.

No linter ships with the project; this catches the stale imports a deletion
leaves behind.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clustertubes

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "clustertubes"
MODULES = sorted(PACKAGE.rglob("*.py"))
HANDLERS = sorted((PACKAGE / "commands").glob("*.py"))


def module_id(path):
    return path.relative_to(PACKAGE).as_posix()


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert unused == [], f"{module_id(path)} imports but never uses {unused}"


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


# The closed forms and the series check each other and the grammar, the
# cell statistics of the polygon grammar are checked against the series,
# the record streams against PeriodicDiagram.orbits_json (arcs) and
# enumerate_brute (torsion), and the grammar against the Ptolemy check and
# search of arcs and the oracles of pieces: none may share code with the
# routes it is compared against.  The grammar loads neither arcs nor
# pieces; pieces reads the grammar's diagrams and arcs' search, and the
# asymptotics read the closed form alone.
@pytest.mark.parametrize("module, forbidden", [
    ("counting", {"series", "torsion", "polygons", "qpolys", "sieving"}),
    ("series", {"counting", "torsion", "polygons"}),
    ("polygons", {"series", "counting", "qpolys", "sieving", "torsion", "arcs", "pieces"}),
    ("records", {"arcs", "torsion", "counting", "series", "qpolys", "sieving"}),
    ("arcs", {"polygons", "torsion", "counting", "series", "qpolys", "sieving"}),
    ("pieces", {"series", "counting", "qpolys", "sieving", "torsion", "records"}),
    ("asymptotics", {path.stem for path in PACKAGE.glob("*.py")} - {"config", "counting"}
     | {"commands"}),
], ids=["counting", "series", "polygons", "records", "arcs", "pieces", "asymptotics"])
def test_independent_routes_share_no_code(module, forbidden):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    shared = sorted(set(package_imports(tree)) & forbidden)
    assert shared == [], f"{module}.py imports {shared}"


# Imports the package, runs ``cli.main`` on the command given (if any), then
# lists every module then loaded on stderr, as main prints to stdout.  The
# command's stdin is PAIR, which render reads.
LOADED = """
import sys
import clustertubes
if sys.argv[1:]:
    from clustertubes.cli import main
    main(sys.argv[1:])
print(*sys.modules, file=sys.stderr)
"""
BARE = "import sys; print(*sys.modules, file=sys.stderr)"


def loaded_modules(script, *argv):
    """The modules ``script`` lists, run in a fresh interpreter that finds
    the package, with PAIR on stdin; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], input=PAIR,
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


# Every command loads cli, config, the writer (commands) and its own
# handler module, commands.<command>, and no other handler.  decompose and
# compose run the record kernels of records alone, read through
# commands.reading, and enumerate adds the grammar walk of polygons; none
# loads the arc calculus or the halves.  perp and render read a diagram
# record into a diagram and run the halves (torsion) on it; render reads
# its wing spans there too.  The symmetry commands read sieving, which
# walks the grammar through polygons and loads neither torsion nor arcs:
# orbits for the closed form and the direct partition, sieve for those
# histograms and the q-analogues.  verify loads both layers, for every
# route it checks.  None of these runs loads the asymptotics or the
# polygon oracles (pieces); verify's sampled round trips, past rank 6,
# draw their pieces through pieces.random_polygon.
RECORD_MODULES = ["commands.reading", "records"]
HALF_MODULES = ["arcs", "commands.reading", "polygons", "records", "torsion"]
SYMMETRY_MODULES = ["counting", "polygons", "series", "sieving"]
PAIR = '{"rank":4,"finite_side":"left","orbits":[[1,3],[0,4]]}'


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["count", "--n", "1"], ["counting"]),
    (["series", "--order", "3"], ["series"]),
    (["enumerate", "--n", "1"], ["polygons", "records"]),
    (["decompose", "--diagram", '{"rank":4,"orbits":[[1,3]]}'], RECORD_MODULES),
    (["compose", "--wings", '{"rank":2,"pairs":[{"top":[0,2],"arcs":[[0,2]]}]}'],
     RECORD_MODULES),
    (["perp", "--diagram", '{"rank":4,"orbits":[[1,3]]}', "--max-length", "3"], HALF_MODULES),
    (["render", "--pair", "-", "--out", "-"], [*HALF_MODULES, "render"]),
    (["sieve", "--n", "4"], [*SYMMETRY_MODULES, "qpolys"]),
    (["orbits", "--n", "4", "--refined"], SYMMETRY_MODULES),
    (["verify", "--n", "4"], ["arcs", "polygons", "records", "torsion", *SYMMETRY_MODULES]),
], ids=["import", "count", "series", "enumerate", "decompose", "compose", "perp", "render",
        "sieve", "orbits", "verify"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    package = {m for m in loaded_modules(LOADED, *argv) if m.split(".")[0] == "clustertubes"}
    if argv:
        loaded = ["cli", "commands", f"commands.{argv[0]}", "config", *loaded]
    assert sorted(package) == sorted({"clustertubes", *(f"clustertubes.{m}" for m in loaded)})


def absolute_imports(tree, package):
    """The absolute name of every module a module of ``package`` imports,
    wherever the import statement is, and for ``from m import x`` also
    ``m.x``, which may be a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] if node.level else []
            module = ".".join([*base, *filter(None, [node.module])])
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", HANDLERS, ids=module_id)
def test_no_handler_imports_the_cli(path):
    # Under python -m clustertubes.cli the CLI runs as __main__, so a handler
    # that imported clustertubes.cli would compile and run it a second time.
    names = set(absolute_imports(ast.parse(path.read_text(encoding="utf-8")),
                                 "clustertubes.commands"))
    assert "clustertubes.cli" not in names, module_id(path)


def test_the_cli_runs_once_under_dash_m():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "clustertubes.cli", "count", "--n", "1"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (result.returncode, result.stdout) == (0, "2\n"), result.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "clustertubes.counting" in imported  # the listing reaches the command's modules
    assert "clustertubes.cli" not in imported


def test_the_grammar_loads_no_arc_calculus():
    # polygons holds the grammar walk that sieving reads; the brute-force
    # oracle and the Ptolemy check that load arcs are in pieces
    loaded = loaded_modules("import sys, clustertubes.polygons; "
                            "print(*sys.modules, file=sys.stderr)")
    assert "clustertubes.polygons" in loaded
    assert not loaded & {"clustertubes.arcs", "clustertubes.pieces"}


def module_level_imports(tree):
    """The import statements that run when the module loads: every one
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


# The half layer (torsion) and the arc calculus (arcs) load only inside the
# functions of these modules that run them, so that sieve and orbits start
# without them, and decompose and compose without the grammar (polygons)
# either.
@pytest.mark.parametrize("module, forbidden", [
    ("polygons", {"arcs", "torsion"}),
    ("sieving", {"arcs", "torsion"}),
    ("records", {"arcs", "torsion", "polygons"}),
], ids=["polygons", "sieving", "records"])
def test_the_symmetry_layer_imports_no_half_at_module_level(module, forbidden):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    offending = [f"{module}.py:{node.lineno}" for node in module_level_imports(tree)
                 if set(package_imports(node)) & forbidden]
    assert offending == [], f"module-level imports of {sorted(forbidden)}: {offending}"


def test_start_up_loads_no_heavy_standard_module():
    # Importing dataclasses (and through it inspect) cost about 11 ms of every
    # start that loaded the package, and generating the methods of its ten
    # value classes about 9 ms more; fractions, which only root isolation
    # uses, cost count 3 ms and json 2 ms.  The value classes build on
    # config.Frozen, and fractions and json load where they are used.
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in modules, path.name
    # Against a bare interpreter, whose site hooks may load some of them.
    heavy = {"dataclasses", "inspect", "fractions", "json"} - loaded_modules(BARE)
    for argv in (["count", "--n", "1"], ["sieve", "--n", "4"]):
        assert loaded_modules(LOADED, *argv) & heavy == set(), argv


def test_only_frozen_writes_the_fields_of_a_value_class():
    # config.Frozen writes every field (Frozen.__init__, after the checks of
    # the class's own __init__) and owns the one builder that skips the
    # checks (Frozen._canonical); no class adds a hook or a builder of its own.
    writers, hooks = set(), []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                writers.add(path.name)
            elif isinstance(node, ast.ClassDef):
                hooks += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("__post_init__", "_canonical")]
    assert writers <= {"config.py"}
    assert hooks == ["config.py:Frozen._canonical"]


def test_every_export_is_its_home_module_object():
    from clustertubes import TorsionPair, series_P

    for name in clustertubes.__all__:
        home = importlib.import_module(f"clustertubes.{clustertubes._HOME[name]}")
        assert getattr(clustertubes, name) is getattr(home, name), name
    assert TorsionPair is clustertubes.torsion.TorsionPair
    assert series_P is clustertubes.series.series_P


def test_dir_lists_every_export():
    assert set(clustertubes.__all__) <= set(dir(clustertubes))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clustertubes.no_such_name
    with pytest.raises(ImportError):
        from clustertubes import no_such_name  # noqa: F401
