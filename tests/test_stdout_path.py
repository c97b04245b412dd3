"""The CLI reaches stdout by one path: each command hands all its lines to
one call of ``_write_blocks``, which alone calls ``_write``, and ``print``
writes only stderr.

A ``print`` to stdout is two writes under ``PYTHONUNBUFFERED``, and the text
layer ignores a short one, so a full non-blocking pipe drops the rest with
exit 0; ``_write`` writes every byte.  These checks keep a second path from
coming back.  They read every module that holds a command handler or the
writer: ``cli.py`` and the modules of the ``commands`` package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clustertubes"
MODULES = [PACKAGE / "cli.py", *sorted((PACKAGE / "commands").glob("*.py"))]
TREES = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}


def uses(match):
    """(the top-level function, the node) for each node under a top-level
    statement of a module in ``TREES`` that ``match`` accepts; None for a
    statement that is no function."""
    for tree in TREES.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if match(node):
                    yield getattr(stmt, "name", None), node


def calls(name):
    return uses(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)


def test_print_writes_only_stderr():
    prints = list(calls("print"))
    assert prints  # the walk found the error lines
    to_stdout = [f"{func}:{node.lineno}" for func, node in prints
                 if not any(keyword.arg == "file" and ast.unparse(keyword.value) == "sys.stderr"
                            for keyword in node.keywords)]
    assert to_stdout == [], f"print to stdout at {to_stdout}"


def test_only_the_block_writer_names_the_raw_writer():
    named = uses(lambda node: isinstance(node, ast.Name) and node.id == "_write")
    assert {func for func, _ in named} == {"_write_blocks"}


def test_only_the_writer_and_main_read_stdout():
    read = uses(lambda node: isinstance(node, ast.Attribute) and node.attr == "stdout"
                and ast.unparse(node.value) == "sys")
    assert {func for func, _ in read} == {"_write", "main"}


def test_each_command_writes_stdout_in_one_call():
    # each handler cmd_<command> lives in commands/<command>.py, alone there
    commands = [(module, stmt.name) for module, tree in TREES.items() for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")]
    assert len(commands) == 10  # the walk found every subcommand
    assert all(module == f"commands/{name[4:]}.py" for module, name in commands)
    writers = [func for func, _ in calls("_write_blocks")]
    assert sorted(writers) == sorted(name for _, name in commands)  # one call each
