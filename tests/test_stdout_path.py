"""``cli`` reaches stdout by one path: each command hands all its lines to
one call of ``_write_blocks``, which alone calls ``_write``, and ``print``
writes only stderr.

A ``print`` to stdout is two writes under ``PYTHONUNBUFFERED``, and the text
layer ignores a short one, so a full non-blocking pipe drops the rest with
exit 0; ``_write`` writes every byte.  These checks keep a second path from
coming back.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "clustertubes" / "cli.py"
TREE = ast.parse(CLI.read_text(encoding="utf-8"))


def uses(match):
    """(the top-level function, the node) for each node under a top-level
    statement of ``cli.py`` that ``match`` accepts; None for a statement
    that is no function."""
    for stmt in TREE.body:
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
    assert to_stdout == [], f"print to stdout in cli.py at {to_stdout}"


def test_only_the_block_writer_names_the_raw_writer():
    named = uses(lambda node: isinstance(node, ast.Name) and node.id == "_write")
    assert {func for func, _ in named} == {"_write_blocks"}


def test_only_the_writer_and_main_read_stdout():
    read = uses(lambda node: isinstance(node, ast.Attribute) and node.attr == "stdout"
                and ast.unparse(node.value) == "sys")
    assert {func for func, _ in read} == {"_write", "main"}


def test_each_command_writes_stdout_in_one_call():
    commands = [stmt.name for stmt in TREE.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")]
    assert len(commands) == 10  # the walk found every subcommand
    writers = sorted(func for func, _ in calls("_write_blocks"))
    assert writers == sorted(commands)
