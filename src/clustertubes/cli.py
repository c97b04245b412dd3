"""Command-line surface: the parser and :func:`main`.

One binary, subcommand style.  All commands are deterministic for fixed
inputs; streams are one JSON record per line.  Exit codes: 0 success,
1 verification mismatch (a check that reads ``FAIL``; a check skipped at a
rank limit never sets it), 2 usage or malformed input, 3 a rank or order
limit exceeded, 141 stdout closed by its reader (128 + SIGPIPE, what a shell
reports for ``yes | head -1``; nothing is printed to stderr).

Each command's handler, ``cmd_<command>``, lives in its own module of
:mod:`clustertubes.commands`, with the helpers only it uses, and
:func:`main` imports that module only when the command runs.  So a run
loads and compiles the handler it calls and no other, and this module
holds no handler code: it imports :mod:`clustertubes.config`, the stdout
writer of :mod:`clustertubes.commands` and a few standard modules alone.
Each handler imports its own package modules once, at its top, never per
record: ``count`` loads :mod:`clustertubes.counting` and nothing else of
the package but its handler and the writer, and ``series``
:mod:`clustertubes.series`.  ``enumerate``, ``decompose`` and ``compose``
stream records in bounded memory through :mod:`clustertubes.records`,
and ``enumerate`` reads the grammar walk of :mod:`clustertubes.polygons`.
``sieve`` and ``orbits`` read :mod:`clustertubes.sieving`, which walks the
grammar through :mod:`clustertubes.polygons` and loads neither the halves
(:mod:`clustertubes.torsion`) nor the arc calculus; ``sieve`` alone adds
the q-polynomials.  ``json`` loads only where JSON input is decoded (the
record commands) and for JSON output; ``fractions`` loads only in root
isolation (:mod:`clustertubes.asymptotics`), which no command loads.  The
value classes are slotted classes on :class:`clustertubes.config.Frozen`,
so no module loads ``inspect`` or generates methods at import.  No
``.pyc`` need be cached for this to pay: where bytecode is not written,
every run compiles each module it loads.

A command that reads stdin exits 2 when the process started with stdin
closed, and every command does so when it started with stdout closed; the
``error:`` line names the stream.  An error line quotes an integer option
of more than 40 digits abbreviated (:func:`_int_arg`, ``_ECHO``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Sequence
from types import ModuleType

from .commands import _flush
from .config import _ECHO, CapExceeded


def _command(name: str) -> ModuleType:
    """The handler module of the command ``name``, imported only when that
    command runs."""
    return importlib.import_module(f"{__package__}.commands.{name}")


def _int_arg(text: str) -> int:
    """The ``type`` of every integer option: ``int(text)``, and for text
    that is no integer the message argparse writes for ``type=int``, with
    the text abbreviated (``_ECHO``)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_ECHO.repr(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustertubes",
        description="Exact combinatorics of torsion pairs in cluster tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form torsion pair counts")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--refined", action="store_true", help="full (k,l,m) table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=lambda args: _command("count").cmd_count(args))

    p = sub.add_parser("enumerate", help="stream every torsion pair as JSON lines")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(func=lambda args: _command("enumerate").cmd_enumerate(args))

    p = sub.add_parser("decompose", help="wing decomposition of finite halves")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--diagram", default=None,
                   help="diagram JSON (default: read JSON lines from stdin)")
    p.set_defaults(func=lambda args: _command("decompose").cmd_decompose(args))

    p = sub.add_parser("compose", help="rebuild finite halves from wing JSON")
    p.add_argument("--wings", default=None,
                   help="wing JSON (default: read JSON lines from stdin)")
    p.set_defaults(func=lambda args: _command("compose").cmd_compose(args))

    p = sub.add_parser("perp", help="perpendicular membership / bounded listing")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--diagram", default=None, help="diagram JSON (default: stdin)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--arc", type=_int_arg, nargs=2, metavar=("I", "J"))
    group.add_argument("--max-length", type=_int_arg)
    p.set_defaults(func=lambda args: _command("perp").cmd_perp(args))

    p = sub.add_parser("series", help="print generating function coefficients")
    p.add_argument("--order", type=_int_arg, default=8)
    p.add_argument("--kind", choices=("P", "torsion"), default="P")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=lambda args: _command("series").cmd_series(args))

    p = sub.add_parser("sieve", help="verify the cyclic sieving identities")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=lambda args: _command("sieve").cmd_sieve(args))

    p = sub.add_parser("orbits", help="count translation orbits of torsion pairs")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--refined", action="store_true")
    p.set_defaults(func=lambda args: _command("orbits").cmd_orbits(args))

    p = sub.add_parser("verify", help="cross-check enumeration, formulas and bijections")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(func=lambda args: _command("verify").cmd_verify(args))

    p = sub.add_parser("render", help="render a torsion pair to SVG")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--pair", required=True, help="path to a torsion-pair JSON file, or -")
    p.add_argument("--out", required=True, help="output SVG path, or -")
    p.set_defaults(func=lambda args: _command("render").cmd_render(args))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        _flush(sys.stdout)  # text written before: _write goes past the text layer
        code = args.func(args)
        _flush(sys.stdout)
        return code
    except BrokenPipeError:
        # The reader closed stdout (``enumerate | head``).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
