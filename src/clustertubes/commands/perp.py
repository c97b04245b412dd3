"""``perp``: whether an arc lies in the perpendicular of a diagram, or
the perpendicular's orbits up to a length."""

from __future__ import annotations

import argparse

from ..config import _ECHO, PERP_ORBITS, CapExceeded
from . import _json_line, _write_blocks
from .reading import _input_lines, _read_diagram


def cmd_perp(args: argparse.Namespace) -> int:
    from .. import torsion

    _, line = next(_input_lines(args.diagram), (None, None))
    if line is None:
        raise ValueError("missing diagram record on stdin")
    _, diagram = _read_diagram(line)
    if args.n is not None and diagram.rank != args.n:
        raise ValueError(f"diagram rank {diagram.rank} does not match --n {_ECHO.repr(args.n)}")
    if args.arc is not None:
        arc = (args.arc[0], args.arc[1])
        line = _json_line({"arc": list(arc), "in_perp": torsion.perp_contains(diagram, arc)})
    else:
        orbits = diagram.rank * (args.max_length - 1)
        if orbits > PERP_ORBITS:
            raise CapExceeded(f"perp listing capped at {PERP_ORBITS} orbits "
                              f"(rank x (max length - 1)), got {_ECHO.repr(orbits)}")
        line = torsion.perp_enumerate(diagram, args.max_length).to_json() + "\n"
    _write_blocks([line])
    return 0
