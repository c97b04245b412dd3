"""``render``: a torsion pair record as an SVG strip of the
Auslander-Reiten quiver."""

from __future__ import annotations

import argparse

from ..config import _ECHO
from . import _write_blocks
from .reading import _read_diagram, _stdin


def cmd_render(args: argparse.Namespace) -> int:
    from .. import torsion
    from ..render import render_torsion_pair

    if args.pair == "-":
        text = _stdin().read()
    else:
        with open(args.pair, "r", encoding="utf-8") as fh:
            text = fh.read()
    data, diagram = _read_diagram(text, "finite_side")
    pair = torsion.TorsionPair(data["rank"], diagram, data["finite_side"])
    if args.n is not None and pair.rank != args.n:
        raise ValueError(f"pair rank {pair.rank} does not match --n {_ECHO.repr(args.n)}")
    if not torsion.is_finite_half(pair.finite_half):
        raise ValueError("the given half is not a finite torsion half")
    svg = render_torsion_pair(pair)
    if args.out == "-":
        _write_blocks([svg])
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0
