"""``orbits``: the number of tau-orbits of torsion pairs at rank n, by the
Burnside formula and by the direct partition; exit 1 when they differ."""

from __future__ import annotations

import argparse
import itertools
import sys
from collections.abc import Iterable

from ..config import _ECHO, COUNT_RANK, REFINED_RANK, STRUCTURED_RANK, CapExceeded
from . import _csv_lines, _lift_int_digit_limit, _skipped, _write_blocks


def cmd_orbits(args: argparse.Namespace) -> int:
    from .. import sieving

    _lift_int_digit_limit()
    n = args.n
    limit = REFINED_RANK if args.refined else COUNT_RANK
    if n > limit:
        raise CapExceeded(f"orbit count capped at rank {limit}, got {_ECHO.repr(n)}")
    formula = sieving.orbit_count(n)
    direct: int | str = _skipped(n, "STRUCTURED_RANK", STRUCTURED_RANK)
    ok = True
    if n <= STRUCTURED_RANK:
        direct = sieving.orbit_count_direct(n)
        ok = formula == direct
    lines: Iterable[str] = [f"orbit count (Burnside formula): {formula}\n",
                            f"orbit count (direct partition): {direct}\n"]
    if args.refined:
        rows = sieving.orbit_count_refined(n)
        lines = itertools.chain(lines, _csv_lines("k,l,m,orbits", ((*klm, c) for klm, c in rows)))
    _write_blocks(lines)
    if not ok:
        print("orbits: formula and direct partition disagree", file=sys.stderr)
        return 1
    return 0
