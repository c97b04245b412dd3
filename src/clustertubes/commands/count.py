"""``count``: the closed-form count of torsion pairs at rank n, or with
``--refined`` the (k, l, m) rows, as text, CSV or JSON."""

from __future__ import annotations

import argparse

from ..config import _ECHO, COUNT_RANK, REFINED_RANK, CapExceeded
from . import _csv_lines, _json_line, _lift_int_digit_limit, _write_blocks


def cmd_count(args: argparse.Namespace) -> int:
    from .. import counting

    _lift_int_digit_limit()
    n = args.n
    limit = REFINED_RANK if args.refined else COUNT_RANK
    if n > limit:
        kind = "refined count table" if args.refined else "count"
        raise CapExceeded(f"{kind} capped at rank {limit}, got {_ECHO.repr(n)}")
    if args.refined:
        rows = counting.refined_rows(n)
        if args.format == "json":
            lines = [_json_line([{"n": n, "k": k, "l": l, "m": m, "count": c}
                                 for (k, l, m), c in rows])]
        else:
            lines = _csv_lines("n,k,l,m,count", ((n, *klm, c) for klm, c in rows))
    else:
        total = counting.torsion_count(n)
        if args.format == "json":
            lines = [_json_line({"n": n, "count": total})]
        elif args.format == "csv":
            lines = _csv_lines("n,count", [(n, total)])
        else:
            lines = [f"{total}\n"]
    _write_blocks(lines)
    return 0
