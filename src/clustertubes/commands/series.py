"""``series``: the coefficients of the generating function P or of the
torsion series, up to an order."""

from __future__ import annotations

import argparse

from ..config import _ECHO, SERIES_ORDER, CapExceeded
from . import _json_line, _write_blocks


def cmd_series(args: argparse.Namespace) -> int:
    from ..series import series_P, series_torsion

    if args.order > SERIES_ORDER:
        raise CapExceeded(f"series order capped at {SERIES_ORDER}, got {_ECHO.repr(args.order)}")
    series = (series_P if args.kind == "P" else series_torsion)(args.order)
    if args.format == "json":
        rows = [{"degree": k, "coefficient": str(c)} for k, c in enumerate(series.coeffs)]
        lines = [_json_line({"series": args.kind, "coefficients": rows})]
    else:
        lines = (f"z^{k}: {c}\n" for k, c in enumerate(series.coeffs))
    _write_blocks(lines)
    return 0
