"""``sieve``: the cyclic sieving identities at rank n, one row per (d, k,
l, m); exit 1 on a mismatch."""

from __future__ import annotations

import argparse
import sys

from . import _csv_lines, _json_line, _write_blocks


def cmd_sieve(args: argparse.Namespace) -> int:
    from .. import sieving

    records = sieving.csp_verify(args.n)
    if args.format == "json":
        lines = [_json_line([r.to_dict() for r in records])]
    else:
        lines = _csv_lines("n,d,k,l,m,polyValue,fixedCount,match",
                           (r.to_dict().values() for r in records))
    _write_blocks(lines)
    bad = [r for r in records if not r.match]
    if bad:
        print(f"sieving: {len(bad)} mismatching record(s)", file=sys.stderr)
        return 1
    return 0
