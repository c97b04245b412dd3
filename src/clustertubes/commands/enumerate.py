"""``enumerate``: every torsion pair at rank n, streamed as two JSON
records per finite half, from the grammar walk of
:mod:`clustertubes.polygons` through :mod:`clustertubes.records`, in
bounded memory and building no diagram, half, piece or pair."""

from __future__ import annotations

import argparse
import itertools

from . import _write_blocks


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .. import records

    # One item per half: its two records, which differ only in the side and
    # are fixed per rank but for the orbits text, so that text joins the
    # three fixed parts in C (a generator per half costs 3% of the stream).
    n = args.n
    left, right = (records.pair_json(n, side, "")[:-1] for side in ("left", "right"))
    parts = itertools.repeat((left, "}\n" + right, "}\n"))
    _write_blocks(map(str.join, records.iter_orbits_json(n), parts))  # arcs checked there
    return 0
