"""``compose``: the half record of each wing record, one per line, written
from plain-int keys by :mod:`clustertubes.records` with no piece or half
built."""

from __future__ import annotations

import argparse
from collections.abc import Iterator

from . import _write_blocks
from .reading import _read, _records


def cmd_compose(args: argparse.Namespace) -> int:
    from .. import records

    def halves() -> Iterator[str]:
        for data in _records(args.wings, "pairs"):
            n = data["rank"]
            orbits = records.half_orbits_json(n, _read(data, records._wing_spans, data))
            if "finite_side" in data:
                yield records.pair_json(n, data["finite_side"], orbits) + "\n"
            else:
                yield records.diagram_json(n, orbits) + "\n"

    _write_blocks(halves())
    return 0
