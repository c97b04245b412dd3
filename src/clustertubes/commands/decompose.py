"""``decompose``: the wing record of each diagram record, one per line,
written from plain-int keys by :mod:`clustertubes.records` with no diagram
or half built."""

from __future__ import annotations

import argparse
from collections.abc import Iterator

from ..config import _ECHO
from . import _write_blocks
from .reading import _read, _records


def cmd_decompose(args: argparse.Namespace) -> int:
    from .. import records

    def wings() -> Iterator[str]:
        for data in _records(args.diagram, "orbits"):
            n = data["rank"]
            keys = _read(data, records.arc_keys, n, data["orbits"])
            if args.n is not None and n != args.n:
                raise ValueError(f"diagram rank {n} does not match --n {_ECHO.repr(args.n)}")
            yield records.wings_json(n, *records._cut_spans(n, keys),
                                     data.get("finite_side")) + "\n"

    _write_blocks(wings())
    return 0
