"""Reading the records of ``decompose``, ``compose``, ``perp`` and ``render``.

:mod:`clustertubes.records` describes the records and decodes them
(:func:`~clustertubes.records.read_record`); here they are taken from an
option or from stdin, and :func:`_read` keeps the order in which a
record's faults are named.  ``decompose`` and ``compose`` read stdin one
record per line (:func:`_records`), and a JSON error names its stream line.
A command that reads stdin exits 2 when the process started with stdin
closed.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator

from ..config import _ECHO, RECORD_RANK, CapExceeded


def _stdin():
    """``sys.stdin``, which is None when the process started with fd 0 closed."""
    if sys.stdin is None:
        raise OSError("stdin is closed")
    return sys.stdin


def _input_lines(arg: str | None) -> Iterator[tuple[int, str]]:
    """The record ``arg``, numbered 1, or with ``arg`` None or ``-`` each
    non-blank line of stdin with its line number (1-based, blank lines
    counted)."""
    if arg is None or arg == "-":
        for number, line in enumerate(_stdin(), 1):
            if line.strip():
                yield number, line
    else:
        yield 1, arg


def _records(arg: str | None, arcs: str) -> Iterator[dict]:
    """Each record of :func:`_input_lines`, decoded and checked by
    :func:`~clustertubes.records.read_record`.  A JSON error names the line of
    the stream the fault is on, where json names the line within the
    record; a record given by ``arg`` is all of the stream."""
    from json import JSONDecodeError

    from ..records import read_record

    for number, line in _input_lines(arg):
        try:
            data = read_record(line, arcs)
        except JSONDecodeError as exc:
            raise ValueError(f"{exc.msg}: line {number + exc.lineno - 1} "
                             f"column {exc.colno} (char {exc.pos})") from None
        yield data


def _check_side_and_cap(data: dict) -> None:
    """``finite_side``, when present, must be ``"left"`` or ``"right"``
    (ValueError, exit 2), and the rank at most ``RECORD_RANK``, as the
    commands take time and output growing with it (CapExceeded, exit 3)."""
    side = data.get("finite_side", "left")
    if side not in ("left", "right"):
        raise ValueError(f"key 'finite_side' must be 'left' or 'right', got {_ECHO.repr(side)}")
    if data["rank"] > RECORD_RANK:
        raise CapExceeded(f"record rank capped at {RECORD_RANK}, got {_ECHO.repr(data['rank'])}")


def _read(data: dict, walk: Callable, *args: object) -> object:
    """``walk(*args)``, the one walk that checks and reads the arc field of
    a record from :func:`~clustertubes.records.read_record`, then the record's
    last checks (:func:`_check_side_and_cap`).

    The walk type-checks each entry as it reads it, and raises TypeError for
    the first entry, in record order, that has the wrong type: an arc (an
    ``orbits`` entry, a pair's ``top`` or an entry of its ``arcs`` list) must
    be a pair of integers.  Its message names the path (``orbits[0]``,
    ``pairs[1].arcs[0]``).  Any other fault it finds raises ValueError.  So
    the order of the faults a record is named by is: a top-level fault, an
    entry of the wrong type, a bad ``finite_side``, a rank past the cap, a
    fault of the arcs themselves.
    """
    try:
        value = walk(*args)
    except ValueError:  # the side and the cap outrank the arcs' own faults
        _check_side_and_cap(data)
        raise
    _check_side_and_cap(data)
    return value


def _read_diagram(text: str, *required: str) -> tuple[dict, PeriodicDiagram]:
    """The record ``text``, holding ``orbits`` and the keys ``required``,
    and the diagram of its orbits, read through :func:`_read`: the reader
    of ``perp`` and ``render``."""
    from ..arcs import PeriodicDiagram
    from ..records import normalize_orbits, read_record

    data = read_record(text, "orbits", *required)
    n = data["rank"]
    orbits = _read(data, normalize_orbits, n, data["orbits"])
    # Canonical as read: read_record checked rank >= 1, and each orbit is normalized.
    return data, PeriodicDiagram._canonical(n, frozenset(orbits))
