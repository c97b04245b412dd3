"""The command handlers, one module per subcommand, and the stdout writer
they share.

:func:`clustertubes.cli.main` imports a command's module only when that
command runs, so a run compiles and loads the handler it calls and no
other.  Each module holds its ``cmd_*`` function and the helpers only it
uses; :mod:`clustertubes.commands.reading` holds the record readers of
``decompose``, ``compose``, ``perp`` and ``render``, and this module the
writer and the small table formats.  No handler imports
:mod:`clustertubes.cli`: under ``python -m clustertubes.cli`` that module
runs as ``__main__``, so importing it would compile and run it a second
time.

Every command writes all its stdout (a stream's records, a table's rows
or one document) in one call of :func:`_write_blocks`: whole lines, in
blocks of at most PIPE_BUF (4,096) bytes, each written once the next line
would take it past that; a longer line is written alone.  So a reader
that waits for one reply per record gets the replies in blocks, as under
Python's default buffering.  When a record faults, the block so far is
written before the ``error:`` line, so every record before the fault
reaches stdout.  Each block goes through :func:`_write`, which writes on
until every byte is out, buffered or not, where stdout's text layer would
drop the rest of a write that a signal cut short or a full non-blocking
pipe refused, and ``main``'s last flush (:func:`_flush`) waits likewise;
``print`` writes stderr alone.
"""

from __future__ import annotations

import io
import sys
from collections.abc import Iterable, Iterator


def _lift_int_digit_limit() -> None:
    """Let ``count`` and ``orbits`` print their exact counts, which outgrow
    CPython's 4,300-digit int/str limit (``T(5200)`` has 4,343 digits).
    Every other command keeps the limit, so a record holding a longer
    integer fails at once instead of parsing in quadratic time.  The
    function exists from Python 3.10.7 on."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _json_line(value: object) -> str:
    """``value`` as one line of compact JSON: the ``--format json`` output
    of ``count``, ``series`` and ``sieve``, and the verdict of ``perp --arc``."""
    import json

    return json.dumps(value, separators=(",", ":")) + "\n"


def _csv_lines(header: str, rows: Iterable[Iterable[object]]) -> Iterator[str]:
    """The lines of a CSV table: ``header``, then each row's fields joined
    by commas."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _skipped(n: int, name: str, limit: int) -> str:
    """The verdict of a check whose route stops at the limit ``name``."""
    return f"skipped (rank {n} > {name} = {limit})"


_WRITE_BLOCK = 4096  # PIPE_BUF on Linux: a pipe write this long is never split


def _write(text: str) -> None:
    """Write ``text`` to stdout, every byte of it; only :func:`_write_blocks`
    calls it, and nothing else writes stdout.

    Stdout's text layer ignores the count a write returns.  With
    ``PYTHONUNBUFFERED`` set it writes straight to a raw file
    (:class:`io.FileIO`), so a pipe write longer than PIPE_BUF that a signal
    cuts short (a stop and continue, say), or a write to a full non-blocking
    pipe, would lose the rest, with exit 0.  Under default buffering a full
    non-blocking pipe makes its :class:`io.BufferedWriter` raise, having
    taken only part of the text, and the text layer drops the rest.  So over
    either the text is encoded here and handed on until none is left,
    waiting while the pipe is full: one call when nothing refuses, the
    writes the text layer would make.  A line-buffered stdout (a terminal)
    is flushed after each text, as its text layer does."""
    out = sys.stdout
    layer = getattr(out, "buffer", None)
    if not isinstance(layer, (io.FileIO, io.BufferedWriter)):
        out.write(text)
        return
    view = memoryview(text.encode(out.encoding, out.errors))
    while view:
        try:
            written = layer.write(view)
        except BlockingIOError as full:  # the buffer took this much and is full
            written = full.characters_written
            _wait(layer)
        if written is None:  # a full raw file takes nothing
            _wait(layer)
        else:
            view = view[written:]
    if out.line_buffering:
        _flush(out)


def _wait(stream: io.IOBase) -> None:
    """Wait until the full non-blocking pipe behind ``stream`` drains."""
    import select

    select.select([], [stream], [])


def _flush(stream: io.IOBase) -> None:
    """Flush ``stream``, waiting while a non-blocking pipe is full: a
    buffered writer keeps what the pipe refused, and the next flush writes
    it."""
    while True:
        try:
            return stream.flush()
        except BlockingIOError:
            _wait(stream)


def _write_blocks(items: Iterable[str]) -> None:
    """Write ``items``, each ending in a newline, to stdout in blocks: each
    item whole, a block of at most ``_WRITE_BLOCK`` bytes (an item longer
    than that alone), and a block written once the next item would take it
    past that; each command calls it once, with all its stdout.  The greedy
    rule makes few writes, each of whole lines: with ``PYTHONUNBUFFERED``
    set a print is two writes, 537,612 for the records of ``enumerate --n
    8`` and 292,602 for the rows of ``count --n 150 --refined``, where the
    blocks are 5,834 and 4,096.  Items are ASCII, so a length is a byte
    count.  When ``items`` raises, the block so far is written first: every
    item before the fault reaches stdout."""
    block, size = [], 0
    try:
        for item in items:
            if size + len(item) > _WRITE_BLOCK and size:
                text, block, size = "".join(block), [], 0
                _write(text)
            block.append(item)
            size += len(item)
    finally:
        if block:
            _write("".join(block))
