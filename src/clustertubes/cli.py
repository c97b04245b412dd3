"""Command-line surface: counting, enumeration, verification, rendering.

One binary, subcommand style.  All commands are deterministic for fixed
inputs; streams are one JSON record per line.  Exit codes: 0 success,
1 verification mismatch (a check that reads ``FAIL``; a check skipped at a
rank limit never sets it), 2 usage or malformed input, 3 a rank or order
limit exceeded, 141 stdout closed by its reader (128 + SIGPIPE, what a shell
reports for ``yes | head -1``; nothing is printed to stderr).

``enumerate``, ``decompose`` and ``compose`` stream records in bounded
memory and build no diagram, half, piece or pair: :mod:`clustertubes.records`
describes the records and writes each from plain-int keys, and :func:`_read`
keeps the order in which a record's faults are named.  Those commands load
no other package module, but ``enumerate`` reads the grammar walk of
:mod:`clustertubes.polygons`.  ``decompose`` and ``compose`` read stdin one
record per line (:func:`_records`), and a JSON error names its stream line.

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
pipe refused, and :func:`main`'s last flush waits likewise; ``print``
writes stderr alone.

A command loads only the modules it runs, of the package and of the
standard library.  This module imports :mod:`clustertubes.config` and a few
standard modules alone, and each ``cmd_*`` imports its own package modules
once, at its top, never per record.  So ``count`` loads
:mod:`clustertubes.counting` and nothing else of the package, and
``series`` :mod:`clustertubes.series`.  ``sieve`` and ``orbits`` read
:mod:`clustertubes.sieving`, which walks the grammar through
:mod:`clustertubes.polygons` and loads neither the halves
(:mod:`clustertubes.torsion`) nor the arc calculus; ``sieve`` alone adds
the q-polynomials.  ``json`` loads only where JSON
input is decoded (the record commands) and in :func:`_json_line`, the
JSON of ``count``, ``series`` and ``sieve`` with ``--format json`` and
of ``perp --arc``; ``fractions`` loads only in root isolation, which no
command runs.  The value classes are slotted classes on
:class:`clustertubes.config.Frozen`, so no module loads ``inspect`` or
generates methods at import.  No ``.pyc`` need be cached for this to pay:
where bytecode is not written, every run compiles each module it loads.

A command that reads stdin exits 2 when the process started with stdin
closed, and every command does so when it started with stdout closed; the
``error:`` line names the stream.  An error line quotes an integer option
of more than 40 digits abbreviated (:func:`_int_arg`, ``_ECHO``).
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from .config import _ECHO, BRUTE_RANK, COUNT_RANK, PERP_ORBITS, REFINED_RANK, SERIES_ORDER
from .config import RECORD_RANK, STRUCTURED_RANK, CapExceeded


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

    from .records import read_record

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


def _lift_int_digit_limit() -> None:
    """Let ``count`` and ``orbits`` print their exact counts, which outgrow
    CPython's 4,300-digit int/str limit (``T(5200)`` has 4,343 digits).
    Every other command keeps the limit, so a record holding a longer
    integer fails at once instead of parsing in quadratic time.  The
    function exists from Python 3.10.7 on."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def cmd_count(args: argparse.Namespace) -> int:
    from . import counting

    _lift_int_digit_limit()
    n = args.n
    limit = REFINED_RANK if args.refined else COUNT_RANK
    if n > limit:
        kind = "refined count table" if args.refined else "count"
        raise CapExceeded(f"{kind} capped at rank {limit}, got {_ECHO.repr(n)}")
    if args.refined:
        table = counting.refined_table(n)
        if args.format == "json":
            lines = [_json_line([{"n": n, "k": k, "l": l, "m": m, "count": c}
                                 for (k, l, m), c in table.items()])]
        else:
            lines = _csv_lines("n,k,l,m,count", ((n, *klm, c) for klm, c in table.items()))
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


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import records

    # One item per half: its two records, which differ only in the side and
    # are fixed per rank but for the orbits text, so that text joins the
    # three fixed parts in C (a generator per half costs 3% of the stream).
    n = args.n
    left, right = (records.pair_json(n, side, "")[:-1] for side in ("left", "right"))
    parts = itertools.repeat((left, "}\n" + right, "}\n"))
    _write_blocks(map(str.join, records.iter_orbits_json(n), parts))  # arcs checked there
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from . import records

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


def cmd_compose(args: argparse.Namespace) -> int:
    from . import records

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


def _read_diagram(text: str, *required: str) -> tuple[dict, PeriodicDiagram]:
    """The record ``text``, holding ``orbits`` and the keys ``required``,
    and the diagram of its orbits, read through :func:`_read`: the reader
    of ``perp`` and ``render``."""
    from .arcs import PeriodicDiagram
    from .records import normalize_orbits, read_record

    data = read_record(text, "orbits", *required)
    n = data["rank"]
    orbits = _read(data, normalize_orbits, n, data["orbits"])
    # Canonical as read: read_record checked rank >= 1, and each orbit is normalized.
    return data, PeriodicDiagram._canonical(n, frozenset(orbits))


def cmd_perp(args: argparse.Namespace) -> int:
    from . import torsion

    _, line = next(_input_lines(args.diagram), (None, None))
    if line is None:
        raise ValueError("missing diagram record on stdin")
    _, diagram = _read_diagram(line)
    if args.n is not None and diagram.rank != args.n:
        raise ValueError(f"diagram rank {diagram.rank} does not match --n {_ECHO.repr(args.n)}")
    if args.arc is not None:
        arc = (args.arc[0], args.arc[1])
        line = _json_line({"arc": list(arc), "in_perp": torsion.perp_contains(diagram, arc)})
    else:
        orbits = diagram.rank * (args.max_length - 1)
        if orbits > PERP_ORBITS:
            raise CapExceeded(f"perp listing capped at {PERP_ORBITS} orbits "
                              f"(rank x (max length - 1)), got {_ECHO.repr(orbits)}")
        line = torsion.perp_enumerate(diagram, args.max_length).to_json() + "\n"
    _write_blocks([line])
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    from .series import series_P, series_torsion

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


def cmd_sieve(args: argparse.Namespace) -> int:
    from . import sieving

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


def _skipped(n: int, name: str, limit: int) -> str:
    """The verdict of a check whose route stops at the limit ``name``."""
    return f"skipped (rank {n} > {name} = {limit})"


def cmd_orbits(args: argparse.Namespace) -> int:
    from . import sieving

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
        table = sieving.orbit_count_refined(n).items()
        lines = itertools.chain(lines, _csv_lines("k,l,m,orbits", ((*klm, c) for klm, c in table)))
    _write_blocks(lines)
    if not ok:
        print("orbits: formula and direct partition disagree", file=sys.stderr)
        return 1
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import torsion
    from .render import render_torsion_pair

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


def cmd_verify(args: argparse.Namespace) -> int:
    from collections import Counter

    from . import counting, sieving, torsion
    from .arcs import PeriodicDiagram
    from .series import series_torsion

    n = args.n
    if n > REFINED_RANK:  # it builds refined_table(n)
        raise CapExceeded(f"verify capped at rank {REFINED_RANK}, got {_ECHO.repr(n)}")
    # A verdict is True (pass), False (FAIL) or the reason a check was skipped.
    checks: list[tuple[str, bool | str]] = []
    formula = counting.torsion_count(n)
    refined = counting.refined_table(n)
    checks.append(("2 * |structured| == closed formula",
                   2 * torsion.count_structured(n) == formula))
    brute: bool | str = _skipped(n, "BRUTE_RANK", BRUTE_RANK)
    if n <= BRUTE_RANK:
        brute = Counter(torsion.enumerate_brute(n)) == Counter(torsion.iter_structured(n))
    checks.append(("brute == structured (as sets)", brute))
    checks.append(("refined formula sums to total", sum(refined.values()) == formula))

    # The round trips take every half up to rank 6 and 1000 samples beyond.
    exhaustive = n <= 6
    pool = torsion.iter_structured(n) if exhaustive else torsion.sample_halves(n, 1000, seed=n)

    def round_trips_hold(X: PeriodicDiagram) -> bool:
        wings = torsion.decompose(X)  # once, for both round trips
        return (torsion.compose(wings) == X
                and torsion.from_pointed_cycle(wings.pointed_cycle(), n) == X)

    label = "decompose/compose and pointed-cycle round trips"
    if not exhaustive:
        label += " (sampled)"
    checks.append((label, all(round_trips_hold(X) for X in pool)))

    skipped = _skipped(n, "STRUCTURED_RANK", STRUCTURED_RANK)
    histogram: bool | str = _skipped(n, "SERIES_ORDER", SERIES_ORDER)
    burnside: bool | str = skipped
    readings = [f"translation-invariance readings: {skipped}"]
    if n <= STRUCTURED_RANK:
        fixed = sieving.fixed_histograms(n)  # fixed[n] is series_torsion(n)'s z^n coefficient
        histogram = dict(fixed[n]) == refined
        burnside = sieving.orbit_count(n) == sum(sieving.orbits_from_fixed(fixed).values())
        readings = ["translation-invariance readings (count of tau^d-invariant pairs):",
                    "d,enumerated,count_at_rank_d,count_at_rank_n/d"]
        for d in sieving._divisors(n):
            enumerated = sum(fixed[d].values())
            readings.append(f"{d},{enumerated},{counting.torsion_count(d)},"
                            f"{counting.torsion_count(n // d)}")
    elif n <= SERIES_ORDER:
        histogram = dict(series_torsion(n).coeffs[n].terms) == refined
    checks.append(("refined series coefficients == refined formula", histogram))
    checks.append(("Burnside orbit count == direct partition", burnside))

    width = max(len(label) for label, _ in checks)
    lines = []
    for label, verdict in checks:
        if isinstance(verdict, bool):
            verdict = "pass" if verdict else "FAIL"
        lines.append(f"{label:<{width}}  {verdict}\n")
    _write_blocks([*lines, "\n" + "\n".join(readings) + "\n"])
    return 1 if any(verdict is False for _, verdict in checks) else 0


def _int_arg(text: str) -> int:
    """The ``type`` of every integer option: ``int(text)``, and for text
    that is no integer the message argparse writes for ``type=int``, with
    the text abbreviated (``_ECHO``)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_ECHO.repr(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustertubes",
        description="Exact combinatorics of torsion pairs in cluster tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form torsion pair counts")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--refined", action="store_true", help="full (k,l,m) table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream every torsion pair as JSON lines")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="wing decomposition of finite halves")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--diagram", default=None,
                   help="diagram JSON (default: read JSON lines from stdin)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("compose", help="rebuild finite halves from wing JSON")
    p.add_argument("--wings", default=None,
                   help="wing JSON (default: read JSON lines from stdin)")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("perp", help="perpendicular membership / bounded listing")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--diagram", default=None, help="diagram JSON (default: stdin)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--arc", type=_int_arg, nargs=2, metavar=("I", "J"))
    group.add_argument("--max-length", type=_int_arg)
    p.set_defaults(func=cmd_perp)

    p = sub.add_parser("series", help="print generating function coefficients")
    p.add_argument("--order", type=_int_arg, default=8)
    p.add_argument("--kind", choices=("P", "torsion"), default="P")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("sieve", help="verify the cyclic sieving identities")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("orbits", help="count translation orbits of torsion pairs")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--refined", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="cross-check enumeration, formulas and bijections")
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a torsion pair to SVG")
    p.add_argument("--n", type=_int_arg, default=None)
    p.add_argument("--pair", required=True, help="path to a torsion-pair JSON file, or -")
    p.add_argument("--out", required=True, help="output SVG path, or -")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        _flush(sys.stdout)  # text written before: _write goes past the text layer
        code = args.func(args)
        _flush(sys.stdout)
        return code
    except BrokenPipeError:
        # The reader closed stdout (``enumerate | head``).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
