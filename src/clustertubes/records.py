"""The JSON records the command line reads and writes, and their integer keys.

Three records carry the paper's objects, one per line in a stream, each
compact JSON text byte-identical to ``json.dumps(..., separators=(",",
":"))`` but built with f-strings: a *diagram* ``{"rank":n,"orbits":[[i,j],
...]}``, each orbit by its canonical representative (``0 <= i < n``),
sorted by (length, left endpoint); a *torsion pair* ``{"rank":n,
"finite_side":"left"|"right","orbits":[...]}``; and a *wing decomposition*
``{"rank":n,"pairs":[{"top":[c,d],"arcs":[[a,b],...]},...]}``, one pair per
span between consecutive cuts, in cut order, a wider span listing its arcs
sorted, top arc included, in absolute coordinates, and a unit span none
(``"finite_side"``, when given, follows ``rank``).

:func:`read_record` decodes an input record and checks its top level, and
one walk per record checks and reads its arcs: :func:`normalize_orbits`
(``perp``, ``render``), :func:`arc_keys` (``decompose``) and
:func:`_wing_spans` (``compose``, :func:`read_wings`).  The walks lay arcs
as plain ints, in two layouts of the low-field width w of
:func:`key_width`:

* an *arc key* ``i << w | j`` sorts as ``(i, j)``: :func:`_cut_spans`
  sweeps and splits them at the cuts, and :func:`wings_json` writes them;
* an *orbit key* ``(j - i) << w | i``, i canonical, sorts as
  :meth:`~clustertubes.arcs.PeriodicDiagram.sorted_orbits`:
  :func:`_wing_spans` lays them, and :func:`half_orbits_json` writes them.

w is the same for every rank up to ``RECORD_RANK``, so each writer joins
its texts from one table kept across records, bounded by ``TEXT_ENTRIES``.
The ``enumerate`` stream (:func:`iter_orbits_json`) keys its orbits per rank
instead, as ``(j - i) n + i``, one byte each, through one ``bytes.translate``
table per cut, and writes one cut mask at a time with no Python loop per
arc.  The writers share no code with
:meth:`~clustertubes.arcs.PeriodicDiagram.orbits_json` or
:func:`~clustertubes.torsion.enumerate_brute`, which the tests check them
against, so this module loads neither :mod:`clustertubes.arcs` nor
:mod:`clustertubes.torsion`, and :mod:`clustertubes.polygons` only inside
the functions that read it.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left, insort
from operator import and_
from typing import AbstractSet, Iterable, Iterator, NoReturn, Sequence

from .config import _ECHO, RECORD_RANK, TEXT_ENTRIES


def check_arc(pair: tuple[int, int]) -> tuple[int, int]:
    i, j = pair
    if j - i < 2:
        raise ValueError(f"not an arc (length {_ECHO.repr(j - i)} < 2): {_ECHO.repr(pair)}")
    return (i, j)


def is_int_pair(value: object) -> bool:
    """Is ``value`` a pair (list or tuple) of integers?  JSON decodes to
    exactly ``list`` and ``int``, so exact type checks cost little and keep
    bools out."""
    return (type(value) in (list, tuple) and len(value) == 2
            and type(value[0]) is int is type(value[1]))


def read_record(line: str, arcs: str, *required: str) -> dict:
    """Decode one JSON input record and check its top level.

    The record must be an object holding ``rank``, the arc field ``arcs``
    (``"orbits"`` or ``"pairs"``) and every key in ``required``.  ``rank``
    must be an integer and not a bool, and at least 1, as every reader
    divides by it; the arc field must be a list.  Every failure is a
    ValueError (malformed JSON raises json's JSONDecodeError, which is
    one; an integer longer than the interpreter's int/str digit limit
    raises one that names the limit), and a fault of a key names the key.
    A value quoted in a message is abbreviated past a few levels or dozens
    of characters (``_ECHO``).
    """
    import json

    try:
        data = json.loads(line)
    except RecursionError:  # json's C decoder recurses once per nesting level
        raise ValueError("record nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ValueError(f"record holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("rank", arcs, *required):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(data["rank"], int) or isinstance(data["rank"], bool):
        raise ValueError(f"key 'rank' must be an integer, got {type(data['rank']).__name__}")
    if data["rank"] < 1:
        raise ValueError(f"key 'rank' must be >= 1, got {_ECHO.repr(data['rank'])}")
    if not isinstance(data[arcs], list):
        raise ValueError(f"key {arcs!r} must be a list, got {type(data[arcs]).__name__}")
    return data


def _not_an_arc() -> NoReturn:
    raise ValueError("not an arc")


def _name_the_fault(arcs: list) -> None:
    """Raise for the first faulty entry of a record's ``orbits`` list: the
    first entry that is no pair of integers (:func:`is_int_pair`) raises
    TypeError, named ``orbits[t]`` as in a record; else the first arc
    shorter than 2 raises :func:`check_arc`'s ValueError."""
    for t, arc in enumerate(arcs):
        if not is_int_pair(arc):
            raise TypeError(f"orbits[{t}] must be a pair of integers, "
                            f"got {_ECHO.repr(arc)}") from None
    for arc in arcs:
        check_arc(tuple(arc))


def normalize_orbits(rank: int, arcs: Iterable) -> set[tuple[int, int]]:
    """The canonical orbits (left endpoint taken mod the rank) of ``arcs``
    at rank ``rank >= 1``, each a pair of integers at any shift: the reader
    of a record's ``orbits`` list for the ``perp`` and ``render`` commands.

    One pass type-checks each arc, checks its length and normalizes it.
    When an arc fails, the arcs are checked again in order to name the
    first fault (:func:`_name_the_fault`).
    :meth:`~clustertubes.arcs.PeriodicDiagram.from_arcs`, the library's
    constructor, checks lengths alone and takes integer-like ends too.
    """
    if type(arcs) is not list:  # the second pass must see every arc
        arcs = list(arcs)
    try:
        # An entry that does not unpack into two raises here; one whose ends
        # are not both ints, or that is shorter than 2, raises in the test.
        return {((r := i % rank), r + (j - i)) for i, j in arcs
                if type(i) is int is type(j) and j - i >= 2 or _not_an_arc()}
    except (TypeError, ValueError):
        _name_the_fault(arcs)
        raise


_RECORD_WIDTH = (2 * RECORD_RANK).bit_length()  # 10 bits: 2n <= 1000 < 1024


def key_width(n: int) -> int:
    """The width in bits of the low field of an integer arc or orbit key at
    rank n: wide enough for 2n, as the ``decompose`` walk keeps arcs of
    length at most n + 1 with ``0 <= i < 2n`` and ``j <= 2n``, and never
    narrower than at ``RECORD_RANK``."""
    return _RECORD_WIDTH if n <= RECORD_RANK else (2 * n).bit_length()


def arc_keys(rank: int, arcs: list) -> set[int]:
    """The arc keys of the canonical orbits of the ``arcs`` listed at rank
    ``rank >= 1``, each a pair of integers at any shift: the reader of a
    record's ``orbits`` list for the ``decompose`` command.

    One pass type-checks each arc, checks its length and lays it.  When an
    arc fails, the arcs are checked again in order to name the first fault
    (:func:`_name_the_fault`).  If none is found, some arc is longer than
    the rank.  Such an arc overarches every vertex, as one of length
    ``rank + 1`` does, so each is laid at that length: the key fits, and the
    walk finds no cut and says so after the record's other checks.
    """
    w = key_width(rank)
    try:
        return {(r := i % rank) << w | r + (j - i) for i, j in arcs
                if type(i) is int is type(j) and 2 <= j - i <= rank or _not_an_arc()}
    except (TypeError, ValueError):
        _name_the_fault(arcs)
    return {(r := i % rank) << w | r + min(j - i, rank + 1) for i, j in arcs}


class _Texts(dict):
    """A table of the compact JSON texts ``[i,j]`` of arcs by their integer
    keys of width ``width``.  A text is made on first use and kept while
    the table holds fewer than ``TEXT_ENTRIES``, so the table stays bounded
    whatever the input; a key it no longer takes is formatted on every use."""

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, key: int) -> str:
        text = self.text(key)
        if len(self) < TEXT_ENTRIES:
            self[key] = text
        return text

    def at(self, width: int) -> "_Texts":
        """This table if its keys are ``width`` bits wide, else a new one."""
        return self if width == self.width else type(self)(width)


class _ArcTexts(_Texts):
    """The texts of arcs ``(i, j)`` by their arc keys ``i << width | j``."""

    __slots__ = ()

    def text(self, key: int) -> str:
        return f"[{key >> self.width},{key & ((1 << self.width) - 1)}]"


class _OrbitTexts(_Texts):
    """The texts of canonical orbits ``(i, j)`` by their orbit keys
    ``(j - i) << width | i``."""

    __slots__ = ()

    def text(self, key: int) -> str:
        i = key & ((1 << self.width) - 1)
        return f"[{i},{i + (key >> self.width)}]"


# An arc's text does not depend on the rank, so one table of each kind serves
# every record: the keys of every rank up to RECORD_RANK have one width.
_ORBIT_TEXTS = _OrbitTexts(key_width(RECORD_RANK))
_ARC_TEXTS = _ArcTexts(key_width(RECORD_RANK))


def diagram_json(rank: int, orbits_text: str) -> str:
    """The diagram record of a rank-``rank`` diagram whose ``orbits`` text is
    ``orbits_text`` (:meth:`~clustertubes.arcs.PeriodicDiagram.orbits_json`)."""
    return f'{{"rank":{rank},"orbits":{orbits_text}}}'


def pair_json(rank: int, side: str, orbits_text: str) -> str:
    """The torsion-pair record of a half whose ``orbits`` text is
    ``orbits_text``, with ``side`` ``"left"`` or ``"right"``."""
    return f'{{"rank":{rank},"finite_side":"{side}","orbits":{orbits_text}}}'


def half_orbits_json(n: int, keys: Iterable[int]) -> str:
    """The orbits with these orbit keys, orbits of a rank-n finite half,
    deduplicated and sorted, as the ``orbits`` text of a record.

    One set dedups the keys, a plain int sort orders the orbits, and each
    text comes from the bounded table :data:`_ORBIT_TEXTS`.  An orbit longer
    than n, which no finite half has, raises ValueError.
    """
    w = key_width(n)
    keys = sorted(set(keys))
    if keys and keys[-1] >= (n + 1) << w:
        raise ValueError("a finite half has arcs of length at most the rank")
    return "[" + ",".join(map(_ORBIT_TEXTS.at(w).__getitem__, keys)) + "]"


def wings_json(rank: int, cuts: Sequence[int], arcs: list[int], bounds: list[int],
               finite_side: str | None = None) -> str:
    """The wing record of the spans of :func:`_cut_spans`: the span at
    ``cuts[t]`` reaches the next cut (the last wraps to the first plus the
    rank), and its arcs have the sorted arc keys
    ``arcs[bounds[t]:bounds[t + 1]]``.  The one writer of wing records; the
    texts of all the arcs come at once from :data:`_ARC_TEXTS`, and each
    span joins its share of them."""
    if finite_side not in (None, "left", "right"):
        raise ValueError(f"finite_side must be 'left' or 'right', got {finite_side!r}")
    texts = list(map(_ARC_TEXTS.at(key_width(rank)).__getitem__, arcs))
    ends = [*cuts[1:], cuts[0] + rank]
    pairs = ",".join([f'{{"top":[{c},{d}],"arcs":[{",".join(texts[a:b])}]}}'
                      for c, d, a, b in zip(cuts, ends, bounds, bounds[1:])])
    side = "" if finite_side is None else f'"finite_side":"{finite_side}",'
    return f'{{"rank":{rank},{side}"pairs":[{pairs}]}}'


def spans_json(rank: int, cuts: Sequence[int], spans: Sequence[tuple],
               finite_side: str | None = None) -> str:
    """:func:`wings_json` of the spans at ``cuts`` with these diagonals, each
    relative to its span's left end."""
    w = key_width(rank)
    arcs, bounds = [], [0]
    for c, d, diagonals in zip(cuts, [*cuts[1:], cuts[0] + rank], spans):
        if d - c >= 2:  # the diagonals are sorted, and so are their shifts
            keys = [(c + a) << w | c + b for a, b in diagonals]
            insort(keys, c << w | d)
            arcs += keys
        bounds.append(len(arcs))
    return wings_json(rank, cuts, arcs, bounds, finite_side)


_CHUNK = 256  # the halves of a mask whose texts one list holds at a time


def iter_orbits_json(n: int) -> Iterator[str]:
    """The ``orbits`` text of every finite half at rank n, in the grammar
    order of :func:`~clustertubes.torsion.iter_structured`.

    The stream walks the cut masks of
    :func:`~clustertubes.polygons._cut_masks` and reads each span ``(c,
    d)``'s pieces from :func:`~clustertubes.polygons._diagonal_table` of
    width ``d - c``, each a ``bytes`` of diagonal codes ``a << 4 | b``, so
    no polygon diagram is built.  A canonical orbit ``(i, j)`` is laid as
    the integer key ``(j - i) n + i``, so ascending keys are
    ``sorted_orbits()`` order (length, then left endpoint), and a half's
    text is joined from a table of the ``n (n + 1)`` orbits of length at
    most n.  That is at most 90 keys at ``STRUCTURED_RANK`` = 9, so a key
    fits a byte: one 256-byte table per cut c, built once per rank, maps
    the code of a diagonal ``(a, b)`` of the span at c to its key
    ``(b - a) n + (c + a) mod n``, and ``bytes.translate`` lays a whole
    piece at once.

    A mask with one span of width >= 2 (a wide span) translates each piece
    through its cut's table, sorts the keys and appends the top arc, the
    half's longest orbit, last.  A mask with more wide spans, each at most
    ``n - 2`` wide and so with a short table, translates each wide span's
    pieces once, top key first, and sorts the joined keys of each product
    element.  Either walks its
    pieces in chunks of ``_CHUNK`` halves, so no table is copied and no more
    than a chunk of texts is held.  A span wider than the rank would lay an
    arc longer than the rank, which no finite half has: the mask raises
    ValueError before its first text, the check
    :class:`~clustertubes.torsion.TorsionPair` would make.
    """
    from .polygons import _check_rank, _cut_masks, _diagonal_table

    _check_rank(n)
    text = [f"[{(i := k % n)},{i + k // n}]" for k in range(n * (n + 1))].__getitem__
    rot = []
    for c in range(n):
        table = bytearray(256)
        for b in range(n + 1):
            for a in range(b - 1):
                table[a << 4 | b] = (b - a) * n + (c + a) % n
        rot.append(bytes(table))
    for cuts, ends in _cut_masks(n):
        wide = [(c, d) for c, d in zip(cuts, ends) if d - c >= 2]
        if any(d - c > n for c, d in wide):
            raise ValueError("a finite half has arcs of length at most the rank")
        if len(wide) == 1:
            (c, d), = wide
            keys, top = rot[c], text((d - c) * n + c)
            pieces = iter(_diagonal_table(d - c))
            while texts := [f"[{','.join(map(text, sorted(D.translate(keys))))},{top}]" if D
                            else f"[{top}]" for D in itertools.islice(pieces, _CHUNK)]:
                yield from texts
        else:
            halves = itertools.product(*[
                [bytes([(d - c) * n + c]) + D.translate(rot[c]) for D in _diagonal_table(d - c)]
                for c, d in wide])
            while texts := ["[" + ",".join(map(text, sorted(b"".join(p)))) + "]"
                            for p in itertools.islice(halves, _CHUNK)]:
                yield from texts


def read_wings(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The rank of a wing record and the canonical orbits of its arcs, top
    arcs included and duplicates kept, once :func:`read_record` has checked
    its top level and :func:`_wing_spans` its pairs."""
    data = read_record(text, "pairs")
    n = data["rank"]
    w = key_width(n)
    low = (1 << w) - 1
    return n, [((i := k & low), i + (k >> w)) for k in _wing_spans(data)]


def _wing_spans(data: dict) -> list[int]:
    """The orbit keys of the arcs of a decoded wing record, top arcs
    included and duplicates kept, pair by pair in the order written; a unit
    span contributes none.

    The one reader of wing records, for :func:`read_wings` and the
    ``compose`` command, and the one walk over their pairs and arcs.  The
    record must hold an integer ``rank`` >= 1 and a list ``pairs``
    (:func:`read_record` checks them).  Each field is
    type-checked where the walk reads it: a pair must be an object whose
    ``top`` is an arc and whose ``arcs`` is a list of arcs, an arc being a
    pair of integers.  When the walk fails, :func:`_check_wing_fields`
    first names the first field of the wrong type in record order, as
    TypeError.  Otherwise it raises ValueError unless the record is a wing
    decomposition: every pair of width >= 2 lists its top arc, every other
    arc lies inside its span with length >= 2, a unit span lists no arc but
    its top, every width is at least 1, and the cuts (the tops' left ends
    mod the rank) are at least one, distinct and tile the rank, each span
    reaching the next cut.  So no arc is longer than the rank.  A value
    quoted in a message is abbreviated past dozens of characters
    (``_ECHO``).  The pairs are walked first, then every arc of the wider
    spans in one pass that checks it against its span and lays its key; a
    fault is still named in record order.
    """
    n = data["rank"]
    w = key_width(n)
    spans, wide = [], []
    try:
        try:
            for pair in data["pairs"]:
                top, arcs = pair["top"], pair["arcs"]
                c, d = top
                if not (type(c) is int is type(d) and type(arcs) is list):
                    raise TypeError  # named by _check_wing_fields
                g = d - c
                if g >= 2:
                    if top not in arcs:  # an equal pair before this one failed first
                        raise ValueError(f"pairs[{data['pairs'].index(pair)}] omits its top arc "
                                         f"[{_ECHO.repr(c)}, {_ECHO.repr(d)}] from 'arcs'")
                    wide.append((c, d, arcs))
                elif g < 1:
                    raise ValueError(f"size must be >= 1, got {_ECHO.repr(g)}")
                elif arcs:  # only the top arc may be listed
                    _check_diagonals(c, d, arcs)
                spans.append((c % n, g))
        finally:  # so a bad arc of a pair walked outranks a later pair's fault
            # each arc a diagonal of its span or the top arc, else the check raises
            keys = [(b - a) << w | a % n for c, d, arcs in wide for a, b in arcs
                    if type(a) is int is type(b) and c <= a <= b - 2 and b <= d
                    or _check_diagonals(c, d, arcs)]
    except (KeyError, TypeError, ValueError):
        _check_wing_fields(data)  # a field of the wrong type outranks the fault found
        raise
    if not spans:
        raise ValueError("at least one cut is required")
    spans.sort()  # by cut; equal cuts are refused next
    cuts = [cut for cut, _ in spans]
    if len(set(cuts)) < len(cuts):
        raise ValueError(f"cuts must be strictly increasing within [0, {n})")
    afters = [*cuts[1:], cuts[0] + n]
    if [cut + g for cut, g in spans] != afters:
        for (cut, g), after in zip(spans, afters):
            if g != after - cut:
                raise ValueError(f"piece of size {_ECHO.repr(g)} on a span of width {after - cut}")
    return keys


def _check_wing_fields(data: dict) -> None:
    """Raise TypeError for the first field of a wing record's pairs, in
    record order, of the wrong type: a pair must be an object with an arc
    ``top`` and a list ``arcs``, and each entry of ``arcs`` an arc, a pair of
    integers (:func:`is_int_pair`).  The message names the field's path
    (``pairs[1]``, ``pairs[1].arcs[0]``) and quotes a bad arc abbreviated
    (``_ECHO``)."""
    for i, pair in enumerate(data["pairs"]):
        if not (type(pair) is dict and is_int_pair(pair.get("top"))
                and type(pair.get("arcs")) is list):
            raise TypeError(f"pairs[{i}] must be an object with an arc 'top' and a list 'arcs'")
        for j, arc in enumerate(pair["arcs"]):
            if not is_int_pair(arc):
                raise TypeError(f"pairs[{i}].arcs[{j}] must be a pair of integers, "
                                f"got {_ECHO.repr(arc)}")


def _check_diagonals(c: int, d: int, arcs: list[list[int]]) -> None:
    """Raise for the first arc of the span ``(c, d)`` other than its top, in
    sorted order relative to ``c``, that lies outside the span or is
    shorter than 2: :class:`~clustertubes.polygons.PolygonDiagram` checks
    the arcs shifted by ``-c`` as the diagonals of a piece of size
    ``d - c``.  An arc that is no pair of integers raises TypeError first,
    for the caller to name.  Returns None when every arc is fine."""
    from .polygons import PolygonDiagram

    if not all(map(is_int_pair, arcs)):
        raise TypeError("an arc is not a pair of integers")
    PolygonDiagram(d - c, [(a - c, b - c) for a, b in arcs if a != c or b != d])


def half_spans(n: int, orbits: Iterable[tuple[int, int]]) -> tuple[list[int], list[tuple]]:
    """The cuts of the rank-n finite half with these canonical orbits, and
    the width and diagonals of the span at each, read off :func:`_cut_spans`:
    the span's arcs other than its top arc, sorted and shifted by ``-c``."""
    w = key_width(n)
    low = (1 << w) - 1
    # An orbit longer than n overarches every vertex, as one of length
    # n + 1 does: it is laid at that length, which its key holds.
    keys = {i << w | (j if j - i <= n else i + n + 1) for i, j in orbits}
    cuts, arcs, bounds = _cut_spans(n, keys)
    spans = []
    for c, d, a, b in zip(cuts, [*cuts[1:], cuts[0] + n], bounds, bounds[1:]):
        top = c << w | d  # a unit span (a == b) has none
        spans.append((d - c, tuple([((k >> w) - c, (k & low) - c) for k in arcs[a:b] if k != top])
                     if a < b else ()))
    return cuts, spans


def _cut_spans(n: int, keys: AbstractSet[int]) -> tuple[list[int], list[int], list[int]]:
    """The spans of the rank-n finite half whose canonical orbits have these
    arc keys, as ``(cuts, arcs, bounds)``: the cuts ascending, each span
    reaching the next cut (the last wraps to the first plus n), and the arc
    keys of the span at ``cuts[t]`` as ``arcs[bounds[t]:bounds[t + 1]]``,
    sorted, top arc included, shifted into the span; a unit span has none.

    Cuts are the vertices of ``[0, n)`` not strictly overarched by any arc.
    A sweep finds them: it walks the keys sorted, that is by left endpoint,
    carrying the furthest right end ``reach`` seen so far, and the vertices
    from ``reach`` up to the next left endpoint are cuts.  The vertices
    below the sweep's last ``reach`` (the furthest right end of all) minus
    n lie under arcs shifted left by n, so that end is read first and the
    sweep starts its reach at it minus n: no vertex below is listed.  Time
    and memory grow with the arcs, not the rank.  Raises if there is no cut
    or a multi-vertex span lacks its top arc: the input was not a finite
    half.  No arc straddles a cut (an arc ``(a, b)`` with ``a < d < b``
    would overarch the cut ``d mod n``), so with the arcs left of the first
    cut shifted by n and moved to the end, the sorted keys split into the
    spans at the cuts, found by bisection, each from the span before.  Those
    arcs end by the first cut, so their shifted ends stay below 2n and the
    shift adds ``n << w | n`` to each key.  This is the one walk of
    :func:`half_spans` and the ``decompose`` command.
    """
    w = key_width(n)
    low = (1 << w) - 1
    arcs = sorted(keys)
    reach = max(0, max(map(and_, arcs, itertools.repeat(low)), default=0) - n)
    above = reach << w  # the least key of an arc starting at reach
    cuts = []
    for k in arcs:
        if k >= above:  # no arc starting left of this one passes reach
            cuts += range(reach, (k >> w) + 1)
        if k & low > reach:
            reach = k & low
            above = reach << w
    cuts += range(reach, n)
    if not cuts:
        raise ValueError("no cut vertex: the diagram is not a finite half")

    first = bisect_left(arcs, cuts[0] << w)
    shifted = map((n << w | n).__add__, arcs[:first])
    arcs = arcs[first:]
    arcs += shifted
    bounds = [0]
    for c, d in zip(cuts, [*cuts[1:], cuts[0] + n]):
        if d - c == 1:  # no arc starts here: it would straddle d
            bounds.append(bounds[-1])
        elif c << w | d in keys:
            bounds.append(bisect_left(arcs, d << w, bounds[-1]))
        else:
            raise ValueError(f"span ({c}, {d}) is missing its top arc; input is not Ptolemy")
    return cuts, arcs, bounds
