"""Torsion pairs in the rank-n cluster tube.

A torsion pair is determined by its finite half: an n-periodic Ptolemy
diagram all of whose arcs have length at most n (exactly one side of any
torsion pair has finitely many indecomposables, so a half plus a side flag
is lossless).  The infinite half is only ever touched through the
perpendicular membership oracle :func:`perp_contains`.

The structure theory implemented here:

* *Wing decomposition*.  The vertices of ``Z/n`` not strictly overarched by
  any arc of the half are its *cuts*; consecutive cuts at distance g >= 2
  enclose a span whose top arc is forced to be present, and the arcs inside
  the span form a polygon Ptolemy diagram of size g on that top arc as base
  edge.  Distance-1 spans carry the degenerate diagram.  No arc straddles a
  cut (the cut would be overarched), so ``decompose`` rejects only a missing
  cut or top arc.  ``decompose`` / ``compose`` are mutually inverse, and so
  are the ``decompose`` / ``compose`` commands on records.
* *Pointed cycles*.  Reading the spans cyclically and remembering which
  vertex is 0 turns a half into a cycle of polygon diagrams with one marked
  non-base vertex; ``to_pointed_cycle`` / ``from_pointed_cycle`` realize the
  bijection with cycles-of-diagrams pointed at a label.
* *Enumeration*.  ``enumerate_brute`` searches the orbit subsets for the
  Ptolemy property by pruned backtracking (the oracle, sharing no code with
  the grammar), ``iter_structured`` runs the cut/wing grammar (the fast
  path); both must produce the same sets.  The grammar yields each half
  exactly once, so the ``enumerate`` stream walks it unsorted: grammar order
  is the canonical order of that stream.  ``iter_orbits_json`` walks the
  same grammar but builds no half and no polygon diagram: it reads each
  span's pieces as diagonal tuples and writes each half's ``orbits`` text
  straight from its spans, as sorted integer orbit keys.
* *Records*.  Diagram, torsion-pair and wing records are compact JSON text,
  byte-identical to ``json.dumps(..., separators=(",", ":"))`` but built
  with f-strings.  Orbit lists have three writers: the plain
  :meth:`~clustertubes.arcs.PeriodicDiagram.orbits_json` of a diagram,
  which the other two are tested against; :func:`iter_orbits_json`, which
  sorts each half's orbits as integer keys ``(j - i) n + i`` and joins a
  per-rank table of their texts; and, for the ``compose`` command,
  :func:`~clustertubes.arcs.half_orbits_json` (orbit keys ``(j - i) << w |
  i``).  Wing records have one writer, :func:`wings_json`, which reads arc
  keys ``i << w | j``.  The width w of both layouts grows with the rank
  and is the same for every rank up to ``RECORD_RANK``
  (:func:`~clustertubes.arcs.key_width`), so each writer joins its texts
  from one bounded table kept across records.  The three record streams
  build no half, piece or pair.  ``enumerate`` takes each half's
  ``orbits`` text from :func:`iter_orbits_json` and writes it as two
  records, ``left`` and then ``right``, through :func:`pair_json`.
  ``decompose`` lays each record's orbits as arc keys through
  :func:`~clustertubes.arcs.arc_keys`, which type-checks and checks each
  arc in the same pass, and writes the wing record from the spans of
  :func:`_cut_spans`, the walk :func:`decompose` reads: it sorts the keys
  as plain ints, sweeps them for the cuts, shifts the arcs left of the
  first cut and splits the keys at the cuts.  ``compose`` checks each wing
  record, field types included, in the one walk of :func:`_wing_spans`,
  which lays each arc's orbit key as it checks the arc, and writes the
  keys through :func:`~clustertubes.arcs.half_orbits_json`.
  :meth:`WingDecomposition.from_json` reads a record as ``compose`` does,
  its top level through :func:`~clustertubes.arcs.read_record` and its
  pairs through the same walk, and returns :func:`decompose` of the half
  of the orbits those keys hold, so :func:`decompose` is the one builder
  of a decomposition.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from typing import AbstractSet, Iterable, Iterator, Sequence

from .arcs import (
    PeriodicDiagram,
    _ArcTexts,
    check_arc,
    crossing_shifts,
    is_int_pair,
    is_ptolemy,
    key_width,
    nc_contains,
    nc_enumerate,
    normalize_orbit,
    ptolemy_completions,
    read_record,
)
from .config import _ECHO, BRUTE_RANK, RECORD_RANK, CapExceeded, Frozen
from .polygons import (
    DEGENERATE,
    PolygonDiagram,
    _check_rank,
    _diagonal_table,
    _walk,
    constrained_subsets,
    polygon_counts,
    polygon_diagrams,
    random_polygon,
    statistics_polygon,
)


def is_finite_half(diagram: PeriodicDiagram) -> bool:
    """Can this diagram be the finite half of a torsion pair?

    Yes iff it is Ptolemy and every arc has length at most the rank.
    """
    return diagram.max_length() <= diagram.rank and is_ptolemy(diagram)


def perp_contains(diagram: PeriodicDiagram, arc: tuple[int, int]) -> bool:
    """Membership oracle for the perpendicular of the subcategory of X.

    The perpendicular corresponds to the arcs whose down-shift by one crosses
    nothing in X, i.e. ``a`` is perpendicular iff ``(a0+1, a1+1)`` is in
    ``nc X``.  The arc is checked as given, before the shift.
    """
    i, j = check_arc(arc)
    return nc_contains(diagram, (i + 1, j + 1))


def perp_enumerate(diagram: PeriodicDiagram, max_length: int) -> PeriodicDiagram:
    """All orbits of the perpendicular up to the given length."""
    return nc_enumerate(diagram, max_length).tau(1)


class TorsionPair(Frozen):
    """A torsion pair, stored as its finite half plus which side is finite:
    ``finite_side`` is ``"left"`` (X finite) or ``"right"`` (the perp finite)."""

    __slots__ = ("rank", "finite_half", "finite_side")

    def __init__(self, rank: int, finite_half: PeriodicDiagram, finite_side: str) -> None:
        if finite_side not in ("left", "right"):
            raise ValueError(f"finite_side must be 'left' or 'right', got {finite_side!r}")
        if finite_half.rank != rank:
            raise ValueError("rank of the half disagrees with the pair rank")
        if finite_half.max_length() > rank:
            raise ValueError("a finite half has arcs of length at most the rank")
        super().__init__(rank, finite_half, finite_side)

    def to_json(self) -> str:
        return pair_json(self.rank, self.finite_side, self.finite_half.orbits_json())


def pair_json(rank: int, side: str, orbits_text: str) -> str:
    """The torsion-pair record of a half whose ``orbits`` text is
    ``orbits_text`` (:meth:`~clustertubes.arcs.PeriodicDiagram.orbits_json`),
    with ``side`` ``"left"`` or ``"right"``: the text is byte-identical to
    compact ``json.dumps`` of ``{"rank", "finite_side", "orbits"}``."""
    return f'{{"rank":{rank},"finite_side":"{side}","orbits":{orbits_text}}}'


# ---------------------------------------------------------------------------
# wing decomposition


class WingDecomposition(Frozen):
    """Cut vertices of a finite half together with the polygon diagram carried
    by each span between consecutive cuts (degenerate for unit spans).

    Valid: cuts strictly increasing within ``[0, rank)``, and one piece per
    cut whose size is its span's width.
    """

    __slots__ = ("rank", "cuts", "pieces")

    def __init__(self, rank: int, cuts: tuple[int, ...],
                 pieces: tuple[PolygonDiagram, ...]) -> None:
        if not cuts:
            raise ValueError("at least one cut is required")
        if list(cuts) != sorted(set(cuts)) or cuts[0] < 0 or cuts[-1] >= rank:
            raise ValueError(f"cuts must be strictly increasing within [0, {rank})")
        if len(pieces) != len(cuts):
            raise ValueError("one piece per cut is required")
        super().__init__(rank, cuts, pieces)  # spans() reads the fields
        for (c, d), piece in zip(self.spans(), pieces):
            if piece.size != d - c:
                raise ValueError(f"piece of size {piece.size} on a span of width {d - c}")

    def spans(self) -> list[tuple[int, int]]:
        """Absolute spans (c, d) between consecutive cuts; the last wraps to
        ``cuts[0] + rank``."""
        ends = self.cuts[1:] + (self.cuts[0] + self.rank,)
        return list(zip(self.cuts, ends))

    def to_json(self, finite_side: str | None = None) -> str:
        """The wing record; ``finite_side``, when given, follows ``rank``.

        The text is byte-identical to compact ``json.dumps`` of the record.
        """
        w = key_width(self.rank)
        arcs, bounds = [], [0]
        for (c, d), piece in zip(self.spans(), self.pieces):
            if piece.size >= 2:  # the diagonals are sorted, and so are their shifts
                keys = [(c + a) << w | c + b for a, b in piece.diagonals]
                insort(keys, c << w | d)
                arcs += keys
            bounds.append(len(arcs))
        return wings_json(self.rank, self.cuts, arcs, bounds, finite_side)

    def pointed_cycle(self) -> "PointedCycle":
        """The pointed cycle of the decomposed half; the mark tracks which
        vertex is 0.

        Spans are read in cut order starting at the smallest cut, so vertex 0
        (equivalently n) always lands in the last piece, ``n - cuts[-1]``
        steps after its base vertex.
        """
        # Valid as built: a decomposition has a piece per cut, at least one,
        # and the last piece's size is its span's width, rank - cuts[-1].
        return PointedCycle._canonical(self.pieces, len(self.pieces) - 1,
                                       self.rank - self.cuts[-1])

    @classmethod
    def from_json(cls, text: str) -> "WingDecomposition":
        """The decomposition of a wing record (the text :meth:`to_json`
        writes): once :func:`~clustertubes.arcs.read_record` has checked
        its top level and :func:`_wing_spans` its pairs, :func:`decompose`
        of the half whose orbits have the keys the walk laid.  The checked
        spans tile the rank, each with its top arc, so the half's cuts are
        the record's cuts mod the rank.  Duplicate arcs are kept once."""
        data = read_record(text, "pairs")
        n = data["rank"]
        w = key_width(n)
        low = (1 << w) - 1
        arcs = [((i := k & low), i + (k >> w)) for k in _wing_spans(data)]
        return decompose(PeriodicDiagram.from_arcs(n, arcs))


# An arc's text does not depend on the rank, so one table kept across
# records serves every record: the keys of every rank up to RECORD_RANK have
# the same width.
_ARC_TEXTS = _ArcTexts(key_width(RECORD_RANK))


def wings_json(rank: int, cuts: Sequence[int], arcs: list[int], bounds: list[int],
               finite_side: str | None = None) -> str:
    """The wing record of a rank-``rank`` half from its spans in cut order:
    the span at ``cuts[t]`` reaches the next cut (the last wraps to the
    first plus the rank), and its arcs, in absolute coordinates, top arc
    included (none on a unit span), have the sorted arc keys
    (:func:`~clustertubes.arcs.key_width`) ``arcs[bounds[t]:bounds[t + 1]]``.
    ``finite_side``, when given, follows ``rank``.

    The one writer of wing records, for :meth:`WingDecomposition.to_json`
    and the ``decompose`` command (through :func:`_cut_spans`); the text is
    byte-identical to compact ``json.dumps`` of the record.  The texts of
    all the arcs come at once from the bounded table :data:`_ARC_TEXTS`,
    kept across records, and each span joins its share of them.
    """
    if finite_side not in (None, "left", "right"):
        raise ValueError(f"finite_side must be 'left' or 'right', got {finite_side!r}")
    texts = list(map(_ARC_TEXTS.at(key_width(rank)).__getitem__, arcs))
    ends = [*cuts[1:], cuts[0] + rank]
    pairs = ",".join([f'{{"top":[{c},{d}],"arcs":[{",".join(texts[a:b])}]}}'
                      for c, d, a, b in zip(cuts, ends, bounds, bounds[1:])])
    side = "" if finite_side is None else f'"finite_side":"{finite_side}",'
    return f'{{"rank":{rank},{side}"pairs":[{pairs}]}}'


def _wing_spans(data: dict) -> list[int]:
    """The orbit keys (:func:`~clustertubes.arcs.key_width`) of the arcs of
    a decoded wing record, top arcs included and duplicates kept, pair by
    pair in the order written; a unit span contributes none.

    The one reader of wing records, for :meth:`WingDecomposition.from_json`
    and the ``compose`` command, and the one walk over their pairs and arcs.
    The record must hold an integer ``rank`` >= 1 and a list ``pairs``
    (:func:`~clustertubes.arcs.read_record` checks them).  Each field is
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
    integers (:func:`~clustertubes.arcs.is_int_pair`).  The message names
    the field's path (``pairs[1]``, ``pairs[1].arcs[0]``) and quotes a bad
    arc abbreviated (``_ECHO``)."""
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
    shorter than 2: :class:`PolygonDiagram` checks the arcs shifted by
    ``-c`` as the diagonals of a piece of size ``d - c``.  An arc that is no
    pair of integers raises TypeError first, for the caller to name.
    Returns None when every arc is fine."""
    if not all(map(is_int_pair, arcs)):
        raise TypeError("an arc is not a pair of integers")
    PolygonDiagram(d - c, [(a - c, b - c) for a, b in arcs if a != c or b != d])


def _lay(n: int, placed: Iterable[tuple[int, PolygonDiagram]]) -> PeriodicDiagram:
    """The rank-n diagram (n >= 1) of pieces laid at offsets: for each
    ``(c, piece)`` of size >= 2, the top arc ``(c, c + size)`` and the
    diagonals shifted by ``c``, each stored as its canonical orbit."""
    arcs = []
    for c, piece in placed:
        if piece.size >= 2:
            c %= n
            arcs.append((c, c + piece.size))
            for a, b in piece.diagonals:
                i = (c + a) % n
                arcs.append((i, i + (b - a)))
    # Canonical as built: each left endpoint is taken mod n, and each length
    # is a top arc's size >= 2 or a piece diagonal's length >= 2.
    return PeriodicDiagram._canonical(n, frozenset(arcs))


def _cut_spans(n: int, keys: AbstractSet[int]) -> tuple[list[int], list[int], list[int]]:
    """The spans of the rank-n finite half whose canonical orbits have these
    arc keys (:func:`~clustertubes.arcs.key_width`), as ``(cuts, arcs,
    bounds)``: the cuts ascending, each span reaching the next cut (the
    last wraps to the first plus n), and the arc keys of the span at
    ``cuts[t]`` as ``arcs[bounds[t]:bounds[t + 1]]``, sorted, top arc
    included, shifted into the span; a unit span has none.

    Cuts are the vertices of ``[0, n)`` not strictly overarched by any arc.
    A sweep finds them: it walks the keys sorted, that is by left endpoint,
    carrying the furthest right end ``reach`` seen so far, and the vertices
    from ``reach`` up to the next left endpoint are cuts, one range at a
    time.  The vertices below the last ``reach - n`` lie under arcs shifted
    left by n, so the ranges are cut there before any is listed.  Time and
    memory grow with the arcs, not the rank.  Raises if there is no cut or
    a multi-vertex span lacks its top arc: the input was not a finite half.
    No arc straddles a cut (an arc ``(a, b)`` with ``a < d < b`` would
    overarch the cut ``d mod n``), so with the arcs left of the first cut
    shifted by n and moved to the end, the sorted keys split into the spans
    at the cuts, found by bisection.  Those arcs end by the first cut, so
    their shifted ends stay below 2n and the shift adds ``n << w | n`` to
    each key.  This is the one walk of :func:`decompose` and the
    ``decompose`` command, which writes its output through
    :func:`wings_json`.
    """
    w = key_width(n)
    low = (1 << w) - 1
    arcs = sorted(keys)
    reach = above = 0  # above: the least key of an arc starting at reach
    ranges = []
    for k in arcs:
        if k >= above:  # no arc starting left of this one passes reach
            ranges.append(range(reach, (k >> w) + 1))
        if k & low > reach:
            reach = k & low
            above = reach << w
    under = reach - n
    if under > 0:
        ranges = [range(max(r.start, under), r.stop) for r in ranges if r.stop > under]
    ranges.append(range(reach, n))
    cuts = list(itertools.chain.from_iterable(ranges))
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
            bounds.append(bisect_left(arcs, d << w))
        else:
            raise ValueError(f"span ({c}, {d}) is missing its top arc; input is not Ptolemy")
    return cuts, arcs, bounds


def decompose(diagram: PeriodicDiagram) -> WingDecomposition:
    """Split a finite half into its cuts and per-span polygon diagrams, read
    off the spans of :func:`_cut_spans`.  Raises ValueError if the diagram
    has no cut or a multi-vertex span lacks its top arc."""
    n = diagram.rank
    w = key_width(n)
    low = (1 << w) - 1
    # An orbit longer than n overarches every vertex, as one of length
    # n + 1 does: it is laid at that length, which its key holds.
    keys = {i << w | (j if j - i <= n else i + n + 1) for i, j in diagram.orbits}
    cuts, arcs, bounds = _cut_spans(n, keys)
    pieces = []
    for c, d, a, b in zip(cuts, [*cuts[1:], cuts[0] + n], bounds, bounds[1:]):
        if d - c == 1:
            pieces.append(DEGENERATE)
            continue
        # Canonical as built: the diagonals come sorted and distinct from the
        # orbits, have length >= 2, lie in [0, d - c] as no arc straddles a
        # cut, and leave out the top arc.
        top = c << w | d
        diagonals = tuple([((k >> w) - c, (k & low) - c) for k in arcs[a:b] if k != top])
        pieces.append(PolygonDiagram._canonical(d - c, diagonals))
    # Valid as built: the sweep finds at least one cut, ascending and distinct
    # within [0, n), and each span's piece has the span's width.
    return WingDecomposition._canonical(n, tuple(cuts), tuple(pieces))


def compose(wings: WingDecomposition) -> PeriodicDiagram:
    """Inverse of :func:`decompose`: lay each piece onto its span."""
    return _lay(wings.rank, zip(wings.cuts, wings.pieces))


def statistics(diagram: PeriodicDiagram) -> tuple[int, int, int]:
    """The statistics ``(k, l, m)`` of a half: its triangles, cliques and
    empty cells, summed over the pieces of its wing decomposition.

    This decomposes the half and walks the faces of every piece; it is the
    reference the tau fixed points of
    :func:`~clustertubes.sieving.fixed_histograms` are tested against.
    """
    k, l, m = zip(*map(statistics_polygon, decompose(diagram).pieces))
    return sum(k), sum(l), sum(m)


# ---------------------------------------------------------------------------
# pointed cycles


class PointedCycle(Frozen):
    """A cyclic sequence of polygon diagrams with one marked non-base vertex.

    ``vertex`` is 1-based: the marked label sits on the ``vertex``-th vertex
    of piece ``piece_index`` counted clockwise after that piece's base vertex.

    Valid: at least one piece, ``piece_index`` indexing one, and ``vertex``
    within ``[1, size]`` of that piece.
    """

    __slots__ = ("pieces", "piece_index", "vertex")

    def __init__(self, pieces: tuple[PolygonDiagram, ...], piece_index: int, vertex: int) -> None:
        if not pieces:
            raise ValueError("a pointed cycle needs at least one piece")
        if not 0 <= piece_index < len(pieces):
            raise ValueError("piece_index out of range")
        if not 1 <= vertex <= pieces[piece_index].size:
            raise ValueError("pointed vertex out of range for its piece")
        super().__init__(pieces, piece_index, vertex)

    def total_size(self) -> int:
        return sum(p.size for p in self.pieces)

    def rotate(self, steps: int) -> "PointedCycle":
        r = len(self.pieces)
        steps %= r
        # Valid as built: the marked piece moves with its index, so the
        # vertex stays within its size.
        return PointedCycle._canonical(
            self.pieces[steps:] + self.pieces[:steps],
            (self.piece_index - steps) % r,
            self.vertex,
        )


def to_pointed_cycle(diagram: PeriodicDiagram) -> PointedCycle:
    """Finite half -> pointed cycle (see :meth:`WingDecomposition.pointed_cycle`)."""
    return decompose(diagram).pointed_cycle()


def from_pointed_cycle(cycle: PointedCycle, rank: int) -> PeriodicDiagram:
    """Pointed cycle -> finite half; total piece size must equal the rank.

    The pointed piece is laid down starting at ``-vertex`` (so the marked
    vertex gets coordinate 0) and the remaining pieces follow clockwise,
    each base vertex reusing the previous piece's last vertex.
    """
    if cycle.total_size() != rank:
        raise ValueError(f"piece sizes sum to {cycle.total_size()}, expected rank {rank}")
    pieces = cycle.rotate(cycle.piece_index).pieces
    offsets = itertools.accumulate((p.size for p in pieces), initial=-cycle.vertex)
    return _lay(rank, zip(offsets, pieces))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_brute(n: int) -> list[PeriodicDiagram]:
    """All finite halves at rank n by brute force over orbit subsets.

    Every pair of orbits contributes a bitmask constraint: if two orbits
    cross (in some shift), the connectors of every crossing must be present,
    and a connector longer than n outlaws the pair altogether.  The pruned
    backtracking search :func:`~clustertubes.polygons.constrained_subsets`
    finds the orbit subsets meeting them all.  This is the oracle the
    grammar enumeration is checked against.
    """
    if n > BRUTE_RANK:
        raise CapExceeded(f"brute-force enumeration capped at rank {BRUTE_RANK}, got {n}")
    pool = [(i, i + length) for length in range(2, n + 1) for i in range(n)]
    k = len(pool)
    index = {a: t for t, a in enumerate(pool)}
    constraints: list[tuple[int, int, int | None]] = []
    for p, q in itertools.combinations_with_replacement(range(k), 2):
        a, b = pool[p], pool[q]
        shifts = [(b[0] + m * n, b[1] + m * n) for m in crossing_shifts(n, a, b)]
        forced = [c for s in shifts for c in ptolemy_completions(a, s)]
        if any(c[1] - c[0] > n for c in forced):
            constraints.append((p, q, None))
        elif forced:
            items = {index[normalize_orbit(n, c)] for c in forced}
            constraints.append((p, q, sum(1 << t for t in items)))

    halves = [
        PeriodicDiagram(n, frozenset(pool[t] for t in range(k) if mask >> t & 1))
        for mask in constrained_subsets(k, constraints)
    ]
    halves.sort(key=lambda X: X.sorted_orbits())
    return halves


def iter_structured(n: int) -> Iterator[PeriodicDiagram]:
    """Generate every finite half at rank n through the cut/wing grammar.

    Iterates all nonempty cut subsets of ``Z/n``; every span of width g >= 2
    independently carries any polygon Ptolemy diagram of size g, laid on the
    span together with the span's top arc.  Each half is produced exactly
    once (the cut set and span contents are recoverable by
    :func:`decompose`), so the stream needs no sort and no memory beyond the
    polygon diagrams of the spans.

    The order is *grammar order*, the canonical order of the ``enumerate``
    stream: cut masks ascending (bit v set iff v is a cut), and for each
    mask the product of the spans' pieces, each span running through
    :func:`~clustertubes.polygons.polygon_diagrams` in its order, the span
    starting at the largest cut varying fastest.
    """
    _check_rank(n)  # before 1 << n, which fails below 0
    for cuts, _, pieces in _walk(n, polygon_diagrams):
        yield _lay(n, zip(cuts, pieces))


def iter_orbits_json(n: int) -> Iterator[str]:
    """The ``orbits`` text (:meth:`~clustertubes.arcs.PeriodicDiagram.orbits_json`)
    of every finite half at rank n, in the grammar order of
    :func:`iter_structured`, without building the halves.

    Each span ``(c, d)`` reads its pieces as the diagonal tuples of
    :func:`~clustertubes.polygons._diagonal_table` of width ``d - c``, so no
    polygon diagram is built.  A canonical orbit ``(i, j)`` is laid as the
    integer key ``(j - i) n + i``, so ascending keys are ``sorted_orbits()``
    order (length, then left endpoint).  Each span's keys are those of
    :func:`_lay`'s arcs, its top arc and its shifted diagonals; a plain int
    sort orders them, and the text is joined from a table of the
    ``n (n + 1)`` orbits of length at most n.  A larger key is an arc longer
    than the rank, which no finite half has: it raises ValueError, the check
    :class:`TorsionPair` would make.
    """
    _check_rank(n)
    texts = [f"[{(i := k % n)},{i + k // n}]" for k in range(n * (n + 1))]
    for cuts, ends, pieces in _walk(n, _diagonal_table):
        keys = []
        for c, d, diagonals in zip(cuts, ends, pieces):
            if d - c >= 2:
                keys.append((d - c) * n + c)
                for a, b in diagonals:
                    keys.append((b - a) * n + (c + a) % n)
        keys.sort()
        if keys and keys[-1] >= len(texts):
            raise ValueError("a finite half has arcs of length at most the rank")
        yield "[" + ",".join([texts[k] for k in keys]) + "]"


def count_structured(n: int) -> int:
    """Number of finite halves at rank n, counted through the cut/wing grammar.

    Nothing is built.  The grammar is counted by recursion over compositions:
    with p(g) the polygon count of :func:`polygon_counts` (the span contents
    of width g) and S(h) the number of ordered piece sequences of total width
    h, ``S(0) = 1`` and ``S(h) = sum_a p(a) S(h-a)``.  A half is its span
    around vertex 0 -- width g, placed in one of g ways so that 0 lies in
    ``(c, c+g]`` -- followed clockwise by a piece sequence of width n-g, so
    the count is ``sum_g g p(g) S(n-g)``.

    This route uses grammar counts only, no binomial and no series, so it
    stays an independent check on :func:`~clustertubes.counting.torsion_count`
    and the generating functions.  Agreement with walking
    :func:`iter_structured` is part of the test suite.  As it builds
    nothing, no rank limit applies.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    p = polygon_counts(n)
    sequences = [1]
    for h in range(1, n):
        sequences.append(sum(p[a] * sequences[h - a] for a in range(1, h + 1)))
    return sum(g * p[g] * sequences[n - g] for g in range(1, n + 1))


def enumerate_structured(n: int) -> list[PeriodicDiagram]:
    """All finite halves at rank n from the grammar, as a list sorted by
    ``sorted_orbits()`` -- the order :func:`enumerate_brute` gives, so the two
    routes compare as lists.  Streams should use :func:`iter_structured`."""
    return sorted(iter_structured(n), key=lambda X: X.sorted_orbits())


def sample_halves(n: int, count: int, seed: int = 0) -> list[PeriodicDiagram]:
    """Random finite halves at rank n: a random cut set, and on each span a
    diagram drawn by :func:`~clustertubes.polygons.random_polygon`.

    Deterministic for a fixed seed; not uniform over halves, which is fine
    for round-trip testing.  No list of diagrams is built, so any rank works.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mask = rng.randrange(1, 1 << n)
        cuts = [v for v in range(n) if mask >> v & 1]
        ends = cuts[1:] + [cuts[0] + n]
        out.append(_lay(n, ((c, random_polygon(rng, d - c)) for c, d in zip(cuts, ends))))
    return out
