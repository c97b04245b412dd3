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
  Ptolemy property by the search in ``arcs`` (the oracle, sharing no code with
  the grammar), ``iter_structured`` runs the cut/wing grammar (the fast
  path); both must produce the same sets.  The grammar yields each half
  exactly once, so the ``enumerate`` stream walks it unsorted: grammar order
  is the canonical order of that stream, which
  :func:`~clustertubes.records.iter_orbits_json` writes from the same
  grammar without building a half.
* *Records*.  :mod:`clustertubes.records` describes, reads and writes the
  records and their integer keys.  :func:`decompose` reads its span walk
  and is the one builder of a decomposition, for
  :meth:`WingDecomposition.from_json` too.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from .arcs import PeriodicDiagram, is_ptolemy, nc_contains, nc_enumerate, ptolemy_subsets
from .config import _ECHO, BRUTE_RANK, CapExceeded, Frozen
from .polygons import (
    DEGENERATE,
    PolygonDiagram,
    _check_rank,
    _walk,
    polygon_diagrams,
    statistics_polygon,
)
from .records import check_arc, half_spans, pair_json, read_wings, spans_json


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
            raise ValueError(f"cuts must be strictly increasing within [0, {_ECHO.repr(rank)})")
        if len(pieces) != len(cuts):
            raise ValueError("one piece per cut is required")
        super().__init__(rank, cuts, pieces)  # spans() reads the fields
        for (c, d), piece in zip(self.spans(), pieces):
            if piece.size != d - c:
                raise ValueError(f"piece of size {_ECHO.repr(piece.size)} "
                                 f"on a span of width {_ECHO.repr(d - c)}")

    def spans(self) -> list[tuple[int, int]]:
        """Absolute spans (c, d) between consecutive cuts; the last wraps to
        ``cuts[0] + rank``."""
        ends = self.cuts[1:] + (self.cuts[0] + self.rank,)
        return list(zip(self.cuts, ends))

    def to_json(self, finite_side: str | None = None) -> str:
        """The wing record; ``finite_side``, when given, follows ``rank``."""
        return spans_json(self.rank, self.cuts, [p.diagonals for p in self.pieces], finite_side)

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
        writes), checked as the ``compose`` command checks it
        (:func:`~clustertubes.records.read_wings`): :func:`decompose` of the
        half of the orbits of its arcs.  The checked spans tile the rank,
        each with its top arc, so the half's cuts are the record's cuts mod
        the rank.  Duplicate arcs are kept once."""
        n, arcs = read_wings(text)
        return decompose(PeriodicDiagram.from_arcs(n, arcs))


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


def decompose(diagram: PeriodicDiagram) -> WingDecomposition:
    """Split a finite half into its cuts and per-span polygon diagrams, read
    off the spans of :func:`~clustertubes.records.half_spans`.  Raises
    ValueError if the diagram has no cut or a multi-vertex span lacks its
    top arc."""
    n = diagram.rank
    cuts, spans = half_spans(n, diagram.orbits)
    # Canonical as built: the diagonals come sorted and distinct from the
    # orbits, have length >= 2, lie in [0, g] as no arc straddles a cut,
    # and leave out the top arc.
    pieces = [PolygonDiagram._canonical(g, diagonals) if g >= 2 else DEGENERATE
              for g, diagonals in spans]
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
        raise ValueError(f"piece sizes sum to {_ECHO.repr(cycle.total_size())}, "
                         f"expected rank {_ECHO.repr(rank)}")
    pieces = cycle.rotate(cycle.piece_index).pieces
    offsets = itertools.accumulate((p.size for p in pieces), initial=-cycle.vertex)
    return _lay(rank, zip(offsets, pieces))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_brute(n: int) -> list[PeriodicDiagram]:
    """All finite halves at rank n by brute force over orbit subsets: the
    subsets of the orbits of lengths 2..n that
    :func:`~clustertubes.arcs.ptolemy_subsets` finds closed under the
    Ptolemy rule, sorted by ``sorted_orbits()``.  This is the oracle the
    grammar enumeration is checked against.
    """
    if n > BRUTE_RANK:
        raise CapExceeded(f"brute-force enumeration capped at rank {BRUTE_RANK}, "
                          f"got {_ECHO.repr(n)}")
    pool = [(i, i + length) for length in range(2, n + 1) for i in range(n)]
    halves = [
        PeriodicDiagram(n, frozenset(a for t, a in enumerate(pool) if mask >> t & 1))
        for mask in ptolemy_subsets(n, pool)
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


def count_structured(n: int) -> int:
    """Number of finite halves at rank n, counted through the cut/wing grammar.

    Nothing is built: the count is half the z^n coefficient of the torsion
    series ``2 z P'/(1-P)`` at ``x = y1 = y2 = 1``, the pointed cycle of the
    base-cell grammar ``P`` (:func:`~clustertubes.series.series_torsion`,
    the package's one grammar count).  It uses no binomial, so it stays an
    independent check on :func:`~clustertubes.counting.torsion_count`.
    Agreement with walking :func:`iter_structured` is part of the test
    suite.  As it builds nothing, no rank limit applies.
    """
    from .series import series_torsion

    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    return series_torsion(n, 1, 1, 1).coeffs[n] // 2


def enumerate_structured(n: int) -> list[PeriodicDiagram]:
    """All finite halves at rank n from the grammar, as a list sorted by
    ``sorted_orbits()`` -- the order :func:`enumerate_brute` gives, so the two
    routes compare as lists.  Streams should use :func:`iter_structured`."""
    return sorted(iter_structured(n), key=lambda X: X.sorted_orbits())


def sample_halves(n: int, count: int, seed: int = 0) -> Iterator[PeriodicDiagram]:
    """Random finite halves at rank n, one at a time: a random cut set, and
    on each span a diagram drawn by
    :func:`~clustertubes.pieces.random_polygon`.

    Deterministic for a fixed seed; not uniform over halves, which is fine
    for round-trip testing.  No list of diagrams is built, so any rank works.
    """
    from .pieces import random_polygon

    rng = random.Random(seed)
    for _ in range(count):
        mask = rng.randrange(1, 1 << n)
        cuts = [v for v in range(n) if mask >> v & 1]
        ends = cuts[1:] + [cuts[0] + n]
        yield _lay(n, ((c, random_polygon(rng, d - c)) for c, d in zip(cuts, ends)))
