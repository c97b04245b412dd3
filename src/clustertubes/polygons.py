"""Ptolemy diagrams on a finite polygon with a distinguished base edge.

A diagram of *size* ``m`` lives on an ``(m+1)``-gon whose vertices are
labelled ``0..m`` clockwise; the edge ``(0, m)`` closing the cycle is the
distinguished base edge and is always present (it is never stored among the
diagonals).  Size 1 is the degenerate diagram: two vertices and the base
edge only.

Every such Ptolemy diagram decomposes uniquely into cells, read off from the
subdivision of the polygon by its non-crossed chords: triangles, cliques
(>= 4 vertices, all internal connectors drawn) and empty cells (>= 4
vertices, none drawn).  The cell counts are the statistics ``(k, l, m)``
that the refined torsion-pair counts are indexed by.  One walk over that
subdivision, base face first, reads every face (:func:`_faces`), and
:func:`statistics_polygon` tallies their kinds into a plain ``(k, l, m)``
tuple.  A face with some but not all of its internal connectors raises
:class:`MixedFaceError`; the test suite checks that this happens exactly on
the diagonal sets that are not Ptolemy, for every set up to size 6.

:func:`_diagonal_table` generates the diagrams of a size recursively
through the cell-at-the-base grammar, each as one ``bytes`` of diagonal
codes ``a << 4 | b``; it is the one place the grammar is generated, and the
``enumerate`` stream reads it directly.  No table wider than
``_TABLE_WIDTH`` = 10 is built: the tables grow about sixfold per size.
:func:`polygon_diagrams` is the same table as :class:`PolygonDiagram`
objects, decoded through one grid of pairs, for the callers that need
them.  The cells as objects, the base-cell split and glue, random draws
and the brute-force oracles the grammar is checked against are in
:mod:`clustertubes.pieces`, which the grammar does not load.

:func:`_cut_masks` is the one loop over the cut masks of the rank-n
halves.  :func:`_walk`, next to the tables it reads, runs the cut/wing
grammar over it for :mod:`clustertubes.torsion` and the tau fixed points
of :mod:`clustertubes.sieving`, and the ``enumerate`` stream of
:mod:`clustertubes.records` reads the masks and the diagonal tables
itself; every walk is behind the ``STRUCTURED_RANK`` gate
:func:`_check_rank`.  This module loads neither :mod:`clustertubes.arcs`
nor :mod:`clustertubes.pieces`.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Callable, Iterator, Sequence

from .config import _ECHO, STRUCTURED_RANK, CapExceeded, Frozen


class MixedFaceError(ValueError):
    """A face of the non-crossed subdivision has some but not all of its
    internal connectors; impossible for a Ptolemy diagram, so the input was
    not one."""


class CellKind(enum.Enum):
    TRIANGLE = "triangle"
    CLIQUE = "clique"
    EMPTY_CELL = "empty_cell"


class PolygonDiagram(Frozen):
    """Diagonal set of an ``(size+1)``-gon with base edge ``(0, size)``.

    Valid: ``size >= 1``, and the diagonals sorted, distinct, of length
    >= 2, inside ``[0, size]`` and without the base edge.
    """

    __slots__ = ("size", "diagonals")

    def __init__(self, size: int, diagonals: tuple[tuple[int, int], ...] = ()) -> None:
        """The one statement of the piece rule, which wing records are read
        through: messages quote their values abbreviated (``_ECHO``)."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {_ECHO.repr(size)}")
        canon = tuple(sorted(set(tuple(d) for d in diagonals)))
        for a, b in canon:
            if not (0 <= a < b <= size):
                raise ValueError(f"diagonal {_ECHO.repr((a, b))} out of range "
                                 f"for size {_ECHO.repr(size)}")
            if b - a < 2:
                raise ValueError(f"diagonal {_ECHO.repr((a, b))} has length < 2")
            if (a, b) == (0, size):
                raise ValueError("the base edge is implicit and never stored as a diagonal")
        super().__init__(size, canon)


DEGENERATE = PolygonDiagram(1)


def _connectors(corners: Sequence[int]) -> list[tuple[int, int]]:
    """The chords between the corners of a cell other than its sides and its
    base edge ``(corners[0], corners[-1])``, in lexicographic order: what a
    clique draws, and with corners ``0..m`` every diagonal of the polygon."""
    t = len(corners) - 1
    pairs = itertools.combinations(range(t + 1), 2)
    return [(corners[x], corners[y]) for x, y in pairs if 2 <= y - x < t]


# The widest table built.  A table holds p(m) pieces, about 47 bytes each:
# 421,214 at width 10 (20 MB), 2,492,112 at 11 (117 MB) and 14,937,210 at
# 12 (0.7 GB).  Every width up to 15 would fit the byte codes a << 4 | b.
_TABLE_WIDTH = 10
_PAIRS = [divmod(code, 16) for code in range(256)]  # code -> (a, b), one object per pair


@functools.cache
def _diagonal_table(m: int) -> tuple[bytes, ...]:
    """The diagonals of every Ptolemy diagram of size m, generated through
    the base-cell grammar: each diagram as one ``bytes``, a diagonal
    ``(a, b)`` laid as the byte ``a << 4 | b``, in ascending order.  Byte
    order is pair order, so this is the order of the sorted diagonal tuples.

    A non-degenerate diagram is a cell sitting on the base edge -- a triangle,
    a clique or an empty cell -- with smaller diagrams glued along their own
    base edges onto the cell's other edges.  A glued piece of size >= 2 adds
    its base edge and its diagonals shifted to the edge's first corner c,
    which adds ``17 c`` to each byte, and a clique adds its internal
    connectors.  The codes of a piece lie below those of the piece on the
    next edge, so a diagram without a clique is its pieces joined in edge
    order.  This is the only place the grammar is generated;
    nothing is validated or built but the bytes.  Sizes above
    ``_TABLE_WIDTH`` raise :class:`~clustertubes.config.CapExceeded` before
    any table is built.
    """
    if m < 1:
        raise ValueError(f"size must be >= 1, got {_ECHO.repr(m)}")
    if m > _TABLE_WIDTH:
        raise CapExceeded(f"polygon diagram tables capped at size {_TABLE_WIDTH}, "
                          f"got {_ECHO.repr(m)}")
    if m == 1:
        return (b"",)
    shift = [bytes([(code + 17 * c) & 255 for code in range(256)]) for c in range(m)]
    out = []
    for t in range(1, m):
        for inner in itertools.combinations(range(1, m), t):
            corners = (0,) + inner + (m,)
            # per edge (c, d), what each piece glued on it adds
            edges = [[bytes(sorted(bytes([c << 4 | d]) + piece.translate(shift[c])))
                      for piece in _diagonal_table(d - c)] if d - c >= 2 else (b"",)
                     for c, d in zip(corners, corners[1:])]
            diagrams = map(b"".join, itertools.product(*edges))
            if t == 1:  # a triangle adds nothing
                out += diagrams
                continue
            # an empty cell adds nothing, a clique its internal connectors
            clique = bytes([a << 4 | b for a, b in _connectors(corners)])
            for diagonals in diagrams:
                out.append(bytes(sorted(clique + diagonals)))
                out.append(diagonals)
    out.sort()
    return tuple(out)


@functools.cache
def polygon_diagrams(m: int) -> tuple[PolygonDiagram, ...]:
    """All Ptolemy diagrams of size m, in the order of
    :func:`_diagonal_table`, as objects: one :class:`PolygonDiagram` per
    entry of that table, its codes decoded through one grid of pairs, so
    every diagram shares one object per pair."""
    return tuple(PolygonDiagram._canonical(m, tuple(map(_PAIRS.__getitem__, diagonals)))
                 for diagonals in _diagonal_table(m))


def _check_rank(n: int) -> None:
    """Reject a rank above ``STRUCTURED_RANK`` or below 1, before a walk of
    :func:`_cut_masks`; a rank quoted in a message is abbreviated (``_ECHO``)."""
    if n > STRUCTURED_RANK:
        raise CapExceeded(f"structured enumeration capped at rank {STRUCTURED_RANK}, "
                          f"got {_ECHO.repr(n)}")
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")


def _cut_masks(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """Every nonempty cut mask at rank n (bit v set iff v is a cut),
    ascending, as ``(cuts, ends)``: ``cuts`` lists the cuts ascending and
    ``ends`` the next cut after each (the last wraps to the first plus n), so
    the spans are ``zip(cuts, ends)``.  The one loop over the masks, for
    :func:`_walk` and :func:`~clustertubes.records.iter_orbits_json`."""
    for mask in range(1, 1 << n):
        cuts = [v for v in range(n) if mask >> v & 1]
        yield cuts, cuts[1:] + [cuts[0] + n]


def _walk(n: int, table: Callable[[int], Sequence]) -> Iterator[tuple[list[int], tuple]]:
    """The cut/wing grammar at rank n, as ``(cuts, pieces)``.

    For each mask of :func:`_cut_masks`, ``pieces`` runs through the product
    of one entry of ``table(d - c)`` per span ``(c, d)``, in cut order, the
    last span varying fastest; nothing is laid.  ``cuts`` lists the mask's
    cuts ascending, so the piece ``pieces[t]`` sits on the span from
    ``cuts[t]`` to the next cut (the last wraps to the first plus n).
    ``table`` is :func:`polygon_diagrams` for the callers that read
    diagrams, or the diagrams' statistics for
    :func:`~clustertubes.sieving.fixed_histograms`.
    :func:`~clustertubes.torsion.iter_structured` documents the order.
    """
    for cuts, ends in _cut_masks(n):
        spans = [table(d - c) for c, d in zip(cuts, ends)]
        for pieces in itertools.product(*spans):
            yield cuts, pieces


def _faces(diagram: PolygonDiagram) -> Iterator[tuple[tuple[int, ...], CellKind]]:
    """The faces of the subdivision by the non-crossed chords, base face
    first, each as its corners in increasing order and its kind.

    The chords are the polygon sides, the base edge and the diagonals
    crossed by no other diagonal.  The face inside a chord ``(a, b)`` is
    walked from ``a`` by the longest chord at each corner that ends at or
    before ``b``, ``(a, b)`` itself excepted, read off each corner's chord
    list, which is built once per diagram.  Raises
    :class:`MixedFaceError` when a face has some but not all of its
    internal connectors.
    """
    ds = diagram.diagonals
    have = set(ds)
    crossed = set()
    for t, (a, b) in enumerate(ds):
        for d in ds[t + 1:]:  # sorted: d starts at or after a
            if d[0] >= b:
                break
            if a < d[0] and b < d[1]:
                crossed.add((a, b))
                crossed.add(d)
    # far[u]: the ends v > u of the chords at u, descending; the side
    # (u, u + 1) comes last
    far: list[list[int]] = [[] for _ in range(diagram.size)]
    for u, v in reversed(ds):
        if (u, v) not in crossed:
            far[u].append(v)
    for u in range(diagram.size):
        far[u].append(u + 1)
    stack = [(0, diagram.size)] if diagram.size >= 2 else []
    while stack:
        a, b = stack.pop()
        u = next(v for v in far[a] if v < b)
        corners = [a, u]
        while u != b:
            # a chord from inside the face that passed b would cross (a, b)
            u = far[u][0]
            corners.append(u)
        if len(corners) == 3:
            kind = CellKind.TRIANGLE
        else:
            internal = _connectors(corners)
            present = len(have.intersection(internal))
            if present == len(internal):
                kind = CellKind.CLIQUE
            elif present == 0:
                kind = CellKind.EMPTY_CELL
            else:
                raise MixedFaceError(f"face {tuple(corners)} has {present}/{len(internal)} "
                                     "internal connectors; input is not Ptolemy")
        yield tuple(corners), kind
        stack.extend((x, y) for x, y in zip(corners, corners[1:]) if y - x >= 2)


def statistics_polygon(diagram: PolygonDiagram) -> tuple[int, int, int]:
    """The statistics ``(k, l, m)``: the numbers of triangles, cliques and
    empty cells of the cell decomposition."""
    kinds = [kind for _, kind in _faces(diagram)]
    return (kinds.count(CellKind.TRIANGLE), kinds.count(CellKind.CLIQUE),
            kinds.count(CellKind.EMPTY_CELL))
