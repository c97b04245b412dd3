"""Polygon Ptolemy diagrams as objects: their cells, the base-cell split
and glue, random draws, and the brute-force oracles of the grammar.

:mod:`clustertubes.polygons` generates the diagrams and walks the
grammar; this module holds what only the documented API, the sampled
halves (:func:`~clustertubes.torsion.sample_halves`) and the test suite
read, so that no command which walks the grammar loads it.

:func:`cells` lists the faces of a diagram's unique cell decomposition as
:class:`Cell` values, from the face walk that
:func:`~clustertubes.polygons.statistics_polygon` tallies, and
:func:`decompose_base` takes the base face and the pieces glued on it;
:func:`compose_base` is its inverse.  :func:`random_polygon` draws one
diagram from the grammar: :func:`_draw` lays the drawn cells' diagonals in
one list, with no cell or piece built on the way, and
:func:`~clustertubes.torsion.sample_halves` lays its spans with it.

:func:`enumerate_polygon` is the brute-force oracle: a diagram of size m is
the one-span case of the closed-subset search of
:mod:`clustertubes.arcs`, its diagonals and top arc at rank m, and
:func:`is_ptolemy_polygon` is the Ptolemy check of :mod:`clustertubes.arcs`
on the same half.  Neither runs the grammar of
:func:`~clustertubes.polygons._diagonal_table`; their agreement with it is
part of the test suite.
"""

from __future__ import annotations

import random
from typing import Sequence

from .arcs import PeriodicDiagram, is_ptolemy, ptolemy_subsets
from .config import _ECHO, POLYGON_BRUTE, CapExceeded, Frozen
from .polygons import DEGENERATE, CellKind, PolygonDiagram, _connectors, _faces


class Cell(Frozen):
    """One face of the unique cell decomposition, with its polygon labels."""

    __slots__ = ("vertices", "kind")

    def __init__(self, vertices: tuple[int, ...], kind: CellKind) -> None:
        if kind is CellKind.TRIANGLE:
            if len(vertices) != 3:
                raise ValueError(f"triangle with {len(vertices)} vertices")
        elif len(vertices) < 4:
            raise ValueError(f"{kind.value} needs >= 4 vertices, got {len(vertices)}")
        super().__init__(vertices, kind)


def is_ptolemy_polygon(diagram: PolygonDiagram) -> bool:
    """Every crossing pair of diagonals forces its four connectors.

    Connectors of length 1 are polygon sides and the pair ``(0, size)`` is
    the base edge; both count as present.  This is
    :func:`~clustertubes.arcs.is_ptolemy` of the one-span half: the
    diagonals and the base edge as its top arc, at the size as rank.
    """
    m = diagram.size
    return m == 1 or is_ptolemy(PeriodicDiagram(m, frozenset({(0, m), *diagram.diagonals})))


def enumerate_polygon(m: int) -> list[PolygonDiagram]:
    """Brute-force oracle: every diagonal subset with the Ptolemy property.

    The diagonals and the top arc ``(0, m)`` are the pool of
    :func:`~clustertubes.arcs.ptolemy_subsets` at rank m; the subsets
    holding the top arc, without it, are the diagrams.  (At size 1 the top
    arc is a side, which crosses nothing.)  Counts for m = 1..5 are 1, 1,
    4, 17, 82.
    """
    if m < 1:
        raise ValueError(f"size must be >= 1, got {_ECHO.repr(m)}")
    if m > POLYGON_BRUTE:
        raise CapExceeded(f"polygon brute force capped at size {POLYGON_BRUTE}, "
                          f"got {_ECHO.repr(m)}")
    diags = _connectors(range(m + 1))
    top = 1 << len(diags)
    out = [PolygonDiagram(m, tuple(d for t, d in enumerate(diags) if mask >> t & 1))
           for mask in ptolemy_subsets(m, diags + [(0, m)]) if mask & top]
    out.sort(key=lambda P: P.diagonals)
    return out


# The kinds a base cell may take, by whether it has more than one inner corner.
_BASE_KINDS = ((CellKind.TRIANGLE,), (CellKind.CLIQUE, CellKind.EMPTY_CELL))


def _draw(rng: random.Random, corners: Sequence[int], out: list[tuple[int, int]]) -> None:
    """On each edge ``(c, d)`` of span >= 2 between consecutive corners, in
    order, append the edge to ``out`` and then the diagonals, shifted by c,
    of a diagram of size d - c drawn from the grammar: a base cell on a
    random nonempty set of inner corners, of a random kind (one draw even
    for a triangle's one kind), a clique's connectors, and the cell's own
    edges drawn the same way.  The one drawer of :func:`random_polygon` and
    of :func:`~clustertubes.torsion.sample_halves`; it builds no object."""
    for c, d in zip(corners, corners[1:]):
        if d - c >= 2:
            out.append((c, d))
            mask = rng.randrange(1, 1 << (d - c - 1))
            cell = (c, *(v for v in range(c + 1, d) if mask >> (v - c - 1) & 1), d)
            if rng.choice(_BASE_KINDS[len(cell) > 3]) is CellKind.CLIQUE:
                out += _connectors(cell)
            _draw(rng, cell, out)


def random_polygon(rng: random.Random, m: int) -> PolygonDiagram:
    """A random Ptolemy diagram of size m, drawn by :func:`_draw` on the
    base edge and checked once.  Every diagram of size m can occur, though
    not uniformly."""
    if m < 1:
        raise ValueError(f"size must be >= 1, got {_ECHO.repr(m)}")
    out: list[tuple[int, int]] = []
    _draw(rng, (0, m), out)
    return PolygonDiagram(m, out[1:])  # without the base edge, drawn first


def cells(diagram: PolygonDiagram) -> list[Cell]:
    """The unique cell decomposition, as faces of the non-crossed subdivision.

    The degenerate diagram has no cells.  Raises :class:`MixedFaceError` on
    non-Ptolemy input.
    """
    return sorted((Cell(corners, kind) for corners, kind in _faces(diagram)),
                  key=lambda c: c.vertices)


def decompose_base(diagram: PolygonDiagram) -> tuple[Cell | None, list[PolygonDiagram]]:
    """Split off the cell adjacent to the base edge.

    Returns the base cell (None for the degenerate diagram) together with the
    sub-diagrams glued to its non-base edges, each re-rooted so that its own
    base edge is the glued edge.  :func:`compose_base` reassembles exactly.
    """
    if diagram.size == 1:
        return None, []
    corners, kind = next(_faces(diagram))
    subs = []
    for c, d in zip(corners, corners[1:]):
        inner = tuple(
            (a - c, b - c)
            for a, b in diagram.diagonals
            if c <= a and b <= d and (a, b) != (c, d)
        )
        subs.append(PolygonDiagram(d - c, inner))
    return Cell(corners, kind), subs


def compose_base(cell: Cell | None, subs: Sequence[PolygonDiagram]) -> PolygonDiagram:
    """Inverse of :func:`decompose_base`."""
    if cell is None:
        if subs:
            raise ValueError("degenerate diagram has no glued pieces")
        return DEGENERATE
    corners = cell.vertices
    if len(subs) != len(corners) - 1:
        raise ValueError(f"cell with {len(corners)} corners needs {len(corners) - 1} pieces")
    diags = _connectors(corners) if cell.kind is CellKind.CLIQUE else []
    for i, sub in enumerate(subs):
        c, d = corners[i], corners[i + 1]
        if sub.size != d - c:
            raise ValueError(f"piece of size {sub.size} glued on an edge of span {d - c}")
        if sub.size >= 2:
            diags.append((c, d))
            diags.extend((c + a, c + b) for a, b in sub.diagonals)
    return PolygonDiagram(corners[-1], tuple(diags))
