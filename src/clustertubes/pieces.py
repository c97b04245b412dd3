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
diagram from the grammar, assembled through :func:`compose_base`.

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


def _base_kinds(inner: int) -> tuple[CellKind, ...]:
    """The kinds of a base cell with ``inner`` corners off the base edge."""
    return (CellKind.TRIANGLE,) if inner == 1 else (CellKind.CLIQUE, CellKind.EMPTY_CELL)


def random_polygon(rng: random.Random, m: int) -> PolygonDiagram:
    """A random Ptolemy diagram of size m: a base cell on a random nonempty
    set of inner corners, of a random kind, with random diagrams drawn the
    same way glued on, assembled by :func:`compose_base`.  Every diagram of
    size m can occur, though not uniformly."""
    if m < 1:
        raise ValueError(f"size must be >= 1, got {_ECHO.repr(m)}")
    if m == 1:
        return DEGENERATE
    mask = rng.randrange(1, 1 << (m - 1))
    corners = (0, *(v for v in range(1, m) if mask >> (v - 1) & 1), m)
    cell = Cell(corners, rng.choice(_base_kinds(len(corners) - 2)))
    return compose_base(cell, [random_polygon(rng, d - c) for c, d in zip(corners, corners[1:])])


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
