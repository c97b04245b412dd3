import hashlib
import itertools
import random

import pytest

from clustertubes.config import POLYGON_BRUTE, CapExceeded
from clustertubes.pieces import (
    Cell,
    cells,
    compose_base,
    decompose_base,
    enumerate_polygon,
    is_ptolemy_polygon,
    random_polygon,
)
from clustertubes.polygons import (
    DEGENERATE,
    CellKind,
    MixedFaceError,
    PolygonDiagram,
    _diagonal_table,
    polygon_diagrams,
    statistics_polygon,
)
from clustertubes.series import series_P


def test_diagram_validation():
    with pytest.raises(ValueError):
        PolygonDiagram(3, ((0, 3),))  # the base edge is implicit
    with pytest.raises(ValueError):
        PolygonDiagram(3, ((1, 2),))  # a side, not a diagonal
    with pytest.raises(ValueError):
        PolygonDiagram(3, ((2, 5),))  # out of range
    assert PolygonDiagram(4, ((1, 3), (1, 3))).diagonals == ((1, 3),)  # dedup


def test_is_ptolemy_polygon_cases():
    assert is_ptolemy_polygon(PolygonDiagram(3))
    assert is_ptolemy_polygon(PolygonDiagram(3, ((0, 2), (1, 3))))  # full clique
    assert not is_ptolemy_polygon(PolygonDiagram(4, ((0, 2), (1, 3))))  # missing (0, 3)


def test_enumerate_polygon_counts():
    assert [len(enumerate_polygon(m)) for m in range(1, 6)] == [1, 1, 4, 17, 82]


def test_enumerate_polygon_cap():
    with pytest.raises(CapExceeded):
        enumerate_polygon(9)
    with pytest.raises(ValueError):
        enumerate_polygon(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_brute_force_equals_grammar(m):
    assert set(enumerate_polygon(m)) == set(polygon_diagrams(m))


@pytest.mark.parametrize("m", range(1, POLYGON_BRUTE + 1))
def test_diagonal_table_equals_brute_force(m):
    table = _diagonal_table(m)
    assert all(type(diagonals) is bytes for diagonals in table)
    assert list(table) == sorted(table)  # grammar order
    # a diagonal (a, b) is the byte a << 4 | b
    decoded = tuple(tuple(divmod(code, 16) for code in diagonals) for diagonals in table)
    assert decoded == tuple(P.diagonals for P in enumerate_polygon(m))
    diagrams = polygon_diagrams(m)
    assert tuple(P.diagonals for P in diagrams) == decoded
    pairs = [p for P in diagrams for p in P.diagonals]
    assert len({id(p) for p in pairs}) == len(set(pairs))  # one object per pair


def test_diagonal_table_lengths_equal_the_counts():
    counts = series_P(10, 1, 1, 1).coeffs
    try:
        assert [len(_diagonal_table(m)) for m in range(1, 11)] == list(counts[1:])
    finally:
        _diagonal_table.cache_clear()  # the width-10 table holds 20 MB
    with pytest.raises(ValueError):
        _diagonal_table(0)


def test_diagonal_tables_stay_small():
    # The tables of widths 1..8, one bytes object per diagram, peak at
    # 0.80 MB under tracemalloc (1.52 MB as tuples of pairs), the
    # PolygonDiagram objects of polygon_diagrams(1..8) at 6.5 MB.
    import tracemalloc

    _diagonal_table.cache_clear()
    tracemalloc.start()
    try:
        for m in range(1, 9):
            _diagonal_table(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2**20


def test_brute_force_equals_grammar_count_size_seven():
    assert len(enumerate_polygon(7)) == len(polygon_diagrams(7)) == 2274


@pytest.mark.parametrize("m", [7, 8])
def test_grammar_output_is_valid_and_duplicate_free(m):
    diagrams = polygon_diagrams(m)
    assert len(set(diagrams)) == len(diagrams)
    for diagram in diagrams:
        assert is_ptolemy_polygon(diagram)


def test_polygon_counts_match_grammar_and_brute_force():
    counts = series_P(9, 1, 1, 1).coeffs
    assert list(counts[1:]) == [len(polygon_diagrams(m)) for m in range(1, 10)]
    assert list(counts[1:7]) == [len(enumerate_polygon(m)) for m in range(1, 7)]


@pytest.mark.parametrize("m", range(1, 8))
def test_counts_match_series(m):
    P = series_P(7, 1, 1, 1)
    assert len(polygon_diagrams(m)) == P.coeffs[m]


@pytest.mark.parametrize("m", range(1, 7))
def test_multivariate_refinement_matches_series(m):
    P = series_P(6)
    want = P.coeffs[m]
    hist = {}
    for diagram in polygon_diagrams(m):
        t, c, e = statistics_polygon(diagram)
        hist[(t, c, e)] = hist.get((t, c, e), 0) + 1
    assert hist == {exp: coeff for exp, coeff in want.terms}


def test_cells_cases():
    split = cells(PolygonDiagram(3, ((0, 2),)))
    assert [c.kind for c in split] == [CellKind.TRIANGLE, CellKind.TRIANGLE]
    assert [c.vertices for c in split] == [(0, 1, 2), (0, 2, 3)]

    empty = cells(PolygonDiagram(3))
    assert empty == [Cell((0, 1, 2, 3), CellKind.EMPTY_CELL)]

    clique = cells(PolygonDiagram(3, ((0, 2), (1, 3))))
    assert clique == [Cell((0, 1, 2, 3), CellKind.CLIQUE)]

    assert cells(DEGENERATE) == []


def test_statistics_cases():
    assert statistics_polygon(DEGENERATE) == (0, 0, 0)
    assert statistics_polygon(PolygonDiagram(2)) == (1, 0, 0)
    assert statistics_polygon(PolygonDiagram(3, ((1, 3),))) == (2, 0, 0)


@pytest.mark.parametrize("m", range(1, 8))
def test_no_mixed_faces_on_valid_diagrams(m):
    for diagram in polygon_diagrams(m):
        cells(diagram)  # must not raise


def test_mixed_face_raises():
    # (0,2) and (1,3) cross, (0,3) missing: not Ptolemy, the face over the base
    # has exactly one of its two connectors
    with pytest.raises(MixedFaceError):
        cells(PolygonDiagram(4, ((0, 2), (1, 3))))
    # On every diagonal set up to size 6, the face walk fails exactly on the
    # sets that are not Ptolemy.
    for m in range(1, 7):
        diagonals = [(a, b) for a, b in itertools.combinations(range(m + 1), 2)
                     if b - a >= 2 and (a, b) != (0, m)]
        for r in range(len(diagonals) + 1):
            for chosen in itertools.combinations(diagonals, r):
                diagram = PolygonDiagram(m, chosen)
                try:
                    cells(diagram)
                    raised = False
                except MixedFaceError:
                    raised = True
                assert raised != is_ptolemy_polygon(diagram), diagram


def test_decompose_base_cases():
    assert decompose_base(DEGENERATE) == (None, [])

    cell, subs = decompose_base(PolygonDiagram(3, ((0, 2), (1, 3))))
    assert cell == Cell((0, 1, 2, 3), CellKind.CLIQUE)
    assert subs == [DEGENERATE, DEGENERATE, DEGENERATE]

    cell, subs = decompose_base(PolygonDiagram(4, ((0, 2),)))
    assert cell.vertices == (0, 2, 3, 4)
    assert [s.size for s in subs] == [2, 1, 1]


@pytest.mark.parametrize("m", range(1, 7))
def test_decompose_base_reassembles(m):
    for diagram in polygon_diagrams(m):
        cell, subs = decompose_base(diagram)
        assert compose_base(cell, subs) == diagram


@pytest.mark.parametrize("m", range(1, 7))
def test_base_cases_are_exclusive_and_exhaustive(m):
    for diagram in polygon_diagrams(m):
        cell, subs = decompose_base(diagram)
        if diagram.size == 1:
            assert cell is None
        else:
            assert cell is not None and cell.kind in CellKind
            assert sum(s.size for s in subs) == diagram.size


@pytest.mark.parametrize("m", range(1, 7))
def test_crossed_diagonals_live_inside_clique_cells(m):
    for diagram in polygon_diagrams(m):
        crossed = set()
        for c, d in itertools.combinations(diagram.diagonals, 2):
            if c[0] < d[0] < c[1] < d[1] or d[0] < c[0] < d[1] < c[1]:
                crossed.update((c, d))
        inside_cliques = set()
        for cell in cells(diagram):
            if cell.kind is CellKind.CLIQUE:
                vs = cell.vertices
                t = len(vs) - 1
                for x in range(t + 1):
                    for y in range(x + 2, t + 1):
                        if (x, y) != (0, t):
                            inside_cliques.add((vs[x], vs[y]))
        assert crossed == inside_cliques


@pytest.mark.parametrize("m", range(1, 8))
def test_random_polygon_draws_grammar_diagrams(m):
    rng = random.Random(m)
    drawn = {random_polygon(rng, m) for _ in range(1000)}
    assert drawn <= set(polygon_diagrams(m))
    if m <= 4:
        assert drawn == set(polygon_diagrams(m))  # every diagram can occur


def test_random_polygon_rejects_size_zero():
    with pytest.raises(ValueError):
        random_polygon(random.Random(0), 0)


# Fifty draws of one size from one seed, and then the generator's next
# float, which pins how many random bits the draws took.
@pytest.mark.parametrize("seed, m, expected", [
    (0, 2, "1322b22ad305ad5bc20a50fe25b65c528c88689e4314d74d425c01040a1fcc68"),
    (1, 5, "7468f9667024182a85aab9cfc85777eda41b71439a26bdf37c95ff270975be4a"),
    (2, 9, "28547744e6d1e63dd6c18e31ad162796c94a5aa9ac46d3e9396c0d4dd03d79c9"),
    (3, 16, "b7ef3a3a54fff692bd6c40e9d014ceb937a3b689c08568182eedc1527ab2de87"),
    (4, 40, "14606b918dd91dfbaf9f3682cfa92547180bb70b8f7337e2b58eb69e17916ed0"),
], ids=["0-2", "1-5", "2-9", "3-16", "4-40"])
def test_random_polygon_draws_are_pinned(seed, m, expected):
    rng = random.Random(seed)
    draws = [*(random_polygon(rng, m).diagonals for _ in range(50)), rng.random()]
    assert hashlib.sha256("\n".join(map(repr, draws)).encode()).hexdigest() == expected
