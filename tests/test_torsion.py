import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustertubes.arcs import PeriodicDiagram, nc_enumerate
from clustertubes.config import CapExceeded
from clustertubes.counting import refined_table, torsion_count
from clustertubes.pieces import enumerate_polygon
from clustertubes.polygons import DEGENERATE, PolygonDiagram, _diagonal_table, polygon_diagrams
from clustertubes.records import iter_orbits_json, read_record
from clustertubes.sieving import (
    fixed_histograms,
    orbit_count,
    orbit_count_direct,
    orbit_count_refined,
    orbits_from_fixed,
)
from clustertubes.torsion import (
    PointedCycle,
    TorsionPair,
    WingDecomposition,
    _lay,
    compose,
    count_structured,
    decompose,
    enumerate_brute,
    enumerate_structured,
    from_pointed_cycle,
    is_finite_half,
    iter_structured,
    perp_contains,
    perp_enumerate,
    sample_halves,
    statistics,
    to_pointed_cycle,
)

RANK_TEN_HALF = PeriodicDiagram.from_arcs(
    10, [(8, 12), (8, 11), (9, 11), (3, 6), (3, 5), (4, 6), (6, 8)]
)


def halves(n):
    return enumerate_structured(n)


# ---- finite halves and perpendiculars -------------------------------------------


def test_is_finite_half_cases():
    assert is_finite_half(PeriodicDiagram(2, frozenset()))
    assert is_finite_half(PeriodicDiagram.from_arcs(2, [(0, 2)]))
    assert not is_finite_half(PeriodicDiagram.from_arcs(2, [(0, 3)]))


def test_perp_contains_cases():
    X = PeriodicDiagram.from_arcs(2, [(0, 2)])
    assert perp_contains(X, (1, 3))
    assert not perp_contains(X, (0, 2))
    assert perp_contains(PeriodicDiagram(2, frozenset()), (0, 5))


def test_perp_enumerate_matches_oracle():
    X = PeriodicDiagram.from_arcs(3, [(0, 2), (0, 3), (1, 3)])
    listed = perp_enumerate(X, 9)
    for length in range(2, 10):
        for i in range(3):
            assert ((i, i + length) in listed.orbits) == perp_contains(X, (i, i + length))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_perp_membership_agrees_with_ext_vanishing(n):
    # independent route: y is perpendicular to X iff Ext^1 from every orbit of
    # X to the down-shift of y vanishes
    from clustertubes.arcs import ext1_dim, normalize_orbit

    for X in halves(n):
        for length in range(2, 3 * n + 1):
            for i in range(n):
                y = (i, i + length)
                shifted = normalize_orbit(n, (y[0] + 1, y[1] + 1))
                via_ext = all(ext1_dim(n, x, shifted) == 0 for x in X.orbits)
                assert perp_contains(X, y) == via_ext


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exactly_one_side_finite(n):
    # the half is finite by construction; its perpendicular contains arcs of
    # every multiple-of-n length (through the cut vertices), hence is infinite
    for X in halves(n):
        for k in (1, 2, 3):
            if k * n < 2:
                continue
            assert any(perp_contains(X, (c, c + k * n)) for c in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_cluster_tilting_pairs(n):
    # no finite half has a finite perpendicular: some arc longer than n is
    # always perpendicular
    for X in halves(n):
        assert any(perp_contains(X, (c, c + 2 * n)) for c in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_nc_fixed_point(n):
    # a length-<=n orbit lies in a finite half iff it crosses nothing in the
    # non-crossing complement (a length-2n+2 slice already contains a crossing
    # witness for every excluded orbit)
    from clustertubes.arcs import orbits_cross

    for X in halves(n):
        complement = nc_enumerate(X, 2 * n + 2)
        recovered = frozenset(
            orbit
            for orbit in ((i, i + L) for L in range(2, n + 1) for i in range(n))
            if not any(orbits_cross(n, orbit, other) for other in complement.orbits)
        )
        assert recovered == X.orbits


# ---- wing decomposition ----------------------------------------------------------


def test_decompose_rank_ten_worked_example():
    wings = decompose(RANK_TEN_HALF)
    assert wings.cuts == (2, 3, 6, 8)
    spans = wings.spans()
    assert spans == [(2, 3), (3, 6), (6, 8), (8, 12)]
    contents = []
    for (c, _), piece in zip(spans, wings.pieces):
        arcs = sorted([(c + a, c + b) for a, b in piece.diagonals] + (
            [(c, c + piece.size)] if piece.size >= 2 else []
        ))
        contents.append(arcs)
    assert contents == [
        [],
        [(3, 5), (3, 6), (4, 6)],
        [(6, 8)],
        [(8, 11), (8, 12), (9, 11)],
    ]
    assert compose(wings) == RANK_TEN_HALF


def test_decompose_empty_rank_three():
    wings = decompose(PeriodicDiagram(3, frozenset()))
    assert wings.cuts == (0, 1, 2)
    assert wings.pieces == (DEGENERATE, DEGENERATE, DEGENERATE)


def test_decompose_single_orbit_rank_four():
    wings = decompose(PeriodicDiagram.from_arcs(4, [(1, 3)]))
    assert wings.cuts == (0, 1, 3)
    assert [p.size for p in wings.pieces] == [1, 2, 1]


def test_compose_all_degenerate_is_empty():
    wings = WingDecomposition(3, (0, 1, 2), (DEGENERATE,) * 3)
    assert compose(wings) == PeriodicDiagram(3, frozenset())


def random_diagrams(count, seed=2012):
    """Periodic diagrams at ranks 1-7 with up to 6 orbits of length up to
    2n + 1: most are not finite halves."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        orbits = set()
        for _ in range(rng.randint(0, 6)):
            i = rng.randrange(n)
            orbits.add((i, i + rng.randint(2, 2 * n + 1)))
        yield PeriodicDiagram(n, frozenset(orbits))


def test_decompose_rejects_non_halves():
    # missing top arc over the covered vertex
    with pytest.raises(ValueError):
        decompose(PeriodicDiagram.from_arcs(2, [(0, 2), (1, 3)]))
    # Any periodic diagram either lacks a cut or a top arc, or decomposes and
    # composes back to itself: no arc can straddle a cut.
    seen = set()
    for X in random_diagrams(3000):
        try:
            wings = decompose(X)
        except ValueError as exc:
            reasons = [r for r in ("no cut vertex", "missing its top arc") if r in str(exc)]
            assert reasons, exc
            seen.add(reasons[0])
            continue
        assert compose(wings) == X
        seen.add("round trip")
    assert seen == {"no cut vertex", "missing its top arc", "round trip"}


def cuts_by_vertex(X):
    """The cuts by a walk over every vertex of [0, n), each tested against
    the furthest right end of the arcs starting left of it: the reference
    for the sweep in decompose."""
    n = X.rank
    reach, furthest = 0, {}  # shifts from the left reach up to j - n
    for i, j in X.orbits:
        reach = max(reach, j - n)
        furthest[i] = max(j, furthest.get(i, j))
    cuts = []
    for v in range(n):
        if v >= reach:
            cuts.append(v)
        reach = max(reach, furthest.get(v, reach))
    return cuts


def test_cut_sweep_matches_the_vertex_walk():
    for X in itertools.chain(random_diagrams(3000), record_halves()):
        cuts = cuts_by_vertex(X)
        if not cuts:
            expected = "no cut vertex: the diagram is not a finite half"
        else:
            spans = zip(cuts, cuts[1:] + [cuts[0] + X.rank])
            missing = [(c, d) for c, d in spans if d - c >= 2 and (c, d) not in X.orbits]
            if not missing:
                assert decompose(X).cuts == tuple(cuts)
                continue
            expected = f"span {missing[0]} is missing its top arc; input is not Ptolemy"
        with pytest.raises(ValueError) as info:
            decompose(X)
        assert str(info.value) == expected


def test_decompose_memory_does_not_grow_with_the_rank():
    import tracemalloc

    X = PeriodicDiagram(200000, frozenset({(0, 200000)}))
    tracemalloc.start()
    try:
        wings = decompose(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wings.cuts == (0,)
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decompose_compose_round_trip_exhaustive(n):
    for X in halves(n):
        wings = decompose(X)
        assert compose(wings) == X
        assert sum(p.size for p in wings.pieces) == n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_compose_decompose_round_trip_from_wing_side(n):
    # decompose(compose(W)) == W for arbitrary valid decompositions, which is
    # what makes the grammar enumeration duplicate-free
    import random

    from clustertubes.polygons import polygon_diagrams

    rng = random.Random(71 * n)
    for _ in range(200):
        mask = rng.randrange(1, 1 << n)
        cuts = [v for v in range(n) if mask >> v & 1]
        ends = cuts[1:] + [cuts[0] + n]
        pieces = tuple(rng.choice(polygon_diagrams(d - c)) for c, d in zip(cuts, ends))
        wings = WingDecomposition(n, tuple(cuts), pieces)
        assert decompose(compose(wings)) == wings


def test_wing_json_round_trip():
    wings = decompose(RANK_TEN_HALF)
    text = wings.to_json()
    assert WingDecomposition.from_json(text).to_json() == text
    assert compose(WingDecomposition.from_json(text)) == RANK_TEN_HALF


def test_wing_json_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="finite_side"):
        decompose(RANK_TEN_HALF).to_json("both")


# ---- records against json.dumps -----------------------------------------------------


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def laid_half(rng, n):
    """A random rank-n half: spans of width at most 6, each carrying a random
    diagram of its width."""
    widths = []
    while sum(widths) < n:
        widths.append(rng.randint(1, min(6, n - sum(widths))))
    starts = itertools.accumulate(widths[:-1], initial=rng.randrange(n))
    pieces = [rng.choice(polygon_diagrams(g)) for g in widths]
    return _lay(n, zip(starts, pieces))


def laid_halves(count, seed):
    """Seeded halves at ranks 10-60, so endpoints have two digits."""
    rng = random.Random(seed)
    for _ in range(count):
        yield laid_half(rng, rng.randint(10, 60))


def record_halves():
    for n in range(1, 7):
        yield from iter_structured(n)
    yield from laid_halves(300, seed=8)


def expected_wing_pairs(X, wings):
    """The wing record's pairs read off the half itself: per span (c, d),
    the top and every arc of X shifted into [c, d], sorted."""
    n = X.rank
    pairs = []
    for c, d in wings.spans():
        inside = [(i + s, j + s) for i, j in X.orbits for s in (0, n) if c <= i + s and j + s <= d]
        pairs.append({"top": [c, d], "arcs": [list(a) for a in sorted(inside)]})
    return pairs


def test_records_are_compact_json_dumps():
    widest = 0
    for X in record_halves():
        widest = max([widest, *(j for _, j in X.orbits)])
        n = X.rank
        orbits = [list(a) for a in sorted(X.orbits, key=lambda a: (a[1] - a[0], a[0]))]
        records = [(X.to_json(), {"rank": n, "orbits": orbits})]
        for side in ("left", "right"):
            records.append((
                TorsionPair(n, X, side).to_json(),
                {"rank": n, "finite_side": side, "orbits": orbits},
            ))
        wings = decompose(X)
        pairs = expected_wing_pairs(X, wings)
        records.append((wings.to_json(), {"rank": n, "pairs": pairs}))
        for side in ("left", "right"):
            records.append((wings.to_json(side), {"rank": n, "finite_side": side, "pairs": pairs}))
        for text, expected in records:
            assert text == compact(json.loads(text))
            assert text == compact(expected)
    assert widest >= 10  # some endpoints have two digits


def test_built_values_equal_the_validating_constructors():
    # _lay and decompose build their values with Frozen._canonical, past the
    # checks of each class's __init__, and from_json builds through decompose.
    for X in record_halves():
        assert X == PeriodicDiagram(X.rank, X.orbits)
        wings = decompose(X)
        assert wings == WingDecomposition(wings.rank, wings.cuts, wings.pieces)
        assert WingDecomposition.from_json(wings.to_json()) == wings
        for p in wings.pieces:
            assert p == PolygonDiagram(p.size, p.diagonals)


def refuse(self, *args):
    raise AssertionError("a validating constructor ran")


def counting_wing_spans(monkeypatch):
    """Patch ``records._wing_spans`` to record the spans of each call."""
    from clustertubes import records

    read, calls = records._wing_spans, []

    def counted(data):
        calls.append(read(data))
        return calls[-1]

    monkeypatch.setattr(records, "_wing_spans", counted)
    return calls


def test_decompose_skips_the_wing_checks_and_from_json_keeps_them(monkeypatch):
    # decompose builds its decomposition canonical; from_json checks each
    # record once, through _wing_spans, and still rejects a bad one.
    halves = list(laid_halves(100, seed=8))
    monkeypatch.setattr(WingDecomposition, "__init__", refuse)
    checked = counting_wing_spans(monkeypatch)
    records = [decompose(X).to_json() for X in halves]
    assert checked == []
    for X, text in zip(halves, records):
        assert WingDecomposition.from_json(text) == decompose(X)
    assert len(checked) == len(records)
    duplicate_cut = '{"rank":2,"pairs":[{"top":[0,1],"arcs":[]},{"top":[2,3],"arcs":[]}]}'
    with pytest.raises(ValueError, match=r"^cuts must be strictly increasing within \[0, 2\)$"):
        WingDecomposition.from_json(duplicate_cut)


def scrambled_wing_records(X, rng):
    """Wing records of the half X that read alike: each pair shifted by a
    multiple of the rank, the pairs and each pair's arcs reordered, and some
    arcs listed twice."""
    n = X.rank
    record = json.loads(decompose(X).to_json())
    for _ in range(3):
        pairs = []
        for pair in record["pairs"]:
            shift = n * rng.randint(-2, 2)
            arcs = [[a + shift, b + shift] for a, b in pair["arcs"]]
            arcs += rng.sample(arcs, rng.randint(0, len(arcs)))
            rng.shuffle(arcs)
            c, d = pair["top"]
            pairs.append({"top": [c + shift, d + shift], "arcs": arcs})
        rng.shuffle(pairs)
        yield compact({"rank": n, "pairs": pairs})


def test_from_json_decomposes_the_half_it_reads():
    # Ranks 600 and 1000 lie above RECORD_RANK: the library reader has no cap.
    rng = random.Random(25)
    halves = [X for n in range(1, 6) for X in iter_structured(n)]
    halves += [laid_half(rng, n) for n in (600, 1000) for _ in range(5)]
    for X in halves:
        for text in scrambled_wing_records(X, rng):
            wings = WingDecomposition.from_json(text)
            assert wings == decompose(X) == decompose(compose(wings))
            tops = [pair["top"][0] for pair in json.loads(text)["pairs"]]
            assert wings.cuts == tuple(sorted(c % X.rank for c in tops))


@pytest.mark.parametrize("n", [600, 1000, 2**40])
def test_wing_records_round_trip_past_the_record_layout(n):
    # Arc keys widen with the rank past RECORD_RANK, so the library's walk
    # and writer hold at any rank: a key as wide as at RECORD_RANK would run
    # the far end 2n - 1 of the first half's top arc into its left end.
    # That half has two orbits, on one span from the last vertex.
    rng = random.Random(n)
    halves = [PeriodicDiagram(n, frozenset({(n - 1, 2 * n - 1), (n - 1, n + 1)}))]
    halves += [laid_half(rng, n) for _ in range(5 if n < 2**40 else 0)]
    assert decompose(halves[0]) == WingDecomposition(n, (n - 1,), (PolygonDiagram(n, ((0, 2),)),))
    for X in halves:
        wings = decompose(X)
        text = wings.to_json()
        assert text == compact({"rank": n, "pairs": expected_wing_pairs(X, wings)})
        assert WingDecomposition.from_json(text) == wings
        assert compose(wings) == X


def test_decompose_and_compose_check_each_piece_once(monkeypatch):
    # decompose builds its pieces canonical; compose's input is checked in
    # _wing_spans, which lays one key per arc of the record (each orbit lies
    # in one span), and no piece is re-checked on the way.
    halves = list(laid_halves(300, seed=8))
    monkeypatch.setattr(PolygonDiagram, "__init__", refuse)
    checked = counting_wing_spans(monkeypatch)
    records = [decompose(X).to_json() for X in halves]
    assert checked == []
    wide = 0
    for X, text in zip(halves, records):
        wings = WingDecomposition.from_json(text)
        assert compose(wings) == X
        assert len(checked[-1]) == len(X.orbits)
        wide += sum(p.size >= 2 for p in wings.pieces)
    assert len(checked) == len(records)
    assert wide > 300


# ---- pointed cycles ---------------------------------------------------------------


def test_pointed_cycle_rank_ten_example():
    cycle = to_pointed_cycle(RANK_TEN_HALF)
    assert [p.size for p in cycle.pieces] == [1, 3, 2, 4]
    # the marked vertex (coordinate 0) is the second non-base vertex of the
    # size-4 piece based at the cut 8
    assert cycle.piece_index == 3
    assert cycle.vertex == 2
    assert from_pointed_cycle(cycle, 10) == RANK_TEN_HALF


def test_pointed_cycle_empty():
    cycle = to_pointed_cycle(PeriodicDiagram(3, frozenset()))
    assert [p.size for p in cycle.pieces] == [1, 1, 1]
    assert cycle.vertex == 1
    assert from_pointed_cycle(cycle, 3) == PeriodicDiagram(3, frozenset())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pointed_cycle_round_trip_exhaustive(n):
    for X in halves(n):
        assert from_pointed_cycle(to_pointed_cycle(X), n) == X


def test_pointed_cycles_are_built_without_the_checks(monkeypatch):
    # pointed_cycle and rotate build valid cycles, so neither runs
    # PointedCycle.__init__
    monkeypatch.setattr(PointedCycle, "__init__", refuse)
    for n in range(1, 6):
        for X in iter_structured(n):
            assert from_pointed_cycle(decompose(X).pointed_cycle(), n) == X


def test_pointed_cycle_rotation_round_trip():
    cycle = to_pointed_cycle(RANK_TEN_HALF)
    for steps in range(len(cycle.pieces)):
        rotated = cycle.rotate(steps)
        assert from_pointed_cycle(rotated, 10) == RANK_TEN_HALF
        assert to_pointed_cycle(from_pointed_cycle(rotated, 10)) == rotated.rotate((rotated.piece_index + 1) % len(rotated.pieces))


def test_from_pointed_cycle_size_mismatch():
    cycle = PointedCycle((PolygonDiagram(2),), 0, 1)
    with pytest.raises(ValueError):
        from_pointed_cycle(cycle, 5)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_pointed_cycle_round_trip_sampled(n):
    for X in sample_halves(n, 50, seed=n):
        assert is_finite_half(X)
        assert from_pointed_cycle(to_pointed_cycle(X), n) == X
        assert compose(decompose(X)) == X


def test_sample_halves_draws_one_half_at_a_time():
    samples = sample_halves(150, 1000, seed=150)
    assert iter(samples) is samples and not isinstance(samples, list)
    assert next(samples).rank == 150


# ---- statistics --------------------------------------------------------------------


def test_statistics_cases():
    assert statistics(PeriodicDiagram(4, frozenset())) == (0, 0, 0)
    assert statistics(PeriodicDiagram.from_arcs(2, [(0, 2)])) == (1, 0, 0)
    assert statistics(PeriodicDiagram.from_arcs(4, [(0, 4)])) == (0, 0, 1)
    assert statistics(RANK_TEN_HALF) == (4, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_statistics_histogram_matches_refined_formula(n):
    assert dict(fixed_histograms(n)[n]) == refined_table(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5))
def test_tau_preserves_statistics(n, power):
    for X in sample_halves(n, 5, seed=power):
        assert statistics(X.tau(power)) == statistics(X)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tau_maps_halves_to_halves(n):
    for X in halves(n):
        assert is_finite_half(X.tau())


# ---- enumeration -------------------------------------------------------------------


def test_enumerate_brute_counts():
    assert [len(enumerate_brute(n)) for n in range(1, 8)] == [1, 3, 16, 91, 546, 3366, 21134]


def test_enumerate_brute_rank_one_and_two():
    assert enumerate_brute(1) == [PeriodicDiagram(1, frozenset())]
    assert set(enumerate_brute(2)) == {
        PeriodicDiagram(2, frozenset()),
        PeriodicDiagram.from_arcs(2, [(0, 2)]),
        PeriodicDiagram.from_arcs(2, [(1, 3)]),
    }


def test_enumerate_brute_cap():
    with pytest.raises(CapExceeded):
        enumerate_brute(8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_brute_equals_structured(n):
    b, s = enumerate_brute(n), enumerate_structured(n)
    assert b == s
    assert [x.to_json() for x in b] == [x.to_json() for x in s]


@pytest.mark.parametrize("m", range(1, 7))
def test_one_span_halves_are_the_polygon_diagrams(m):
    # A polygon diagram of size m is a rank-m half whose only cut is 0: the
    # two brute-force oracles agree on that case, each diagram once.  The
    # halves come sorted by their orbits, the diagrams by their diagonals.
    one_span = [W.pieces[0] for W in map(decompose, enumerate_brute(m)) if W.cuts == (0,)]
    assert sorted(one_span, key=lambda P: P.diagonals) == enumerate_polygon(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_enumerated_half_is_one(n):
    for X in halves(n):
        assert is_finite_half(X)


def test_structured_counts_match_formula():
    for n in range(1, 7):
        assert 2 * len(enumerate_structured(n)) == torsion_count(n)


def test_structured_cap():
    with pytest.raises(CapExceeded):
        list(iter_structured(10))
    with pytest.raises(CapExceeded):
        next(iter_orbits_json(10))
    with pytest.raises(ValueError, match="rank must be >= 1"):
        next(iter_orbits_json(0))


@pytest.mark.parametrize("n", range(1, 8))
def test_count_structured_matches_walked_grammar(n):
    assert count_structured(n) == sum(1 for _ in iter_structured(n))


def test_count_structured_matches_formula_at_large_rank():
    for n in range(1, 151):
        assert 2 * count_structured(n) == torsion_count(n)


def test_count_structured_guards():
    with pytest.raises(ValueError):
        count_structured(0)


def test_count_structured_builds_nothing():
    polygon_diagrams.cache_clear()
    _diagonal_table.cache_clear()
    count_structured(9)
    assert polygon_diagrams.cache_info().currsize == 0
    assert _diagonal_table.cache_info().currsize == 0


def test_fixed_histograms_build_only_short_pieces():
    # s = n is counted, and s < n walks the rank-s halves, whose spans are
    # at most s <= n/2 wide
    polygon_diagrams.cache_clear()
    _diagonal_table.cache_clear()
    fixed_histograms(9)
    assert polygon_diagrams.cache_info().currsize <= 3
    assert _diagonal_table.cache_info().currsize <= 3


@pytest.mark.parametrize("n, walks", [(8, 1 + 1 + 4 + 17), (9, 1 + 1 + 4)])
def test_fixed_histograms_walk_each_short_diagram_once(monkeypatch, n, walks):
    # statistics_polygon runs once per diagram of width up to the largest
    # proper divisor of n (1, 1, 4 and 17 diagrams of widths 1..4), not once
    # per divisor, nor once per piece of every rank-s half.
    from clustertubes import sieving
    from clustertubes.polygons import statistics_polygon

    walked = []

    def counted(diagram):
        walked.append(diagram)
        return statistics_polygon(diagram)

    monkeypatch.setattr(sieving, "statistics_polygon", counted)
    fixed_histograms(n)
    assert len(walked) == walks


# ---- translation symmetry ------------------------------------------------------------


def test_fixed_under_cases():
    assert fixed_histograms(2)[1] == Counter({(0, 0, 0): 2})  # only the empty half
    assert sum(fixed_histograms(2)[2].values()) == 6
    assert sum(fixed_histograms(4)[2].values()) == 6
    assert set(fixed_histograms(4)) == {1, 2, 4}  # one histogram per divisor


@pytest.mark.parametrize("n,d", [(2, 1), (4, 1), (4, 2), (6, 2), (6, 3)])
def test_fixed_under_count_is_smaller_rank_count(n, d):
    assert sum(fixed_histograms(n)[d].values()) == torsion_count(d)


@pytest.mark.parametrize("n,d", [(2, 1), (4, 2), (6, 2), (6, 3)])
def test_fixed_halves_are_lifted_smaller_rank_halves(n, d):
    lifted = set()
    for Y in enumerate_structured(d):
        arcs = [(i + t * d, j + t * d) for i, j in Y.orbits for t in range(n // d)]
        lifted.add(PeriodicDiagram.from_arcs(n, arcs))
    assert {X for X in iter_structured(n) if X.tau(d) == X} == lifted


def test_orbit_counts():
    assert orbit_count(1) == 2
    assert orbit_count(2) == 4
    for n in range(1, 6):
        assert orbit_count(n) == orbit_count_direct(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_orbit_counts_refined(n):
    assert orbit_count_refined(n) == orbits_from_fixed(fixed_histograms(n))


def tau_orbit_partition(n):
    """Refined orbit counts by explicit partition: each half's whole
    tau-orbit is built with PeriodicDiagram.tau and marked seen."""
    seen, counts = set(), Counter()
    for X in iter_structured(n):
        if X not in seen:
            seen.update(X.tau(t) for t in range(n))
            counts[statistics(X)] += 2  # one orbit per side
    return dict(counts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_orbit_counts_from_fixed_points_equal_an_explicit_partition(n):
    partition = tau_orbit_partition(n)
    assert orbits_from_fixed(fixed_histograms(n)) == partition
    assert orbit_count_direct(n) == sum(partition.values())


def test_orbit_refined_sums_to_total():
    for n in range(1, 6):
        assert sum(orbit_count_refined(n).values()) == orbit_count(n)


# ---- torsion pair values ---------------------------------------------------------------


def test_torsion_pair_json_round_trip():
    pair = TorsionPair(10, RANK_TEN_HALF, "right")
    text = pair.to_json()
    data = read_record(text, "orbits", "finite_side")
    diagram = PeriodicDiagram.from_arcs(data["rank"], data["orbits"])
    decoded = TorsionPair(data["rank"], diagram, data["finite_side"])
    assert decoded == pair
    assert decoded.to_json() == text


def test_torsion_pair_validation():
    with pytest.raises(ValueError):
        TorsionPair(2, PeriodicDiagram.from_arcs(2, [(0, 3)]), "left")
    with pytest.raises(ValueError):
        TorsionPair(2, PeriodicDiagram(2, frozenset()), "middle")
    with pytest.raises(ValueError):
        TorsionPair(3, PeriodicDiagram(2, frozenset()), "left")
