import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustertubes.arcs import (
    PeriodicDiagram,
    cross,
    crossing_shifts,
    ext1_dim,
    is_ptolemy,
    is_rigid,
    iter_crossing_pairs,
    nc_contains,
    nc_enumerate,
    normalize_orbit,
    orbits_cross,
    ptolemy_completions,
)
from clustertubes.records import normalize_orbits, read_record

arcs = st.builds(lambda i, length: (i, i + length), st.integers(-30, 30), st.integers(2, 12))


def orbit_strategy(n: int, max_len: int):
    return st.builds(
        lambda i, length: (i, i + length), st.integers(0, n - 1), st.integers(2, max_len)
    )


def diagram_strategy(n: int, max_len: int):
    return st.builds(
        lambda orbits: PeriodicDiagram(n, frozenset(orbits)),
        st.frozensets(orbit_strategy(n, max_len), max_size=6),
    )


def all_orbits(n: int, max_len: int):
    return [(i, i + length) for length in range(2, max_len + 1) for i in range(n)]


# ---- crossing ----------------------------------------------------------------


def test_cross_basic_cases():
    assert cross((0, 2), (1, 3))
    assert not cross((0, 2), (2, 4))  # shared endpoint
    assert not cross((0, 5), (1, 3))  # nested


@given(arcs, arcs)
def test_cross_symmetric(a, b):
    assert cross(a, b) == cross(b, a)


@given(arcs)
def test_cross_irreflexive(a):
    assert not cross(a, a)


def test_orbits_cross_cases():
    assert orbits_cross(2, (0, 2), (1, 3))
    assert not orbits_cross(2, (0, 2), (0, 2))
    assert orbits_cross(2, (0, 3), (0, 3))  # the shift (2, 5) crosses (0, 3)
    assert list(crossing_shifts(2, (0, 3), (0, 3))) == [-1, 1]  # never the arc itself


def _crossing_shifts_by_scan(n, a, b):
    """The m with ``|m| <= (len_a + len_b) // n + 4`` whose shift of b crosses
    a, each tested with ``cross``; for canonical a and b no crossing shift
    lies outside that window."""
    w = (a[1] - a[0] + b[1] - b[0]) // n + 4
    return [m for m in range(-w, w + 1) if cross(a, (b[0] + m * n, b[1] + m * n))]


def _orbits_cross_by_scan(n, a, b):
    return bool(_crossing_shifts_by_scan(n, a, b))


canonical_pairs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), orbit_strategy(n, 41), orbit_strategy(n, 41)))


@settings(max_examples=500)
@given(canonical_pairs)
def test_crossing_shifts_match_the_shift_scan(pair):
    n, a, b = pair
    assert list(crossing_shifts(n, a, b)) == _crossing_shifts_by_scan(n, a, b)


@settings(max_examples=500)
@given(canonical_pairs)
def test_orbits_cross_matches_the_shift_scan(pair):
    n, a, b = pair
    assert orbits_cross(n, a, b) == _orbits_cross_by_scan(n, a, b)


def test_orbits_cross_far_beyond_the_rank():
    # The shift (2, 10**100 + 2) of (0, 10**100) crosses (1, 10**100 + 1).
    assert orbits_cross(2, (1, 10**100 + 1), (0, 10**100))
    assert not orbits_cross(2, (0, 2), (0, 10**100))
    assert orbits_cross(3, (0, 2), (1, 10**100))


# ---- Ext^1 -------------------------------------------------------------------


def test_ext1_cases():
    assert ext1_dim(2, (0, 2), (1, 3)) == 2
    assert ext1_dim(2, (0, 2), (0, 2)) == 0
    assert ext1_dim(2, (0, 3), (0, 3)) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext1_symmetric_and_matches_crossing(n):
    pool = all_orbits(n, 2 * n)
    for a, b in itertools.combinations_with_replacement(pool, 2):
        d1, d2 = ext1_dim(n, a, b), ext1_dim(n, b, a)
        assert d1 == d2
        assert (d1 > 0) == orbits_cross(n, a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rigid_iff_self_ext_vanishes(n):
    for a in all_orbits(n, 3 * n):
        assert is_rigid(n, a) == (a[1] - a[0] <= n)
        assert is_rigid(n, a) == (ext1_dim(n, a, a) == 0)


def test_rigid_boundary():
    assert is_rigid(2, (0, 2))
    assert not is_rigid(2, (0, 3))
    assert is_rigid(5, (0, 5))


# ---- nc ----------------------------------------------------------------------


def test_nc_contains_cases():
    empty = PeriodicDiagram(3, frozenset())
    assert nc_contains(empty, (0, 7))
    X = PeriodicDiagram.from_arcs(2, [(0, 2)])
    assert not nc_contains(X, (1, 3))
    assert nc_contains(X, (2, 4))  # a shift of (0, 2); shifts never cross


def test_nc_enumerate_cases():
    assert len(nc_enumerate(PeriodicDiagram(2, frozenset()), 3).orbits) == 4
    X = PeriodicDiagram.from_arcs(2, [(0, 2)])
    assert nc_enumerate(X, 2).orbits == frozenset({(0, 2)})
    both = PeriodicDiagram.from_arcs(2, [(0, 2), (1, 3)])
    assert nc_enumerate(both, 4).orbits == frozenset()
    with pytest.raises(ValueError):
        nc_enumerate(X, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: diagram_strategy(n, 3 * n)), st.integers(2, 16))
def test_nc_enumerate_matches_nc_contains(X, max_length):
    # the sweep against the orbit-by-orbit crossing test; X may self-cross
    expected = {
        (i, i + length)
        for length in range(2, max_length + 1)
        for i in range(X.rank)
        if nc_contains(X, (i, i + length))
    }
    assert nc_enumerate(X, max_length).orbits == expected


def _is_ptolemy_up_to(diagram, bound):
    """Ptolemy check of a length-truncated slice of a Ptolemy collection:
    connectors longer than ``bound`` are skipped, as the slice drops them."""
    return all(diagram.contains_arc(p)
               for a, b in iter_crossing_pairs(diagram)
               for p in ptolemy_completions(a, b) if p[1] - p[0] <= bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: diagram_strategy(n, 2 * n)))
def test_nc_is_ptolemy(X):
    sliced = nc_enumerate(X, 2 * X.rank + 2)
    assert _is_ptolemy_up_to(sliced, 2 * X.rank + 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: diagram_strategy(n, 2 * n)), arcs)
def test_tau_commutes_with_nc(X, arc):
    shifted = (arc[0] - 1, arc[1] - 1)
    assert nc_contains(X.tau(), shifted) == nc_contains(X, arc)


# ---- Ptolemy condition ---------------------------------------------------------


def test_is_ptolemy_cases():
    assert is_ptolemy(PeriodicDiagram(2, frozenset()))
    assert is_ptolemy(PeriodicDiagram.from_arcs(2, [(0, 2)]))
    # the crossing forces (0, 3), whose orbit is absent
    assert not is_ptolemy(PeriodicDiagram.from_arcs(2, [(0, 2), (1, 3)]))


def test_long_orbit_self_crossing_needs_completions():
    # (0, 3) at rank 2 crosses its own shift; the forced (0, 5) is absent
    assert not is_ptolemy(PeriodicDiagram.from_arcs(2, [(0, 3)]))


# ---- tau ----------------------------------------------------------------------


def test_tau_cases():
    X = PeriodicDiagram.from_arcs(2, [(0, 2)])
    assert X.tau() == PeriodicDiagram.from_arcs(2, [(1, 3)])
    assert PeriodicDiagram(3, frozenset()).tau() == PeriodicDiagram(3, frozenset())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: diagram_strategy(n, 2 * n)))
def test_tau_power_rank_is_identity(X):
    assert X.tau(X.rank) == X
    assert X.tau(1).tau(X.rank - 1) == X


# ---- values and serialization ---------------------------------------------------


def test_normalize_and_validation():
    assert normalize_orbit(3, (-1, 4)) == (2, 7)
    with pytest.raises(ValueError):
        normalize_orbit(3, (1, 2))
    with pytest.raises(ValueError):
        PeriodicDiagram(2, frozenset({(2, 4)}))  # not canonical
    with pytest.raises(ValueError):
        PeriodicDiagram(0, frozenset())


def test_public_constructors_still_validate():
    # from_arcs builds its value with Frozen._canonical, past __init__, so it
    # keeps the checks that __init__ would make for it.
    with pytest.raises(ValueError, match="rank must be positive"):
        PeriodicDiagram.from_arcs(0, [])
    with pytest.raises(ValueError, match=r"not an arc \(length 1 < 2\)"):
        PeriodicDiagram.from_arcs(3, [(0, 1)])
    with pytest.raises(ValueError, match="not in canonical form"):
        PeriodicDiagram(3, frozenset({(3, 5)}))
    expected = PeriodicDiagram(3, frozenset({(2, 7)}))
    assert PeriodicDiagram.from_arcs(3, [[-1, 4], (2, 7)]) == expected

    class Int(int):
        pass

    # The library constructor takes integer-like ends; a record's reader
    # (normalize_orbits) does not.
    assert PeriodicDiagram.from_arcs(3, [(Int(-1), Int(4))]) == expected
    with pytest.raises(TypeError, match=r"orbits\[0\] must be a pair of integers"):
        normalize_orbits(3, [(Int(-1), Int(4))])


@pytest.mark.parametrize("read", [PeriodicDiagram.from_arcs, normalize_orbits],
                         ids=["from_arcs", "normalize_orbits"])
def test_arc_readers_name_the_first_fault_of_an_iterator(read):
    # A one-shot iterator is read whole: after the fast pass fails, the
    # ordered checks still see every arc and name the first fault.
    arcs = [(0, 2), (4, 5), (7, 7)]
    with pytest.raises(ValueError, match=r"^not an arc \(length 1 < 2\): \(4, 5\)$"):
        read(3, (arc for arc in arcs))


def test_orbits_reader_names_the_first_entry_of_the_wrong_type():
    with pytest.raises(TypeError, match=r"^orbits\[1\] must be a pair of integers, got \[4\]$"):
        normalize_orbits(3, iter([[0, 2], [4], [1, 0], True]))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: diagram_strategy(n, 2 * n)))
def test_json_round_trip_is_bit_exact(X):
    text = X.to_json()
    data = read_record(text, "orbits")
    decoded = PeriodicDiagram.from_arcs(data["rank"], data["orbits"])
    assert decoded == X
    assert decoded.to_json() == text
