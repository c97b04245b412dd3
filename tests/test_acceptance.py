"""Acceptance suite: the contract checks, one test per criterion.

Each test prints a single PASS line once its criterion holds (run pytest with
``-s`` or read captured output); a failing criterion fails its test.  All
comparisons are exact integer equalities unless a tolerance is stated.
"""

import itertools
import random
import time

from clustertubes.arcs import (
    PeriodicDiagram,
    ext1_dim,
    is_rigid,
    iter_crossing_pairs,
    nc_enumerate,
    orbits_cross,
    ptolemy_completions,
)
from clustertubes.asymptotics import asymptotic_check, growth_amplitude, growth_rate
from clustertubes.counting import refined_table, torsion_count
from clustertubes.pieces import compose_base, decompose_base, enumerate_polygon
from clustertubes.polygons import polygon_diagrams
from clustertubes.series import X, Y1, Y2, series_P, series_torsion
from clustertubes.sieving import csp_verify, fixed_histograms, orbit_count, orbit_count_direct
from clustertubes.torsion import (
    compose,
    decompose,
    enumerate_brute,
    enumerate_structured,
    from_pointed_cycle,
    iter_structured,
    sample_halves,
    statistics,
    to_pointed_cycle,
)

EXPECTED_SMALL_COUNTS = {1: 2, 2: 6, 3: 32, 4: 182, 5: 1092}


def test_criterion_1_counting_triangle():
    start = time.monotonic()
    for n, expected in EXPECTED_SMALL_COUNTS.items():
        brute = enumerate_brute(n)
        structured = enumerate_structured(n)
        assert set(brute) == set(structured)
        assert 2 * len(brute) == expected
        assert 2 * len(structured) == expected
        assert torsion_count(n) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 1 PASS: brute = structured = formula = (2,6,32,182,1092) "
          f"for n=1..5 [{elapsed:.1f}s]")


def test_criterion_2_structured_vs_formula():
    start = time.monotonic()
    for n in range(6, 10):
        count = sum(1 for _ in iter_structured(n))
        assert 2 * count == torsion_count(n)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"\nACCEPTANCE 2 PASS: 2*|structured(n)| = formula for n=6..9 [{elapsed:.1f}s]")


def test_criterion_3_refined_counts():
    for n in range(1, 6):
        assert dict(fixed_histograms(n)[n]) == refined_table(n)
    for n in range(1, 31):
        assert sum(refined_table(n).values()) == torsion_count(n)
    print("\nACCEPTANCE 3 PASS: refined series coefficients match the refined formula "
          "(n<=5); refined sums equal totals (n<=30)")


def test_criterion_4_series_identities():
    ones = series_torsion(20, 1, 1, 1)
    for n in range(1, 21):
        assert ones.coeffs[n] == torsion_count(n)
    refined_series = series_torsion(12)
    for n in range(1, 11):
        assert {e: c for e, c in refined_series.coeffs[n].terms} == refined_table(n)
    P = series_P(3)
    assert P.coeffs[0] == 0
    assert P.coeffs[1] == 1
    assert P.coeffs[2] == X
    assert P.coeffs[3] == 2 * X * X + Y1 + Y2
    print("\nACCEPTANCE 4 PASS: torsion series = formula (n<=20), coefficientwise "
          "(n<=10); P starts z + x z^2 + (2x^2+y1+y2) z^3")


def test_criterion_5_polygon_counts_and_recursion():
    series_at_ones = series_P(7, 1, 1, 1)
    brute_counts = [len(enumerate_polygon(m)) for m in range(1, 6)]
    assert brute_counts == [1, 1, 4, 17, 82]
    assert brute_counts == [series_at_ones.coeffs[m] for m in range(1, 6)]
    for m in range(1, 7):
        for diagram in polygon_diagrams(m):
            cell, subs = decompose_base(diagram)
            assert compose_base(cell, subs) == diagram
    print("\nACCEPTANCE 5 PASS: polygon counts (1,1,4,17,82) by brute force = series; "
          "base-cell recursion reassembles (m<=6)")


def test_criterion_6_bijection_round_trips():
    for n in range(1, 5):
        for half in enumerate_structured(n):
            assert compose(decompose(half)) == half
            assert from_pointed_cycle(to_pointed_cycle(half), n) == half
    sampled = 0
    for n in (6, 7, 8):
        for half in sample_halves(n, 334, seed=10 * n):
            assert compose(decompose(half)) == half
            assert from_pointed_cycle(to_pointed_cycle(half), n) == half
            sampled += 1
    assert sampled >= 1000

    worked = PeriodicDiagram.from_arcs(
        10, [(8, 12), (8, 11), (9, 11), (3, 6), (3, 5), (4, 6), (6, 8)]
    )
    wings = decompose(worked)
    listed = []
    for (c, d), piece in zip(wings.spans(), wings.pieces):
        arcs = frozenset((c + a, c + b) for a, b in piece.diagonals) | (
            frozenset({(c, d)}) if piece.size >= 2 else frozenset()
        )
        listed.append(((c, d), arcs))
    assert listed == [
        ((2, 3), frozenset()),
        ((3, 6), frozenset({(3, 5), (3, 6), (4, 6)})),
        ((6, 8), frozenset({(6, 8)})),
        ((8, 12), frozenset({(8, 11), (8, 12), (9, 11)})),
    ]
    print("\nACCEPTANCE 6 PASS: decompose/compose and pointed-cycle round trips "
          f"(exhaustive n<=4, {sampled} sampled halves n=6..8); the rank-10 "
          "worked example yields its four listed wing pairs")


def test_criterion_7_cyclic_sieving():
    total = 0
    for n in range(1, 7):
        records = csp_verify(n)
        assert records and all(r.match for r in records)
        total += len(records)
    print(f"\nACCEPTANCE 7 PASS: cyclic sieving exact at every d | n, n<=6 "
          f"({total} root-of-unity checks)")


def test_criterion_8_burnside():
    assert orbit_count(2) == 4
    for n in range(1, 6):
        assert orbit_count(n) == orbit_count_direct(n)
    print("\nACCEPTANCE 8 PASS: Cauchy-Frobenius orbit counts equal direct "
          "partitions for n<=5 (n=2 gives 4)")


def test_criterion_9_asymptotics():
    start = time.monotonic()
    rho, alpha = growth_rate(), growth_amplitude()
    assert abs(rho - 6.847333996370022) < 1e-12
    assert abs(alpha - 0.2658656601482029) < 1e-12
    ratio, alpha_est = asymptotic_check(60)
    assert abs(ratio - rho) / rho < 0.02
    assert abs(alpha_est - alpha) / alpha < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\nACCEPTANCE 9 PASS: rho and alpha reproduced to 1e-12; exact counts "
          f"at n=60 approach them within 2% / 5% [{elapsed:.2f}s]")


def _is_ptolemy_up_to(diagram, bound):
    """Ptolemy check of a length-truncated slice of a Ptolemy collection:
    connectors longer than ``bound`` are skipped, as the slice drops them."""
    return all(diagram.contains_arc(p)
               for a, b in iter_crossing_pairs(diagram)
               for p in ptolemy_completions(a, b) if p[1] - p[0] <= bound)


def test_criterion_10_property_suites():
    # Ext^1 symmetry and crossing equivalence, exhaustive n <= 4
    for n in range(1, 5):
        pool = [(i, i + L) for L in range(2, 2 * n + 1) for i in range(n)]
        for a, b in itertools.combinations_with_replacement(pool, 2):
            assert ext1_dim(n, a, b) == ext1_dim(n, b, a)
            assert (ext1_dim(n, a, b) > 0) == orbits_cross(n, a, b)
    # rigidity iff length <= n, exhaustive n <= 5
    for n in range(1, 6):
        for a in ((i, i + L) for L in range(2, 3 * n + 1) for i in range(n)):
            assert is_rigid(n, a) == (a[1] - a[0] <= n) == (ext1_dim(n, a, a) == 0)
    # nc is Ptolemy and tau^n = id on random diagrams, n <= 6
    rng = random.Random(20240)
    for trial in range(120):
        n = rng.randrange(1, 7)
        orbits = frozenset(
            (i, i + L)
            for i, L in (
                (rng.randrange(n), rng.randrange(2, 2 * n + 1)) for _ in range(rng.randrange(6))
            )
        )
        diagram = PeriodicDiagram(n, orbits)
        assert diagram.tau(n) == diagram
        sliced = nc_enumerate(diagram, 2 * n + 2)
        assert _is_ptolemy_up_to(sliced, 2 * n + 2)
    # double-nc fixed point, exactly-one-side-finite and tau-equivariance of
    # statistics: exhaustive n <= 4, sampled n = 5, 6
    for n in range(1, 7):
        pool = (
            enumerate_structured(n) if n <= 4 else sample_halves(n, 120, seed=n)
        )
        for half in pool:
            complement = nc_enumerate(half, 2 * n + 2)
            recovered = frozenset(
                orbit
                for orbit in ((i, i + L) for L in range(2, n + 1) for i in range(n))
                if not any(orbits_cross(n, orbit, other) for other in complement.orbits)
            )
            assert recovered == half.orbits
            assert any(
                (c, c + 2 * n) in complement.orbits for c in range(n)
            ), "perpendicular side must stay infinite"
            assert statistics(half.tau()) == statistics(half)
    print("\nACCEPTANCE 10 PASS: Ext^1 symmetry, rigidity, nc-is-Ptolemy, "
          "double-nc fixed points, one-side-finite, tau^n = id, tau-equivariant "
          "statistics (exhaustive n<=4, randomized n<=6)")
