import pytest

from clustertubes.counting import refined_table, torsion_count_refined
from clustertubes.qpolys import eval_at_primitive_root
from clustertubes.sieving import csp_verify, q_torsion_count_refined


def test_sieving_polynomial_small_cases():
    assert q_torsion_count_refined(2, 0, 0, 0).coeffs == (2,)
    assert q_torsion_count_refined(2, 1, 0, 0).coeffs == (2, 2)  # 2(1 + q)
    assert q_torsion_count_refined(1, 1, 0, 0).is_zero()


def test_sieving_polynomial_specializes_at_one():
    for n in range(1, 8):
        for klm, count in refined_table(n).items():
            assert q_torsion_count_refined(n, *klm)(1) == count


def test_each_sieving_polynomial_is_built_once(monkeypatch):
    from collections import Counter

    from clustertubes import sieving

    calls = Counter()

    def counted(n, k, l, m):
        calls[(n, k, l, m)] += 1
        return q_torsion_count_refined(n, k, l, m)

    monkeypatch.setattr(sieving, "q_torsion_count_refined", counted)
    records = csp_verify(6)  # four divisors of 6, one record per divisor and triple
    assert all(r.match for r in records)
    assert sorted(calls) == sorted({(6, r.k, r.l, r.m) for r in records})
    assert set(calls.values()) == {1}


def test_rank_two_records():
    records = {(r.d, r.k, r.l, r.m): r for r in csp_verify(2)}
    r = records[(2, 0, 0, 0)]
    assert r.poly_value == r.fixed_count == 2
    r = records[(2, 1, 0, 0)]
    assert r.poly_value == r.fixed_count == 0
    r = records[(1, 1, 0, 0)]
    assert r.poly_value == r.fixed_count == 4


@pytest.mark.parametrize("n", range(1, 7))
def test_cyclic_sieving_holds(n):
    records = csp_verify(n)
    assert records, "no records produced"
    assert all(r.match for r in records)


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_with_smaller_rank(n):
    for r in csp_verify(n):
        if r.k % r.d == r.l % r.d == r.m % r.d == 0:
            expected = torsion_count_refined(n // r.d, r.k // r.d, r.l // r.d, r.m // r.d)
        else:
            expected = 0
        assert r.poly_value == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_vanishing_when_d_does_not_divide_stats(n):
    from clustertubes.sieving import _divisors

    for d in _divisors(n):
        if d == 1:
            continue
        for klm in refined_table(n):
            if any(v % d for v in klm):
                value = eval_at_primitive_root(q_torsion_count_refined(n, *klm), d)
                assert value == 0


def test_record_json_keys():
    record = csp_verify(1)[0]
    assert record.to_dict() == {
        "n": 1, "d": 1, "k": 0, "l": 0, "m": 0,
        "polyValue": 2, "fixedCount": 2, "match": True,
    }


@pytest.mark.parametrize("n", [2, 4, 6])
def test_fixed_totals_agree_with_fixed_under(n):
    # summing a divisor's records over (k,l,m) recovers the tau^(n/d)-invariant
    # pair count, which is the rank-n/d total
    from clustertubes.counting import torsion_count
    from clustertubes.sieving import _divisors

    records = csp_verify(n)
    for d in _divisors(n):
        total = sum(r.fixed_count for r in records if r.d == d)
        assert total == torsion_count(n // d)


@pytest.mark.parametrize("n", range(1, 7))
def test_fixed_counts_equal_statistics_and_tau_oracle(n):
    # the series coefficient (s = n) and the rank-s halves (s < n) against
    # decompose + cells (``statistics``) and ``PeriodicDiagram.tau`` on every
    # half
    from collections import Counter

    from clustertubes.sieving import _divisors, fixed_histograms
    from clustertubes.torsion import iter_structured, statistics

    halves = list(iter_structured(n))
    records = csp_verify(n)
    hists = fixed_histograms(n)
    for d in _divisors(n):
        oracle = Counter()
        for X in halves:
            if X.tau(n // d) == X:
                oracle[statistics(X)] += 2
        assert hists[n // d] == oracle
        fixed = {(r.k, r.l, r.m): r.fixed_count for r in records if r.d == d}
        assert set(oracle) <= set(fixed)
        assert fixed == {klm: oracle[klm] for klm in fixed}
        if d == 1:
            assert fixed_histograms(n)[n] == oracle


def full_walk_fixed_histograms(n):
    """The fixed-point histograms from every half of the grammar: statistics
    from a per-piece ``statistics_polygon`` table, and ``tau`` on each half
    whose cut mask is invariant under the rotation."""
    from collections import Counter

    from clustertubes.polygons import _walk, polygon_diagrams, statistics_polygon
    from clustertubes.sieving import _divisors
    from clustertubes.torsion import _lay

    shifts = _divisors(n)
    hists = {s: Counter() for s in shifts}
    table = {}
    full = (1 << n) - 1
    for cuts, _, pieces in _walk(n, polygon_diagrams):
        mask = sum(1 << c for c in cuts)
        k = l = m = 0
        for piece in pieces:
            if piece not in table:
                table[piece] = statistics_polygon(piece)
            a, b, c = table[piece]
            k, l, m = k + a, l + b, m + c
        hists[n][(k, l, m)] += 2
        X = None
        for s in shifts[:-1]:
            if (mask >> s | mask << (n - s)) & full != mask:
                continue
            if X is None:
                X = _lay(n, zip(cuts, pieces))
            if X.tau(s) == X:
                hists[s][(k, l, m)] += 2
    return hists


@pytest.mark.parametrize("n", range(1, 9))
def test_fixed_histograms_equal_full_walk_oracle(n):
    from clustertubes.sieving import fixed_histograms

    assert fixed_histograms(n) == full_walk_fixed_histograms(n)
