import math
from fractions import Fraction

import pytest

from clustertubes.asymptotics import (
    ALPHA_POLYNOMIAL,
    RHO_POLYNOMIAL,
    asymptotic_check,
    growth_amplitude,
    growth_rate,
    real_root,
)
from clustertubes.counting import (
    binomial,
    multinomial,
    refined_rows,
    refined_table,
    torsion_count,
    torsion_count_refined,
)
from clustertubes.qpolys import Q_ONE, QPoly
from clustertubes.series import series_P

RHO = 6.847333996370022
ALPHA = 0.2658656601482029


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0  # subset-count reading, not the polynomial one
    assert multinomial((2, 1, 1)) == 12
    assert multinomial((0, 0)) == 1
    assert multinomial((1, -1)) == 0


def test_torsion_count_small_values():
    assert [torsion_count(n) for n in range(1, 6)] == [2, 6, 32, 182, 1092]
    with pytest.raises(ValueError):
        torsion_count(0)


def reference_torsion_count(n):
    """The defining sum, each term from two fresh binomials."""
    total = 0
    l = 0
    while n - 1 - 2 * l >= 0:
        total += 2 ** (l + 1) * math.comb(n - 1 + l, l) * math.comb(2 * n - 1, n - 1 - 2 * l)
        l += 1
    return total


def test_torsion_count_matches_per_term_binomials():
    for n in range(1, 301):
        assert torsion_count(n) == reference_torsion_count(n)


def term_by_term_torsion_count(n):
    """The defining sum, each term built from the last by its exact ratio."""
    term = 2 * math.comb(2 * n - 1, n - 1)
    total = 0
    l = 0
    while term:
        total += term
        term = term * 2 * (n + l) * (n - 1 - 2 * l) * (n - 2 - 2 * l) // (
            (l + 1) * (n + 2 * l + 1) * (n + 2 * l + 2)
        )
        l += 1
    return total


def test_binary_splitting_matches_the_term_by_term_sum():
    for n in [*range(1, 301), 999, 1000]:
        assert torsion_count(n) == term_by_term_torsion_count(n)


def test_refined_values():
    assert torsion_count_refined(2, 0, 0, 0) == 2
    assert torsion_count_refined(2, 1, 0, 0) == 4
    assert torsion_count_refined(1, 1, 0, 0) == 0
    assert torsion_count_refined(4, 0, 0, 1) == 2 * multinomial((3, 0, 0, 1)) * binomial(2, 1)


@pytest.mark.parametrize("n", range(1, 41))
def test_refined_sums_to_total(n):
    assert sum(count for _, count in refined_rows(n)) == torsion_count(n)


@pytest.mark.parametrize("n", range(1, 41))
def test_refined_rows_are_the_table_in_sorted_order(n):
    rows = list(refined_rows(n))
    assert rows == list(refined_table(n).items())
    assert [klm for klm, _ in rows] == sorted(klm for klm, _ in rows)


def test_refined_rows_are_exactly_the_nonzero_set():
    for n in range(1, 8):
        support = {klm for klm, _ in refined_rows(n)}
        for k in range(n + 2):
            for l in range(n):
                for m in range(n):
                    nonzero = torsion_count_refined(n, k, l, m) != 0
                    assert nonzero == ((k, l, m) in support)


def test_refined_rows_check_the_rank_before_any_row():
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        refined_rows(0)


def test_summing_refined_rows_holds_no_table():
    # Summing the rows holds one count at a time: at rank 100 the peak is
    # 3.2 kB under tracemalloc, where refined_table(100) peaks at 9.2 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        total = sum(count for _, count in refined_rows(100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == torsion_count(100)
    assert peak < 100_000


def test_real_root_calibration():
    root = real_root((-2, 0, 1), "smallest")  # x^2 - 2
    assert abs(float(root) - math.sqrt(2)) < 1e-13


def test_real_root_separates_close_roots():
    # (x - 2)(10000x - 10001)(10000x - 10002): two roots 1e-4 apart, one cell
    # of any grid coarser than that
    cubic = (-200060004, 500090002, -400030000, 100000000)
    assert abs(real_root(cubic, "smallest") - Fraction(10001, 10000)) < Fraction(1, 10**14)
    assert abs(real_root(cubic, "largest") - 2) < Fraction(1, 10**14)
    # (10000x - 10001)(10000x - 10002): no sign change between grid points
    quadratic = (100030002, -200030000, 100000000)
    assert abs(real_root(quadratic, "smallest") - Fraction(10001, 10000)) < Fraction(1, 10**14)
    assert abs(real_root(quadratic, "largest") - Fraction(10002, 10000)) < Fraction(1, 10**14)


def test_real_root_finds_a_double_root():
    assert abs(real_root((4, -4, 1), "smallest") - 2) < Fraction(1, 10**14)  # (x - 2)^2


def test_real_root_without_positive_root():
    with pytest.raises(ValueError):
        real_root((1, 0, 1))  # x^2 + 1
    with pytest.raises(ValueError):
        real_root((2, 1))  # x + 2


def test_growth_constants_match_reference_decimals():
    assert abs(growth_rate() - RHO) < 1e-12
    assert abs(growth_amplitude() - ALPHA) < 1e-12


def test_roots_really_are_roots():
    for coeffs, value in ((RHO_POLYNOMIAL, growth_rate()), (ALPHA_POLYNOMIAL, growth_amplitude())):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * value + c
        assert abs(acc) < 1e-9


def test_root_choice_matters():
    small = float(real_root(RHO_POLYNOMIAL, "smallest"))
    assert small < 1  # the cubic has another positive root near 0.08
    assert abs(float(real_root(RHO_POLYNOMIAL, "largest")) - RHO) < 1e-12


def test_real_root_tolerance_parameter():
    loose = real_root(RHO_POLYNOMIAL, "largest", tolerance=Fraction(1, 100))
    assert abs(float(loose) - RHO) < 0.01


# rho and alpha from the grammar's equation.  At x = 1 and s = 2 the series
# P solves P = z - z P + 2 P^2 + P^3, so it inverts psi = N / D with
# N = w - 2 w^2 - w^3 and D = 1 - w.  P is singular at tau, the root in
# (0, 1/2) of psi' = F / D^2, F = N' D - N D'; there rho = 1 / psi(tau), and
# as psi''(tau) = F'(tau) / D(tau)^2 < 0, alpha^2 = 2 psi / (D^2 |psi''|) =
# -2 N / (D F').  So rho and alpha^2 are roots of the resultants in w of F
# with x N - D and with y D F' + 2 N.  Each resultant has degree <= 3 in its
# parameter (three rows of its Sylvester matrix are linear in it), so
# agreeing with a cubic at 8 points, up to one constant, proves it that cubic.

def _derivative(p):
    return QPoly(tuple(k * c for k, c in enumerate(p.coeffs))[1:])


def _bareiss_det(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _resultant(f, g):
    """Res(f, g) as the Sylvester determinant, f and g of degree 3 (formally)."""
    def high_first(p):
        return [0] * (4 - len(p.coeffs)) + list(p.coeffs[::-1])

    return _bareiss_det([[0] * i + high_first(p) + [0] * (2 - i)
                         for p in (f, g) for i in range(3)])


def _proportional(values, coeffs, points):
    """values[i] == c * coeffs(points[i]) for one nonzero rational c."""
    at = [QPoly(coeffs)(t) for t in points]
    c = Fraction(values[0], at[0])
    return c != 0 and all(v == c * a for v, a in zip(values, at))


def test_growth_polynomials_follow_from_the_grammar_equation():
    quad, cub = 2, 1  # 1 + x and s - x at x = 1, s = 2
    order = 12
    P = QPoly(series_P(order, 1, 1, 1).coeffs)
    lhs = QPoly((0, 1)) * (Q_ONE - P)
    rhs = P - P * P * quad - P * P * P * cub
    assert lhs.coeffs[:order + 1] == rhs.coeffs[:order + 1]

    N, D = QPoly((0, 1, -quad, -cub)), QPoly((1, -1))
    F = _derivative(N) * D - N * _derivative(D)
    assert F.coeffs == (1, -4, -1, 2)
    points = range(1, 9)
    rho = [_resultant(F, N * x - D) for x in points]
    assert _proportional(rho, RHO_POLYNOMIAL, points)
    alpha2 = [_resultant(F, D * _derivative(F) * y + N * 2) for y in points]
    assert _proportional(alpha2, ALPHA_POLYNOMIAL[::2], points)
    assert ALPHA_POLYNOMIAL[1::2] == (0, 0, 0)  # a polynomial in x^2


def test_asymptotic_ratio_small_case():
    ratio, _ = asymptotic_check(2)
    assert ratio == pytest.approx(32 / 6)


def test_asymptotics_at_sixty():
    ratio, alpha_est = asymptotic_check(60)
    assert abs(ratio - RHO) / RHO < 0.02
    assert abs(alpha_est - ALPHA) / ALPHA < 0.05


def test_asymptotics_improve_with_n():
    r30, a30 = asymptotic_check(30)
    r120, a120 = asymptotic_check(120)
    assert abs(r120 - RHO) < abs(r30 - RHO)
    assert abs(a120 - ALPHA) < abs(a30 - ALPHA)
