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
    refined_support,
    refined_table,
    torsion_count,
    torsion_count_refined,
)

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


@pytest.mark.parametrize("n", range(1, 31))
def test_refined_sums_to_total(n):
    assert sum(refined_table(n).values()) == torsion_count(n)


def test_refined_support_is_exactly_the_nonzero_set():
    for n in range(1, 8):
        support = set(refined_support(n))
        for k in range(n + 2):
            for l in range(n):
                for m in range(n):
                    nonzero = torsion_count_refined(n, k, l, m) != 0
                    assert nonzero == ((k, l, m) in support)


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
