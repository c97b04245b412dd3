import math
import random

import pytest

from clustertubes.qpolys import (
    QPoly,
    Q_ONE,
    Q_ZERO,
    _divmod,
    cyclotomic,
    eval_at_primitive_root,
    qbinomial,
    qmultinomial,
)


def test_qbinomial_cases():
    assert qbinomial(2, 1).coeffs == (1, 1)
    assert qbinomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert qbinomial(7, 0) == Q_ONE
    assert qbinomial(3, 5) == Q_ZERO
    assert qbinomial(3, -1) == Q_ZERO


def test_q_one_specializes_to_binomial():
    for a in range(13):
        for b in range(a + 1):
            assert qbinomial(a, b)(1) == math.comb(a, b)


def test_qbinomial_symmetry_and_degree():
    for a in range(10):
        for b in range(a + 1):
            p = qbinomial(a, b)
            assert p == qbinomial(a, a - b)
            assert p.degree == b * (a - b)


def shift(p, k):
    """p times q^k."""
    return p if p.is_zero() else QPoly((0,) * k + p.coeffs)


def test_qbinomial_meets_the_pascal_rule():
    assert qbinomial(0, 0) == Q_ONE
    for a in range(1, 40):
        for b in range(-1, a + 2):
            assert qbinomial(a, b) == qbinomial(a - 1, b - 1) + shift(qbinomial(a - 1, b), b)


def test_qbinomial_at_large_a():
    # A recursion one level per unit of a would pass the interpreter's limit.
    p = qbinomial(1500, 3)
    assert p(1) == math.comb(1500, 3)
    assert p.degree == 3 * 1497


def test_qmultinomial():
    assert qmultinomial((1, 1)).coeffs == (1, 1)
    assert qmultinomial((2, 1, 1))(1) == 12
    assert qmultinomial(()) == Q_ONE
    assert qmultinomial((1, -1)) == Q_ZERO


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_q_power_minus_one():
    for d in (1, 2, 6, 10, 12):
        prod = Q_ONE
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * cyclotomic(e)
        assert prod.coeffs == (-1,) + (0,) * (d - 1) + (1,)


def test_eval_at_primitive_root_basic():
    assert eval_at_primitive_root(qbinomial(2, 1), 2) == 0  # 1 + (-1)
    assert eval_at_primitive_root(qbinomial(4, 2), 2) == 2  # C(2, 1)
    assert eval_at_primitive_root(qbinomial(4, 2), 1) == 6


def test_eval_rejects_non_integer_values():
    with pytest.raises(ValueError):
        eval_at_primitive_root(QPoly((0, 1)), 3)  # q itself is not rational at d=3


def test_divmod_splits_q_power_minus_one_at_its_top_cyclotomic():
    for d in range(1, 31):
        lower = Q_ONE
        for e in range(1, d):
            if d % e == 0:
                lower = lower * cyclotomic(e)
        quo, rem = _divmod(QPoly((-1,) + (0,) * (d - 1) + (1,)), cyclotomic(d))
        assert quo == lower and rem.is_zero()


def test_divmod_by_a_cyclotomic_is_euclidean_division():
    rng = random.Random(20120)
    for _ in range(40):
        p = QPoly(tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 61))))
        for d in range(1, 13):
            quo, rem = _divmod(p, cyclotomic(d))
            assert quo * cyclotomic(d) + rem == p
            assert rem.degree < cyclotomic(d).degree


def test_eval_at_the_first_root_is_the_value_at_one():
    rng = random.Random(1207)
    for _ in range(40):
        p = QPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 30))))
        assert eval_at_primitive_root(p, 1) == p(1)


def test_q_lucas_divisible_bottom():
    # when d | b the value collapses to an ordinary binomial of quotients
    for d in (2, 3, 4, 5, 6):
        for a in range(0, 41, 3):
            for b in range(0, a + 1, d):
                assert eval_at_primitive_root(qbinomial(a, b), d) == math.comb(a // d, b // d)


def test_q_lucas_general_form():
    # full statement: [a b] at w_d = C(floor(a/d), floor(b/d)) * [a%d b%d] at w_d,
    # i.e. the difference is divisible by the d-th cyclotomic polynomial
    for d in (2, 3, 4):
        for a in range(0, 25):
            for b in range(0, a + 1):
                diff = qbinomial(a, b) - math.comb(a // d, b // d) * qbinomial(a % d, b % d)
                assert eval_at_primitive_root(diff, d) == 0
