import math

import pytest

from clustertubes.qpolys import (
    QPoly,
    Q_ONE,
    Q_ZERO,
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


def test_division_requires_exact_leading_coefficients():
    from clustertubes.qpolys import _divmod_int

    quo, rem = _divmod_int(QPoly((1, 0, 1)) * QPoly((2, 3)), QPoly((2, 3)))
    assert quo == QPoly((1, 0, 1)) and rem.is_zero()
    with pytest.raises(ArithmeticError):
        _divmod_int(QPoly((0, 0, 1)), QPoly((0, 2)))  # q^2 / 2q is not integral


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
