import pytest

from clustertubes.config import REFINED_RANK, SERIES_ORDER
from clustertubes.counting import refined_table, torsion_count
from clustertubes.series import ONE, Poly3, PowerSeries, X, Y1, Y2, ZERO, series_P, series_torsion


def test_poly3_arithmetic():
    p = 2 * X * X + Y1 + Y2
    assert dict(p.terms)[(2, 0, 0)] == 2
    assert (p - p) == 0
    assert (X + 1) * (X - 1) == X * X - ONE
    assert str(p) == "2x^2 + y1 + y2"
    assert str(ZERO) == "0"
    assert str(X * Y1 * Y1 - 3 * Y2) == "x*y1^2 - 3y2"


def test_low_order_coefficients():
    P = series_P(3)
    assert P.coeffs[0] == 0
    assert P.coeffs[1] == 1
    assert P.coeffs[2] == X
    assert P.coeffs[3] == 2 * X * X + Y1 + Y2


def test_fifth_coefficient_at_ones_is_polygon_count():
    assert series_P(5, 1, 1, 1).coeffs[5] == 82


# The test-local reference: a truncated series product and geometric series
# over coefficient tuples, which the package does not carry, so the oracles
# below share no series code with what they check.


def _mul(a, b):
    """The product of two truncated series, to the shorter one's order."""
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n))


def _geometric(a):
    """``1/(1 - a)`` for a series with zero constant term."""
    g = [1]
    for k in range(1, len(a)):
        g.append(sum(a[i] * g[k - i] for i in range(1, k + 1)))
    return tuple(g)


def test_series_satisfies_its_equation():
    order = 9
    P = series_P(order).coeffs
    P2 = _mul(P, P)
    tail = _mul(_mul(P2, P), _geometric(P))
    rhs = tuple(int(k == 1) + X * P2[k] + (Y1 + Y2) * tail[k] for k in range(order + 1))
    assert P == rhs


def _oracle_P(order, x, y1, y2):
    """The recursion over Z[x, y1, y2], all three variables kept apart."""
    quad = 1 + x
    cub = y1 + y2 - x
    a = [0] * (order + 1)
    sq = [0] * (order + 1)
    cb = [0] * (order + 1)
    for m in range(1, order + 1):
        sq[m] = sum(a[i] * a[m - i] for i in range(1, m))
        cb[m] = sum(a[i] * sq[m - i] for i in range(1, m - 1))
        base = 1 if m == 1 else 0
        a[m] = base - a[m - 1] + quad * sq[m] + cub * cb[m]
    return PowerSeries(order, tuple(a))


def _oracle_torsion(order, x, y1, y2):
    """``2 z P'/(1 - P)`` through :func:`_mul` and :func:`_geometric`."""
    P = _oracle_P(order, x, y1, y2).coeffs
    zPprime = tuple(k * P[k] for k in range(order + 1))
    return PowerSeries(order, tuple(2 * c for c in _mul(zPprime, _geometric(P))))


@pytest.mark.parametrize("args", [
    (X, Y1, Y2),
    (1, 1, 1),
    (X, Y1, 1),
    (X, Y2, Y1),
    (2, Y1, Y2),
    (X, 3, 4),
    (Y1, Y1, Y2),  # x shares a variable with y1 + y2
    # integers substituted after the packed solve, zero and negative ones too
    (0, Y1, Y2),
    (-2, Y1, Y2),
    (X, -1, 2),
    (X, Y1, -3),
])
def test_series_match_the_three_variable_recursion(args):
    order = 10
    assert series_P(order, *args).coeffs == _oracle_P(order, *args).coeffs
    assert series_torsion(order, *args).coeffs == _oracle_torsion(order, *args).coeffs


def test_integer_arguments_give_plain_integers():
    for S in (series_P(12, 1, 1, 1), series_torsion(12, 2, 3, 4)):
        assert all(type(c) is int for c in S.coeffs)


def test_torsion_series_matches_formula_at_ones():
    T = series_torsion(REFINED_RANK, 1, 1, 1)
    for n in range(1, REFINED_RANK + 1):
        assert T.coeffs[n] == torsion_count(n)


def test_torsion_series_matches_refined_coefficientwise():
    # Past SERIES_ORDER on purpose: from order 30 on the largest (x, s)
    # coefficient takes more than 64 bits (73 at 32), so a fixed 64-bit
    # packing slot would fail here.
    order = 32
    T = series_torsion(order)
    for n in range(1, order + 1):
        coeff = T.coeffs[n]
        table = {exp: c for exp, c in coeff.terms}
        assert table == refined_table(n)


def test_the_solve_multiplies_no_poly3(monkeypatch):
    # The solve runs on packed integers; Poly3 products are left only to
    # the powers x^a and s^b that the substitution builds, a and b below
    # the order.
    calls = 0
    mul = Poly3.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Poly3, "__mul__", counted)
    monkeypatch.setattr(Poly3, "__rmul__", counted)
    T = series_torsion(SERIES_ORDER)
    assert calls <= 2 * SERIES_ORDER
    assert dict(T.coeffs[SERIES_ORDER].terms) == refined_table(SERIES_ORDER)


def test_order_cap():
    # The order limit is the CLI's (tests/test_cli.py); the library only
    # needs a positive order.
    with pytest.raises(ValueError):
        series_P(0)
