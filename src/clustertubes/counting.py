"""Closed-form counts of torsion pairs in cluster tubes, and asymptotics.

The headline count for rank n is

    T(n) = sum_{l >= 0} 2^(l+1) C(n-1+l, l) C(2n-1, n-1-2l),

and the refinement by k triangles, l cliques and m empty cells is

    T(n,k,l,m) = 2 * multinomial(n-1+k+l+m; n-1, k, l, m)
                   * C(n-1-k-l-m, l+m),

with the convention that a binomial with bottom larger than top (or negative
top) is zero.

T(n) grows like ``alpha / sqrt(pi n) * rho^n`` where rho is the largest
positive root of ``8x^3 - 48x^2 - 47x + 4`` and alpha the smallest positive
root of ``71x^6 + 213x^4 - 72x^2 + 4``; :func:`real_root` isolates these to
any precision by bisection on exact Sturm counts of the roots in each half,
and :func:`asymptotic_check` measures the approach of the exact counts to
them.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Literal, Sequence

from .config import _ECHO

if TYPE_CHECKING:  # root isolation imports it where it runs, so a count never loads it
    from fractions import Fraction

# coefficient lists are low degree -> high degree
RHO_POLYNOMIAL: tuple[int, ...] = (4, -47, -48, 8)
ALPHA_POLYNOMIAL: tuple[int, ...] = (4, 0, -72, 0, 213, 0, 71)


def binomial(a: int, b: int) -> int:
    """C(a, b) as a subset count: zero unless 0 <= b <= a."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(parts!) with all parts nonnegative."""
    ps = list(parts)
    if any(p < 0 for p in ps):
        return 0
    out, total = 1, 0
    for p in ps:
        total += p
        out *= math.comb(total, p)
    return out


def torsion_count(n: int) -> int:
    """Number of torsion pairs in the rank-n cluster tube.

    The terms of the sum in the module docstring follow one from the last by
    the exact ratio

        term(l+1) / term(l) = p(l) / q(l)
                            = 2 (n+l)(n-1-2l)(n-2-2l) / ((l+1)(n+2l+1)(n+2l+2)),

    from term(0) = 2 C(2n-1, n-1) to the last, l = (n-1) // 2.  The sum is
    taken by binary splitting (:func:`_split`): halves of the range of l are
    summed as fractions over the products of q and merged, so the big
    integers meet in balanced products, and one exact division ends it.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    _, q, t = _split(n, 0, (n - 1) // 2 + 1)
    return 2 * math.comb(2 * n - 1, n - 1) * t // q


def _split(n: int, a: int, b: int) -> tuple[int, int, int]:
    """``(P, Q, T)`` for the terms ``a <= l < b`` (``a < b``) of
    :func:`torsion_count`'s sum: ``P`` and ``Q`` the products of p(l) and
    q(l) over the range, and ``T / Q`` the sum, over ``a <= k < b``, of the
    ratio products ``p(a) ... p(k-1) / (q(a) ... q(k-1))``, which is
    ``term(k) / term(a)``.  Two adjacent ranges merge as
    ``T = T1 Q2 + P1 T2``."""
    if b - a == 1:
        q = (a + 1) * (n + 2 * a + 1) * (n + 2 * a + 2)
        return 2 * (n + a) * (n - 1 - 2 * a) * (n - 2 - 2 * a), q, q
    m = (a + b) // 2
    p1, q1, t1 = _split(n, a, m)
    p2, q2, t2 = _split(n, m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def torsion_count_refined(n: int, k: int, l: int, m: int) -> int:
    """Torsion pairs at rank n with k triangles, l cliques, m empty cells."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    if min(k, l, m) < 0:
        raise ValueError("statistics must be nonnegative")
    return 2 * multinomial((n - 1, k, l, m)) * binomial(n - 1 - k - l - m, l + m)


def refined_support(n: int) -> list[tuple[int, int, int]]:
    """All (k, l, m) with a nonzero refined count, sorted.

    These are the triples with k + 2(l+m) <= n-1: there both the
    multinomial and ``C(n-1-k-l-m, l+m)`` are positive, and outside it the
    binomial vanishes.  The loops produce them in sorted order.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    return [
        (k, l, m)
        for k in range(n)
        for l in range((n - 1 - k) // 2 + 1)
        for m in range((n - 1 - k) // 2 - l + 1)
    ]


def refined_table(n: int) -> dict[tuple[int, int, int], int]:
    return {klm: torsion_count_refined(n, *klm) for klm in refined_support(n)}


def _poly_eval(coeffs: Sequence[Fraction | int], x: Fraction) -> Fraction:
    from fractions import Fraction

    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of ``a`` by ``b`` (low degree first, ``b``'s
    leading coefficient nonzero); the remainder has no trailing zeros."""
    from fractions import Fraction

    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = quot[shift] = a[shift + len(b) - 1] / b[-1]
        for k, c in enumerate(b):
            a[shift + k] -= f * c
    rem = a[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _sturm_sequence(coeffs: tuple[int, ...]) -> list[list[Fraction]]:
    """The Sturm sequence of the square-free part q of the polynomial.

    q is the polynomial divided by its gcd with its derivative, so its roots
    are the distinct roots of the polynomial, all simple.  The sequence is
    q, q' and the negated remainders of Euclid's algorithm.
    """
    from fractions import Fraction

    p = [Fraction(c) for c in coeffs]
    g, r = p, [k * c for k, c in enumerate(p)][1:]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    seq = [_poly_divmod(p, g)[0]]
    nxt = [k * c for k, c in enumerate(seq[0])][1:]
    while nxt:
        seq.append(nxt)
        nxt = [-c for c in _poly_divmod(seq[-2], seq[-1])[1]]
    return seq


def _sign_changes(seq: list[list[Fraction]], x: Fraction) -> int:
    """Sign changes along the Sturm sequence at x, zeros dropped.  For
    ``a < b`` the difference at a and at b is the number of distinct roots
    in ``(a, b]``."""
    signs = [v > 0 for v in (_poly_eval(s, x) for s in seq) if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def real_root(
    coeffs: tuple[int, ...],
    which: Literal["largest", "smallest"] = "largest",
    tolerance: Fraction | None = None,
) -> Fraction:
    """Isolate the largest or smallest positive real root by Sturm bisection.

    The interval ``(0, B]``, B the Cauchy bound, holds every positive root.
    Each step halves it and keeps the half holding the wanted root, which a
    Sturm count of the distinct roots in each half decides, until it is no
    wider than ``tolerance`` (default ``1/10^14``).  Everything is exact
    rational arithmetic, so roots however close, or of any multiplicity,
    are told apart.
    """
    from fractions import Fraction

    if tolerance is None:
        tolerance = Fraction(1, 10**14)
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    seq = _sturm_sequence(coeffs)
    lo = Fraction(0)
    hi = 1 + max((Fraction(abs(c), abs(coeffs[-1])) for c in coeffs[:-1]), default=Fraction(0))
    v_lo, v_hi = _sign_changes(seq, lo), _sign_changes(seq, hi)
    if v_lo == v_hi:
        raise ValueError("no positive root found")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        v_mid = _sign_changes(seq, mid)
        upper = v_mid > v_hi if which == "largest" else v_mid == v_lo
        if upper:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return hi if _poly_eval(seq[0], hi) == 0 else (lo + hi) / 2


@functools.cache
def growth_rate() -> float:
    """rho = 6.847333996370022..., the exponential growth rate of T(n)."""
    return float(real_root(RHO_POLYNOMIAL, "largest"))


@functools.cache
def growth_amplitude() -> float:
    """alpha = 0.2658656601482029..., the constant in T(n) ~ alpha rho^n / sqrt(pi n)."""
    return float(real_root(ALPHA_POLYNOMIAL, "smallest"))


def asymptotic_check(n: int) -> tuple[float, float]:
    """(T(n+1)/T(n), T(n) sqrt(pi n) / rho^n), computed from exact counts.

    The first ratio approaches rho and the second approaches alpha as n
    grows.  Exact integers go in; the conversion to float happens last (in
    log space, so huge n cannot overflow).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {_ECHO.repr(n)}")
    tn, tn1 = torsion_count(n), torsion_count(n + 1)
    ratio = tn1 / tn  # correctly rounded for arbitrary-size ints
    alpha_est = math.exp(
        math.log(tn) + 0.5 * math.log(math.pi * n) - n * math.log(growth_rate())
    )
    return ratio, alpha_est
