"""Closed-form counts of torsion pairs in cluster tubes.

The headline count for rank n is

    T(n) = sum_{l >= 0} 2^(l+1) C(n-1+l, l) C(2n-1, n-1-2l),

and the refinement by k triangles, l cliques and m empty cells is

    T(n,k,l,m) = 2 * multinomial(n-1+k+l+m; n-1, k, l, m)
                   * C(n-1-k-l-m, l+m),

with the convention that a binomial with bottom larger than top (or negative
top) is zero.  :func:`refined_rows` yields the refined counts one row at a
time, so a command that writes or sums them holds no table.

The growth of T(n) is in :mod:`clustertubes.asymptotics`, which no
command loads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .config import _ECHO


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


def refined_rows(n: int) -> Iterator[tuple[tuple[int, int, int], int]]:
    """The rows ``((k, l, m), T(n, k, l, m))`` of the nonzero counts, sorted.

    These are the triples with k + 2(l+m) <= n-1: there both the
    multinomial and ``C(n-1-k-l-m, l+m)`` are positive, and outside it the
    binomial vanishes.  The rank is checked at the call, before any row.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    return (
        ((k, l, m), torsion_count_refined(n, k, l, m))
        for k in range(n)
        for l in range((n - 1 - k) // 2 + 1)
        for m in range((n - 1 - k) // 2 - l + 1)
    )


def refined_table(n: int) -> dict[tuple[int, int, int], int]:
    """The rows of :func:`refined_rows` as one dict."""
    return dict(refined_rows(n))
