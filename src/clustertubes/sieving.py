"""Sieving and orbits: the translation symmetry of torsion pairs.

The translation ``tau`` acts on halves; a half is fixed by ``tau^d``
(d | n) iff it is d-periodic, i.e. iff it is a rank-d half in disguise,
which is what makes the orbit counts and the sieving identities come out.
So :func:`fixed_histograms` takes the fixed points from the rank-d halves,
walked by :func:`~clustertubes.polygons._walk`, with their statistics
multiplied by n/d, and applies no ``tau``: the module loads neither the
halves (:mod:`clustertubes.torsion`) nor the arc calculus.

For each rank n the q-analogue of the refined count,

    T(n,k,l,m; q) = 2 * qmultinomial(n-1+k+l+m; n-1,k,l,m)
                      * qbinomial(n-1-k-l-m, l+m),

evaluated at a primitive d-th root of unity (d | n) must equal both

* the number of torsion pairs with those statistics fixed by an order-d
  element of the translation group (the order-d elements are the
  tau^(n/d)-powers, and a half is fixed iff it is (n/d)-periodic), and
* the plain count T(n/d, k/d, l/d, m/d) -- zero unless d divides each of
  k, l, m, because an (n/d)-periodic half repeats its statistics d times
  around the rank-n tube.

The fixed-point side is :func:`fixed_histograms`: the refined generating
function for d = 1, and for d > 1 the rank-(n/d) halves, each with its
statistics multiplied by d.

:func:`orbit_count_refined` streams the refined orbit counts as rows, from
those of :func:`~clustertubes.counting.refined_rows`.

:func:`csp_verify` checks all of this exactly (integer arithmetic only)
and returns one record per (d, k, l, m); any mismatch is reported, never
raised, so the caller can render the full table.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .config import _ECHO, Frozen
from .counting import refined_rows, torsion_count, torsion_count_refined
from .polygons import _check_rank, _walk, polygon_diagrams, statistics_polygon

if TYPE_CHECKING:  # the sieving check imports qpolys where it runs, so orbits never loads it
    from .qpolys import QPoly


def fixed_histograms(n: int) -> dict[int, Counter]:
    """For each s dividing n, the (k, l, m) histogram of the pairs at rank n
    fixed by tau^s (each fixed half counts twice: once per side).

    tau^n fixes every pair, so ``hists[n]`` is the z^n coefficient of
    :func:`~clustertubes.series.series_torsion`, and nothing is built.  For
    s < n, a half fixed by tau^s is s-periodic: it is a rank-s half repeated
    n/s times around the tube, and every rank-s half repeats to one.  So the
    rank-s grammar is walked, nothing is laid, and each rank-s half counts
    with the cells of its pieces times n/s.  Every walk reads one table of
    :func:`~clustertubes.polygons.statistics_polygon` values per width, built
    once per call, so each diagram of width at most the largest proper
    divisor of n is face-walked once.
    """
    from .series import series_torsion

    _check_rank(n)
    hists: dict[int, Counter] = {}
    shifts = _divisors(n)[:-1]
    cells = {g: [statistics_polygon(p) for p in polygon_diagrams(g)]
             for g in range(1, max(shifts, default=0) + 1)}
    for s in shifts:
        hists[s] = Counter()
        r = n // s
        for _, pieces in _walk(s, cells.__getitem__):
            k, l, m = map(sum, zip(*pieces))
            hists[s][k * r, l * r, m * r] += 2
    hists[n] = Counter(dict(series_torsion(n).coeffs[n].terms))
    return hists


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def orbit_count(n: int) -> int:
    """Number of tau-orbits of torsion pairs at rank n (Burnside average).

    ``tau^b`` fixes as many pairs as there are pairs at rank gcd(b, n), so
    the orbit count is ``(1/n) * sum_{d | n} phi(n/d) T(d)``.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {_ECHO.repr(n)}")
    total = sum(_totient(n // d) * torsion_count(d) for d in _divisors(n))
    if total % n:
        raise ArithmeticError("Burnside sum is not divisible by the group order")
    return total // n


def orbit_count_direct(n: int) -> int:
    """Orbit count from the pairs each tau^s fixes (:func:`orbits_from_fixed`)."""
    return sum(orbits_from_fixed(fixed_histograms(n)).values())


def orbit_count_refined(n: int) -> Iterator[tuple[tuple[int, int, int], int]]:
    """tau-orbit counts refined by (triangles, cliques, empty cells), as rows
    ``((k, l, m), orbits)`` in :func:`~clustertubes.counting.refined_rows`
    order.  Of the Burnside sum over d | gcd(n, k, l, m), the d = 1 term is
    the row's count; only the terms d > 1 are computed, at rank n/d."""
    for (k, l, m), total in refined_rows(n):
        for d in _divisors(math.gcd(n, k, l, m))[1:]:
            total += _totient(d) * torsion_count_refined(n // d, k // d, l // d, m // d)
        if total % n:
            raise ArithmeticError("refined Burnside sum is not divisible by the group order")
        yield (k, l, m), total // n


def orbits_from_fixed(fixed: dict[int, Counter]) -> dict[tuple[int, int, int], int]:
    """Refined tau-orbit counts from the histograms of :func:`fixed_histograms`.

    tau^s fixes a pair of least period t iff t divides s, so the pairs of
    least period s are those tau^s fixes minus those of least period t for
    each proper divisor t of s; they form orbits of s members.  No totient or
    closed form enters, so this stays independent of :func:`orbit_count`.
    """
    least: dict[int, Counter] = {}
    orbits: Counter = Counter()
    for s in sorted(fixed):
        least[s] = Counter(fixed[s])
        for t in least:
            if t < s and s % t == 0:
                least[s].subtract(least[t])
        for stats, pairs in least[s].items():
            if pairs % s:
                raise ArithmeticError(f"{pairs} pairs of least period {s} fill no whole orbits")
            orbits[stats] += pairs // s
    return dict(sorted(orbits.items()))


def q_torsion_count_refined(n: int, k: int, l: int, m: int) -> QPoly:
    """The sieving polynomial for statistics (k, l, m) at rank n."""
    from .qpolys import qbinomial, qmultinomial

    return 2 * (
        qmultinomial((n - 1, k, l, m)) * qbinomial(n - 1 - k - l - m, l + m)
    )


class SieveRecord(Frozen):
    """One root-of-unity check: polynomial value vs. enumerated fixed count
    vs. the smaller-rank count."""

    __slots__ = ("n", "d", "k", "l", "m", "poly_value", "fixed_count", "match")

    def __init__(self, n: int, d: int, k: int, l: int, m: int,
                 poly_value: int, fixed_count: int, match: bool) -> None:
        super().__init__(n, d, k, l, m, poly_value, fixed_count, match)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "k": self.k,
            "l": self.l,
            "m": self.m,
            "polyValue": self.poly_value,
            "fixedCount": self.fixed_count,
            "match": self.match,
        }


def csp_verify(n: int) -> list[SieveRecord]:
    """Check the sieving identity at rank n for every d | n and every (k,l,m).

    A record matches iff the exact evaluation at a primitive d-th root
    equals the fixed-point count of the order-d translation and
    equals T(n/d, k/d, l/d, m/d) (0 when d does not divide all statistics).

    The fixed-point counts of tau^(n/d) come from :func:`fixed_histograms`.
    """
    from .qpolys import eval_at_primitive_root

    fixed = fixed_histograms(n)
    checked = {klm for klm, _ in refined_rows(n)}
    for hist in fixed.values():
        checked.update(hist)  # any stats outside the formula support must show up as mismatches

    polys = {(k, l, m): q_torsion_count_refined(n, k, l, m) for k, l, m in sorted(checked)}
    records = []
    for d in _divisors(n):
        hist = fixed[n // d]
        for (k, l, m), poly in polys.items():
            value = eval_at_primitive_root(poly, d)
            count = hist[(k, l, m)]
            if k % d == 0 and l % d == 0 and m % d == 0:
                smaller = torsion_count_refined(n // d, k // d, l // d, m // d)
            else:
                smaller = 0
            records.append(
                SieveRecord(n, d, k, l, m, value, count, value == count == smaller)
            )
    return records
