"""Cyclic sieving verification for torsion pairs under the translation action.

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

The fixed-point side is :func:`~clustertubes.torsion.fixed_histograms`: the
refined generating function for d = 1, and for d > 1 the rank-(n/d) halves,
each with its statistics multiplied by d.

:func:`csp_verify` checks all of this exactly (integer arithmetic only)
and returns one record per (d, k, l, m); any mismatch is reported, never
raised, so the caller can render the full table.
"""

from __future__ import annotations

from .config import Frozen
from .counting import refined_support, torsion_count_refined
from .qpolys import QPoly, eval_at_primitive_root, qbinomial, qmultinomial
from .torsion import _divisors, fixed_histograms


def q_torsion_count_refined(n: int, k: int, l: int, m: int) -> QPoly:
    """The sieving polynomial for statistics (k, l, m) at rank n."""
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
    fixed = fixed_histograms(n)
    checked = set(refined_support(n))
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


def csp_report_json(records: list[SieveRecord]) -> str:
    import json

    return json.dumps([r.to_dict() for r in records], separators=(",", ":"))
