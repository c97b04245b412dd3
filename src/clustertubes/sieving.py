"""Cyclic sieving verification for torsion pairs under the translation action.

For each rank n the q-analogue of the refined count,

    T(n,k,l,m; q) = 2 * qmultinomial(n-1+k+l+m; n-1,k,l,m)
                      * qbinomial(n-1-k-l-m, l+m),

evaluated at a primitive d-th root of unity (d | n) must equal both

* the number of torsion pairs with those statistics fixed by an order-d
  element of the translation group (enumerated directly: the order-d
  elements are the tau^(n/d)-powers, and a half is fixed iff it is
  (n/d)-periodic), and
* the plain count T(n/d, k/d, l/d, m/d) -- zero unless d divides each of
  k, l, m, because an (n/d)-periodic half repeats its statistics d times
  around the rank-n tube.

The enumeration is one walk of the cut/wing grammar.  A half's statistics
are read off the pieces the walk yields, as a sum of per-piece lookups, so
no half is decomposed and no cell decomposition is redone.  A fixed point is
decided by :meth:`~clustertubes.arcs.PeriodicDiagram.tau` on the laid half,
but only for halves whose cut set is invariant under rotation by n/d: the
cuts of a half are the vertices no arc overarches, so tau^(n/d) moves them
by n/d, and a half with any other cut set cannot be fixed.

:func:`csp_verify` checks all of this exactly (integer arithmetic only)
and returns one record per (d, k, l, m); any mismatch is reported, never
raised, so the caller can render the full table.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .config import DEFAULT_CAPS
from .counting import refined_support, torsion_count_refined
from .qpolys import QPoly, eval_at_primitive_root, qbinomial, qmultinomial
from .torsion import _divisors, _half_statistics, _lay, _walk


def q_torsion_count_refined(n: int, k: int, l: int, m: int) -> QPoly:
    """The sieving polynomial for statistics (k, l, m) at rank n."""
    return 2 * (
        qmultinomial((n - 1, k, l, m)) * qbinomial(n - 1 - k - l - m, l + m)
    )


@dataclass(frozen=True)
class SieveRecord:
    """One root-of-unity check: polynomial value vs. enumerated fixed count
    vs. the smaller-rank count."""

    n: int
    d: int
    k: int
    l: int
    m: int
    poly_value: int
    fixed_count: int
    match: bool

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


def csp_verify(n: int, cap: int = DEFAULT_CAPS.structured_rank) -> list[SieveRecord]:
    """Check the sieving identity at rank n for every d | n and every (k,l,m).

    A record matches iff the exact evaluation at a primitive d-th root
    equals the enumerated fixed-point count of the order-d translation and
    equals T(n/d, k/d, l/d, m/d) (0 when d does not divide all statistics).

    Statistics come from the grammar walk's pieces (see the module
    docstring).  For d = 1 every half is fixed, as tau^n is the identity.
    For d > 1 a half is laid and compared with its image under tau^(n/d)
    only when its cut mask is invariant under rotation by n/d, which every
    fixed half's cut mask is.
    """
    divisors = _divisors(n)
    fixed_hist: dict[int, Counter] = {d: Counter() for d in divisors}
    full = (1 << n) - 1
    for mask, cuts, pieces in _walk(n, cap):
        stats = _half_statistics(pieces)
        fixed_hist[1][stats] += 2  # both sides of the pair are fixed
        X = None
        for d in divisors[1:]:
            s = n // d
            if (mask >> s | mask << (n - s)) & full != mask:
                continue
            if X is None:
                X = _lay(n, zip(cuts, pieces))
            if X.tau(s) == X:
                fixed_hist[d][stats] += 2

    checked = set(refined_support(n))
    for hist in fixed_hist.values():
        checked.update(hist)  # any stats outside the formula support must show up as mismatches

    records = []
    for d in divisors:
        for k, l, m in sorted(checked):
            value = eval_at_primitive_root(q_torsion_count_refined(n, k, l, m), d)
            fixed = fixed_hist[d][(k, l, m)]
            if k % d == 0 and l % d == 0 and m % d == 0:
                smaller = torsion_count_refined(n // d, k // d, l // d, m // d)
            else:
                smaller = 0
            records.append(
                SieveRecord(n, d, k, l, m, value, fixed, value == fixed == smaller)
            )
    return records


def csp_report_json(records: list[SieveRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], separators=(",", ":"))
