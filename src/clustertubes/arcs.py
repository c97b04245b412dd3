"""Arcs of the ∞-gon and their rank-n periodic orbit calculus.

An *arc* is a pair ``(i, j)`` of integers with ``j - i >= 2``, pictured as a
curve over the number line joining ``i`` and ``j``; its *length* is ``j - i``.
Fixing a rank ``n``, the shift ``(i, j) -> (i + n, j + n)`` generates the
orbit of an arc.  Orbits are the vertices of the Auslander-Reiten quiver of
the cluster tube of rank ``n`` (a half-infinite cylinder of circumference
``n``), and sets of orbits play the role of subcategories: an n-periodic
collection of arcs is stored here as a :class:`PeriodicDiagram`.

Everything reduces to the crossing predicate: two arcs cross iff their
endpoints strictly interleave.  Its periodic form, which shifts of one arc
by multiples of n cross another arc, is answered exactly by
:func:`crossing_shifts` from two intervals, with no scan; the orbit
crossing test and the crossing-pair listing both read it.  On top of these
the module provides the dimension of ``Ext^1`` between two orbits,
rigidity, the non-crossing operator ``nc`` (as a membership oracle plus a
bounded enumerator, since ``nc`` of a finite collection is infinite), the
Ptolemy closure condition, and the Auslander-Reiten translation
``tau: (i, j) -> (i - 1, j - 1)``.  The Ptolemy check :func:`is_ptolemy`
and the closed-subset search :func:`ptolemy_subsets` are the oracles' one
statement of the Ptolemy rule; a polygon diagram is their one-span case.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .config import _ECHO, Frozen
from .records import check_arc, diagram_json

Arc = tuple[int, int]


def cross(a: Arc, b: Arc) -> bool:
    """Strict interleaving of endpoints.

    Arcs sharing an endpoint do not cross, and neither do nested arcs.
    The predicate is symmetric and irreflexive.
    """
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def normalize_orbit(n: int, arc: tuple[int, int]) -> Arc:
    """Canonical orbit representative: left endpoint shifted into ``[0, n)``."""
    i, j = check_arc(arc)
    r = i % n
    return (r, r + (j - i))


def crossing_shifts(n: int, a: Arc, b: Arc) -> Iterator[int]:
    """Every m, ascending, for which the shift ``(b[0] + m*n, b[1] + m*n)``
    crosses ``a``.

    With ``a = (i, j)`` and ``b = (p, q)``, the shift by s crosses a iff s
    lies in ``(i - q, min(i - p, j - q))`` (it starts before a and ends
    inside) or in ``(max(i - p, j - q), j - p)`` (it starts inside a and
    ends beyond).  The first interval lies below the second, and the
    multiples of n in each are read off in constant time, whatever the
    arcs' lengths.
    """
    (i, j), (p, q) = a, b
    for lo, hi in ((i - q, min(i - p, j - q)), (max(i - p, j - q), j - p)):
        yield from range(lo // n + 1, -(-hi // n))


def orbits_cross(n: int, a: Arc, b: Arc) -> bool:
    """True iff some shift ``(b[0] + m*n, b[1] + m*n)`` crosses ``a``: the
    first of :func:`crossing_shifts`, found in constant time."""
    return next(crossing_shifts(n, a, b), None) is not None


def _count_interior_shifts(n: int, i: int, j: int, v: int) -> int:
    """Number of integers m with ``i < v + m*n < j``."""
    lo = (i - v) // n + 1
    hi = -((-(j - v)) // n) - 1
    return max(0, hi - lo + 1)


def ext1_dim(n: int, a: Arc, b: Arc) -> int:
    """Dimension of ``Ext^1`` between the orbits of ``a`` and ``b`` at rank n.

    With ``(i, j)`` the shorter and ``(k, l)`` the longer of the two arcs,
    this counts the shifts of ``k`` and of ``l`` falling strictly inside
    ``(i, j)``; the result is symmetric in the arguments.
    """
    if a[1] - a[0] > b[1] - b[0]:
        a, b = b, a
    i, j = a
    k, l = b
    return _count_interior_shifts(n, i, j, k) + _count_interior_shifts(n, i, j, l)


def is_rigid(n: int, a: Arc) -> bool:
    """No shift of an arc by a multiple of n crosses the arc iff length <= n."""
    return a[1] - a[0] <= n


def ptolemy_completions(u: Arc, v: Arc) -> list[Arc]:
    """The four connector pairs of a crossing pair, kept only when they are arcs."""
    if v[0] < u[0]:
        u, v = v, u
    i, j = u
    r, s = v
    out = []
    for p in ((i, r), (i, s), (r, j), (j, s)):
        if p[1] - p[0] >= 2:
            out.append(p)
    return out


class PeriodicDiagram(Frozen):
    """A finite set of arc orbits at a fixed rank, i.e. an n-periodic
    collection of arcs of the ∞-gon.

    ``orbits`` holds canonical representatives only (left endpoint in
    ``[0, rank)``); use :meth:`from_arcs` to build from arbitrary shifts.
    Valid: ``rank >= 1``, and every orbit ``(i, j)`` with ``0 <= i < rank``
    and ``j - i >= 2``.
    """

    __slots__ = ("rank", "orbits")

    def __init__(self, rank: int, orbits: frozenset[Arc]) -> None:
        if rank < 1:
            raise ValueError(f"rank must be positive, got {_ECHO.repr(rank)}")
        for i, j in orbits:
            if j - i < 2:
                raise ValueError(f"not an arc: {_ECHO.repr((i, j))}")
            if not 0 <= i < rank:
                raise ValueError(f"orbit {_ECHO.repr((i, j))} not in canonical form "
                                 f"at rank {_ECHO.repr(rank)}")
        super().__init__(rank, orbits)

    @classmethod
    def from_arcs(cls, rank: int, arcs: Iterable[tuple[int, int]]) -> "PeriodicDiagram":
        """The diagram of the orbits of ``arcs``, each a pair ``(i, j)`` of
        integers at any shift.  Each arc is checked and normalized once, in
        input order: the first one shorter than 2 raises
        :func:`~clustertubes.records.check_arc`'s error."""
        if rank < 1:
            raise ValueError(f"rank must be positive, got {_ECHO.repr(rank)}")
        orbits = frozenset([((r := i % rank), r + (j - i)) for i, j in arcs
                            if j - i >= 2 or check_arc((i, j))])
        # Canonical as built: rank >= 1, each left endpoint taken mod rank,
        # and each length checked >= 2.
        return cls._canonical(rank, orbits)

    def sorted_orbits(self) -> list[Arc]:
        """Serialization order: by (length, left endpoint)."""
        return sorted(self.orbits, key=lambda a: (a[1] - a[0], a[0]))

    def contains_arc(self, arc: tuple[int, int]) -> bool:
        return normalize_orbit(self.rank, arc) in self.orbits

    def max_length(self) -> int:
        return max((j - i for i, j in self.orbits), default=0)

    def tau(self, power: int = 1) -> "PeriodicDiagram":
        """Apply the translation ``(i, j) -> (i - power, j - power)`` orbitwise.

        ``tau`` is a bijection of diagrams and ``tau(n)`` is the identity.
        """
        n = self.rank
        return PeriodicDiagram(
            n, frozenset(((i - power) % n, (i - power) % n + (j - i)) for i, j in self.orbits)
        )

    def orbits_json(self) -> str:
        """:meth:`sorted_orbits` as compact JSON text, byte-identical to
        compact ``json.dumps`` of the list of ``[i, j]`` pairs: the
        ``orbits`` field of every record that carries this diagram.  The
        record streams write through their own writers, and the tests check
        them against this one, which shares no code with them."""
        return "[" + ",".join([f"[{i},{j}]" for i, j in self.sorted_orbits()]) + "]"

    def to_json(self) -> str:
        return diagram_json(self.rank, self.orbits_json())


def nc_contains(diagram: PeriodicDiagram, arc: tuple[int, int]) -> bool:
    """Membership oracle for ``nc X``: does the arc cross no arc of X?

    ``nc X`` is infinite whenever X is nonempty and finite-sided, so it is
    never materialized; this oracle plus :func:`nc_enumerate` is the whole
    interface.
    """
    a = normalize_orbit(diagram.rank, arc)
    return not any(orbits_cross(diagram.rank, a, b) for b in diagram.orbits)


def nc_enumerate(diagram: PeriodicDiagram, max_length: int) -> PeriodicDiagram:
    """All orbits of length <= max_length whose arcs cross nothing in X.

    An arc (i, j) crosses X iff a vertex strictly inside it starts an arc of X
    ending beyond j or ends one starting before i.  Sweeping j from each i
    against the longest arc leaving and entering each vertex class tests each
    candidate in O(1); :func:`nc_contains` is the oracle it is tested against.
    """
    if max_length < 2:
        raise ValueError(f"max_length must be >= 2, got {_ECHO.repr(max_length)}")
    n = diagram.rank
    out = [0] * n  # longest arc leaving each vertex class
    into = [0] * n  # longest arc entering it
    for i, j in diagram.orbits:
        out[i] = max(out[i], j - i)
        into[j % n] = max(into[j % n], j - i)
    kept = []
    for i in range(n):
        right = left = i
        for v in range(i + 1, i + max_length):  # the arc (i, v + 1)
            right = max(right, v + out[v % n])
            left = min(left, v - into[v % n])
            if left < i:  # and stays below i as the arc grows
                break
            if right <= v + 1:
                kept.append((i, v + 1))
    return PeriodicDiagram(n, frozenset(kept))


def iter_crossing_pairs(diagram: PeriodicDiagram) -> Iterator[tuple[Arc, Arc]]:
    """All crossing pairs (representative, shifted representative) of a diagram,
    up to the global shift: every crossing in the full arc collection is a
    shift of one reported here."""
    n = diagram.rank
    reps = diagram.sorted_orbits()
    for ia, a in enumerate(reps):
        for b in reps[ia:]:
            for m in crossing_shifts(n, a, b):
                yield a, (b[0] + m * n, b[1] + m * n)


def is_ptolemy(diagram: PeriodicDiagram) -> bool:
    """Ptolemy condition: every crossing pair forces its four connectors.

    For each crossing pair of arcs drawn from the diagram, each connector
    pair of length >= 2 must again lie in the diagram (length-1 pairs are not
    arcs and impose nothing).
    """
    return all(diagram.contains_arc(p)
               for a, b in iter_crossing_pairs(diagram)
               for p in ptolemy_completions(a, b))


def constrained_subsets(
    k: int, constraints: Sequence[tuple[int, int, int | None]]
) -> list[int]:
    """Every subset of items ``0..k-1``, as a bitmask, meeting all constraints.

    A constraint ``(p, q, req)`` (p == q allowed) says that if p and q are
    both chosen, so is every item in the bitmask ``req``; ``req is None``
    forbids the pair.  Backtracking (Knuth, TAOCP 4B, section 7.2.2) decides
    the items in index order, in before out, keeping ``need``, the union of
    ``req`` over the chosen pairs.  A branch dies when it excludes a needed
    item or chooses a pair that is forbidden or needs an excluded item.
    :func:`ptolemy_subsets` runs on this search.
    """
    closing: list[list[tuple[int, int | None]]] = [[] for _ in range(k)]
    for p, q, req in constraints:
        closing[max(p, q)].append((1 << min(p, q), req))
    found: list[int] = []

    def search(t: int, chosen: int, excluded: int, need: int) -> None:
        if t == k:
            found.append(chosen)
            return
        bit = 1 << t
        grown = chosen | bit
        grown_need = need
        for other, req in closing[t]:
            if grown & other:
                if req is None or req & excluded:
                    break
                grown_need |= req
        else:
            search(t + 1, grown, excluded, grown_need)
        if not need & bit:
            search(t + 1, chosen, excluded | bit, need)

    search(0, 0, 0, 0)
    return found


def ptolemy_subsets(n: int, pool: Sequence[Arc]) -> list[int]:
    """The subsets of ``pool``, distinct canonical orbits at rank n, closed
    under the Ptolemy rule: bitmasks over pool indices, found by
    :func:`constrained_subsets`.

    If shifts of two orbits cross, the connectors of every crossing are
    required, and a connector whose orbit is not in the pool forbids the
    pair.  The halves take all orbits of lengths 2..n; a polygon takes its
    diagonals and top arc ``(0, n)``, which cross only unshifted, so the
    constraints are the polygon's own.
    """
    index = {a: t for t, a in enumerate(pool)}
    constraints: list[tuple[int, int, int | None]] = []
    for p, q in itertools.combinations_with_replacement(range(len(pool)), 2):
        a, b = pool[p], pool[q]
        forced = [normalize_orbit(n, c)
                  for m in crossing_shifts(n, a, b)
                  for c in ptolemy_completions(a, (b[0] + m * n, b[1] + m * n))]
        if any(c not in index for c in forced):
            constraints.append((p, q, None))
        elif forced:
            constraints.append((p, q, sum(1 << index[c] for c in set(forced))))
    return constrained_subsets(len(pool), constraints)
