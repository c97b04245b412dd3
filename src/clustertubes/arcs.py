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
``tau: (i, j) -> (i - 1, j - 1)``.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, NoReturn

from .config import _ECHO, RECORD_RANK, TEXT_ENTRIES, Frozen

Arc = tuple[int, int]


def check_arc(pair: tuple[int, int]) -> Arc:
    i, j = pair
    if j - i < 2:
        raise ValueError(f"not an arc (length {_ECHO.repr(j - i)} < 2): {_ECHO.repr(pair)}")
    return (i, j)


def is_int_pair(value: object) -> bool:
    """Is ``value`` a pair (list or tuple) of integers?  JSON decodes to
    exactly ``list`` and ``int``, so exact type checks cost little and keep
    bools out."""
    return (type(value) in (list, tuple) and len(value) == 2
            and type(value[0]) is int is type(value[1]))


def read_record(line: str, arcs: str, *required: str) -> dict:
    """Decode one JSON input record and check its top level.

    The record must be an object holding ``rank``, the arc field ``arcs``
    (``"orbits"`` or ``"pairs"``) and every key in ``required``.  ``rank``
    must be an integer and not a bool, and at least 1, as every reader
    divides by it; the arc field must be a list.  Every failure is a
    ValueError (malformed JSON raises json's JSONDecodeError, which is
    one; an integer longer than the interpreter's int/str digit limit
    raises one that names the limit), and a fault of a key names the key.
    A value quoted in a message is abbreviated past a few levels or dozens
    of characters (``_ECHO``).
    The reader of the arc field checks its entries: for the CLI's records
    ``cli._read``, for wing records
    :meth:`~clustertubes.torsion.WingDecomposition.from_json`.
    """
    import json

    try:
        data = json.loads(line)
    except RecursionError:  # json's C decoder recurses once per nesting level
        raise ValueError("record nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ValueError(f"record holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("rank", arcs, *required):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(data["rank"], int) or isinstance(data["rank"], bool):
        raise ValueError(f"key 'rank' must be an integer, got {type(data['rank']).__name__}")
    if data["rank"] < 1:
        raise ValueError(f"key 'rank' must be >= 1, got {_ECHO.repr(data['rank'])}")
    if not isinstance(data[arcs], list):
        raise ValueError(f"key {arcs!r} must be a list, got {type(data[arcs]).__name__}")
    return data


def _not_an_arc() -> NoReturn:
    raise ValueError("not an arc")


def _name_the_fault(arcs: list) -> None:
    """Raise for the first faulty entry of a record's ``orbits`` list: the
    first entry that is no pair of integers (:func:`is_int_pair`) raises
    TypeError, named ``orbits[t]`` as in a record; else the first arc
    shorter than 2 raises :func:`check_arc`'s ValueError."""
    for t, arc in enumerate(arcs):
        if not is_int_pair(arc):
            raise TypeError(f"orbits[{t}] must be a pair of integers, "
                            f"got {_ECHO.repr(arc)}") from None
    for arc in arcs:
        check_arc(tuple(arc))


def normalize_orbits(rank: int, arcs: Iterable) -> set[Arc]:
    """The canonical orbits (:func:`normalize_orbit`) of ``arcs`` at rank
    ``rank >= 1``, each a pair of integers at any shift: the reader of a
    record's ``orbits`` list for the ``perp`` and ``render`` commands.

    One pass type-checks each arc, checks its length and normalizes it.
    When an arc fails, the arcs are checked again in order to name the
    first fault (:func:`_name_the_fault`).
    :meth:`PeriodicDiagram.from_arcs`, the library's constructor, checks
    lengths alone and takes integer-like ends too.
    """
    if type(arcs) is not list:  # the second pass must see every arc
        arcs = list(arcs)
    try:
        # An entry that does not unpack into two raises here; one whose ends
        # are not both ints, or that is shorter than 2, raises in the test.
        return {((r := i % rank), r + (j - i)) for i, j in arcs
                if type(i) is int is type(j) and j - i >= 2 or _not_an_arc()}
    except (TypeError, ValueError):
        _name_the_fault(arcs)
        raise


_RECORD_WIDTH = (2 * RECORD_RANK).bit_length()  # 10 bits: 2n <= 1000 < 1024


def key_width(n: int) -> int:
    """The width in bits of the low field of an integer arc or orbit key at
    rank n: wide enough for 2n, and never narrower than at ``RECORD_RANK``,
    so every record the commands take lays its keys alike.

    Two layouts share it.  An *arc key* ``i << w | j`` sorts as ``(i, j)``:
    the ``decompose`` walk (:func:`arc_keys`,
    :func:`~clustertubes.torsion._cut_spans`) keeps arcs of length at most
    n + 1 with ``0 <= i < 2n`` and ``j <= 2n``.  An *orbit key*
    ``(j - i) << w | i``, with i canonical, sorts as
    :meth:`PeriodicDiagram.sorted_orbits`: ``compose`` writes through it
    (:func:`half_orbits_json`)."""
    return _RECORD_WIDTH if n <= RECORD_RANK else (2 * n).bit_length()


def arc_keys(rank: int, arcs: list) -> set[int]:
    """The arc keys (:func:`key_width`) of the canonical orbits of the
    ``arcs`` listed at rank ``rank >= 1``, each a pair of integers at any
    shift: the reader of a record's ``orbits`` list for the ``decompose``
    command.

    One pass type-checks each arc, checks its length and lays it.  When an
    arc fails, the arcs are checked again in order to name the first fault
    (:func:`_name_the_fault`).  If none is found, some arc is longer than
    the rank.  Such an arc overarches every vertex, as one of length
    ``rank + 1`` does, so each is laid at that length: the key fits, and the
    walk finds no cut and says so after the record's other checks.
    """
    w = key_width(rank)
    try:
        return {(r := i % rank) << w | r + (j - i) for i, j in arcs
                if type(i) is int is type(j) and 2 <= j - i <= rank or _not_an_arc()}
    except (TypeError, ValueError):
        _name_the_fault(arcs)
    return {(r := i % rank) << w | r + min(j - i, rank + 1) for i, j in arcs}


class _Texts(dict):
    """A table of the compact JSON texts ``[i,j]`` of arcs by their integer
    keys of width ``width`` (:func:`key_width`).  A text is made on first
    use and kept while the table holds fewer than ``TEXT_ENTRIES``, so the
    table stays bounded whatever the input; a key it no longer takes is
    formatted on every use.  A subclass reads the arc off its key."""

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, key: int) -> str:
        text = self.text(key)
        if len(self) < TEXT_ENTRIES:
            self[key] = text
        return text

    def at(self, width: int) -> "_Texts":
        """This table if its keys are ``width`` bits wide, else a new one."""
        return self if width == self.width else type(self)(width)


class _ArcTexts(_Texts):
    """The texts of arcs ``(i, j)`` by their arc keys ``i << width | j``."""

    __slots__ = ()

    def text(self, key: int) -> str:
        return f"[{key >> self.width},{key & ((1 << self.width) - 1)}]"


class _OrbitTexts(_Texts):
    """The texts of canonical orbits ``(i, j)`` by their orbit keys
    ``(j - i) << width | i``."""

    __slots__ = ()

    def text(self, key: int) -> str:
        i = key & ((1 << self.width) - 1)
        return f"[{i},{i + (key >> self.width)}]"


# An orbit's text does not depend on the rank, so one table kept across
# records serves every record: the keys of every rank up to RECORD_RANK have
# the same width.
_ORBIT_TEXTS = _OrbitTexts(key_width(RECORD_RANK))


def half_orbits_json(n: int, keys: Iterable[int]) -> str:
    """The orbits with these orbit keys (:func:`key_width`), orbits of a
    rank-n finite half, deduplicated and sorted, as compact JSON
    text: byte-identical to :meth:`PeriodicDiagram.orbits_json` of the
    diagram of those orbits.

    One set dedups the keys, a plain int sort orders the orbits, and each
    text comes from the bounded table :data:`_ORBIT_TEXTS`.  An orbit longer
    than n, which no finite half has, raises ValueError.
    """
    w = key_width(n)
    keys = sorted(set(keys))
    if keys and keys[-1] >= (n + 1) << w:
        raise ValueError("a finite half has arcs of length at most the rank")
    return "[" + ",".join(map(_ORBIT_TEXTS.at(w).__getitem__, keys)) + "]"


def diagram_json(rank: int, orbits_text: str) -> str:
    """The diagram record of a rank-``rank`` diagram whose ``orbits`` text is
    ``orbits_text`` (:meth:`PeriodicDiagram.orbits_json`)."""
    return f'{{"rank":{rank},"orbits":{orbits_text}}}'


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
            raise ValueError(f"rank must be positive, got {rank}")
        for i, j in orbits:
            if j - i < 2:
                raise ValueError(f"not an arc: {(i, j)!r}")
            if not 0 <= i < rank:
                raise ValueError(f"orbit {(i, j)!r} not in canonical form at rank {rank}")
        super().__init__(rank, orbits)

    @classmethod
    def from_arcs(cls, rank: int, arcs: Iterable[tuple[int, int]]) -> "PeriodicDiagram":
        """The diagram of the orbits of ``arcs``, each a pair ``(i, j)`` of
        integers at any shift.  Each arc is checked and normalized once, in
        input order: the first one shorter than 2 raises :func:`check_arc`'s
        error."""
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
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
