"""Exact truncated power series with polynomial coefficients.

Coefficients live in ``Z[x, y1, y2]`` (class :class:`Poly3`, arbitrary
precision throughout); a :class:`PowerSeries` is a list of such coefficients
indexed by the degree in the main variable ``z``, exact up to a fixed
truncation order.  Plain Python ints are accepted anywhere a coefficient is,
and integer arguments give integer coefficients.

The two series of interest:

* ``series_P`` solves ``P = z + x P^2 + (y1+y2) P^3/(1-P)`` degree by degree
  (the generating function of base-edged polygon Ptolemy diagrams, weighted
  by triangle/clique/empty-cell counts).  Low order:
  ``P = z + x z^2 + (2x^2 + y1 + y2) z^3 + ...``.
* ``series_torsion`` is ``2 z P'/(1-P)``, whose degree-n coefficient counts
  torsion pairs in the rank-n cluster tube, refined by the same statistics.
  Its coefficients are read off ``T (1-P) = 2 z P'`` one degree at a time.

The equation for P sees y1 and y2 only through ``s = y1 + y2``, so both
series are solved in x and s, and s is expanded into ``Z[x, y1, y2]`` only
in the coefficients returned.  At z^24 the torsion coefficient has 156 terms
in (x, s) against 728 in (x, y1, y2).

The solve runs on plain Python ints.  Integer x and s are solved for
directly.  Otherwise x and s are formal, packed into one integer each by
Kronecker substitution, ``x = 2^w`` and ``s = 2^(w * order)``, so a product
of two coefficients is a single integer product.  Every coefficient of P and
T is a non-negative count, at most its series' value at ``x = s = 1``, so a
slot of ``w`` bits (one more than the largest of those values needs) never
carries into the next; a z^m coefficient has x-degree below ``m <= order``,
so the stride of ``order`` slots keeps two powers of s apart.  Each packed
coefficient is unpacked once and the caller's x and s substituted with
:class:`Poly3` arithmetic.  At ``order = 28`` the torsion series at
``x = s = 1`` reaches 67 bits, so its slots are 68 bits wide.

Both recursions divide only by a series with unit constant term, so
everything stays over the integers; the cycle-with-pointing operator
``z S'/(1-S)`` is implemented directly rather than through a logarithm,
which would leave the coefficient ring.  The module has no general series
product or inverse: the tests keep those as the reference that both series
are checked against.

The integer solve (:func:`_solve`, :func:`_torsion`) is the package's one
grammar count: :func:`~clustertubes.torsion.count_structured` reads it too.
"""

from __future__ import annotations

from typing import Mapping, Union

from .config import _ECHO, Frozen


Exponent = tuple[int, int, int]
Coefficient = Union[int, "Poly3"]


class Poly3(Frozen):
    """Polynomial in x, y1, y2 with integer coefficients.

    ``terms`` maps exponent triples ``(a, b, c)`` (for ``x^a y1^b y2^c``) to
    nonzero coefficients; stored sorted for hashing and canonical printing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Exponent, int], ...]) -> None:
        super().__init__(terms)

    @classmethod
    def from_dict(cls, d: Mapping[Exponent, int]) -> "Poly3":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def const(cls, c: int) -> "Poly3":
        return cls.from_dict({(0, 0, 0): c})

    def _as_dict(self) -> dict[Exponent, int]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: Coefficient) -> "Poly3":
        other = _as_poly(other)
        d = self._as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return Poly3.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: Coefficient) -> "Poly3":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Coefficient) -> "Poly3":
        return _as_poly(other) + (-self)

    def __mul__(self, other: Coefficient) -> "Poly3":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Poly3(tuple((e, c * other) for e, c in self.terms))
        d: dict[Exponent, int] = {}
        for (a1, b1, c1), u in self.terms:
            for (a2, b2, c2), v in other.terms:
                e = (a1 + a2, b1 + b2, c1 + c2)
                d[e] = d.get(e, 0) + u * v
        return Poly3.from_dict(d)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == (() if other == 0 else (((0, 0, 0), other),))
        if isinstance(other, Poly3):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), co in sorted(self.terms, key=lambda t: t[0], reverse=True):
            vars_ = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in (("x", a), ("y1", b), ("y2", c))
                if e > 0
            )
            mag = abs(co)
            body = vars_ if mag == 1 and vars_ else f"{mag}{vars_}" if vars_ else str(mag)
            parts.append(("- " if co < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _as_poly(v: Coefficient) -> Poly3:
    return Poly3.const(v) if isinstance(v, int) else v


ZERO = Poly3(())
ONE = Poly3.const(1)
X = Poly3.from_dict({(1, 0, 0): 1})
Y1 = Poly3.from_dict({(0, 1, 0): 1})
Y2 = Poly3.from_dict({(0, 0, 1): 1})


class PowerSeries(Frozen):
    """Truncated series in z; ``coeffs[k]`` is the z^k coefficient (int or Poly3).

    The value that :func:`series_P` and :func:`series_torsion` return.  It
    carries no series arithmetic: both solve their equations coefficient by
    coefficient, and the tests hold the product and geometric series they are
    checked against.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Coefficient, ...]) -> None:
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match truncation order")
        super().__init__(order, coeffs)


def _solve(order: int, x: int, s: int) -> list[int]:
    """Coefficients of P at the integers x and ``s = y1 + y2``.

    Clearing the denominator gives ``P = z - z P + (1+x) P^2 + (s-x) P^3``,
    whose degree-m coefficient only involves lower degrees.
    """
    quad = 1 + x
    cub = s - x
    a = [0] * (order + 1)
    sq = [0] * (order + 1)  # coefficients of P^2
    cb = [0] * (order + 1)  # coefficients of P^3
    for m in range(1, order + 1):
        sq[m] = sum(a[i] * a[m - i] for i in range(1, m))
        cb[m] = sum(a[i] * sq[m - i] for i in range(1, m - 1))
        a[m] = int(m == 1) - a[m - 1] + quad * sq[m] + cub * cb[m]
    return a


def _torsion(a: list[int]) -> list[int]:
    """``T_k = 2k a_k + sum_{0<i<k} a_i T_{k-i}``, read off ``T (1-P) = 2 z P'``."""
    T = [0] * len(a)
    for k in range(1, len(a)):
        T[k] = 2 * k * a[k] + sum(a[i] * T[k - i] for i in range(1, k))
    return T


def _series(order: int, x: Coefficient, s: Coefficient, torsion: bool) -> PowerSeries:
    """P (or T) to the given order, solved over plain integers.

    A symbolic x or s makes both formal: the solve runs at ``X = 2^w``,
    ``S = 2^(w * order)``, with ``w`` one bit more than the largest of the
    series' values at ``X = S = 1`` needs (see the module docstring), and
    :func:`_expand` substitutes x and s for X and S.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {_ECHO.repr(order)}")

    def solve(x: int, s: int) -> list[int]:
        a = _solve(order, x, s)
        return _torsion(a) if torsion else a

    if isinstance(x, int) and isinstance(s, int):
        return PowerSeries(order, tuple(solve(x, s)))
    w = max(v.bit_length() for v in solve(1, 1)) + 1
    packed = solve(1 << w, 1 << (w * order))
    return _expand([_unpack(v, w, order) for v in packed], x, s)


def _unpack(v: int, w: int, order: int) -> list[tuple[int, int, int]]:
    """The terms ``(a, b, c)``, for ``c X^a S^b``, of a packed coefficient."""
    xmask = (1 << w) - 1
    stride = w * order
    smask = (1 << stride) - 1
    terms = []
    b = 0
    while v:
        row, v = v & smask, v >> stride
        a = 0
        while row:
            c = row & xmask
            if c:
                terms.append((a, b, c))
            row >>= w
            a += 1
        b += 1
    return terms


def _expand(
    coeffs: list[list[tuple[int, int, int]]], x: Coefficient, s: Coefficient
) -> PowerSeries:
    """Substitute the given x and s for the formal X and S of :func:`_series`.

    Each term ``c X^a S^b`` becomes ``c x^a s^b``, with the powers built
    once and the products summed into one dictionary per coefficient.
    """
    xpow, spow = [ONE], [ONE]
    out: list[Coefficient] = []
    for terms in coeffs:
        d: dict[Exponent, int] = {}
        for a, b, co in terms:
            while len(xpow) <= a:
                xpow.append(xpow[-1] * x)
            while len(spow) <= b:
                spow.append(spow[-1] * s)
            for (a1, b1, c1), u in xpow[a].terms:
                for (a2, b2, c2), v in spow[b].terms:
                    e = (a1 + a2, b1 + b2, c1 + c2)
                    d[e] = d.get(e, 0) + co * u * v
        out.append(Poly3.from_dict(d))
    return PowerSeries(len(coeffs) - 1, tuple(out))


def series_P(
    order: int,
    x: Coefficient = X,
    y1: Coefficient = Y1,
    y2: Coefficient = Y2,
) -> PowerSeries:
    """Solve ``P = z + x P^2 + (y1+y2) P^3/(1-P)`` to the given order.

    The equation sees y1 and y2 only through ``s = y1 + y2``, so it is
    solved over ``Z[x, s]`` and s is expanded only in the result.
    Pass integers for x, y1, y2 to work with plain integer coefficients.
    """
    return _series(order, x, y1 + y2, torsion=False)


def series_torsion(
    order: int,
    x: Coefficient = X,
    y1: Coefficient = Y1,
    y2: Coefficient = Y2,
) -> PowerSeries:
    """``2 z P'(z)/(1 - P(z))`` to the given order.

    This is twice the pointed cycle of P; its z^n coefficient, summed over
    the statistics variables, is the number of torsion pairs at rank n.
    Reading coefficients off ``T (1 - P) = 2 z P'`` gives
    ``T_k = 2k a_k + sum_{0<i<k} a_i T_{k-i}``, solved over ``Z[x, s]`` like P.
    """
    return _series(order, x, y1 + y2, torsion=True)
