"""Exact truncated power series with polynomial coefficients.

Coefficients live in ``Z[x, y1, y2]`` (class :class:`Poly3`, arbitrary
precision throughout); a :class:`PowerSeries` is a list of such coefficients
indexed by the degree in the main variable ``z``, exact up to a fixed
truncation order.  Plain Python ints are accepted anywhere a coefficient is,
so specializing ``x = y1 = y2 = 1`` just means running the same code with
integer coefficients.

The two series of interest:

* ``series_P`` solves ``P = z + x P^2 + (y1+y2) P^3/(1-P)`` degree by degree
  (the generating function of base-edged polygon Ptolemy diagrams, weighted
  by triangle/clique/empty-cell counts).  Low order:
  ``P = z + x z^2 + (2x^2 + y1 + y2) z^3 + ...``.
* ``series_torsion`` is ``2 z P'/(1-P)``, whose degree-n coefficient counts
  torsion pairs in the rank-n cluster tube, refined by the same statistics.

Division is only ever by a series with unit constant term, so everything
stays over the integers; the cycle-with-pointing operator ``z S'/(1-S)`` is
implemented directly rather than through a logarithm, which would leave the
coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union


Exponent = tuple[int, int, int]
Coefficient = Union[int, "Poly3"]


@dataclass(frozen=True)
class Poly3:
    """Polynomial in x, y1, y2 with integer coefficients.

    ``terms`` maps exponent triples ``(a, b, c)`` (for ``x^a y1^b y2^c``) to
    nonzero coefficients; stored sorted for hashing and canonical printing.
    """

    terms: tuple[tuple[Exponent, int], ...]

    @classmethod
    def from_dict(cls, d: Mapping[Exponent, int]) -> "Poly3":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def const(cls, c: int) -> "Poly3":
        return cls.from_dict({(0, 0, 0): c})

    def _as_dict(self) -> dict[Exponent, int]:
        return dict(self.terms)

    def coefficient(self, a: int, b: int, c: int) -> int:
        return self._as_dict().get((a, b, c), 0)

    def evaluate(self, x: int = 1, y1: int = 1, y2: int = 1) -> int:
        return sum(co * x**a * y1**b * y2**c for (a, b, c), co in self.terms)

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


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series in z; ``coeffs[k]`` is the z^k coefficient (int or Poly3)."""

    order: int
    coeffs: tuple[Coefficient, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list does not match truncation order")

    @classmethod
    def from_list(cls, coeffs: Iterable[Coefficient], order: int) -> "PowerSeries":
        cs = list(coeffs)[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
        return cls(order, tuple(cs))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        out: list[Coefficient] = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if isinstance(a, int) and a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if isinstance(b, int) and b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return PowerSeries(n, tuple(out))

    def scale(self, c: Coefficient) -> "PowerSeries":
        return PowerSeries(self.order, tuple(c * a for a in self.coeffs))

    def geometric(self) -> "PowerSeries":
        """``1/(1 - self)`` for a series with zero constant term."""
        if _as_poly(self.coeffs[0]) != ZERO:
            raise ValueError("geometric series needs zero constant term")
        g: list[Coefficient] = [1] + [0] * self.order
        for k in range(1, self.order + 1):
            g[k] = sum(self.coeffs[i] * g[k - i] for i in range(1, k + 1))
        return PowerSeries(self.order, tuple(g))


def series_P(
    order: int,
    x: Coefficient = X,
    y1: Coefficient = Y1,
    y2: Coefficient = Y2,
) -> PowerSeries:
    """Solve ``P = z + x P^2 + (y1+y2) P^3/(1-P)`` to the given order.

    Clearing the denominator gives
    ``P = z - z P + (1+x) P^2 + (y1+y2-x) P^3``, whose degree-m coefficient
    only involves lower degrees, so the solution is read off degree by degree.
    Pass integers for x, y1, y2 to work with plain integer coefficients.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    quad = 1 + x
    cub = y1 + y2 - x
    a: list[Coefficient] = [0] * (order + 1)
    sq: list[Coefficient] = [0] * (order + 1)  # coefficients of P^2
    cb: list[Coefficient] = [0] * (order + 1)  # coefficients of P^3
    for m in range(1, order + 1):
        sq[m] = sum(a[i] * a[m - i] for i in range(1, m))
        cb[m] = sum(a[i] * sq[m - i] for i in range(1, m - 1))
        base = 1 if m == 1 else 0
        a[m] = base - a[m - 1] + quad * sq[m] + cub * cb[m]
    return PowerSeries(order, tuple(a))


def series_torsion(
    order: int,
    x: Coefficient = X,
    y1: Coefficient = Y1,
    y2: Coefficient = Y2,
) -> PowerSeries:
    """``2 z P'(z)/(1 - P(z))`` to the given order.

    This is twice the pointed cycle of P; its z^n coefficient, summed over
    the statistics variables, is the number of torsion pairs at rank n.
    """
    P = series_P(order, x, y1, y2)
    # z * P' has z^k coefficient k * a_k, exact to the full order
    zPprime = PowerSeries(order, tuple(k * P.coeffs[k] for k in range(order + 1)))
    return (zPprime * P.geometric()).scale(2)
