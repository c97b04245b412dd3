"""q-binomials, q-multinomials, and exact evaluation at roots of unity.

Cyclic sieving turns counting statements into polynomial identities: the
q-analogue of a count, evaluated at a primitive d-th root of unity, must
equal a fixed-point count.  Each evaluation is exact, the remainder modulo
the d-th cyclotomic polynomial for every d >= 1 (q - 1 leaves p(1)), never
floating complex arithmetic.  The one division is by a monic cyclotomic, so
it stays in the integers.  A remainder that is not a constant means the
value is not a rational integer; for the sieving polynomials that signals a
bug, so it raises.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable

from .config import _ECHO, Frozen


class QPoly(Frozen):
    """Polynomial in q over the integers; ``coeffs[k]`` is the q^k coefficient.

    Normalized: no trailing zero coefficients (the zero polynomial is ``()``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        super().__init__(coeffs[:end])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + QPoly(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Q_ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(tuple(out))

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mono = "1" if k == 0 else ("q" if k == 1 else f"q^{k}")
            mag = abs(c)
            body = mono if mag == 1 and k > 0 else (str(mag) if k == 0 else f"{mag}{mono}")
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


Q_ZERO = QPoly(())
Q_ONE = QPoly((1,))


@functools.cache
def qbinomial(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b]_q, as the product over i = 1..b of
    (1 - q^(a-b+i)) / (1 - q^i), with b taken as min(b, a - b).

    Each factor is one multiplication by 1 - q^(a-b+i) and one exact
    division by 1 - q^i (the quotient's coefficients are d_k = c_k +
    d_(k-i)), so nothing recurses and any a is in reach.  Out-of-range b
    (negative or > a) gives the zero polynomial; the refined counting
    formulas rely on that vanishing convention.
    """
    if b < 0 or b > a:
        return Q_ZERO
    b = min(b, a - b)
    c = [1]
    for i in range(1, b + 1):
        e = a - b + i
        c = [x - y for x, y in zip(c + [0] * e, [0] * e + c)]
        for r in range(i):
            c[r::i] = itertools.accumulate(c[r::i])
        del c[len(c) - i:]  # zero: the quotient has degree i less
    return QPoly(tuple(c))


def qmultinomial(parts: Iterable[int]) -> QPoly:
    """[n1+...+nk choose n1, ..., nk]_q as a product of q-binomials."""
    out = Q_ONE
    total = 0
    for p in parts:
        if p < 0:
            return Q_ZERO
        total += p
        out = out * qbinomial(total, p)
    return out


@functools.cache
def cyclotomic(d: int) -> QPoly:
    """The d-th cyclotomic polynomial: q^d - 1 divided by the lower ones."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {_ECHO.repr(d)}")
    num = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            num = _divmod(num, cyclotomic(e))[0]
    return num


def _divmod(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder of num by den, which must be monic (unchecked).

    Every divisor here is a cyclotomic polynomial, whose leading coefficient
    is 1, so both results have integer coefficients.
    """
    r = list(num.coeffs)
    d = den.coeffs
    top = len(d) - 1
    q = [0] * max(0, len(r) - top)
    for pos in range(len(r) - len(d), -1, -1):
        factor = q[pos] = r[pos + top]
        if factor:
            for i, c in enumerate(d):
                r[pos + i] -= factor * c
    return QPoly(tuple(q)), QPoly(tuple(r[:top]))


def eval_at_primitive_root(p: QPoly, d: int) -> int:
    """Exact value of p at a primitive d-th root of unity, for any d >= 1.

    That value is the remainder of p modulo the d-th cyclotomic polynomial
    when the remainder is a constant (at d = 1, p(1)); otherwise it is not a
    rational integer and a ValueError is raised.
    """
    rem = _divmod(p, cyclotomic(d))[1]
    if rem.degree > 0:
        raise ValueError(
            f"evaluation at a primitive {d}-th root is not an integer (residue {rem})"
        )
    return rem(0)
