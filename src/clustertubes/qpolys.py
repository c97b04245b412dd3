"""q-binomials, q-multinomials, and exact evaluation at roots of unity.

Cyclic sieving turns counting statements into polynomial identities: the
q-analogue of a count, evaluated at a primitive d-th root of unity, must
equal a fixed-point count.  Those evaluations are done exactly here by
reducing modulo the d-th cyclotomic polynomial (computed by exact division
of ``q^d - 1`` by the lower cyclotomics) -- never with floating complex
arithmetic.  A reduction that is not a constant means the value is not a
rational integer; for the sieving polynomials that signals a bug, so it
raises.
"""

from __future__ import annotations

import functools
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

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return QPoly((0,) * k + self.coeffs)

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
    """Gaussian binomial [a choose b]_q, by the Pascal recurrence.

    Out-of-range b (negative or > a) gives the zero polynomial; the refined
    counting formulas rely on that vanishing convention.
    """
    if b < 0 or b > a:
        return Q_ZERO
    if b == 0 or b == a:
        return Q_ONE
    return qbinomial(a - 1, b - 1) + qbinomial(a - 1, b).shift(b)


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
    """The d-th cyclotomic polynomial, by exact division of q^d - 1."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {_ECHO.repr(d)}")
    num = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            num = _exact_div(num, cyclotomic(e))
    return num


def _exact_div(num: QPoly, den: QPoly) -> QPoly:
    quo, rem = _divmod_int(num, den)
    if not rem.is_zero():
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return quo


def _divmod_int(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """Long division over Z; requires each leading-term division to be exact."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num.coeffs)
    d = den.coeffs
    q = [0] * max(0, len(r) - len(d) + 1)
    while len(r) >= len(d) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        factor, rem = divmod(r[-1], d[-1])
        if rem != 0:
            raise ArithmeticError("leading coefficient does not divide")
        pos = len(r) - len(d)
        q[pos] = factor
        for i, c in enumerate(d):
            r[pos + i] -= factor * c
    return QPoly(tuple(q)), QPoly(tuple(r))


def eval_at_primitive_root(p: QPoly, d: int) -> int:
    """Exact value of p at a primitive d-th root of unity.

    Reduces modulo the d-th cyclotomic polynomial; if the residue is a
    constant that constant is the value, otherwise the evaluation is not a
    rational integer and a ValueError is raised.
    """
    if d == 1:
        return p(1)
    _, rem = _divmod_int(p, cyclotomic(d))
    if rem.degree > 0:
        raise ValueError(
            f"evaluation at a primitive {d}-th root is not an integer (residue {rem})"
        )
    return rem.coeffs[0] if rem.coeffs else 0
