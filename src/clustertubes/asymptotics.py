"""The growth of the torsion-pair counts, isolated exactly.

T(n) (:func:`clustertubes.counting.torsion_count`) grows like
``alpha / sqrt(pi n) * rho^n`` where rho is the largest positive root of
``8x^3 - 48x^2 - 47x + 4`` and alpha the smallest positive root of
``71x^6 + 213x^4 - 72x^2 + 4``; :func:`real_root` isolates these to any
precision by bisection on exact Sturm counts of the roots in each half,
and :func:`asymptotic_check` measures the approach of the exact counts to
them.  No command loads this module, so none loads ``fractions``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Literal, Sequence

from .config import _ECHO
from .counting import torsion_count

# coefficient lists are low degree -> high degree
RHO_POLYNOMIAL: tuple[int, ...] = (4, -47, -48, 8)
ALPHA_POLYNOMIAL: tuple[int, ...] = (4, 0, -72, 0, 213, 0, 71)


def _poly_eval(coeffs: Sequence[Fraction | int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of ``a`` by ``b`` (low degree first, ``b``'s
    leading coefficient nonzero); the remainder has no trailing zeros."""
    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = quot[shift] = a[shift + len(b) - 1] / b[-1]
        for k, c in enumerate(b):
            a[shift + k] -= f * c
    rem = a[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _sturm_sequence(coeffs: tuple[int, ...]) -> list[list[Fraction]]:
    """The Sturm sequence of the square-free part q of the polynomial.

    q is the polynomial divided by its gcd with its derivative, so its roots
    are the distinct roots of the polynomial, all simple.  The sequence is
    q, q' and the negated remainders of Euclid's algorithm.
    """
    p = [Fraction(c) for c in coeffs]
    g, r = p, [k * c for k, c in enumerate(p)][1:]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    seq = [_poly_divmod(p, g)[0]]
    nxt = [k * c for k, c in enumerate(seq[0])][1:]
    while nxt:
        seq.append(nxt)
        nxt = [-c for c in _poly_divmod(seq[-2], seq[-1])[1]]
    return seq


def _sign_changes(seq: list[list[Fraction]], x: Fraction) -> int:
    """Sign changes along the Sturm sequence at x, zeros dropped.  For
    ``a < b`` the difference at a and at b is the number of distinct roots
    in ``(a, b]``."""
    signs = [v > 0 for v in (_poly_eval(s, x) for s in seq) if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def real_root(
    coeffs: tuple[int, ...],
    which: Literal["largest", "smallest"] = "largest",
    tolerance: Fraction | None = None,
) -> Fraction:
    """Isolate the largest or smallest positive real root by Sturm bisection.

    ``which`` is ``"largest"`` or ``"smallest"``; any other value raises
    ValueError.

    The interval ``(0, B]``, B the Cauchy bound, holds every positive root.
    Each step halves it and keeps the half holding the wanted root, which a
    Sturm count of the distinct roots in each half decides, until it is no
    wider than ``tolerance`` (default ``1/10^14``).  Everything is exact
    rational arithmetic, so roots however close, or of any multiplicity,
    are told apart.
    """
    if which not in ("largest", "smallest"):
        raise ValueError(f"which must be 'largest' or 'smallest', got {_ECHO.repr(which)}")
    if tolerance is None:
        tolerance = Fraction(1, 10**14)
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    seq = _sturm_sequence(coeffs)
    lo = Fraction(0)
    hi = 1 + max((Fraction(abs(c), abs(coeffs[-1])) for c in coeffs[:-1]), default=Fraction(0))
    v_lo, v_hi = _sign_changes(seq, lo), _sign_changes(seq, hi)
    if v_lo == v_hi:
        raise ValueError("no positive root found")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        v_mid = _sign_changes(seq, mid)
        upper = v_mid > v_hi if which == "largest" else v_mid == v_lo
        if upper:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return hi if _poly_eval(seq[0], hi) == 0 else (lo + hi) / 2


@functools.cache
def growth_rate() -> float:
    """rho = 6.847333996370022..., the exponential growth rate of T(n)."""
    return float(real_root(RHO_POLYNOMIAL, "largest"))


@functools.cache
def growth_amplitude() -> float:
    """alpha = 0.2658656601482029..., the constant in T(n) ~ alpha rho^n / sqrt(pi n)."""
    return float(real_root(ALPHA_POLYNOMIAL, "smallest"))


def asymptotic_check(n: int) -> tuple[float, float]:
    """(T(n+1)/T(n), T(n) sqrt(pi n) / rho^n), computed from exact counts.

    The first ratio approaches rho and the second approaches alpha as n
    grows.  Exact integers go in; the conversion to float happens last (in
    log space, so huge n cannot overflow).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {_ECHO.repr(n)}")
    tn, tn1 = torsion_count(n), torsion_count(n + 1)
    ratio = tn1 / tn  # correctly rounded for arbitrary-size ints
    alpha_est = math.exp(
        math.log(tn) + 0.5 * math.log(math.pi * n) - n * math.log(growth_rate())
    )
    return ratio, alpha_est
