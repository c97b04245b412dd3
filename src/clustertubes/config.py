"""Enumeration caps and shared error types.

All exhaustive searches in this package are desk-scale by design; the caps
below are the guard rails.  Blowing past them raises :class:`CapExceeded`
instead of silently grinding, so callers (and the CLI, which maps the error
to exit code 3) can fail fast.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Hard limits for the exhaustive code paths.

    brute_rank
        Largest rank for the backtracking search over subsets of the
        ``n(n-1)`` arc orbits.
    structured_rank
        Largest rank for enumeration through the cut/wing grammar.
    polygon_brute
        Largest polygon size for the backtracking search over diagonals.
    series_order
        Largest truncation order for power series with polynomial
        coefficients.
    """

    brute_rank: int = 7
    structured_rank: int = 9
    polygon_brute: int = 8
    series_order: int = 24


DEFAULT_CAPS = Caps()


class CapExceeded(RuntimeError):
    """An enumeration was requested beyond its configured cap."""
