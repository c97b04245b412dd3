"""``verify``: the independent routes checked against each other at rank
n, one ``pass``, ``FAIL`` or ``skipped`` line per check; exit 1 on a
``FAIL``."""

from __future__ import annotations

import argparse

from ..config import _ECHO, BRUTE_RANK, REFINED_RANK, SERIES_ORDER, STRUCTURED_RANK, CapExceeded
from . import _skipped, _write_blocks


def cmd_verify(args: argparse.Namespace) -> int:
    from collections import Counter

    from .. import counting, sieving, torsion
    from ..arcs import PeriodicDiagram
    from ..series import series_torsion

    n = args.n
    if n > REFINED_RANK:  # it sums the n^3/24 rows of refined_rows(n)
        raise CapExceeded(f"verify capped at rank {REFINED_RANK}, got {_ECHO.repr(n)}")
    # A verdict is True (pass), False (FAIL) or the reason a check was skipped.
    checks: list[tuple[str, bool | str]] = []
    formula = counting.torsion_count(n)
    checks.append(("2 * |structured| == closed formula",
                   2 * torsion.count_structured(n) == formula))
    brute: bool | str = _skipped(n, "BRUTE_RANK", BRUTE_RANK)
    if n <= BRUTE_RANK:
        halves = torsion.enumerate_brute(n)
        brute = Counter(halves) == Counter(torsion.iter_structured(n))
    checks.append(("brute == structured (as sets)", brute))
    refined_sum = sum(count for _, count in counting.refined_rows(n))
    checks.append(("refined formula sums to total", refined_sum == formula))

    # The round trips take every half up to rank 6, the brute oracle's (not
    # _lay's, which compose and the rebuild use), and 1000 samples beyond.
    exhaustive = n <= 6
    pool = halves if exhaustive else torsion.sample_halves(n, 1000, seed=n)

    def round_trips_hold(X: PeriodicDiagram) -> bool:
        wings = torsion.decompose(X)  # once, for both round trips
        return (torsion.compose(wings) == X
                and torsion.from_pointed_cycle(wings.pointed_cycle(), n) == X)

    label = "decompose/compose and pointed-cycle round trips"
    if not exhaustive:
        label += " (sampled)"
    checks.append((label, all(round_trips_hold(X) for X in pool)))

    skipped = _skipped(n, "STRUCTURED_RANK", STRUCTURED_RANK)
    histogram: bool | str = _skipped(n, "SERIES_ORDER", SERIES_ORDER)
    burnside: bool | str = skipped
    readings = [f"translation-invariance readings: {skipped}"]
    if n <= SERIES_ORDER:
        histogram = dict(series_torsion(n).coeffs[n].terms) == dict(counting.refined_rows(n))
    if n <= STRUCTURED_RANK:
        fixed = sieving.fixed_histograms(n)
        burnside = sieving.orbit_count(n) == sum(sieving.orbits_from_fixed(fixed).values())
        readings = ["translation-invariance readings (count of tau^d-invariant pairs):",
                    "d,enumerated,count_at_rank_d,count_at_rank_n/d"]
        for d in sieving._divisors(n):
            enumerated = sum(fixed[d].values())
            readings.append(f"{d},{enumerated},{counting.torsion_count(d)},"
                            f"{counting.torsion_count(n // d)}")
    checks.append(("refined series coefficients == refined formula", histogram))
    checks.append(("Burnside orbit count == direct partition", burnside))

    width = max(len(label) for label, _ in checks)
    lines = []
    for label, verdict in checks:
        if isinstance(verdict, bool):
            verdict = "pass" if verdict else "FAIL"
        lines.append(f"{label:<{width}}  {verdict}\n")
    _write_blocks([*lines, "\n" + "\n".join(readings) + "\n"])
    return 1 if any(verdict is False for _, verdict in checks) else 0
