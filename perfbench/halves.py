"""Seeded generator of finite halves for the ``roundtrip`` workload.

A finite half at rank n is built the way the structure theory describes it:
a random nonempty cut set on Z/n, and on every span of width g >= 2 between
consecutive cuts the span's top arc plus a random polygon Ptolemy diagram of
size g, grown cell by cell from its base edge (a triangle, a clique or an
empty cell, with smaller diagrams glued onto the cell's other sides).

This module deliberately imports nothing from ``clustertubes``: the program
under test sees only the JSON lines written here, and the generator does not
share code with the grammar it exercises.
"""

from __future__ import annotations

import json
import random

RANKS = (10, 60)
MAX_INNER_CORNERS = 3


def random_polygon(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Diagonals of a random Ptolemy diagram on the (size+1)-gon with base
    edge (0, size), in polygon coordinates; the base edge is not included."""
    if size == 1:
        return []
    want = 1 + int(rng.random() * min(size - 1, MAX_INNER_CORNERS))
    inner = set()
    while len(inner) < want:
        inner.add(1 + int(rng.random() * (size - 1)))
    corners = [0, *sorted(inner), size]
    s = len(corners) - 1
    diags = []
    if s >= 3 and rng.random() < 0.5:  # a clique draws every internal connector
        diags += [
            (corners[x], corners[y])
            for x in range(s + 1)
            for y in range(x + 2, s + 1)
            if (x, y) != (0, s)
        ]
    for c, d in zip(corners, corners[1:]):
        if d - c >= 2:
            diags.append((c, d))
            diags += [(c + a, c + b) for a, b in random_polygon(rng, d - c)]
    return diags


def random_half(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Orbit representatives of a random finite half at rank n, in the
    serialization order of the CLI: by (length, left endpoint)."""
    density = rng.uniform(0.05, 0.5)
    cuts = [v for v in range(n) if rng.random() < density] or [rng.randrange(n)]
    ends = cuts[1:] + [cuts[0] + n]
    arcs = []
    for c, d in zip(cuts, ends):
        if d - c >= 2:
            arcs.append((c, d))
            arcs += [(c + a, c + b) for a, b in random_polygon(rng, d - c)]
    orbits = {(i % n, i % n + (j - i)) for i, j in arcs}
    return sorted(orbits, key=lambda a: (a[1] - a[0], a[0]))


def halves_jsonl(seed: int, count: int) -> bytes:
    """``count`` torsion-pair records, one JSON line each, in the format that
    ``clustertubes enumerate`` writes and ``clustertubes compose`` rebuilds."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        n = rng.randint(*RANKS)
        record = {
            "rank": n,
            "finite_side": rng.choice(("left", "right")),
            "orbits": [list(a) for a in random_half(rng, n)],
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines).encode()
