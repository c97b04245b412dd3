"""Tests of the benchmark's own input generator.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json

from halves import RANKS, halves_jsonl

from clustertubes.arcs import PeriodicDiagram
from clustertubes.torsion import is_finite_half


def records(seed: int, count: int) -> list[dict]:
    return [json.loads(line) for line in halves_jsonl(seed, count).splitlines()]


def test_generated_halves_are_finite_halves() -> None:
    for record in records(seed=7, count=300):
        assert RANKS[0] <= record["rank"] <= RANKS[1]
        assert record["finite_side"] in ("left", "right")
        half = PeriodicDiagram.from_arcs(record["rank"], map(tuple, record["orbits"]))
        assert is_finite_half(half)


def test_lines_are_in_the_cli_serialization() -> None:
    for record in records(seed=3, count=100):
        orbits = [tuple(a) for a in record["orbits"]]
        assert orbits == sorted(orbits, key=lambda a: (a[1] - a[0], a[0]))
        assert all(0 <= i < record["rank"] for i, _ in orbits)
        assert list(record) == ["rank", "finite_side", "orbits"]


def test_seed_fixes_the_stream() -> None:
    assert halves_jsonl(1, 50) == halves_jsonl(1, 50)
    assert halves_jsonl(1, 50) != halves_jsonl(2, 50)
