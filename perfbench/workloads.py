"""The benchmark's workloads: which CLI commands each one runs, and how each
command's output is checked.

Every check is written to survive the roadmap's planned changes: the
``enumerate`` stream is compared as a set (its order may change), ``verify``
only has to exit 0 without a ``FAIL`` line (its lines may gain timings), and
the ``roundtrip`` output must reproduce its input byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from halves import halves_jsonl

# Recorded from the CLI at the commit that introduced the benchmark.
ENUMERATE_N8_LINES = 268_806
ENUMERATE_N8_SORTED_SHA256 = "b1293d7cb54f0f98c1fb4e250dc494faa73eae8c492368a4be96ad480c7b9b86"
COUNT_N5000_SHA256 = "e7a2ce25773c6b2e0f8dae4503363918e81dc9ef58312eeea1c85a6a045efa1e"
SERIES_TORSION_24_SHA256 = "2a87629dd59216641752574a3ce7b35d435fa812621e0cc6d99fe02e1e5c8954"
SIEVE_HEADER = ["n", "d", "k", "l", "m", "polyValue", "fixedCount", "match"]
SIEVE_ROWS = {6: 80, 7: 60}
ROUNDTRIP_HALVES = 20_000

SETUP_ARGV = ("count", "--n", "1")


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its arguments, the work file fed as stdin (if
    any), the work file its stdout is saved to (if a later step reads it),
    and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[bytes], bool]
    stdin: Path | None = None
    save_as: Path | None = None


def sorted_digest(lines: list[bytes]) -> str:
    return hashlib.sha256(b"\n".join(sorted(lines))).hexdigest()


def check_setup(out: bytes) -> bool:
    return out == b"2\n"


def check_enumerate(out: bytes) -> bool:
    lines = out.splitlines()
    return (
        len(lines) == ENUMERATE_N8_LINES
        and len(set(lines)) == ENUMERATE_N8_LINES
        and sorted_digest(lines) == ENUMERATE_N8_SORTED_SHA256
    )


def check_sieve(n: int) -> Callable[[bytes], bool]:
    def check(out: bytes) -> bool:
        rows = list(csv.reader(io.StringIO(out.decode())))
        return (
            bool(rows)
            and rows[0] == SIEVE_HEADER
            and len(rows) - 1 == SIEVE_ROWS[n]
            and all(row[0] == str(n) and row[-1] == "True" for row in rows[1:])
        )

    return check


def check_verify(out: bytes) -> bool:
    lines = out.decode().splitlines()
    return not any("FAIL" in line for line in lines) and any("pass" in line for line in lines)


def check_digest(expected: str) -> Callable[[bytes], bool]:
    return lambda out: hashlib.sha256(out).hexdigest() == expected


def enumerate_steps(seed: int, work: Path) -> list[Step]:
    return [Step(("enumerate", "--n", "8"), check_enumerate)]


def roundtrip_steps(seed: int, work: Path) -> list[Step]:
    source = halves_jsonl(seed, ROUNDTRIP_HALVES)
    halves_path, wings_path = work / "halves.jsonl", work / "wings.jsonl"
    halves_path.write_bytes(source)
    return [
        Step(("decompose",), lambda out: out.count(b"\n") == ROUNDTRIP_HALVES,
             stdin=halves_path, save_as=wings_path),
        Step(("compose",), lambda out: out == source, stdin=wings_path),
    ]


def sieve_steps(seed: int, work: Path) -> list[Step]:
    return [Step(("sieve", "--n", str(n)), check_sieve(n)) for n in (6, 7)]


def crosscheck_steps(seed: int, work: Path) -> list[Step]:
    return [
        Step(("verify", "--n", "9"), check_verify),
        Step(("count", "--n", "5000"), check_digest(COUNT_N5000_SHA256)),
        Step(("series", "--order", "24", "--kind", "torsion"),
             check_digest(SERIES_TORSION_24_SHA256)),
    ]


# Why each workload exists: see perfbench/README.md.
WORKLOADS: dict[str, Callable[[int, Path], list[Step]]] = {
    "enumerate": enumerate_steps,
    "roundtrip": roundtrip_steps,
    "sieve": sieve_steps,
    "crosscheck": crosscheck_steps,
}
