"""Run one ``clustertubes`` CLI command in this process, optionally traced.

Usage: python perfbench/replay.py --mode {plain,traced,memory} --stats FILE -- CLI_ARGS...

The command runs through ``clustertubes.cli.main`` with the process's own
stdin and stdout, exactly as ``python -m clustertubes.cli CLI_ARGS`` would.

* ``plain`` installs nothing; its wall time is the baseline for the tracing
  overhead.
* ``traced`` wraps the public functions listed below in spans and writes, per
  span name, the number of calls, the total (outermost) time, the self time
  (total minus the time of nested spans) and the items produced.
* ``memory`` measures only the tracemalloc peak of
  ``torsion.enumerate_structured`` and stops the command when that call
  returns, so tracemalloc's cost stays out of the timed passes.

Needs ``clustertubes`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import tracemalloc

import clustertubes
from clustertubes import arcs, cli, counting, polygons, qpolys, series, sieving, torsion

MODULES = (clustertubes, arcs, cli, counting, polygons, qpolys, series, sieving, torsion)

FUNCTIONS = (
    (polygons, "polygon_diagrams"),
    (polygons, "statistics_polygon"),
    (torsion, "statistics"),
    (torsion, "enumerate_structured"),
    (torsion, "decompose"),
    (torsion, "compose"),
    (torsion, "count_structured"),
    (torsion, "sample_halves"),
    (torsion, "to_pointed_cycle"),
    (torsion, "from_pointed_cycle"),
    (counting, "torsion_count"),
    (counting, "refined_table"),
    (series, "series_torsion"),
    (qpolys, "eval_at_primitive_root"),
    (sieving, "q_torsion_count_refined"),
    (sieving, "csp_verify"),
)
GENERATORS = ((torsion, "iter_structured"),)
METHODS = (
    (arcs.PeriodicDiagram, "from_arcs"),
    (arcs.PeriodicDiagram, "tau"),
    (torsion.TorsionPair, "__init__"),
    (torsion.TorsionPair, "to_json"),
    (torsion.WingDecomposition, "to_json"),
    (torsion.WingDecomposition, "from_json"),
)


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def replace_everywhere(old: object, new: object) -> None:
    """Rebind every package-level name bound to ``old``, so that calls through
    ``from .x import f`` imports are caught as well as ``x.f`` calls."""
    for module in MODULES:
        for key in [k for k, v in vars(module).items() if v is old]:
            setattr(module, key, new)


class Tracer:
    """Spans kept in memory and aggregated per name."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = {}

    def _entry(self, name: str) -> dict[str, float]:
        self._depth.setdefault(name, 0)
        return self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        )

    def timed(self, name: str, call, stats: dict[str, float]):
        """Run ``call()`` as one span; nested spans are subtracted from its self time."""
        children = [0.0]
        self._open.append(children)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            return call()
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            self._depth[name] -= 1
            if self._open:
                self._open[-1][0] += duration
            if self._depth[name] == 0:  # recursive calls count once in the total
                stats["total_s"] += duration
            stats["self_s"] += duration - children[0]

    def wrap(self, name: str, fn, items=None):
        stats = self._entry(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats["calls"] += 1
            before = items.before() if items else None
            result = self.timed(name, lambda: fn(*args, **kwargs), stats)
            if items:
                stats["items"] += items.after(before, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is a span; items are values yielded."""
        stats = self._entry(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                try:
                    value = self.timed(name, lambda: next(inner), stats)
                except StopIteration:
                    return
                stats["items"] += 1
                yield value

        return traced


class BuiltOnMiss:
    """Items of a cached function: the objects returned by calls that missed
    the cache, i.e. the objects actually built."""

    def __init__(self, cached) -> None:
        self.cached = cached

    def before(self) -> int:
        return self.cached.cache_info().misses

    def after(self, before: int, result) -> int:
        return len(result) if self.cached.cache_info().misses > before else 0


class Returned:
    """Items of a counting function: the count it returns."""

    def before(self) -> None:
        return None

    def after(self, before: None, result: int) -> int:
        return result


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every traced entry point; returns the τ-check tally it fills."""
    for module, name in FUNCTIONS:
        fn = getattr(module, name)
        items = None
        if name == "polygon_diagrams":
            items = BuiltOnMiss(fn)
        elif name == "count_structured":
            items = Returned()
        replace_everywhere(fn, tracer.wrap(f"{layer_of(module.__name__)}.{name}", fn, items))
    for module, name in GENERATORS:
        fn = getattr(module, name)
        replace_everywhere(fn, tracer.wrap_generator(f"{layer_of(module.__name__)}.{name}", fn))
    for cls, name in METHODS:
        raw = vars(cls)[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        label = f"{layer_of(cls.__module__)}.{cls.__name__}" + ("" if name == "__init__" else f".{name}")
        wrapped = tracer.wrap(label, fn)
        setattr(cls, name, classmethod(wrapped) if is_classmethod else wrapped)

    # sieving.fixed_ratio: τ images equal to the diagram, over τ calls.
    tau_checks = {"calls": 0, "fixed": 0}
    traced_tau = arcs.PeriodicDiagram.tau

    def tau(self, power: int = 1):
        image = traced_tau(self, power)
        tau_checks["calls"] += 1
        tau_checks["fixed"] += image == self
        return image

    arcs.PeriodicDiagram.tau = tau
    return tau_checks


class Measured(Exception):
    """Raised to end a memory pass once the measured call has returned."""


def install_memory_probe(result: dict[str, float]) -> None:
    fn = torsion.enumerate_structured

    def probe(*args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            result["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        raise Measured

    replace_everywhere(fn, probe)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), required=True)
    parser.add_argument("--stats", help="where traced and memory passes write their JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if args.mode == "plain":
        return cli.main(argv)
    if args.mode == "memory":
        report: dict = {"peak_mb": 0.0}
        install_memory_probe(report)
        try:
            code = cli.main(argv)
        except Measured:
            code = 0
    else:
        tracer = Tracer()
        cache = polygons.polygon_diagrams
        tau_checks = install(tracer)
        code = tracer.wrap("cli", cli.main)(argv)
        info = cache.cache_info()
        report = {
            "spans": tracer.stats,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "tau_calls": tau_checks["calls"],
            "tau_fixed": tau_checks["fixed"],
        }
    sys.stdout.flush()
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
