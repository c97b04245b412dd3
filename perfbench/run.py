"""End-to-end and per-layer benchmark of the ``clustertubes`` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {enumerate,roundtrip,sieve,crosscheck,all}
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` runs the workload's CLI commands as child processes, one at a
time (a closed loop with one client), for ``--seconds`` seconds, checks every
output and reports the end-to-end metrics of BENCHMARK.json, every time
scaled to a reference host speed measured around and during each command
(see spawner.py).  ``--trace 1`` replays each command in-process under
``perfbench/replay.py`` and reports the per-layer metrics.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a table for people, giving
each timing's median, tail percentile (when there are enough samples) and
sample count, scaled and unscaled.

Every child runs as ``PYTHONPATH=src python -m clustertubes.cli ...`` with
``CLUSTERTUBES_THREADS`` unset.  Work files go to a temporary directory
under ``perfbench/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import SETUP_ARGV, WORKLOADS, Step, check_setup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = (sys.executable, "-m", "clustertubes.cli")
REPLAY = (sys.executable, str(BENCH / "replay.py"))

SETUP_SPAWNS = 15  # cold `count --n 1` starts per run; setup_s is their median
IMPORT_SPAWNS = 5  # `-X importtime` starts per traced run


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CLUSTERTUBES_THREADS", None)  # the serial default
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Spawn:
    """One finished child process."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    first_output_s: float
    cpu_s: float
    peak_rss_mb: float
    ref_wall_s: float
    ref_first_output_s: float
    ref_cpu_s: float
    probe_s: float


class Spawner:
    """Runs children one at a time through ``spawner.py``, which times them
    from spawn to exit and keeps its own RSS small (see there why)."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            (sys.executable, str(BENCH / "spawner.py")), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
        )

    def run(self, argv: tuple[str, ...], stdin: Path | None = None,
            stdout: Path | None = None, probe: bool = False) -> Spawn:
        stdout = stdout or self.work / "stdout"
        stderr = self.work / "stderr"
        request = {"argv": list(argv), "stdin": stdin and str(stdin),
                   "stdout": str(stdout), "stderr": str(stderr), "probe": probe}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return Spawn(stdout=stdout.read_bytes(), stderr=stderr.read_bytes(), **json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Tally:
    """Commands attempted and failed; a command fails if it exits non-zero or
    its output fails its check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, run: Spawn, check, label: str) -> bool:
        self.attempted += 1
        ok = run.code == 0 and check(run.stdout)
        if not ok:
            self.failed += 1
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {label}: exit {run.code}; {' | '.join(tail)}", file=sys.stderr)
        return ok


def run_step(step: Step, argv: tuple[str, ...], spawner: Spawner, tally: Tally,
             probe: bool = False) -> Spawn:
    run = spawner.run(argv, step.stdin, step.save_as, probe)
    tally.record(run, step.check, " ".join(step.argv))
    return run


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def print_table(title: str, rows: list[tuple[str, str, list[float]]]) -> None:
    print(title)
    for name, unit, samples in rows:
        tail = tail_percentile(samples)
        tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "p- (under 20 samples)"
        print(f"  {name:<44} {statistics.median(samples):>12.4f} {unit:<6} {tail_text:<24} n={len(samples)}")


def end_to_end(name: str, seed: int, seconds: float, spawner: Spawner, tally: Tally) -> tuple:
    """Times are scaled to the spawner's reference host speed (see
    spawner.py); the raw ones are returned as ``raw.*`` samples for the table."""
    steps = WORKLOADS[name](seed, spawner.work)
    samples: dict[str, list[float]] = {"setup_s": [], "raw.setup_s": [], "probe_s": []}
    for _ in range(SETUP_SPAWNS):
        run = spawner.run(CLI + SETUP_ARGV, probe=True)
        tally.record(run, check_setup, " ".join(SETUP_ARGV))
        samples["setup_s"].append(run.ref_wall_s)
        samples["raw.setup_s"].append(run.wall_s)
        samples["probe_s"].append(run.probe_s)

    start = time.perf_counter()
    elapsed = 0.0
    # Start another cycle only if one more, as long as the last, still fits.
    while not elapsed or time.perf_counter() - start + elapsed <= seconds:
        began = time.perf_counter()
        runs = [run_step(step, CLI + step.argv, spawner, tally, probe=True) for step in steps]
        elapsed = time.perf_counter() - began
        for prefix, wall, first, cpu in (("", "ref_wall_s", "ref_first_output_s", "ref_cpu_s"),
                                         ("raw.", "wall_s", "first_output_s", "cpu_s")):
            cycle = {
                "wall_s": sum(getattr(r, wall) for r in runs),
                # until the first line of the workload's final output
                "first_output_s": sum(getattr(r, wall) for r in runs[:-1]) + getattr(runs[-1], first),
                "cpu_s": sum(getattr(r, cpu) for r in runs),
            }
            for key, value in cycle.items():
                samples.setdefault(prefix + key, []).append(value)
        samples.setdefault("peak_rss_mb", []).append(max(r.peak_rss_mb for r in runs))
        samples["probe_s"] += [r.probe_s for r in runs]

    return {key: statistics.median(values) for key, values in samples.items()}, samples


IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(spawner: Spawner, tally: Tally) -> tuple[list[float], list[float]]:
    """Cumulative import time of clustertubes.cli and of numpy, per cold start."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_SPAWNS):
        run = spawner.run((sys.executable, "-X", "importtime", "-c", "import clustertubes.cli"))
        cumulative = {m.group(2): int(m.group(1)) / 1e6
                      for m in IMPORT_LINE.finditer(run.stderr.decode(errors="replace"))}
        tally.record(run, lambda out: "clustertubes.cli" in cumulative, "import clustertubes.cli")
        cli_s.append(cumulative.get("clustertubes.cli", 0.0))
        numpy_s.append(cumulative.get("numpy", 0.0))
    return cli_s, numpy_s


def per_layer(name: str, seed: int, spawner: Spawner, tally: Tally) -> tuple:
    """Replay each command plain, traced and (where it applies) under
    tracemalloc, each in a fresh process like the CLI itself."""
    cli_import, numpy_import = import_times(spawner, tally)
    spans: dict[str, dict[str, float]] = {}
    counts = {"cache_hits": 0, "cache_misses": 0, "tau_calls": 0, "tau_fixed": 0}
    plain_wall = traced_wall = peak_mb = 0.0
    stats_path = spawner.work / "stats.json"
    for step in WORKLOADS[name](seed, spawner.work):
        plain_wall += run_step(step, REPLAY + ("--mode", "plain", "--") + step.argv, spawner, tally).wall_s
        stats_path.unlink(missing_ok=True)
        traced = REPLAY + ("--mode", "traced", "--stats", str(stats_path), "--") + step.argv
        traced_wall += run_step(step, traced, spawner, tally).wall_s
        report = json.loads(stats_path.read_text())
        for counter in counts:
            counts[counter] += report[counter]
        for span, values in report["spans"].items():
            into = spans.setdefault(span, dict.fromkeys(values, 0))
            for key, value in values.items():
                into[key] += value
        if report["spans"]["torsion.enumerate_structured"]["calls"]:
            memory = REPLAY + ("--mode", "memory", "--stats", str(stats_path), "--") + step.argv
            tally.record(spawner.run(memory, step.stdin), lambda out: True, "memory pass")
            peak_mb = max(peak_mb, json.loads(stats_path.read_text())["peak_mb"])

    metrics = {
        "cli.import_s": statistics.median(cli_import),
        "cli.import_numpy_s": statistics.median(numpy_import),
        "cli.self_s": spans["cli"]["self_s"],
        "polygons.polygon_diagrams.cache_hits": counts["cache_hits"],
        "polygons.polygon_diagrams.cache_misses": counts["cache_misses"],
        "torsion.enumerate_structured.peak_mb": peak_mb,
        "sieving.fixed_ratio": counts["tau_fixed"] / counts["tau_calls"] if counts["tau_calls"] else 0.0,
        "trace.coverage": sum(s["self_s"] for s in spans.values()) / traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    for span, values in spans.items():
        metrics[f"{span}.s"] = values["total_s"]
        metrics[f"{span}.calls"] = values["calls"]
        metrics[f"{span}.items"] = values["items"]
    samples = {"cli.import_s": cli_import, "cli.import_numpy_s": numpy_import}
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> None:
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        spawner = Spawner(work)
        try:
            if trace:
                measured, samples = per_layer(name, seed, spawner, tally)
            else:
                measured, samples = end_to_end(name, seed, seconds, spawner, tally)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    print_table(f"{name} ({kind}, seed {seed}):",
                [(key, units[key], samples.get(key, [measured[key]])) for key in units])
    if not trace:
        print_table("  unscaled times, and the probe's mean time per command:",
                    [(key, "s", values) for key, values in samples.items()
                     if key.startswith("raw.") or key == "probe_s"])
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<44} {error_rate:>12.4f} ratio  ({tally.failed} of {tally.attempted} commands failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": measured[key], "unit": unit} for key, unit in units.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description="clustertubes CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "clustertubes" / "cli.py").is_file():
        print(f"error: no clustertubes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, seconds, bool(args.trace), declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
