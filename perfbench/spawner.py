"""Run child processes on request; report their wall time, time to first
output line, CPU time and peak RSS, raw and at a reference host speed.

``run.py`` starts this process once, before it builds any inputs.
A child's ``ru_maxrss`` starts from the high-water RSS of the process that
spawns it (Linux carries it over at ``exec``), so children must come from a
process that stays small; ``run.py``, which holds inputs and outputs in
memory, does not.  This process keeps only one read buffer: it copies each
child's stdout to a file.

Host speed.  On a shared host the CPU's throughput drifts: the same command
can take 60% longer a few minutes later, CPU time included.  To take that
out of the figures, this process pins its children to one CPU and, when
asked to probe, times a fixed piece of pure-Python work (the probe, about
5 ms) on that CPU just before the child starts, every ``PROBE_EVERY_S``
while it runs (the child is stopped with SIGSTOP for the probe, and the
pause is left out of its times) and just after it exits.  Each stretch of
the child's run between two probes is scaled by ``PROBE_REFERENCE_S`` over
the mean of those two probes, which gives the time the child would have
taken on a host where the probe takes ``PROBE_REFERENCE_S``.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdin": PATH|null, "stdout": PATH, "stderr": PATH,
"probe": BOOL}``; one JSON reply per stdout line, ``{"code", "wall_s",
"first_output_s", "cpu_s", "peak_rss_mb", "ref_wall_s",
"ref_first_output_s", "ref_cpu_s", "probe_s"}``, where the ``ref_`` times
are at the reference speed (equal to the raw ones without probing) and
``probe_s`` is the probes' mean time (0 without probing).  Children inherit
this process's working directory and environment.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from itertools import pairwise

CHILD_TIMEOUT_S = 90  # a child still running after this is killed (and so fails)
PROBE_EVERY_S = 0.1
PROBE_STEPS = 6_000
PROBE_REFERENCE_S = 0.0060  # sets the unit: about the probe's median on a 2-vCPU Xeon VM, Python 3.11
ALL_CPUS = os.sched_getaffinity(0)
CHILD_CPU = max(ALL_CPUS)  # children run here; the probe too, while they are stopped


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work: integer arithmetic,
    tuple keys, a dict and a sort, as in the CLI's own work."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(PROBE_STEPS):
        key = (i * 7919 % 613, i % 7)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def probe_child_cpu() -> float:
    """The probe, run on the children's CPU."""
    os.sched_setaffinity(0, {CHILD_CPU})
    try:
        return probe()
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def run(argv: list[str], stdin: str | None, stdout: str, stderr: str, probing: bool) -> dict:
    readings = [probe_child_cpu()] if probing else []  # host speed just before the child
    marks = [0.0]  # the child's running time at each reading
    paused = 0.0
    first = status = usage = None
    with open(stdin or os.devnull, "rb") as inp, open(stdout, "wb") as out, \
            open(stderr, "wb") as err:
        start = time.perf_counter()
        os.sched_setaffinity(0, {CHILD_CPU})  # for the child to inherit
        proc = subprocess.Popen(argv, stdin=inp, stdout=subprocess.PIPE, stderr=err)
        os.sched_setaffinity(0, ALL_CPUS)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            fd = proc.stdout.fileno()
            next_probe = start + PROBE_EVERY_S
            while True:
                probe_due = probing and status is None
                wait = max(0.0, next_probe - time.perf_counter()) if probe_due else None
                if select.select([fd], [], [], wait)[0]:
                    chunk = os.read(fd, 1 << 20)
                    if not chunk:
                        break
                    if first is None and b"\n" in chunk:
                        first = time.perf_counter() - start - paused
                    out.write(chunk)
                    continue
                stopped_at = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, code, rusage = os.wait4(proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(code):
                    marks.append(stopped_at - start - paused)
                    readings.append(probe_child_cpu())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - stopped_at
                    next_probe = time.perf_counter() + PROBE_EVERY_S
                else:  # it exited before the stop
                    status, usage, ended = code, rusage, stopped_at
            if status is None:
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.perf_counter()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    wall = ended - start - paused
    first = wall if first is None else first
    cpu = usage.ru_utime + usage.ru_stime
    reply = {
        "code": proc.returncode,
        "wall_s": wall,
        "first_output_s": first,
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if probing:
        marks.append(wall)
        readings.append(probe_child_cpu())  # host speed just after the child

        def at_reference_speed(t: float) -> float:
            """The child's first t seconds of running time, scaled stretch
            by stretch to the reference speed."""
            return sum(
                (min(t, b) - a) * PROBE_REFERENCE_S * 2 / (pa + pb)
                for (a, b), (pa, pb) in zip(pairwise(marks), pairwise(readings))
                if a < t
            )

        ref_wall = at_reference_speed(wall)
        reply.update(ref_wall_s=ref_wall, ref_first_output_s=at_reference_speed(first),
                     ref_cpu_s=cpu * ref_wall / wall if wall else cpu,
                     probe_s=sum(readings) / len(readings))
    else:
        reply.update(ref_wall_s=wall, ref_first_output_s=first, ref_cpu_s=cpu, probe_s=0.0)
    return reply


def main() -> None:
    for _ in range(20):  # warm the probe up
        probe_child_cpu()
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdin"], request["stdout"], request["stderr"],
                    request["probe"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
