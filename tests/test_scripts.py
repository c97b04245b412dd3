"""Smoke tests: every script in ``scripts/`` runs with small arguments, and
the benchmark's trace harness still finds the functions it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_count_table():
    result = run_script("count_table.py", "--max-n", "6")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "n,count", "1,2", "2,6", "3,32", "4,182", "5,1092", "6,6732",
    ]


def test_asymptotics_sweep():
    result = run_script("asymptotics_sweep.py", "--max-n", "40", "--step", "20")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("rho   = 6.8473339963700")
    assert lines[2] == "n,ratio,ratio_rel_err,alpha_est,alpha_rel_err"
    assert [line.split(",")[0] for line in lines[3:]] == ["20", "40"]


def test_render_demo(tmp_path):
    out = tmp_path / "demo.svg"
    result = run_script("render_demo.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"wrote {out}"
    assert out.read_text().startswith("<?xml")


def run_traced(stats, *argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), "--mode", "traced",
         "--stats", str(stats), "--", *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_trace_harness_spans_the_wing_layer(tmp_path):
    stats = tmp_path / "stats.json"
    result = run_traced(stats, "verify", "--n", "4")
    assert result.returncode == 0, result.stderr
    spans = json.loads(stats.read_text())["spans"]
    for name in ("torsion.decompose", "torsion.compose", "torsion.from_pointed_cycle"):
        assert spans[name]["calls"] > 0, name


def test_trace_harness_replays_sieve(tmp_path):
    # every spanned function's result must fit the stats JSON
    result = run_traced(tmp_path / "stats.json", "sieve", "--n", "6")
    assert result.returncode == 0, result.stderr
