import hashlib
import importlib
import io
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import clustertubes
from clustertubes.cli import main
from clustertubes.config import BRUTE_RANK, COUNT_RANK, PERP_ORBITS, RECORD_RANK, CapExceeded
from clustertubes.config import REFINED_RANK, SERIES_ORDER, STRUCTURED_RANK, TEXT_ENTRIES
from clustertubes.counting import torsion_count
from clustertubes.pieces import random_polygon
from clustertubes.polygons import _diagonal_table, polygon_diagrams
from clustertubes.torsion import TorsionPair, WingDecomposition, _lay, decompose, iter_structured
from clustertubes.torsion import sample_halves

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--n", "5")
    assert code == 0
    assert out.strip() == "1092"


def test_count_refined_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--refined")
    assert code == 0
    assert out.splitlines() == ["n,k,l,m,count", "2,0,0,0,2", "2,1,0,0,4"]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "count": 2}


@pytest.fixture
def restore_int_digit_limit():
    """``count`` and ``orbits`` lift the int/str digit limit process-wide
    (``cli._lift_int_digit_limit``); put it back."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def default_int_digit_limit(restore_int_digit_limit):
    """The interpreter's default int/str digit limit in force, where it has one."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_beyond_the_int_digit_limit(capsys, default_int_digit_limit, fmt):
    # T(5200) has more than the 4,300 digits CPython converts by default
    code, out, err = run(capsys, "count", "--n", "5200", "--format", fmt)
    assert code == 0, err
    expected = torsion_count(5200)
    if fmt == "json":
        assert json.loads(out) == {"n": 5200, "count": expected}
    else:
        assert out == f"{expected}\n"


def test_orbits_beyond_the_int_digit_limit(capsys, default_int_digit_limit):
    # orbit_count(5200) has 4,339 digits
    from clustertubes.sieving import orbit_count

    code, out, err = run(capsys, "orbits", "--n", "5200")
    assert code == 0, err
    assert out.splitlines()[0] == f"orbit count (Burnside formula): {orbit_count(5200)}"


LONG = "9" * 10_000
no_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                    reason="no int/str digit limit before Python 3.10.7")


@no_digit_limit
@pytest.mark.parametrize("record", [
    '{"rank":%s,"finite_side":"left","orbits":[],"pairs":[]}' % LONG,
    '{"rank":3,"finite_side":"left","orbits":[[0,%s]],"pairs":[{"top":[0,%s],"arcs":[]}]}'
    % (LONG, LONG),
], ids=["rank", "endpoint"])
@pytest.mark.parametrize("command", ["decompose", "compose", "perp", "render"])
def test_a_record_integer_past_the_digit_limit_exits_2(capsys, monkeypatch, default_int_digit_limit,
                                                        command, record):
    # Record commands keep the limit, so the decoder refuses the literal at
    # once instead of parsing it in quadratic time.
    monkeypatch.setattr("sys.stdin", io.StringIO(record))
    argv = {"decompose": [], "compose": [], "perp": ["--arc", "0", "2"],
            "render": ["--pair", "-", "--out", "-"]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: record holds an integer of more than 4300 digits\n"


@no_digit_limit
def test_digit_limit_errors_stay_plain(capsys, default_int_digit_limit):
    # Two ends within the limit can differ by an integer past it; the echo
    # names its size instead of failing.  A --n past it is a usage error.
    wide = "9" * 4300
    diagram = '{"rank":3,"orbits":[[%s,-%s]]}' % (wide, wide)
    code, out, err = run(capsys, "decompose", "--diagram", diagram)
    assert code == 2
    assert err.startswith("error: not an arc (length <int of more than 4300 digits> < 2): (999")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    with pytest.raises(SystemExit) as info:
        main(["count", "--n", LONG])
    assert info.value.code == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_record_count(capsys, n):
    code, out, _ = run(capsys, "enumerate", "--n", str(n))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == torsion_count(n)
    sides = [json.loads(line)["finite_side"] for line in lines]
    assert sides.count("left") == sides.count("right")


def test_enumerate_streams_grammar_order(capsys):
    for n in range(1, 7):
        code, out, _ = run(capsys, "enumerate", "--n", str(n))
        assert code == 0
        assert out.splitlines() == [
            TorsionPair(n, h, s).to_json() for h in iter_structured(n) for s in ("left", "right")
        ]


def test_enumerate_stream_is_byte_stable(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "09c40dd0dad80ce59409fcb07fe471c085a82eb9c1fa9847a93d055c45d832a8"


def test_enumerate_stream_is_byte_stable_at_rank_six(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0e95e331256bb70e13dedb5c733b021281b74a3f7ab62c3c8cadeb34c63c8fb8"


@pytest.mark.parametrize("n, digest", [
    (7, "7ec15764b5426c576533d9f5f1147d72f3583f9e9ba0a2a9086b5104cce33041"),
    (8, "43c92c6c24081a4d4c9ee20950270c68c0b7c77227e90d69965627cbded0970e"),
], ids=["rank-7", "rank-8"])
def test_enumerate_stream_is_byte_stable_at_ranks_seven_and_eight(capsys, n, digest):
    code, out, _ = run(capsys, "enumerate", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_stream_is_byte_stable_at_rank_nine():
    # The rank cap, and so the largest orbit keys of the stream.
    from clustertubes import records

    digest = hashlib.sha256()
    texts = records.iter_orbits_json(9)
    while chunk := list(itertools.islice(texts, 4096)):
        digest.update("".join(text + "\n" for text in chunk).encode())
    assert digest.hexdigest() == (
        "2a276e1dd4017c0ddbe5f4776177895940f6b7194afa2aa95f564fafd810bb8b")


def test_orbit_keys_of_the_stream_fit_a_byte():
    # iter_orbits_json lays each orbit of a rank-n half as a key below
    # n (n + 1), through one bytes.translate table per cut, and reads spans
    # of width up to n, whose diagonals are the codes a << 4 | b: the widest
    # table built must hold them, and its codes fit a byte.
    from clustertubes.polygons import _TABLE_WIDTH

    assert STRUCTURED_RANK * (STRUCTURED_RANK + 1) <= 256
    assert STRUCTURED_RANK <= _TABLE_WIDTH <= 15


def test_enumerate_stream_runs_in_bounded_memory():
    # Past the diagonal tables, which the first pass builds, the stream holds
    # one mask's pieces and a chunk of texts at a time, not a table of keys or
    # texts per width.
    import collections
    import tracemalloc

    from clustertubes import records

    collections.deque(records.iter_orbits_json(8), 0)
    tracemalloc.start()
    try:
        collections.deque(records.iter_orbits_json(8), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_enumerate_stream_builds_no_diagram(capsys, monkeypatch):
    from clustertubes import pieces, polygons, records

    def outputs():
        _diagonal_table.cache_clear()
        polygon_diagrams.cache_clear()
        streams = [hashlib.sha256("\n".join(records.iter_orbits_json(n)).encode()).hexdigest()
                   for n in range(1, 9)]
        return streams, run(capsys, "enumerate", "--n", "6")

    expected = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("the stream built a polygon diagram or a cell")

    for name in ("__init__", "_canonical"):
        monkeypatch.setattr(polygons.PolygonDiagram, name, refuse)
    monkeypatch.setattr(pieces.Cell, "__init__", refuse)
    monkeypatch.setattr(pieces, "compose_base", refuse)
    assert outputs() == expected


def test_enumerate_checks_every_half(capsys, monkeypatch):
    from clustertubes import polygons

    def masks_with_a_long_arc(n):
        # one span, whose top arc is longer than the rank
        yield [0], [n + 2]

    monkeypatch.setattr(polygons, "_cut_masks", masks_with_a_long_arc)
    code, _, err = run(capsys, "enumerate", "--n", "3")
    assert code == 2
    assert err == "error: a finite half has arcs of length at most the rank\n"


def test_enumerate_builds_no_half(capsys, monkeypatch):
    from clustertubes import torsion

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built a half")

    monkeypatch.setattr(torsion, "_lay", refuse)
    monkeypatch.setattr(torsion.TorsionPair, "__init__", refuse)
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "09c40dd0dad80ce59409fcb07fe471c085a82eb9c1fa9847a93d055c45d832a8"


def complete_diagram(n):
    """The diagram record of the half at rank n with one span, from the cut
    0, holding every diagonal of its (n + 1)-gon: about n^2 / 2 orbits."""
    orbits = sorted(([a, b] for b in range(n + 1) for a in range(b - 1)),
                    key=lambda arc: (arc[1] - arc[0], arc[0]))
    return json.dumps({"rank": n, "orbits": orbits}, separators=(",", ":"))


def record_stream(capsys, monkeypatch, command):
    """The arguments of a run of the record stream ``command`` that writes
    several blocks, its stdin, and the lines that make one item of it: a
    half's two records for ``enumerate``, one record for the others.  The
    ``decompose`` and ``compose`` streams hold one record of more than
    4,096 bytes each way."""
    if command == "enumerate":
        return ["enumerate", "--n", "5"], "", 2
    code, records, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = records.splitlines()
    records = "\n".join([*lines[:50], complete_diagram(40), *lines[50:]]) + "\n"
    if command == "compose":
        monkeypatch.setattr("sys.stdin", io.StringIO(records))
        code, records, _ = run(capsys, "decompose")
        assert code == 0
    return [command], records, 1


def recorded_writes(monkeypatch, argv, stdin=""):
    """The exit code of ``main(argv)`` reading ``stdin``, and each write it
    makes to stdout, in order."""
    writes = []
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr("sys.stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    return main(argv), writes


def assert_whole_line_blocks(writes, expected, per_item):
    """``writes`` make up ``expected`` in greedy blocks of whole items, an
    item being ``per_item`` lines."""
    assert "".join(writes) == expected
    for w in writes:
        # Whole items, at most 4,096 bytes, or one item alone past that.
        assert w.endswith("\n") and (len(w.encode()) <= 4096 or w.count("\n") == per_item)
    # Each write but the last is full: the next item would pass 4,096
    # bytes, so the write sizes follow from the output alone.
    for w, after in zip(writes, writes[1:]):
        item = "".join(after.splitlines(keepends=True)[:per_item])
        assert len(w.encode()) + len(item.encode()) > 4096


@pytest.mark.parametrize("command", ["enumerate", "decompose", "compose"])
def test_record_streams_write_whole_lines_in_pipe_sized_blocks(capsys, monkeypatch, command):
    argv, stdin, per_item = record_stream(capsys, monkeypatch, command)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    code, writes = recorded_writes(monkeypatch, argv, stdin)
    assert code == 0
    lines = expected.splitlines(keepends=True)
    assert len(writes) < len(lines) / 10
    assert any(len(w) > 4096 for w in writes) is (command != "enumerate")
    assert_whole_line_blocks(writes, expected, per_item)


@pytest.mark.parametrize("argv, lines_per_write", [
    (["count", "--n", "40", "--refined"], 10),
    (["orbits", "--n", "40", "--refined"], 10),
    (["sieve", "--n", "6"], 10),
    # Ten of its 25 lines pass 4,096 bytes, and each is written alone.
    (["series", "--order", "24", "--kind", "torsion"], 1),
    (["verify", "--n", "9"], 10),
], ids=["count", "orbits", "sieve", "series", "verify"])
def test_tables_write_whole_lines_in_pipe_sized_blocks(capsys, monkeypatch,
                                                       restore_int_digit_limit, argv,
                                                       lines_per_write):
    # Each line is one item of the block writer; a print would make two
    # writes per row, the row and then its newline.
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    code, writes = recorded_writes(monkeypatch, argv)
    assert code == 0
    lines = expected.count("\n")
    assert lines > 10 and len(writes) < lines / lines_per_write
    assert_whole_line_blocks(writes, expected, 1)


@pytest.mark.parametrize("command, bad, message", [
    ("decompose", '{"rank":4 "orbits":[]}',
     "Expecting ',' delimiter: line 89 column 11 (char 10)"),
    ("decompose", '{"rank":4,"orbits":[[0,2],[1,3]]}',
     "span (0, 3) is missing its top arc; input is not Ptolemy"),
    ("compose", '{"rank":4 "pairs":[]}', "Expecting ',' delimiter: line 89 column 11 (char 10)"),
    ("compose", '{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,2]]}]}',
     "pairs[0] omits its top arc [0, 4] from 'arcs'"),
    ("compose", '{"rank":3,"pairs":[{"top":[0,1],"arcs":[]},{"top":[0,1],"arcs":[]}]}',
     "cuts must be strictly increasing within [0, 3)"),
])
def test_a_fault_after_several_blocks_keeps_the_records_before_it(capsys, monkeypatch, command,
                                                                 bad, message):
    # 88 good records, more than 4,096 bytes of output, then a faulty one:
    # stdout holds exactly the good records' output, then one error line.
    code, good, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    good = "".join(good.splitlines(keepends=True)[:88])
    if command == "compose":
        monkeypatch.setattr("sys.stdin", io.StringIO(good))
        code, good, _ = run(capsys, "decompose")
        assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(good))
    code, written, _ = run(capsys, command)
    assert code == 0 and len(written) > 4096
    monkeypatch.setattr("sys.stdin", io.StringIO(good + bad + "\n"))
    assert run(capsys, command) == (2, written, f"error: {message}\n")


def test_enumerate_into_closed_pipe_exits_141_quietly():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "clustertubes.cli", "enumerate", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline().startswith(b'{"rank":7,')
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def read_stopping(argv, stdin, stop_every):
    """The exit code, stdout and stderr of the CLI run as a child process
    with unbuffered stdout (``PYTHONUNBUFFERED=1``) and stdin from the file
    ``stdin`` (devnull if None), its stdout read through a pipe 4,096 bytes
    at a time.  With ``stop_every`` set, the child is stopped and continued
    (SIGSTOP, then SIGCONT) after every ``stop_every``-th read: a write
    longer than PIPE_BUF that waits on the full pipe then returns early,
    having written only part of its bytes."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
    with open(stdin or os.devnull, "rb") as inp:
        proc = subprocess.Popen([sys.executable, "-m", "clustertubes.cli", *argv], stdin=inp,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, reads = bytearray(), 0
        while chunk := os.read(proc.stdout.fileno(), 4096):
            out += chunk
            reads += 1
            if stop_every and reads % stop_every == 0:  # the child is not reaped before EOF
                proc.send_signal(signal.SIGSTOP)
                proc.send_signal(signal.SIGCONT)
        err = proc.stderr.read()
        return proc.wait(timeout=60), bytes(out), err
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("argv", [["count", "--n", "40", "--refined", "--format", "json"],
                                  ["decompose"]], ids=["count", "decompose"])
def test_a_stopped_and_continued_writer_loses_no_output(tmp_path, argv):
    # count writes 188,862 bytes in one write, and decompose one record of
    # about 416,000 bytes among short ones: each outgrows the pipe, so the
    # write waits on the reader and a stop cuts it short.
    stdin = None
    if argv == ["decompose"]:
        stdin = tmp_path / "diagrams.jsonl"
        stdin.write_text('{"rank":3,"orbits":[[0,2]]}\n' * 3 + complete_diagram(300) + "\n"
                         + '{"rank":4,"orbits":[[1,3]]}\n' * 3)
    code, out, err = read_stopping(argv, stdin, None)
    assert code == 0 and err == b"" and len(out) > 65536
    assert read_stopping(argv, stdin, 3) == (code, out, err)


NON_BLOCKING_RUNS = {
    "count-json": ["count", "--n", "40", "--refined", "--format", "json"],
    "count-csv": ["count", "--n", "60", "--refined"],
    "orbits-csv": ["orbits", "--n", "60", "--refined"],
}


@pytest.mark.parametrize("argv, unbuffered", [
    *((argv, True) for argv in NON_BLOCKING_RUNS.values()),
    *((argv, False) for argv in NON_BLOCKING_RUNS.values()),
], ids=[*NON_BLOCKING_RUNS, *(f"{name}-buffered" for name in NON_BLOCKING_RUNS)])
def test_a_non_blocking_stdout_loses_no_output(argv, unbuffered):
    # A raw write to a full non-blocking pipe writes nothing and returns
    # None, and a buffered one raises once its buffer is full; either way
    # the writer waits for the pipe to drain instead of dropping the rest,
    # and so does the last flush.  One JSON document of 188,862 bytes, and
    # CSV tables of 489,382 and 442,045 bytes in rows.
    import fcntl
    import struct
    import termios
    import time

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    argv = [sys.executable, "-m", "clustertubes.cli", *argv]
    expected = subprocess.run(argv, capture_output=True, env=env, timeout=60).stdout
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETFL, fcntl.fcntl(w, fcntl.F_GETFL) | os.O_NONBLOCK)
    # Within a block of full: a block that does not fill its last page
    # takes a page of its own, so a pipe of blocks may stop short of full.
    nearly_full = fcntl.fcntl(r, fcntl.F_GETPIPE_SZ) - 4096
    proc = subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    try:
        # Read nothing until the child has filled the pipe and found it
        # full, or has exited having dropped what did not fit.
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            if struct.unpack("i", fcntl.ioctl(r, termios.FIONREAD, b"\0" * 4))[0] > nearly_full:
                time.sleep(0.1)
                break
            time.sleep(0.01)
        with os.fdopen(r, "rb") as reader:
            out = reader.read()
        assert (proc.wait(timeout=60), out, proc.stderr.read()) == (0, expected, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_text_printed_before_main_comes_first_under_default_buffering():
    # Under default buffering the writer hands its blocks to stdout's
    # buffered writer, past the text layer, so main flushes that layer first.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    script = ("import sys; from clustertubes.cli import main; print('before'); "
              "sys.exit(main(['count', '--n', '3']))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "before\n32\n", "")


def console_script(name):
    """The target of ``name`` in the ``[project.scripts]`` table of
    pyproject.toml, read line by line: tomllib is 3.11+, and the project
    supports 3.10."""
    section = None
    for line in (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.partition("=")[0].strip() == name:
            return line.partition("=")[2].strip().strip('"')
    raise AssertionError(f"no console script {name!r}")


def test_the_console_script_runs_a_command(capsys, monkeypatch):
    # The installed command calls its target with no arguments, as
    # sys.exit(main()), so main reads sys.argv.
    module, _, attr = console_script("clustertubes").partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr("sys.argv", ["clustertubes", "count", "--n", "1"])
    assert entry() == 0
    assert capsys.readouterr() == ("2\n", "")


def test_cli_import_does_not_load_numpy():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import clustertubes.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr


def test_enumerate_decompose_compose_round_trip(capsys, monkeypatch):
    import io

    code, enumerated, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0

    monkeypatch.setattr("sys.stdin", io.StringIO(enumerated))
    code, wings, _ = run(capsys, "decompose")
    assert code == 0

    monkeypatch.setattr("sys.stdin", io.StringIO(wings))
    code, rebuilt, _ = run(capsys, "compose")
    assert code == 0
    assert rebuilt == enumerated  # byte-identical


def record_halves():
    """Every half at rank <= 6, then seeded samples at ranks 10-60."""
    for n in range(1, 7):
        yield from iter_structured(n)
    for n in range(10, 61, 5):
        yield from sample_halves(n, 30, seed=n)


def test_record_commands_match_the_object_api(capsys, monkeypatch):
    # decompose and compose write their records from their own walks; each
    # line must equal what the objects write, with every side and none.
    halves = list(record_halves())
    assert max(X.rank for X in halves) == 60
    assert_streams_match_the_objects(capsys, monkeypatch, halves)


def layout_edge_halves():
    """Halves at rank RECORD_RANK whose arc keys reach the edges of the
    record layout: twenty whose first cut lies above 0, so the arcs left of
    it wrap and shift, then two with a single cut and a top arc of length n,
    the second from the last vertex, so an arc ends at 2n - 1."""
    n = RECORD_RANK
    rng = random.Random(29)
    for _ in range(20):
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 40)))
        ends = [*cuts[1:], cuts[0] + n]
        yield _lay(n, [(c, random_polygon(rng, d - c)) for c, d in zip(cuts, ends)])
    for c in (0, n - 1):
        yield _lay(n, [(c, random_polygon(rng, n))])


def test_record_commands_match_the_object_api_at_the_layout_edges(capsys, monkeypatch):
    halves = list(layout_edge_halves())
    n = RECORD_RANK
    assert all(decompose(X).cuts[0] > 0 for X in halves[:20])
    assert any(j > n for X in halves[:20] for _, j in X.orbits)  # arcs that wrap
    assert decompose(halves[-1]).cuts == (n - 1,)
    assert (n - 1, 2 * n - 1) in halves[-1].orbits
    assert_streams_match_the_objects(capsys, monkeypatch, halves)


def assert_streams_match_the_objects(capsys, monkeypatch, halves):
    """decompose of each half's records, with every side and none, writes
    what its decomposition writes, and compose rebuilds the records."""
    records, wings = [], []
    for X in halves:
        for side in (None, "left", "right"):
            records.append(X.to_json() if side is None else TorsionPair(X.rank, X, side).to_json())
            wings.append(decompose(X).to_json(side))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(records)))
    code, out, _ = run(capsys, "decompose")
    assert code == 0
    assert out.splitlines() == wings
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "compose")
    assert code == 0
    assert out.splitlines() == records


def golden_records(count, seed):
    """``count`` seeded torsion-pair records, one line each as ``enumerate``
    writes them, at ranks 10-60 and 500: a random cut set, and on every span
    its top arc and a random polygon Ptolemy diagram grown cell by cell from
    it.  Built from plain arcs, with no code of the package."""
    rng = random.Random(seed)

    def diagonals(size):  # of the (size + 1)-gon on the base edge (0, size)
        inner = rng.sample(range(1, size), rng.randint(1, min(3, size - 1)))
        corners = [0, *sorted(inner), size]
        out = []
        if len(corners) > 3 and rng.random() < 0.5:  # a clique cell
            out += [(a, b) for t, a in enumerate(corners) for b in corners[t + 2:]
                    if (a, b) != (0, size)]
        for a, b in zip(corners, corners[1:]):  # a triangle or empty cell else
            if b - a >= 2:
                out += [(a, b), *((a + p, a + q) for p, q in diagonals(b - a))]
        return out

    lines = []
    for _ in range(count):
        n = rng.choice([*range(10, 61), 500])
        density = rng.choice([0.02, 0.2, 0.5])
        cuts = [v for v in range(n) if rng.random() < density] or [rng.randrange(n)]
        orbits = set()
        for c, d in zip(cuts, [*cuts[1:], cuts[0] + n]):
            if d - c >= 2:
                for a, b in [(0, d - c), *diagonals(d - c)]:
                    i = (c + a) % n
                    orbits.add((i, i + b - a))
        record = {"rank": n, "finite_side": rng.choice(["left", "right"]),
                  "orbits": sorted(orbits, key=lambda arc: (arc[1] - arc[0], arc[0]))}
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


# decompose of golden_records(2000, seed=29), as the code wrote it when the
# record kernels moved from arc tuples to integer keys
GOLDEN_WINGS_SHA256 = "8d91875231bd9f5a19c61ea9d6ad2f8665a837fe42cbacfcd90a5818859e2384"


def test_record_streams_match_their_golden_digest(capsys, monkeypatch):
    # 2,000 halves through decompose then compose: the wing stream is
    # pinned by its digest, and compose rebuilds the input byte for byte.
    source = golden_records(2000, seed=29)
    ranks = {json.loads(line)["rank"] for line in source.splitlines()}
    assert {10, 60, 500} <= ranks <= {*range(10, 61), 500}
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code, wings, err = run(capsys, "decompose")
    assert (code, err) == (0, "")
    assert hashlib.sha256(wings.encode()).hexdigest() == GOLDEN_WINGS_SHA256
    monkeypatch.setattr("sys.stdin", io.StringIO(wings))
    code, rebuilt, err = run(capsys, "compose")
    assert (code, err) == (0, "")
    assert rebuilt == source


def test_record_commands_build_no_half(capsys, monkeypatch):
    # Both record commands stream text from one walk each: no diagram,
    # piece, wing decomposition or torsion pair is constructed on the way.
    from clustertubes import arcs, polygons, torsion

    def refuse(*args, **kwargs):
        raise AssertionError("a record command built an object")

    code, enumerated, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    for cls in (arcs.PeriodicDiagram, polygons.PolygonDiagram, torsion.WingDecomposition,
                torsion.TorsionPair):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "_canonical", refuse, raising=False)
    monkeypatch.setattr(arcs.PeriodicDiagram, "from_arcs", refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(enumerated))
    code, wings, err = run(capsys, "decompose")
    assert (code, err) == (0, "")
    monkeypatch.setattr("sys.stdin", io.StringIO(wings))
    code, rebuilt, err = run(capsys, "compose")
    assert (code, err) == (0, "")
    assert rebuilt == enumerated


def test_text_tables_stay_within_their_bound(capsys, monkeypatch):
    # Records at the rank limit whose arcs are all distinct: the fans of
    # every length from one vertex, a different vertex s each, so the only
    # cut is s.  Every text table the commands keep across records stops
    # growing at its bound, and the texts past it are still right: the arc
    # texts decompose writes and the orbit texts compose writes.
    from clustertubes import arcs, torsion
    from clustertubes import records as home

    tables = [t for module in (arcs, home, torsion) for t in vars(module).values()
              if isinstance(t, dict) and type(t) is not dict]
    assert [id(t) for t in tables] == [id(home._ORBIT_TEXTS), id(home._ARC_TEXTS)]
    n = RECORD_RANK
    starts = range(TEXT_ENTRIES // (n - 1) + 2)
    fans = [[[s, s + k] for k in range(2, n + 1)] for s in starts]
    records = [json.dumps({"rank": n, "finite_side": "left",
                           "orbits": sorted(fan, key=lambda arc: (arc[1] - arc[0], arc[0]))},
                          separators=(",", ":")) for fan in fans]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(records)))
    code, wings, _ = run(capsys, "decompose")
    assert code == 0
    assert wings.splitlines() == [
        json.dumps({"rank": n, "finite_side": "left", "pairs": [{"top": [s, s + n], "arcs": fan}]},
                   separators=(",", ":")) for s, fan in zip(starts, fans)]
    monkeypatch.setattr("sys.stdin", io.StringIO(wings))
    code, rebuilt, _ = run(capsys, "compose")
    assert code == 0
    assert rebuilt.splitlines() == records
    assert [len(t) for t in tables] == [TEXT_ENTRIES] * len(tables)


def test_decompose_single_diagram(capsys):
    code, out, _ = run(capsys, "decompose", "--diagram", '{"rank":4,"orbits":[[1,3]]}')
    assert code == 0
    record = json.loads(out)
    assert record["rank"] == 4
    assert [p["top"] for p in record["pairs"]] == [[0, 1], [1, 3], [3, 4]]


def test_perp_verdict_and_listing(capsys):
    code, out, _ = run(capsys, "perp", "--diagram", '{"rank":2,"orbits":[[0,2]]}',
                       "--arc", "1", "3")
    assert code == 0
    assert json.loads(out) == {"arc": [1, 3], "in_perp": True}

    code, out, _ = run(capsys, "perp", "--diagram", '{"rank":2,"orbits":[[0,2]]}',
                       "--arc", "0", "2")
    assert code == 0
    assert json.loads(out) == {"arc": [0, 2], "in_perp": False}

    code, out, _ = run(capsys, "perp", "--diagram", '{"rank":2,"orbits":[[0,2]]}',
                       "--max-length", "6")
    assert code == 0
    assert json.loads(out) == {"rank": 2, "orbits": [[1, 3], [1, 5], [1, 7]]}


def test_perp_names_the_arc_as_given(capsys):
    code, out, err = run(capsys, "perp", "--diagram", '{"rank":2,"orbits":[]}',
                         "--arc", "5", "3")
    assert code == 2
    assert out == ""
    assert err == "error: not an arc (length -2 < 2): (5, 3)\n"


@pytest.mark.parametrize("diagram,arc", [
    ('{"rank":2,"orbits":[[0,2]]}', ["0", str(10**100)]),
    ('{"rank":2,"orbits":[[0,%d]]}' % 10**100, ["1", "5"]),
], ids=["long-arc", "long-orbit"])
def test_perp_time_does_not_grow_with_arc_length(diagram, arc):
    # A child process with a timeout: a scan over the shifts would not end.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "clustertubes.cli", "perp", "--diagram", diagram, "--arc", *arc],
        capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"arc": [int(a) for a in arc], "in_perp": False}


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["z^0: 0", "z^1: 1", "z^2: x", "z^3: 2x^2 + y1 + y2"]


def test_series_torsion_kind(capsys):
    code, out, _ = run(capsys, "series", "--order", "2", "--kind", "torsion")
    assert code == 0
    assert out.splitlines() == ["z^0: 0", "z^1: 2", "z^2: 4x + 2"]


@pytest.mark.parametrize("kind, fmt, digest", [
    ("P", "text", "0cfb068265f29b921fed4e1dca3ba6780ba270511a5b1345ca7fe398184a7c54"),
    ("P", "json", "d643959196e8b76d88876eb90ee71c43334c92b84526d674f468eaef87ae9dc2"),
    ("torsion", "text", "2a87629dd59216641752574a3ce7b35d435fa812621e0cc6d99fe02e1e5c8954"),
    ("torsion", "json", "100f558118aaba73db00bc90723464a3c18fd07e6b371538e18c3bcff18704c7"),
])
def test_series_output_is_byte_stable(capsys, kind, fmt, digest):
    code, out, _ = run(capsys, "series", "--order", "24", "--kind", kind, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sieve_pass(capsys):
    code, out, _ = run(capsys, "sieve", "--n", "2")
    assert code == 0
    assert "2,2,1,0,0,0,0,True" in out.splitlines()


def test_sieve_json(capsys):
    code, out, _ = run(capsys, "sieve", "--n", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert all(r["match"] for r in records)
    assert set(records[0]) == {"n", "d", "k", "l", "m", "polyValue", "fixedCount", "match"}


@pytest.mark.parametrize("n, digest", [
    (6, "5ffdfbdbe3778c4ebeaf291c1449de7abcb22ee2bfa9f737f0a000fde9edaf42"),
    (7, "b07bb772acc7b75867c60f30b12d41b0f21b89a1ce2d4da36b23a3c2651694ae"),
])
def test_sieve_output_is_byte_stable(capsys, n, digest):
    code, out, _ = run(capsys, "sieve", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fixed_points_lay_no_half_and_apply_no_tau(capsys, monkeypatch):
    from clustertubes import sieving, torsion
    from clustertubes.arcs import PeriodicDiagram

    commands = [("sieve", "--n", "6"), ("orbits", "--n", "8", "--refined")]

    def outputs():
        return ([sieving.fixed_histograms(n) for n in range(1, 10)],
                [run(capsys, *argv) for argv in commands])

    expected = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("a fixed point was laid or translated")

    monkeypatch.setattr(torsion, "_lay", refuse)
    for name in ("tau", "__init__", "_canonical"):
        monkeypatch.setattr(PeriodicDiagram, name, refuse)
    assert outputs() == expected


@pytest.mark.parametrize("argv, message", [
    (("count", "--n", "0", "--refined"), "error: rank must be >= 1, got 0\n"),
    (("sieve", "--n", "-2"), "error: rank must be >= 1, got -2\n"),
    (("enumerate", "--n", "-1"), "error: rank must be >= 1, got -1\n"),
])
def test_rank_below_one_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "2")
    assert code == 0
    assert "orbit count (Burnside formula): 4" in out
    assert "orbit count (direct partition): 4" in out


def test_orbits_rank_zero_is_a_usage_error(capsys):
    code, out, err = run(capsys, "orbits", "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: rank must be >= 1, got 0\n"


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6])
def test_verify_passes(capsys, n):
    code, out, _ = run(capsys, "verify", "--n", str(n))
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("n, digest", [
    (4, "619544c3d974fdbb38a905b4600136c45c2e3f03e792d4fdb2545cb756ff8b13"),
    (5, "eb57d68b6ce97a02423e9ed1e7af1ea08440b52821e4c47c9cb8548b78a8232e"),
    (6, "3f71b8b28f50703492e2ee2e051a8bc989ef806842cc1f097dc28387cecfca01"),
])
def test_verify_output_is_byte_stable(capsys, n, digest):
    code, out, _ = run(capsys, "verify", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_degraded_mode_beyond_rank_six(capsys):
    code, out, _ = run(capsys, "verify", "--n", "7")
    assert code == 0
    assert "(sampled)" in out
    assert "FAIL" not in out
    assert any(
        line.startswith("brute == structured (as sets)") and line.endswith("  pass")
        for line in out.splitlines()
    )


def test_verify_prints_invariance_readings(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0
    # tau^d-invariant pair counts match the rank-d count, not the rank-n/d one
    assert "1,2,2,182" in out
    assert "2,6,6,6" in out
    assert "4,182,182,2" in out


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "99")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "limit,refined,message",
    [(COUNT_RANK, [], "count capped"), (REFINED_RANK, ["--refined"], "refined count table capped")],
)
def test_count_rank_limits_exit_3_before_computing(capsys, monkeypatch, limit, refined, message):
    monkeypatch.setattr("clustertubes.counting.torsion_count", lambda n: 0)
    monkeypatch.setattr("clustertubes.counting.refined_table", lambda n: {})
    code, _, _ = run(capsys, "count", "--n", str(limit), *refined)
    assert code == 0

    def refuse(n):
        raise AssertionError("computed past the limit")

    monkeypatch.setattr("clustertubes.counting.torsion_count", refuse)
    monkeypatch.setattr("clustertubes.counting.refined_table", refuse)
    code, out, err = run(capsys, "count", "--n", str(limit + 1), *refined)
    assert code == 3
    assert out == ""
    assert err == f"error: {message} at rank {limit}, got {limit + 1}\n"


def refuse(*args, **kwargs):
    raise AssertionError("computed past the limit")


@pytest.mark.parametrize(
    "argv,limit,message",
    [(["orbits"], COUNT_RANK, "orbit count capped"),
     (["orbits", "--refined"], REFINED_RANK, "orbit count capped"),
     (["verify"], REFINED_RANK, "verify capped")],
)
def test_orbits_and_verify_rank_limits_exit_3_before_computing(
        capsys, monkeypatch, argv, limit, message):
    fakes = {
        "clustertubes.counting.torsion_count": lambda n: 0,
        "clustertubes.counting.refined_table": lambda n: {},
        "clustertubes.sieving.orbit_count": lambda n: 0,
        "clustertubes.sieving.orbit_count_refined": lambda n: {},
        "clustertubes.torsion.count_structured": lambda n: 0,
        "clustertubes.torsion.sample_halves": lambda n, count, seed: [],
        "clustertubes.series.series_torsion": lambda order, *_: SimpleNamespace(coeffs=[0] * (order + 1)),
    }
    for target, fake in fakes.items():
        monkeypatch.setattr(target, fake)
    code, out, _ = run(capsys, argv[0], "--n", str(limit), *argv[1:])
    assert code == 0
    assert "FAIL" not in out

    for target in fakes:
        monkeypatch.setattr(target, refuse)
    code, out, err = run(capsys, argv[0], "--n", str(limit + 1), *argv[1:])
    assert code == 3
    assert out == ""
    assert err == f"error: {message} at rank {limit}, got {limit + 1}\n"


@pytest.mark.parametrize("kind", ["P", "torsion"])
def test_series_order_limit_exits_3_before_computing(capsys, monkeypatch, kind):
    code, _, _ = run(capsys, "series", "--kind", kind, "--order", str(SERIES_ORDER))
    assert code == 0

    monkeypatch.setattr("clustertubes.series.series_P", refuse)
    monkeypatch.setattr("clustertubes.series.series_torsion", refuse)
    code, out, err = run(capsys, "series", "--kind", kind, "--order", str(SERIES_ORDER + 1))
    assert code == 3
    assert out == ""
    assert err == f"error: series order capped at {SERIES_ORDER}, got {SERIES_ORDER + 1}\n"


def test_perp_listing_limit_exits_3_before_computing(capsys, monkeypatch):
    empty = '{"rank":1,"orbits":[]}'
    code, out, _ = run(capsys, "perp", "--diagram", empty, "--max-length", str(PERP_ORBITS + 1))
    assert code == 0
    assert len(json.loads(out)["orbits"]) == PERP_ORBITS

    monkeypatch.setattr("clustertubes.torsion.perp_enumerate", refuse)
    for rank, length in [(1, PERP_ORBITS + 2), (4, 10_000_000)]:
        diagram = f'{{"rank":{rank},"orbits":[]}}'
        code, out, err = run(capsys, "perp", "--diagram", diagram, "--max-length", str(length))
        assert code == 3
        assert out == ""
        orbits = rank * (length - 1)
        assert err == (f"error: perp listing capped at {PERP_ORBITS} orbits "
                       f"(rank x (max length - 1)), got {orbits}\n")


def test_verify_builds_no_polygon_list(capsys):
    # The sampled round trips draw pieces through random_polygon, so only
    # fixed_histograms(9) fills this cache: the widths 1..3 of the rank-1 and
    # rank-3 halves that give the fixed points of tau^1 and tau^3.
    polygon_diagrams.cache_clear()
    _diagonal_table.cache_clear()
    code, out, _ = run(capsys, "verify", "--n", "9")
    assert code == 0
    assert "FAIL" not in out
    assert polygon_diagrams.cache_info().currsize <= 3
    assert _diagonal_table.cache_info().currsize <= 3


# verify's rows in order, each with the limit that gates it (None: ungated)
VERIFY_ROWS = [
    ("2 * |structured| == closed formula", None),
    ("brute == structured (as sets)", ("BRUTE_RANK", BRUTE_RANK)),
    ("refined formula sums to total", None),
    ("decompose/compose and pointed-cycle round trips", None),
    ("refined series coefficients == refined formula", ("SERIES_ORDER", SERIES_ORDER)),
    ("Burnside orbit count == direct partition", ("STRUCTURED_RANK", STRUCTURED_RANK)),
]


@pytest.mark.parametrize("n", [1, 6, 7, 8, 9, 10, 12, 24, 25])
def test_verify_and_orbits_name_every_check_they_skip(capsys, n):
    code, out, _ = run(capsys, "verify", "--n", str(n))
    assert code == 0
    table, readings = out.split("\n\n")
    rows = [re.fullmatch(r"(.+?) {2,}(\S.*)", row).groups() for row in table.splitlines()]
    assert [label.removesuffix(" (sampled)") for label, _ in rows] == [l for l, _ in VERIFY_ROWS]
    for (_, verdict), (_, gate) in zip(rows, VERIFY_ROWS):
        if gate is not None and n > gate[1]:
            assert verdict == f"skipped (rank {n} > {gate[0]} = {gate[1]})"
        else:
            assert verdict == "pass"
    if n <= STRUCTURED_RANK:
        assert readings.startswith("translation-invariance readings (count of")
        assert f"\n{n},{torsion_count(n)},{torsion_count(n)},2" in readings
    else:
        assert readings == ("translation-invariance readings: "
                            f"skipped (rank {n} > STRUCTURED_RANK = {STRUCTURED_RANK})\n")

    code, out, _ = run(capsys, "orbits", "--n", str(n))
    assert code == 0
    formula, direct = out.splitlines()
    assert formula.startswith("orbit count (Burnside formula): ")
    if n <= STRUCTURED_RANK:
        assert direct == "orbit count (direct partition): " + formula.split(": ")[1]
    else:
        assert direct == ("orbit count (direct partition): "
                          f"skipped (rank {n} > STRUCTURED_RANK = {STRUCTURED_RANK})")


def test_verify_exits_1_on_a_fail_among_skips(capsys, monkeypatch):
    from clustertubes import torsion

    monkeypatch.setattr(torsion, "count_structured", lambda n: 0)
    code, out, _ = run(capsys, "verify", "--n", str(STRUCTURED_RANK + 1))
    assert code == 1
    assert out.splitlines()[0].endswith("  FAIL")


@pytest.mark.parametrize("argv, stdin", [
    (["decompose", "--diagram", '{"rank":%d,"orbits":[]}'], None),
    (["decompose"], '{"rank":%d,"orbits":[]}\n'),
    (["compose", "--wings", '{"rank":%d,"pairs":[{"top":[0,1],"arcs":[]}]}'], None),
    (["perp", "--diagram", '{"rank":%d,"orbits":[]}', "--arc", "0", "2"], None),
    (["render", "--pair", "-", "--out", "-"], '{"rank":%d,"finite_side":"left","orbits":[]}'),
])
def test_record_rank_limit_exits_3_before_computing(capsys, monkeypatch, argv, stdin):
    # render first: patching it imports the module, which must bind the real
    # torsion functions, not the refusals below.
    monkeypatch.setattr("clustertubes.render.render_torsion_pair", refuse)
    for target in ("decompose", "compose", "perp_contains", "is_finite_half"):
        monkeypatch.setattr(f"clustertubes.torsion.{target}", refuse)
    rank = RECORD_RANK + 1
    argv = [arg % rank if "%d" in arg else arg for arg in argv]
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin % rank))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: record rank capped at {RECORD_RANK}, got {rank}\n"


def test_decompose_at_the_record_rank_limit(capsys):
    code, out, _ = run(capsys, "decompose", "--diagram", f'{{"rank":{RECORD_RANK},"orbits":[]}}')
    assert code == 0
    assert len(json.loads(out)["pairs"]) == RECORD_RANK


@pytest.mark.parametrize("command", ["enumerate", "series", "sieve", "orbits", "verify"])
def test_no_command_offers_a_cap_flag(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    for flag in ("--brute-cap", "--structured-cap", "--series-order"):
        assert flag not in usage


def test_verify_compares_brute_and_grammar_as_multisets(capsys, monkeypatch):
    from clustertubes import torsion

    grammar = torsion.iter_structured

    def one_half_twice(n):
        halves = list(grammar(n))
        yield from halves + halves[:1]

    monkeypatch.setattr(torsion, "iter_structured", one_half_twice)
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 1
    verdicts = dict(line.rsplit(None, 1) for line in out.splitlines()
                    if line.endswith(("pass", "FAIL")))
    assert verdicts.pop("brute == structured (as sets)") == "FAIL"
    assert set(verdicts.values()) == {"pass"}


def test_malformed_input_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "--diagram", "{not json")
    assert code == 2
    code, _, err = run(capsys, "perp", "--diagram", '{"rank":2,"orbits":[[1,2]]}',
                       "--arc", "0", "2")
    assert code == 2


@pytest.mark.parametrize("command, stream, written, message", [
    ("compose", '{"rank":3,"pairs":[{"top":[0,3],"arcs":[[0,3]]}]}\n\n{"rank":3 "pairs":[]}\n',
     '{"rank":3,"orbits":[[0,3]]}\n', "Expecting ',' delimiter: line 3 column 11 (char 10)"),
    # json places a fault past the record's own newline on the next line
    ("decompose", '{"rank":1,"orbits":[]}\n\n\n{"rank":3,\n',
     '{"rank":1,"pairs":[{"top":[0,1],"arcs":[]}]}\n',
     "Expecting property name enclosed in double quotes: line 5 column 1 (char 11)"),
    ("decompose", '\n{"rank":1,"orbits":[]} x\n', "", "Extra data: line 2 column 24 (char 23)"),
])
def test_json_errors_in_a_stream_name_the_stream_line(capsys, monkeypatch, command, stream,
                                                      written, message):
    # The line counts every line of stdin, blank ones too; the column and
    # the char stay json's, within the record.
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert run(capsys, command) == (2, written, f"error: {message}\n")


@pytest.mark.parametrize("argv, position", [
    (["compose", "--wings", '{"rank":3 "pairs":[]}'], "line 1 column 11 (char 10)"),
    (["decompose", "--diagram", '{"rank":3 "orbits":[]}'], "line 1 column 11 (char 10)"),
    (["render", "--pair", "-", "--out", "-"], "line 3 column 11 (char 12)"),
])
def test_json_errors_in_one_record_keep_json_text(capsys, monkeypatch, argv, position):
    # A record given as an argument, and render's one record, are the whole
    # document json reads, so its position stands as json gives it.
    record = '{"rank":3 "finite_side":"left","orbits":[]}'
    monkeypatch.setattr("sys.stdin", io.StringIO("\n\n" + record))
    assert run(capsys, *argv) == (2, "", f"error: Expecting ',' delimiter: {position}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["decompose", "--diagram", '{"rank": true, "orbits": []}'], "'rank'"),
        (["decompose", "--diagram", '{"rank": "2", "orbits": []}'], "'rank'"),
        (["decompose", "--diagram", '{"orbits": []}'], "missing key 'rank'"),
        (["decompose", "--diagram", '{"rank": 2}'], "missing key 'orbits'"),
        (["decompose", "--diagram", '{"rank": 2, "orbits": 5}'], "'orbits'"),
        (["decompose", "--diagram", '{"rank": 2, "orbits": [], "finite_side": "up"}'],
         "'finite_side'"),
        (["decompose", "--diagram", "[[0, 2]]"], "object"),
        (["compose", "--wings", '{"rank": true, "pairs": []}'], "'rank'"),
        (["compose", "--wings", '{"rank": 2}'], "missing key 'pairs'"),
        (["compose", "--wings", '{"rank": 2, "pairs": {}}'], "'pairs'"),
        (["compose", "--wings", '"pairs"'], "object"),
        (["perp", "--diagram", '{"rank": false, "orbits": []}', "--arc", "0", "2"], "'rank'"),
        (["perp", "--diagram", "[]", "--max-length", "4"], "object"),
        (["decompose", "--diagram", '{"rank": 3, "orbits": [[0]]}'], "orbits[0]"),
        (["decompose", "--diagram", '{"rank": 3, "orbits": [[0, 2], 5]}'], "orbits[1]"),
        (["decompose", "--diagram", '{"rank": 3, "orbits": [[0, "2"]]}'], "orbits[0]"),
        (["perp", "--diagram", '{"rank": 3, "orbits": [[0, true]]}', "--arc", "0", "2"],
         "orbits[0]"),
        (["compose", "--wings", '{"rank": 2, "pairs": [5]}'], "pairs[0]"),
        (["compose", "--wings", '{"rank": 2, "pairs": [{"top": [0, 2]}]}'],
         "pairs[0] must be an object"),
        (["compose", "--wings", '{"rank": 2, "pairs": [{"arcs": []}]}'],
         "pairs[0] must be an object"),
        (["compose", "--wings", '{"rank": 2, "pairs": [{"top": 5, "arcs": []}]}'],
         "pairs[0] must be an object with an arc 'top'"),
        (["compose", "--wings", '{"rank": 2, "pairs": [{"top": [0, 2], "arcs": 5}]}'],
         "pairs[0] must be an object with an arc 'top' and a list 'arcs'"),
        (["compose", "--wings",
          '{"rank": 2, "pairs": [{"top": [0, 2], "arcs": [[0, 2], [1]]}]}'], "pairs[0].arcs[1]"),
        (["decompose", "--diagram", '{"rank": 0, "orbits": [[0, 2]]}'], "'rank' must be >= 1"),
        (["perp", "--diagram", '{"rank": 0, "orbits": [[0, 2]]}', "--arc", "0", "2"],
         "'rank' must be >= 1"),
        (["compose", "--wings", '{"rank": 0, "pairs": [{"top": [0, 1], "arcs": []}]}'],
         "'rank' must be >= 1"),
        (["compose", "--wings", '{"rank": 4, "pairs": [{"top": [0, 4], "arcs": [[1, 3]]}]}'],
         "pairs[0] omits its top arc [0, 4]"),
        (["compose", "--wings", '{"rank": 2, "pairs": [{"top": [0, 2], "arcs": []}]}'],
         "pairs[0] omits its top arc [0, 2]"),
        (["decompose", "--diagram", f'{{"rank": {RECORD_RANK + 1}, "orbits": [[0]]}}'],
         "orbits[0]"),
        # Several faults: a top-level fault, an entry of the wrong type, a bad
        # finite_side, the rank cap (exit 3), a fault of the arcs, and last a
        # rank other than --n.
        (["decompose", "--diagram", '{"rank":3,"orbits":[[0,1],[0]]}'],
         "error: orbits[1] must be a pair of integers, got [0]\n"),
        (["decompose", "--diagram", '{"rank":501,"orbits":[[0,1]]}'],
         "error: record rank capped at 500, got 501\n"),
        (["decompose", "--diagram", '{"rank":3,"finite_side":"up","orbits":[[0]]}'],
         "error: orbits[0] must be a pair of integers, got [0]\n"),
        (["decompose", "--diagram", '{"rank":501,"finite_side":"up","orbits":[[0,1]]}'],
         "error: key 'finite_side' must be 'left' or 'right', got 'up'\n"),
        (["decompose", "--n", "4", "--diagram", '{"rank":3,"orbits":[[0,1]]}'],
         "error: not an arc (length 1 < 2): (0, 1)\n"),
        (["compose", "--wings",
          '{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[5,9]]},{"top":[4,5],"arcs":[5]}]}'],
         "error: pairs[1].arcs[0] must be a pair of integers, got 5\n"),
        (["compose", "--wings",
          '{"rank":4,"pairs":[{"top":[0,4],"arcs":[[1,3]]},{"top":[4,5],"arcs":[[0,true]]}]}'],
         "error: pairs[1].arcs[0] must be a pair of integers, got [0, True]\n"),
        (["compose", "--wings", '{"rank":501,"pairs":[{"top":[0,1],"arcs":[[0]]}]}'],
         "error: pairs[0].arcs[0] must be a pair of integers, got [0]\n"),
        (["compose", "--wings", '{"rank":501,"finite_side":"up","pairs":[]}'],
         "error: key 'finite_side' must be 'left' or 'right', got 'up'\n"),
        (["compose", "--wings", '{"rank":501,"pairs":[]}'],
         "error: record rank capped at 500, got 501\n"),
        (["perp", "--arc", "0", "2", "--diagram", '{"rank":3,"orbits":[[0,1],[0]]}'],
         "error: orbits[1] must be a pair of integers, got [0]\n"),
        (["perp", "--arc", "0", "2", "--diagram", '{"rank":501,"orbits":[[0,1]]}'],
         "error: record rank capped at 500, got 501\n"),
        (["perp", "--n", "4", "--arc", "0", "2", "--diagram", '{"rank":3,"orbits":[[0,1]]}'],
         "error: not an arc (length 1 < 2): (0, 1)\n"),
        (["decompose", "--n", "4", "--diagram", '{"rank":3,"orbits":[[0,2]]}'],
         "error: diagram rank 3 does not match --n 4\n"),
        (["perp", "--n", "4", "--arc", "0", "2", "--diagram", '{"rank":3,"orbits":[[0,2]]}'],
         "error: diagram rank 3 does not match --n 4\n"),
        # An arc longer than the rank overarches every vertex, so no cut is
        # left: that fault comes after all the others, as for any half.
        (["decompose", "--diagram", '{"rank":3,"orbits":[[0,9]]}'],
         "error: no cut vertex: the diagram is not a finite half\n"),
        (["decompose", "--diagram", '{"rank":3,"finite_side":"up","orbits":[[0,9]]}'],
         "error: key 'finite_side' must be 'left' or 'right', got 'up'\n"),
        (["decompose", "--diagram", '{"rank":501,"orbits":[[0,9999]]}'],
         "error: record rank capped at 500, got 501\n"),
        (["decompose", "--n", "4", "--diagram", '{"rank":3,"orbits":[[0,9]]}'],
         "error: diagram rank 3 does not match --n 4\n"),
        (["decompose", "--diagram", '{"rank":3,"orbits":[[0,9],[1,2]]}'],
         "error: not an arc (length 1 < 2): (1, 2)\n"),
    ],
)
def test_malformed_record_names_the_key(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == (3 if "error: record rank capped" in message else 2)
    assert out == ""
    if message.startswith("error: "):  # the whole error line
        assert err == message
    else:
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "record,message",
    [
        ('{"rank": true, "finite_side": "left", "orbits": []}', "'rank'"),
        ('{"rank": 2, "orbits": []}', "missing key 'finite_side'"),
        ('{"rank": 2, "finite_side": "left"}', "missing key 'orbits'"),
        ("[2]", "object"),
        ('{"rank": 0, "finite_side": "left", "orbits": [[0, 2]]}', "'rank' must be >= 1"),
        # Several faults, in the order of test_malformed_record_names_the_key;
        # a rank-3 record reaches --n 4 only past the checks of its arcs.
        ('{"rank":3,"finite_side":"left","orbits":[[0,1],[0]]}',
         "error: orbits[1] must be a pair of integers, got [0]\n"),
        ('{"rank":501,"finite_side":"left","orbits":[[0,1]]}',
         "error: record rank capped at 500, got 501\n"),
        ('{"rank":3,"finite_side":"up","orbits":[[0,1]]}',
         "error: key 'finite_side' must be 'left' or 'right', got 'up'\n"),
        ('{"rank":3,"finite_side":"left","orbits":[[0,1]]}',
         "error: not an arc (length 1 < 2): (0, 1)\n"),
        ('{"rank":3,"finite_side":"left","orbits":[[0,2]]}',
         "error: pair rank 3 does not match --n 4\n"),
    ],
)
def test_render_malformed_record_names_the_key(capsys, tmp_path, record, message):
    src = tmp_path / "pair.json"
    src.write_text(record)
    code, out, err = run(capsys, "render", "--n", "4", "--pair", str(src), "--out", "-")
    assert code == (3 if "error: record rank capped" in message else 2)
    assert out == ""
    if message.startswith("error: "):  # the whole error line
        assert err == message
    else:
        assert err.startswith("error: ") and message in err


NESTED_RECORD = '{"rank":4,"orbits":' + "[" * 3000 + "]" * 3000 + "}"


@pytest.mark.parametrize("argv, stdin", [
    (["decompose"], NESTED_RECORD),
    (["compose"], NESTED_RECORD),
    (["perp", "--arc", "0", "2"], NESTED_RECORD),
    (["render", "--pair", "-", "--out", "-"], NESTED_RECORD),
    (["perp", "--arc", "0", "2"], ""),
], ids=["decompose-nested", "compose-nested", "perp-nested", "render-nested", "perp-empty"])
def test_unreadable_record_exits_2_without_a_traceback(argv, stdin):
    # A child process: JSON nesting deep enough to exhaust the recursion limit
    # depends on the stack the command runs on, and a traceback goes to stderr.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "clustertubes.cli", *argv], input=stdin,
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, fd", [
    (["decompose"], 0),
    (["compose"], 0),
    (["perp", "--arc", "0", "2"], 0),
    (["render", "--pair", "-", "--out", "-"], 0),
    (["enumerate", "--n", "3"], 1),
    (["count", "--n", "3"], 1),
], ids=["decompose-stdin", "compose-stdin", "perp-stdin", "render-stdin",
        "enumerate-stdout", "count-stdout"])
def test_closed_standard_stream_exits_2(argv, fd):
    # A child process started by a shell with fd 0 or fd 1 closed, where
    # Python sets sys.stdin or sys.stdout to None.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m", "clustertubes.cli", *argv],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {('stdin', 'stdout')[fd]} is closed\n"


LONG_ENTRY = '{"rank":3,"orbits":[[0,"' + "x" * 100_000 + '"]]}'
DEEP_ENTRY = '{"rank":3,"orbits":[' + "[" * 900 + "]" * 900 + "]}"


@pytest.mark.parametrize("stdin", [LONG_ENTRY, DEEP_ENTRY], ids=["long", "deep"])
def test_malformed_entry_is_echoed_in_bounded_form(stdin):
    # A child process, as the deep entry decodes only on a shallow stack.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "clustertubes.cli", "decompose"], input=stdin,
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: orbits[0] must be a pair of integers, got ")
    assert result.stderr.count("\n") == 1
    assert len(result.stderr.encode()) < 300


def test_short_arc_with_a_huge_endpoint_is_echoed_in_bounded_form(capsys):
    # The endpoint is an integer, so the record passes its checks and the arc
    # reaches PeriodicDiagram.from_arcs, whose message quotes length and pair.
    diagram = '{"rank":3,"orbits":[[0,-' + "9" * 2000 + ']]}'
    code, out, err = run(capsys, "decompose", "--diagram", diagram)
    assert code == 2
    assert out == ""
    assert err.startswith("error: not an arc (length -999") and err.count("\n") == 1
    assert len(err.encode()) < 200


HUGE = "9" * 4000  # within the int/str digit limit that record commands keep


@pytest.mark.parametrize("wings, start", [
    ('{"rank":2,"pairs":[{"top":[0,2],"arcs":[[0,2],[0,%s]]}]}' % HUGE,
     "error: diagonal (0, 999"),
    ('{"rank":2,"pairs":[{"top":[0,-%s],"arcs":[]}]}' % HUGE, "error: size must be >= 1, got -999"),
    ('{"rank":2,"pairs":[{"top":[0,%s],"arcs":[[0,%s]]}]}' % (HUGE, HUGE),
     "error: piece of size 999"),
    ('{"rank":2,"pairs":[{"top":[0,%s],"arcs":[]}]}' % HUGE, "error: pairs[0] omits its top arc [0, 999"),
], ids=["diagonal", "top-reversed", "top-too-wide", "top-missing"])
def test_compose_echoes_a_huge_integer_in_bounded_form(capsys, default_int_digit_limit, wings, start):
    code, out, err = run(capsys, "compose", "--wings", wings)
    assert code == 2
    assert out == ""
    assert err.startswith(start) and err.count("\n") == 1
    assert len(err.encode()) < 200


BIG = 10**5000  # past the default int/str digit limit


# The library's own limits quote the value as the commands do (``_ECHO``):
# in bounded form whether or not a command lifted the digit limit, and as
# their own error rather than the int/str conversion's ValueError.
@pytest.mark.parametrize("call, error, start", [
    (lambda: clustertubes.enumerate_polygon(BIG), CapExceeded,
     "polygon brute force capped at size 8, got "),
    (lambda: clustertubes.enumerate_brute(BIG), CapExceeded,
     "brute-force enumeration capped at rank 7, got "),
    (lambda: clustertubes.PolygonDiagram(-BIG), ValueError, "size must be >= 1, got "),
    (lambda: clustertubes.enumerate_polygon(-BIG), ValueError, "size must be >= 1, got "),
    (lambda: _diagonal_table(-BIG), ValueError, "size must be >= 1, got "),
    (lambda: _diagonal_table(BIG), CapExceeded, "polygon diagram tables capped at size 10, got "),
    (lambda: polygon_diagrams(BIG), CapExceeded,
     "polygon diagram tables capped at size 10, got "),
    (lambda: _diagonal_table(11), CapExceeded, "polygon diagram tables capped at size 10, got 11"),
    (lambda: polygon_diagrams(11), CapExceeded, "polygon diagram tables capped at size 10, got 11"),
    (lambda: random_polygon(random.Random(0), -BIG), ValueError, "size must be >= 1, got "),
    (lambda: clustertubes.PeriodicDiagram(-BIG, frozenset()), ValueError,
     "rank must be positive, got "),
    (lambda: clustertubes.PeriodicDiagram.from_arcs(-BIG, []), ValueError,
     "rank must be positive, got "),
    (lambda: clustertubes.cyclotomic(-BIG), ValueError, "need d >= 1, got "),
    (lambda: clustertubes.asymptotic_check(-BIG), ValueError, "need n >= 2, got "),
    (lambda: clustertubes.PeriodicDiagram(2, frozenset({(0, -BIG)})), ValueError,
     "not an arc: (0, "),
    (lambda: clustertubes.PeriodicDiagram(2, frozenset({(BIG, BIG + 2)})), ValueError,
     "orbit ("),
    (lambda: WingDecomposition(BIG, (BIG + 1,), (clustertubes.DEGENERATE,)), ValueError,
     "cuts must be strictly increasing within [0, "),
    (lambda: WingDecomposition(BIG, (0,), (clustertubes.DEGENERATE,)), ValueError,
     "piece of size 1 on a span of width "),
    (lambda: clustertubes.from_pointed_cycle(
        clustertubes.PointedCycle((clustertubes.DEGENERATE,), 0, 1), BIG), ValueError,
     "piece sizes sum to 1, expected rank "),
], ids=["enumerate_polygon-cap", "enumerate_brute-cap", "PolygonDiagram",
        "enumerate_polygon-size", "_diagonal_table", "_diagonal_table-cap",
        "polygon_diagrams-cap", "_diagonal_table-width-11", "polygon_diagrams-width-11",
        "random_polygon", "PeriodicDiagram",
        "from_arcs", "cyclotomic", "asymptotic_check", "PeriodicDiagram-arc",
        "PeriodicDiagram-canonical", "WingDecomposition-cuts", "WingDecomposition-piece",
        "from_pointed_cycle"])
def test_library_limits_quote_a_huge_value_in_bounded_form(call, error, start):
    with pytest.raises(error) as raised:
        call()
    message = str(raised.value)
    assert message.startswith(start) and len(message) < 200, message[:200]


@pytest.mark.parametrize("argv, code", [
    (["count", "--n", LONG], 2),  # past the int/str digit limit: argparse refuses it
    (["count", "--n", HUGE], 3),
    (["sieve", "--n", HUGE], 3),
    (["enumerate", "--n", "-" + HUGE], 2),
    (["perp", "--diagram", '{"rank":4,"orbits":[]}', "--max-length", HUGE], 3),
    (["perp", "--diagram", '{"rank":4,"orbits":[]}', "--max-length", "-" + HUGE], 2),
], ids=["count-past-limit", "count", "sieve", "enumerate", "perp", "perp-negative"])
def test_a_huge_integer_argument_is_echoed_in_bounded_form(capsys, default_int_digit_limit,
                                                          argv, code):
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        exit_code = exc.code
    captured = capsys.readouterr()
    assert exit_code == code
    assert captured.out == ""
    assert len(captured.err.encode()) <= 300


def test_integer_arguments_keep_their_short_messages(capsys):
    with pytest.raises(SystemExit):
        main(["count", "--n", "abc"])
    assert capsys.readouterr().err.endswith(
        "clustertubes count: error: argument --n: invalid int value: 'abc'\n")
    code, _, err = run(capsys, "count", "--n", str(COUNT_RANK + 1))
    assert code == 3
    assert err == f"error: count capped at rank {COUNT_RANK}, got {COUNT_RANK + 1}\n"


# Wing records that are no wing decomposition, each with the message both
# the compose command and WingDecomposition.from_json give; the library
# reader checks the top level as the command does (records.read_record).
MALFORMED_WINGS = [
    ('{"rank":3,"pairs":[]}', "at least one cut is required"),
    ('{"rank":3,"pairs":[{"top":[0,3],"arcs":[[0,3]]},{"top":[3,6],"arcs":[[3,6]]}]}',
     "cuts must be strictly increasing within [0, 3)"),
    ('{"rank":4,"pairs":[{"top":[0,1],"arcs":[]},{"top":[2,4],"arcs":[[2,4]]}]}',
     "piece of size 1 on a span of width 2"),
    ('{"rank":3,"pairs":[{"top":[0,2],"arcs":[[0,2]]},{"top":[2,4],"arcs":[[2,4]]}]}',
     "piece of size 2 on a span of width 1"),
    ('{"rank":3,"pairs":[{"top":[2,0],"arcs":[]}]}', "size must be >= 1, got -2"),
    ('{"rank":3,"pairs":[{"top":[0,0],"arcs":[]}]}', "size must be >= 1, got 0"),
    ('{"rank":2,"pairs":[{"top":[0,1],"arcs":[[0,2]]},{"top":[1,2],"arcs":[]}]}',
     "diagonal (0, 2) out of range for size 1"),
    ('{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[1,5]]}]}',
     "diagonal (1, 5) out of range for size 4"),
    ('{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[3,1]]}]}',
     "diagonal (3, 1) out of range for size 4"),
    ('{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[1,2]]}]}',
     "diagonal (1, 2) has length < 2"),
    ('{"rank":4,"pairs":[{"top":[0,4],"arcs":[[1,3]]}]}',
     "pairs[0] omits its top arc [0, 4] from 'arcs'"),
    # per-pair checks come first, in pair order; within a pair, sorted order
    ('{"rank":3,"pairs":[{"top":[0,1],"arcs":[]},{"top":[1,3],"arcs":[[1,3],[2,9],[1,2]]}]}',
     "diagonal (0, 1) has length < 2"),
    ('{"rank":0,"pairs":[{"top":[0,1],"arcs":[]}]}', "key 'rank' must be >= 1, got 0"),
    ('{"rank":"3","pairs":[{"top":[0,3],"arcs":[[0,3]]}]}',
     "key 'rank' must be an integer, got str"),
    ('{"pairs":[{"top":[0,1],"arcs":[]}]}', "missing key 'rank'"),
    ('{"rank":3,"pairs":5}', "key 'pairs' must be a list, got int"),
    ('{"rank":true,"pairs":[{"top":[0,1],"arcs":[]}]}', "key 'rank' must be an integer, got bool"),
    ('[{"rank":1}]', "expected a JSON object, got list"),
    ("[" * 100_000 + "]" * 100_000, "record nested too deeply to decode"),
]
MALFORMED_IDS = ["no-pairs", "duplicate-cut", "gap", "overlap", "top-reversed", "top-empty",
                 "unit-span-with-arcs", "outside-span", "reversed-diagonal", "short-diagonal",
                 "missing-top", "first-in-sorted-order", "rank-zero", "rank-string",
                 "rank-missing", "pairs-int", "rank-bool", "not-an-object", "nested"]


@pytest.mark.parametrize("wings, message", MALFORMED_WINGS, ids=MALFORMED_IDS)
def test_malformed_wings_are_rejected_by_compose_and_from_json(capsys, wings, message):
    code, out, err = run(capsys, "compose", "--wings", wings)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    with pytest.raises(ValueError) as info:
        WingDecomposition.from_json(wings)
    assert str(info.value) == message


def test_compose_checks_every_arc_length(capsys, monkeypatch):
    # The reader's checks already bound every arc by the rank; the key guard
    # holds if they ever stop doing so.
    from clustertubes import records
    from clustertubes.records import key_width

    # the orbit key of the arc [0, 5], longer than the rank 3
    monkeypatch.setattr(records, "_wing_spans", lambda data: [5 << key_width(3) | 0])
    code, out, err = run(capsys, "compose", "--wings", '{"rank":3,"pairs":[]}')
    assert (code, out) == (2, "")
    assert err == "error: a finite half has arcs of length at most the rank\n"


def test_duplicate_wing_arcs_are_written_once(capsys):
    wings = '{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[1,3],[1,3],[0,4]]}]}'
    code, out, _ = run(capsys, "compose", "--wings", wings)
    assert code == 0
    assert out == '{"rank":4,"orbits":[[1,3],[0,4]]}\n'
    assert WingDecomposition.from_json(wings).to_json() == (
        '{"rank":4,"pairs":[{"top":[0,4],"arcs":[[0,4],[1,3]]}]}')


@pytest.mark.parametrize("wings", [
    '{"rank":4,"pairs":[{"top":[1,3],"arcs":[[1,3]]},{"top":[3,5],"arcs":[[3,5]]}]}',
    '{"rank":4,"pairs":[{"top":[3,5],"arcs":[[3,5]]},{"top":[1,3],"arcs":[[1,3]]}]}',
    '{"rank":4,"pairs":[{"top":[1,3],"arcs":[[1,3]]},{"top":[-1,1],"arcs":[[-1,1]]}]}',
    '{"rank":4,"pairs":[{"top":[5,7],"arcs":[[5,7]]},{"top":[7,9],"arcs":[[7,9]]}]}',
], ids=["cut-order", "reversed", "shifted-down", "shifted-up"])
def test_wing_pairs_read_alike_in_any_order_and_shift(capsys, wings):
    # The reader sorts the pairs by cut, so any order or shift of them reads
    # alike.
    code, out, err = run(capsys, "compose", "--wings", wings)
    assert (code, out, err) == (0, '{"rank":4,"orbits":[[1,3],[3,5]]}\n', "")
    assert WingDecomposition.from_json(wings).cuts == (1, 3)


@pytest.mark.parametrize("wings", [
    '{"rank": 4, "pairs": [{"top": [0, 4], "arcs": [[0, 4], [1, 5]]}]}',
    '{"rank": 2, "pairs": [{"top": [0, 1], "arcs": [[0, 2]]}, {"top": [1, 2], "arcs": []}]}',
], ids=["wide-span", "unit-span"])
def test_compose_rejects_a_diagonal_outside_its_span(capsys, wings):
    code, out, err = run(capsys, "compose", "--wings", wings)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "out of range for size" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["count", "--n", "2", "--unknown-flag"])
    assert info.value.code == 2


def test_render_worked_example(capsys, tmp_path):
    pair = {
        "rank": 10,
        "finite_side": "left",
        "orbits": [[3, 5], [3, 6], [4, 6], [6, 8], [8, 11], [8, 12], [9, 11]],
    }
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(pair))
    out_path = tmp_path / "pair.svg"
    code, _, _ = run(capsys, "render", "--pair", str(src), "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<?xml")
    for label in ("82", "36", "35", "46", "68", "81", "91"):
        assert f">{label}<" in svg
    # one box per orbit of the half (plus the background rectangle)
    assert svg.count("<rect") == 1 + 7
    assert "stroke-dasharray" in svg  # dotted wings

    # byte-stable
    rerun = tmp_path / "pair2.svg"
    code, _, _ = run(capsys, "render", "--pair", str(src), "--out", str(rerun))
    assert code == 0
    assert rerun.read_bytes() == out_path.read_bytes()


def test_render_empty_pair(capsys, tmp_path):
    src = tmp_path / "empty.json"
    src.write_text('{"rank":2,"finite_side":"left","orbits":[]}')
    code, out, _ = run(capsys, "render", "--pair", str(src), "--out", "-")
    assert code == 0
    assert out.count("<rect") == 1  # background only: nothing boxed
    assert "stroke-dasharray" not in out


def test_render_boxes_repeat_across_domain_copy(capsys, tmp_path):
    src = tmp_path / "half.json"
    src.write_text('{"rank":2,"finite_side":"left","orbits":[[0,2]]}')
    code, out, _ = run(capsys, "render", "--pair", str(src), "--out", "-")
    assert code == 0
    # fundamental domain plus one repeated column: the orbit shows up boxed twice
    assert out.count("<rect") == 1 + 2


def test_render_large_rank_uses_separated_labels(capsys, tmp_path):
    src = tmp_path / "half.json"
    src.write_text('{"rank":12,"finite_side":"left","orbits":[[11,13]]}')
    code, out, _ = run(capsys, "render", "--pair", str(src), "--out", "-")
    assert code == 0
    assert ">11,1<" in out  # two-digit vertex labels stay unambiguous
