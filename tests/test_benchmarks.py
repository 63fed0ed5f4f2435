"""The scripts under benchmarks/ import cleanly against the current package.

They are run by hand, so nothing else imports them; ``bench_kernels.py``
reaches into private names that a refactor can delete, so its walk table
also runs here, on D4, its per-basis table on K5, and so does
``bench_coxeter.py``'s row of D5.
"""

import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def _load(script):
    spec = importlib.util.spec_from_file_location(
        script.removesuffix(".py"), os.path.join(BENCHMARKS, script)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not __main__, so main() does not run
    return module


@pytest.mark.parametrize("script", ["bench_coxeter.py", "bench_kernels.py", "bench_startup.py"])
def test_script_imports_without_running(script):
    assert callable(_load(script).main)


def test_walk_table_on_d4(capsys):
    # the table asserts one cover step per flat the depth-first walk
    # expands: the 12 points and the 34 lines of D4 on the way to its 24
    # planes
    _load("bench_kernels.py")._bench_stepped_walk("D4", 1)
    row, covers, orbits, reflections, stores = capsys.readouterr().out.splitlines()
    assert row.startswith("D4 walk to rank 3 (71 flats)")
    assert "   46 steps = flats expanded" in row
    # one cover kept per flat found, and the recorded ones skipped: 12 + 84
    # + 120 = 216 covers in all, as the walk's budget counts them
    assert covers.endswith("covers kept/skipped, by rank expanded: 0: 12/0  1: 34/50  2: 24/96")
    # by orbits: the same levels, with one elimination per orbit below rank
    # 3 (its generators split the points into 2 orbits)
    assert "by orbits     8 steps" in orbits
    assert orbits.endswith("orbits/eliminations by rank: 0: 1/1  1: 2/2  2: 6/6  3: 6/0")
    # the pass certifies the reflections of D4's first rows 0, 1, 2 and 4
    # and reaches the other 8 as their conjugates
    assert "reflection pass: 4 of 12 reflections certified" in reflections
    assert "levels 71 (" in stores
    # the 40 rays: the store line comes after the connected levels are read
    assert "connected 40 (" in stores


def test_closure_walk_line_on_d5(capsys):
    # one backend closure per flat of rank 1 to 4, plus cl(empty set)
    _load("bench_kernels.py")._bench_closure_walk("D5", 1)
    (row,) = capsys.readouterr().out.splitlines()
    assert row.startswith("D5 walk by closures to rank 4")
    assert "  402 backend closures = flats found + 1" in row


@pytest.mark.parametrize("spec, steps, coordinates, covers", [
    ("D5", 320, 570, 1850),
    ("K7/Fp:101", 812, 1311, 4739),
])
def test_counted_walk(spec, steps, coordinates, covers):
    # the depth-first walk: one step per flat expanded, and the coordinates
    # they eliminate with each state skipping the covers already recorded;
    # kept and skipped covers add up to the walk's budget total
    counted = _load("bench_kernels.py")._counted_walk(spec)
    assert counted[:2] == (steps, coordinates)
    assert sum(kept + skipped for kept, skipped in counted[3]) == covers


@pytest.mark.parametrize("spec, steps, coordinates", [
    ("D5", 17, 190),
    ("E6", 48, 844),
    ("K7", 10, 200),
])
def test_counted_orbit_walk(spec, steps, coordinates):
    # the walk flats_of_rank runs on a reflection arrangement: one step per
    # orbit below rank r - 1 (depth first, D5 made 320 steps and 570
    # coordinates, E6 3,957 and 6,031, K7 812 and 1,311)
    assert _load("bench_kernels.py")._counted_walk(spec, by_orbits=True)[:2] == (
        steps, coordinates
    )


def test_basis_work_table_on_k5(capsys):
    # K5's 5 star bases: each re-check hands 36 pivots to the Z reduction
    # (0 + 1 + 2 + 3 to find the greedy basis of 4, as many to span it with
    # its tags, then 4 to each of the 6 elements outside it), 20 of them
    # to a row that is 0 at their lead
    _load("bench_kernels.py")._bench_basis_work("K5", 1)
    (row,) = capsys.readouterr().out.splitlines()
    assert row.startswith("K5 per-basis work (5 bases)")
    assert "  180 pivots   100 skipped" in row
    assert "invariants: r columns" in row and "m x m map" in row


def test_coxeter_row_of_d5():
    bench = _load("bench_coxeter.py")
    row = bench.coxeter_row("D5")
    assert bench.mismatches("D5", row) == []
    # the connected orbit walk's 8 steps (depth first: 110) and no more: the
    # Cremona search reads the lines of three or more points off its rank-2
    # level; the counting bound refutes D5 at the root
    assert row["cover_steps"] == 8
    assert row["search_nodes"] == 1


def test_coxeter_row_of_a3():
    # a rank-3 type's hyperplanes are its lines: the full walk to rank 2,
    # one step per point, each passed the lines to skip
    bench = _load("bench_coxeter.py")
    row = bench.coxeter_row("A3")
    assert bench.mismatches("A3", row) == []
    assert row["cover_steps"] == 6
    assert row["search_nodes"] == 16


def test_line_census_groups():
    # one point-state group per line of D5 (without the skip, one per
    # point on each line: 260)
    assert _load("bench_kernels.py")._line_census_groups("D5") == (110, 110)


def test_startup_footprint_parses_importtime():
    # canned ``-X importtime`` output of a job: the header, nested imports,
    # the job's own [time] line; "bare" is what ``python -c pass`` imports
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       197 |        197 |   _io",
        "import time:       120 |        120 |   cremfan",
        "import time:        50 |         50 |       _hashlib",
        "import time:      1500 |       1550 |     hashlib",
        "import time:      9000 |      10550 |   cremfan.matroid",
        "import time:      4100 |      14650 | cremfan.cli",
        "import time:       900 |        900 | fractions",
        "import time:      4000 |       4000 | cremfan.fan",
        "[time] fan 0.002s",
    ])
    bench = _load("bench_startup.py")
    assert bench._imports(stderr) == {
        "_io": 197, "cremfan": 120, "_hashlib": 50, "hashlib": 1500,
        "cremfan.matroid": 9000, "cremfan.cli": 4100, "fractions": 900, "cremfan.fan": 4000,
    }
    count, self_ms, ours = bench._footprint(stderr, {"_io": 200})
    assert (count, ours) == (3, ["matroid", "cli", "fan"])
    assert self_ms == pytest.approx(2.45)


def test_startup_footprint_lists_cli(tmp_path):
    # the untimed -X importtime run imports cremfan.cli as a module (a job
    # run as -m cremfan.cli runs it as __main__, with no line of its own)
    bench = _load("bench_startup.py")
    argv = bench._importtime_argv(["gen", "A3", "--out", str(tmp_path / "a3.json")])
    assert argv[:4] == ["-X", "importtime", "-m", "cremfan"]
    stderr = bench._run(argv, {**os.environ, "PYTHONPATH": bench.SRC})[1]
    _count, _self_ms, ours = bench._footprint(stderr, {})
    assert "cli" in ours and "generators" in ours
    # the lines column: the package's __init__ and each submodule, and no
    # other domain than Q's
    assert not {"quad", "fp"} & set(ours)
    files = ["__init__", *ours]
    expected = sum(len(_read(os.path.join(bench.SRC, "cremfan", f + ".py")).splitlines())
                   for f in files)
    assert bench._source_lines(bench._imports(stderr)) == expected


def test_startup_source_lines_count_only_the_package():
    bench = _load("bench_startup.py")
    init = len(_read(os.path.join(bench.SRC, "cremfan", "__init__.py")).splitlines())
    errors = len(_read(os.path.join(bench.SRC, "cremfan", "errors.py")).splitlines())
    assert bench._source_lines(["json", "cremfan", "cremfan.errors", "hashlib"]) == init + errors
    assert bench._source_lines(["json"]) == 0


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()
