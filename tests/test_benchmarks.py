"""The scripts under benchmarks/ import cleanly against the current package.

They are run by hand, so nothing else imports them; ``bench_kernels.py``
reaches into private names that a refactor can delete, so its walk table
also runs here, on D4, and so does ``bench_coxeter.py``'s row of D5.
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
    # the table asserts one cover step per flat the walk expands: the 12
    # points and the 34 lines of D4 on the way to its 24 planes
    _load("bench_kernels.py")._bench_stepped_walk("D4", 1)
    row, stores = capsys.readouterr().out.splitlines()
    assert row.startswith("D4 walk to rank 3 (71 flats)")
    assert "   46 steps = flats expanded" in row
    assert "levels 71 (" in stores
    # the 40 rays: the store line comes after the connected levels are read
    assert "connected 40 (" in stores


def test_coxeter_row_of_d5():
    bench = _load("bench_coxeter.py")
    row = bench.coxeter_row("D5")
    assert bench.mismatches("D5", row) == []
    # the connected walk's 110 steps and no more: the Cremona search reads
    # the lines of three or more points off its rank-2 level; the counting
    # bound refutes D5 at the root
    assert row["cover_steps"] == 110
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
