"""Time the cold start of one CLI job per subcommand mode, and its per-call cost.

Each job runs as ``python -m cremfan.cli ...`` in a fresh interpreter, so
its wall time is start-up, imports, load, compute and emit: the CLI run
(L3) as a shell user sees it.  For each mode (gen, check, enumerate, pair,
realize, member, rays, graph) the script prints the median wall over N runs and,
read from one extra run under ``-X importtime`` that is not timed, the
number of other modules the job imports that a bare ``python -c pass``
does not, their summed self ms, the source lines of the ``cremfan``
modules it imports (the line counts of their files, the package's
``__init__.py`` included: what the job compiles of the package when no
bytecode is cached, the same on any machine), and those submodules.
That run is ``python -m cremfan ...``, whose ``__main__`` imports
``cremfan.cli`` as a module, so cli's import and compile get a line of
their own; run as ``__main__``, cli would have none.
The first row, ``python -c pass``, is the bare interpreter's start-up for
reference.  The jobs run round-robin, one run of each per round.

A second table gives, per mode, the median of N ``cremfan.cli.main`` calls
in this process after one warm call: the per-call fixed cost of L3
(parse the arguments, load and hash the file, emit the report) on these
small inputs, apart from interpreter start-up and imports.  Its
``enumerate`` row, on A3's four Cremona bases, shows what the matroid
summary, the Cremona maps and the emit of four basis reports add to the
``check`` row's one basis.

Inputs are small (the A3 arrangement, labeled 1..6, and the Fano plane),
so the wall is almost all start-up.  The child processes inherit the
environment: with ``PYTHONDONTWRITEBYTECODE=1`` every job compiles the
modules it imports from source, otherwise only the first run does.  The
header line says which.

Usage: python benchmarks/bench_startup.py [--repeat N]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (mode, CLI arguments); {dir} is the scratch directory holding the inputs
JOBS = [
    ("gen", ["gen", "A3", "--out", "{dir}/gen.json"]),
    ("check", ["cremona", "{dir}/a3.json", "--check", "1,2,6"]),
    ("enumerate", ["cremona", "{dir}/a3.json", "--enumerate"]),
    ("pair", ["cremona", "{dir}/a3.json", "--pair", "1,2,6", "2,3,5"]),
    ("realize", ["cremona", "{dir}/a3.json", "--realize", "1,2,6", "2,3,5", "--field", "Fp:3"]),
    ("member", ["fan", "{dir}/fano.json", "--member", "0,1,2,3,4,5,6"]),
    ("rays", ["fan", "{dir}/fano.json", "--rays"]),
    ("graph", ["fan", "{dir}/fano.json", "--graph"]),
]


def _run(args: list[str], env: dict) -> tuple[float, str]:
    """(seconds from spawn to exit, stderr) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed, proc.stderr


def _importtime_argv(cli_args: list[str]) -> list[str]:
    """The untimed ``-X importtime`` run of the job with these CLI arguments."""
    return ["-X", "importtime", "-m", "cremfan", *cli_args]


def _imports(stderr: str) -> dict[str, int]:
    """Each module named in ``-X importtime`` output, in import order, with
    its self time in microseconds; the header and other lines are skipped."""
    modules = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            self_us, _cumulative, name = line.removeprefix("import time:").split("|")
            if self_us.strip().isdigit():
                modules[name.strip()] = int(self_us)
    return modules


def _footprint(stderr: str, bare: dict[str, int]) -> tuple[int, float, list[str]]:
    """From one job's ``-X importtime`` output: the number of modules outside
    ``cremfan`` that it imports and ``bare`` does not, their summed self ms,
    and the ``cremfan`` submodules it imports, in import order."""
    modules = _imports(stderr)
    other = [us for name, us in modules.items()
             if name not in bare and name.partition(".")[0] != "cremfan"]
    ours = [name.removeprefix("cremfan.") for name in modules if name.startswith("cremfan.")]
    return len(other), sum(other) / 1000, ours


def _source_lines(modules) -> int:
    """The summed line counts of the source files of the ``cremfan`` modules
    among ``modules`` (``cremfan`` itself is its ``__init__.py``)."""
    total = 0
    for name in modules:
        package, _, submodule = name.partition(".")
        if package == "cremfan":
            path = os.path.join(SRC, "cremfan", (submodule or "__init__") + ".py")
            with open(path, encoding="utf-8") as handle:
                total += sum(1 for _line in handle)
    return total


def _per_call(argv: list[str], repeat: int) -> float:
    """Median seconds of one ``cremfan.cli.main(argv)`` call in this process,
    after a first call that warms the imports and the parser."""
    from cremfan import cli

    def call() -> float:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}:\n{sink.getvalue()}")
        return elapsed

    call()
    return statistics.median(call() for _ in range(repeat))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed runs per job (default 15)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    env = {**os.environ, "PYTHONPATH": SRC}
    bytecode = "not written" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "cached"
    print(f"python {sys.version.split()[0]}, bytecode {bytecode}, median of {args.repeat} runs")
    print(f"{'mode':<9} {'median ms':>9} {'other':>5} {'self ms':>7} {'lines':>5}  "
          "cremfan modules imported")
    with tempfile.TemporaryDirectory() as tmp:
        for spec, name in (("a3-arrangement", "a3"), ("fano", "fano")):
            _run(["-m", "cremfan.cli", "gen", spec, "--out", f"{tmp}/{name}.json"], env)
        bare = ["-c", "pass"]
        bare_modules = _imports(_run(["-X", "importtime", *bare], env)[1])
        rows = [("python", bare, (0, 0.0, []), 0)]
        for mode, template in JOBS:
            cli_args = [token.format(dir=tmp) for token in template]
            imports = _run(_importtime_argv(cli_args), env)[1]
            rows.append((mode, ["-m", "cremfan.cli", *cli_args], _footprint(imports, bare_modules),
                         _source_lines(_imports(imports))))
        # round-robin, so that a drift in machine speed reaches every row alike
        walls: list[list[float]] = [[] for _ in rows]
        for _ in range(args.repeat):
            for k, (_mode, job, _modules, _lines) in enumerate(rows):
                walls[k].append(_run(job, env)[0])
        sys.path.insert(0, SRC)
        per_call = [_per_call([t.format(dir=tmp) for t in job], args.repeat) for _, job in JOBS]
    for (mode, _job, (count, self_ms, ours), lines), times in zip(rows, walls):
        print(f"{mode:<9} {statistics.median(times) * 1000:9.1f} {count:5d} {self_ms:7.1f} "
              f"{lines:5d}  {', '.join(ours)}")
    print(f"{'mode':<9} {'median ms':>9}  per main() call in one process, after a warm call")
    for (mode, _job), seconds in zip(JOBS, per_call):
        print(f"{mode:<9} {seconds * 1000:9.2f}")


if __name__ == "__main__":
    main()
