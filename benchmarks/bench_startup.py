"""Time the cold start of one CLI job per subcommand mode, and its per-call cost.

Each job runs as ``python -m cremfan.cli ...`` in a fresh interpreter, so
its wall time is start-up, imports, load, compute and emit: the CLI run
(L3) as a shell user sees it.  For each mode (gen, check, pair, realize,
member, rays, graph) the script prints the median wall over N runs and the
``cremfan`` submodules the job imports (read from one extra run under
``-X importtime``, which is not timed).  The first row, ``python -c pass``,
is the bare interpreter's start-up for reference.  The jobs run
round-robin, one run of each per round.

A second table gives, per mode, the median of N ``cremfan.cli.main`` calls
in this process after one warm call: the per-call fixed cost of L3
(parse the arguments, load and hash the file, emit the report) on these
small inputs, apart from interpreter start-up and imports.

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


def _submodules(stderr: str) -> list[str]:
    """The cremfan submodules named in ``-X importtime`` output, import order."""
    names = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("cremfan."):
                names.append(name.removeprefix("cremfan."))
    return names


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
    print(f"{'mode':<8} {'median ms':>9}  cremfan modules imported")
    with tempfile.TemporaryDirectory() as tmp:
        for spec, name in (("a3-arrangement", "a3"), ("fano", "fano")):
            _run(["-m", "cremfan.cli", "gen", spec, "--out", f"{tmp}/{name}.json"], env)
        rows = [("python", ["-c", "pass"], [])]
        for mode, template in JOBS:
            cmd = ["-m", "cremfan.cli", *(token.format(dir=tmp) for token in template)]
            rows.append((mode, cmd, _submodules(_run(["-X", "importtime", *cmd], env)[1])))
        # round-robin, so that a drift in machine speed reaches every row alike
        walls: list[list[float]] = [[] for _ in rows]
        for _ in range(args.repeat):
            for k, (_mode, job, _modules) in enumerate(rows):
                walls[k].append(_run(job, env)[0])
        sys.path.insert(0, SRC)
        per_call = [_per_call([t.format(dir=tmp) for t in job], args.repeat) for _, job in JOBS]
    for (mode, _job, modules), times in zip(rows, walls):
        print(f"{mode:<8} {statistics.median(times) * 1000:9.1f}  {', '.join(modules)}")
    print(f"{'mode':<8} {'median ms':>9}  per main() call in one process, after a warm call")
    for (mode, _job), seconds in zip(JOBS, per_call):
        print(f"{mode:<8} {seconds * 1000:9.2f}")


if __name__ == "__main__":
    main()
