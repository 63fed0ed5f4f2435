"""The Coxeter theorem as one table: S-graph values, Cremona counts and cost.

For each of 23 Coxeter types (A3-A8, B3-B8, D4-D8, F4, H3, H4, E6, E7
and E8) the script builds the arrangement matroid afresh and runs
``graph_S`` and ``enumerate_cremona_bases`` on it, timed together, three
times (``REPEATS``), each on a fresh matroid. Per type it records:

* the S-graph values: the connected hyperplanes, the min rank-one degree,
  the max corank-one degree and the verdict;
* the Cremona bases found;
* the median wall seconds of the three runs, the cover steps of the
  lattice walks (``cover_step`` calls, counted through the backend, the
  same in every run) and the nodes of the Cremona search (read from a
  second, untimed search).

The paper's theorem predicts the split the table shows: the verdict is
false exactly where a Cremona basis exists (A_n has n + 1, B_n one).
The script writes the table to ``benchmarks/BENCH_coxeter.json``, with
the machine, the Python version and the process's peak RSS, then
compares the values with the frozen ones (``FROZEN``). On a
difference it prints each one and exits 1. E8 takes most of the run:
about 0.8 s of 0.9 s on a 2-CPU x86-64 VM (6.6 s of 7.5 s when the
connected walk eliminated once per flat, not once per orbit), where the
run peaks at 63 MB.

Usage: python benchmarks/bench_coxeter.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from cremfan.cremona import enumerate_cremona_bases
from cremfan.exact_cover import _exact_cover_bases
from cremfan.fan import graph_S
from cremfan.generators import coxeter_matroid

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_coxeter.json")
# timed runs per type: a single run of a row under 0.2 s moves by up to
# +-50% between runs on a shared 2-CPU VM
REPEATS = 3
VALUES = ("hyperplanes", "min_rank_one_degree", "max_corank_one_degree", "verdict",
          "cremona_bases")

# per type, VALUES in order
FROZEN = {
    "A3": (4, 3, 3, False, 4),
    "A4": (5, 6, 6, False, 5),
    "A5": (6, 10, 10, False, 6),
    "A6": (7, 15, 15, False, 7),
    "A7": (8, 21, 21, False, 8),
    "A8": (9, 28, 28, False, 9),
    "B3": (7, 4, 4, False, 1),
    "B4": (12, 9, 9, False, 1),
    "B5": (21, 16, 16, False, 1),
    "B6": (38, 25, 25, False, 1),
    "B7": (71, 36, 36, False, 1),
    "B8": (136, 49, 49, False, 1),
    "D4": (12, 9, 6, True, 0),
    "D5": (21, 18, 12, True, 0),
    "D6": (38, 33, 20, True, 0),
    "D7": (71, 58, 30, True, 0),
    "D8": (136, 101, 42, True, 0),
    "F4": (24, 15, 9, True, 0),
    "H3": (16, 6, 5, True, 0),
    "H4": (360, 60, 15, True, 0),
    "E6": (63, 45, 20, True, 0),
    "E7": (379, 172, 36, True, 0),
    "E8": (9840, 2520, 63, True, 0),
}


def _timed_run(spec: str) -> tuple[float, tuple, int, int]:
    """One run on a fresh matroid: the wall seconds of ``graph_S`` and the
    Cremona enumeration, the values in ``VALUES`` order, the cover steps and
    the search nodes. The matroid is freed on return, so runs never overlap
    in memory."""
    M = coxeter_matroid(spec)
    step, steps = M.backend.cover_step, [0]

    def counted(state, g, skip=0):
        steps[0] += 1
        return step(state, g, skip)

    M.backend.cover_step = counted
    t0 = time.perf_counter()
    report = graph_S(M).report
    bases = enumerate_cremona_bases(M)
    wall = time.perf_counter() - t0
    values = (
        len(report["corank_one_degrees"]),
        report["min_rank_one_degree"],
        report["max_corank_one_degree"],
        report["verdict"],
        len(bases),
    )
    return wall, values, steps[0], _exact_cover_bases(M, 200_000)[1]


def coxeter_row(spec: str) -> dict:
    """The values and the cost of one type, from ``REPEATS`` runs: the
    median wall, and the values and counts of the last run."""
    runs = [_timed_run(spec) for _ in range(REPEATS)]
    _wall, values, steps, nodes = runs[-1]
    return {
        **dict(zip(VALUES, values)),
        "wall_s": round(statistics.median(run[0] for run in runs), 4),
        "cover_steps": steps,
        "search_nodes": nodes,
    }


def mismatches(spec: str, row: dict) -> list[str]:
    return [
        f"{spec} {name}: {row[name]!r}, frozen {want!r}"
        for name, want in zip(VALUES, FROZEN[spec])
        if row[name] != want
    ]


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    print(f"{'type':<5}{'hyps':>6}{'r1 min':>8}{'cr1 max':>8}  verdict  bases"
          f"{'wall s':>9}{'steps':>9}{'nodes':>7}")
    rows, wrong = {}, []
    for spec in FROZEN:
        row = rows[spec] = coxeter_row(spec)
        wrong += mismatches(spec, row)
        print(f"{spec:<5}{row['hyperplanes']:>6}{row['min_rank_one_degree']:>8}"
              f"{row['max_corank_one_degree']:>8}  {str(row['verdict']):<7}"
              f"{row['cremona_bases']:>6}{row['wall_s']:>9.3f}{row['cover_steps']:>9}"
              f"{row['search_nodes']:>7}", flush=True)
    doc = {
        "benchmark": "coxeter",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "total_wall_s": round(sum(row["wall_s"] for row in rows.values()), 3),
        "types": rows,
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    for line in wrong:
        print(f"MISMATCH {line}", file=sys.stderr)
    if wrong:
        sys.exit(1)


if __name__ == "__main__":
    main()
