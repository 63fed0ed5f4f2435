"""Rebuild golden.json: argument pools, seed-0 digests, per-entry invariants.

Usage, from the repository root: PYTHONPATH=src python3 perfbench/golden.py

Run this only when a change to the package is meant to change its output;
the benchmark fails every job whose stdout or invariants differ from the
stored corpus. Pools hold the random arguments a seed may pick (Cremona
bases to check, basis pairs, membership weights), written by label so they
survive any element order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import sys

import workloads as wl

POOL_SIZE = 8


def _weights(M, rng: random.Random) -> list[dict[str, str]]:
    """Half points on chains of flats (inside the fan), half random."""
    labels = M.ground.labels
    out = []
    for _ in range(POOL_SIZE // 2):
        w = [0] * M.size
        F = frozenset()
        for k in range(1, M.full_rank()):
            F = rng.choice([G.elements for G in M.flats_of_rank(k) if F <= G.elements])
            for e in F:
                w[e] += 1
        out.append(w)
    for _ in range(POOL_SIZE - len(out)):
        out.append([rng.randrange(-2, 3) for _ in range(M.size)])
    return [{labels[e]: str(x) for e, x in enumerate(w)} for w in out]


def build_pools() -> dict[str, list]:
    from cremfan import cremona as cr
    from cremfan.generators import from_spec_string

    pools: dict[str, list] = {}
    for job in (j for jobs in wl.WORKLOADS.values() for j in jobs if j.pool):
        M = from_spec_string(job.spec)
        labels = M.ground.labels
        if job.kind == "member":
            pools[job.pool] = _weights(M, random.Random(f"member:{job.spec}"))
            continue
        bases = [[labels[e] for e in d.basis] for d in cr.enumerate_cremona_bases(M)]
        if job.kind == "check":
            pool = bases
        else:
            # pairs share an element: on U:2,n two disjoint bases make
            # --pair exit 4 (support-graph invariant), see DESIGN.md
            shared = 1 if job.kind == "realize" else None
            pool = [[a, b] for a, b in itertools.permutations(bases, 2)
                    if (len(set(a) & set(b)) == shared if shared else set(a) & set(b))]
        pools[job.pool] = pool[:POOL_SIZE]
    return pools


def main() -> int:
    import cremfan.cli
    from worker import run_inprocess

    golden = {"pools": build_pools(), "digests": {}, "invariants": {}}
    workdir = os.path.join(wl.WORK_ROOT, "golden")
    shutil.rmtree(workdir, ignore_errors=True)
    all_jobs = [j for jobs in wl.WORKLOADS.values() for j in jobs]
    labels = wl.write_inputs(workdir, all_jobs, wl.CANONICAL_SEED)
    os.chdir(workdir)
    for job in all_jobs:
        entries = len(golden["pools"][job.pool]) if job.pool else 1
        golden["invariants"][job.id] = []
        for entry in range(entries):
            argv = wl.job_argv(job, golden, wl.CANONICAL_SEED, labels, entry=entry)
            code, out, dt, err = run_inprocess(cremfan.cli.main, argv, 600.0)
            if code != 0:
                print(f"{job.id} entry {entry} failed ({code}):\n{err}", file=sys.stderr)
                return 1
            golden["invariants"][job.id].append(
                wl.invariants(job, json.loads(out), labels.get(job.spec)))
            if entry == 0:
                golden["digests"][job.id] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            print(f"{job.id:24} entry {entry}: {dt:6.3f}s", file=sys.stderr)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
