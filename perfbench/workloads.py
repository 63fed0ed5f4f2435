"""Workload definitions: seeded inputs, job lists and output checks.

A workload is a list of CLI jobs over generated matroid files. The seed
permutes the element order of every input file (labels travel with their
vectors) and picks each job's random arguments from a pool stored in
``golden.json``. Seed 0 is the canonical seed: generator element order and
the first pool entry, so every job's stdout must match its stored digest
byte for byte. On other seeds the label-level invariants of each report
must match the ones stored for the chosen pool entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
WORK_ROOT = os.path.join(HERE, ".work")

CANONICAL_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``pool`` names the argument pool in golden.json."""

    id: str
    kind: str  # enumerate|check|pair|realize|member|rays|graph|s-graph|gen
    spec: str | None  # generator spec of the input file, None for gen
    extra: tuple[str, ...] = ()  # fixed trailing arguments
    pool: str | None = None


def _enum(spec):
    return Job(f"enumerate-{spec}", "enumerate", spec)


# Why these jobs: see DESIGN.md. cremona-enum stresses the backtracking
# search (L2) and the warm-cache oracle (L1); lattice-census the kernels
# (L0), flat censuses and the corank-one sweep; cli-small the per-process
# start-up, load and emit path (L3) and the line and circuit backends.
WORKLOADS: dict[str, list[Job]] = {
    "cremona-enum": [
        _enum("B5"), _enum("D5"), _enum("F4"), _enum("K7"),
        _enum("K6"), _enum("K5"), _enum("B4"), _enum("H3"),
    ],
    "lattice-census": [
        Job("graph-D5", "graph", "D5"),
        Job("graph-B5", "graph", "B5"),
        Job("graph-F4", "graph", "F4"),
        Job("s-graph-D5", "s-graph", "D5"),
        Job("s-graph-B5", "s-graph", "B5"),
        Job("s-graph-F4", "s-graph", "F4"),
        Job("s-graph-rank-one-H4", "s-graph", "H4", ("--rank-one-only",)),
        Job("realize-K7-F101", "realize", "K7", ("--field", "Fp:101"), "realize-K7"),
    ],
    "cli-small": [
        Job("gen-A3", "gen", None, ("A3",)),
        Job("gen-U25", "gen", None, ("U:2,5",)),
        Job("check-A3", "check", "A3", (), "check-A3"),
        Job("check-K5", "check", "K5", (), "check-K5"),
        Job("check-U29", "check", "U:2,9", (), "check-U:2,9"),
        Job("pair-K4", "pair", "K4", (), "pair-K4"),
        Job("pair-U25", "pair", "U:2,5", (), "pair-U:2,5"),
        Job("realize-A3-F3", "realize", "A3", ("--field", "Fp:3"), "realize-A3"),
        Job("realize-K5-F5", "realize", "K5", ("--field", "Fp:5"), "realize-K5"),
        Job("realize-U25-F7", "realize", "U:2,5", ("--field", "Fp:7"), "realize-U:2,5"),
        Job("realize-U29-F11", "realize", "U:2,9", ("--field", "Fp:11"), "realize-U:2,9"),
        Job("member-fano", "member", "fano", (), "member-fano"),
        Job("member-dowling", "member", "dowling:Z3", (), "member-dowling:Z3"),
        Job("rays-fano", "rays", "fano"),
        Job("rays-dowling", "rays", "dowling:Z3"),
        Job("rays-B3", "rays", "B3"),
        Job("graph-fano", "graph", "fano"),
        Job("graph-dowling", "graph", "dowling:Z3"),
        Job("graph-B3", "graph", "B3"),
    ],
}

# Jobs run in a fresh interpreter each (as a shell user runs the CLI);
# the other workloads call ``cremfan.cli.main`` in one process.
SUBPROCESS_WORKLOADS = {"cli-small"}


def input_name(spec: str) -> str:
    return "inputs/" + "".join(c if c.isalnum() else "_" for c in spec) + ".json"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# seeded inputs


def permuted_doc(doc: dict, seed: int) -> tuple[dict, list[str]]:
    """The matroid document with its elements in the seed's order."""
    labels = doc["elements"]
    n = len(labels)
    if seed == CANONICAL_SEED:
        return doc, list(labels)
    order = list(range(n))
    random.Random(f"order:{seed}:{doc.get('name')}").shuffle(order)
    new_of = {old: new for new, old in enumerate(order)}
    out = dict(doc)
    out["elements"] = [labels[old] for old in order]
    if doc["backend"] == "vectors":
        out["data"] = [doc["data"][old] for old in order]
    else:
        rows = [sorted(new_of[x] for x in row) for row in doc["data"]]
        if doc["backend"] == "circuits":
            rows.sort(key=lambda c: (len(c), c))
        else:
            rows.sort()
        out["data"] = rows
    return out, out["elements"]


def write_inputs(workdir: str, jobs: list[Job], seed: int) -> dict[str, list[str]]:
    """Generate every input file of a job list; returns labels per spec.

    Files are built with the package's own generators and serializer, so
    the canonical seed reproduces ``cremfan gen`` output byte for byte.
    """
    from cremfan.generators import from_spec_string
    from cremfan.serialize import dumps, matroid_to_dict

    os.makedirs(os.path.join(workdir, "inputs"), exist_ok=True)
    labels: dict[str, list[str]] = {}
    for spec in sorted({j.spec for j in jobs if j.spec is not None}):
        M = from_spec_string(spec)
        doc = matroid_to_dict(M, name=M.name or spec)
        doc, labels[spec] = permuted_doc(doc, seed)
        with open(os.path.join(workdir, input_name(spec)), "w", encoding="utf-8") as handle:
            handle.write(dumps(doc))
    return labels


def pick_entry(job: Job, golden: dict, seed: int) -> int:
    """Index of the pool entry (random arguments) a seed uses for a job."""
    if job.pool is None or seed == CANONICAL_SEED:
        return 0
    size = len(golden["pools"][job.pool])
    return random.Random(f"args:{seed}:{job.id}").randrange(size)


def job_argv(job: Job, golden: dict, seed: int, labels: dict[str, list[str]],
             entry: int | None = None) -> list[str]:
    """Command-line arguments of a job for a seed (relative paths only).

    ``entry`` overrides the pool entry the seed would pick.
    """
    if job.kind == "gen":
        spec = job.extra[0]
        return ["gen", spec, "--out", "gen-" + "".join(c if c.isalnum() else "_" for c in spec) + ".json"]
    path = input_name(job.spec)
    rng = random.Random(f"tokens:{seed}:{job.id}")
    if entry is None:
        entry = pick_entry(job, golden, seed)
    args = golden["pools"][job.pool][entry] if job.pool else None

    def csv(names):
        names = list(names)
        if seed != CANONICAL_SEED:
            rng.shuffle(names)
        return ",".join(names)

    if job.kind == "enumerate":
        return ["cremona", path, "--enumerate", *job.extra]
    if job.kind == "check":
        return ["cremona", path, "--check", csv(args)]
    if job.kind == "pair":
        return ["cremona", path, "--pair", csv(args[0]), csv(args[1]), *job.extra]
    if job.kind == "realize":
        return ["cremona", path, "--realize", csv(args[0]), csv(args[1]), *job.extra]
    if job.kind == "member":
        return ["fan", path, "--member=" + ",".join(args[lab] for lab in labels[job.spec])]
    if job.kind == "rays":
        return ["fan", path, "--rays", *job.extra]
    if job.kind == "graph":
        return ["fan", path, "--graph", *job.extra]
    if job.kind == "s-graph":
        return ["fan", path, "--s-graph", *job.extra]
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# output checks


def _sorted_sets(groups) -> list[list[str]]:
    return sorted(sorted(g) for g in groups)


def invariants(job: Job, report: dict, labels: list[str] | None) -> dict:
    """The fields of a report that no element order or token order changes."""
    m = report["matroid"]
    out: dict = {"matroid": [m["name"], m["elements"], m["rank"], m["connected"]]}
    p = report["payload"]
    if job.kind == "gen":
        out["payload"] = p
    elif job.kind == "enumerate":
        out["count"] = p["count"]
        out["bases"] = _sorted_sets(b["basis"] for b in p["bases"])
    elif job.kind in ("check", "pair", "realize"):
        out["basis"] = sorted(p["basis"])
        out["F"] = _sorted_sets(p["F"].values())
        if job.kind == "check":
            out["ok"] = p["ok"]
        else:
            out["other"] = sorted(p["other"])
            out["intersection"] = sorted(p["intersection"])
            out["component_count"] = p["component_count"]
            out["involution"] = {
                labels[e]: labels[f] for e, f in enumerate(p["involution"])
            }
        if job.kind == "realize":
            out["N"] = p["realization"]["N"]
            out["classes"] = _sorted_sets(p["realization"]["classes"])
    elif job.kind == "member":
        out["in_fan"] = p["in_fan"]
        out["circuit_oracle"] = p["circuit_oracle"]
    elif job.kind == "rays":
        out["count"] = p["count"]
        out["rays"] = sorted((r["rank"], sorted(r["elements"])) for r in p["rays"])
    elif job.kind == "graph":
        out["stats"] = p
    elif job.kind == "s-graph":
        out["verdict"] = p["verdict"]
        out["min_rank_one_degree"] = p["min_rank_one_degree"]
        out["max_corank_one_degree"] = p["max_corank_one_degree"]
        out["rank_one_degrees"] = p["rank_one_degrees"]
        corank = p["corank_one_degrees"]
        out["corank_one_degrees"] = None if corank is None else sorted(corank.values())
    # round-trip through JSON so tuples and lists compare alike
    return json.loads(json.dumps(out, sort_keys=True))


class Checker:
    """Checks job outputs against the golden corpus for one seed."""

    def __init__(self, golden: dict, seed: int, labels: dict[str, list[str]]):
        self.golden = golden
        self.seed = seed
        self.labels = labels

    def check(self, job: Job, code: int, stdout: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        if self.seed == CANONICAL_SEED or job.kind == "gen":
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            want = self.golden["digests"][job.id]
            return None if digest == want else f"stdout digest {digest[:12]} != golden {want[:12]}"
        try:
            got = invariants(job, json.loads(stdout), self.labels.get(job.spec))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"
        entry = pick_entry(job, self.golden, self.seed)
        want = self.golden["invariants"][job.id][entry]
        return None if got == want else "invariants differ from golden"
