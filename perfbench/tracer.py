"""Spans around the calls into each layer, installed from outside the package.

Layers, as ROADMAP numbers them:

* L0 ``kernels``: the six elimination entry points of ``cremfan.kernels``;
* L1 ``matroid``: ``Matroid`` methods and the backends' constructors,
  ``rank_subset`` and ``closure_fast``;
* L2 ``fan`` and ``cremona``: public functions and methods of both modules;
* L3 ``cli``: ``cremfan.cli.main`` and its load, sha256, summary and emit
  steps.

Each wrapped call records a span (name, parent, start, end) in memory; the
spans are written out by :meth:`Tracer.dump`. A layer's self time is its
spans' time minus the time of their child spans.

Three details decide where the wrappers must go:

* ``VectorBackend.__init__`` binds ``kernels.rank_int``/``closure_int``
  (and the Z[sqrt5] pair) when it runs, so :meth:`Tracer.install` must run
  before any matroid is loaded;
* the F_p backend looks ``kernels.rank_mod`` up at call time, which the
  same module-attribute patch covers;
* the corank-one sweep calls ``backend.closure_fast`` without a
  ``Matroid`` span, and ``Matroid.closure`` calls ``Matroid.rank`` on
  backends without ``closure_fast``; wrapping the backend methods
  themselves counts both correctly.

A rank, closure or connectivity query is a hit when no backend call ran
beneath it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

KERNELS = ("rank_int", "closure_int", "rank_quad", "closure_quad", "rank_mod", "closure_mod")
MATROID_QUERIES = ("rank", "closure", "is_flat", "is_connected")
MATROID_OTHER = (
    "__init__", "full_rank", "is_independent", "is_simple", "flats_of_rank",
    "connected_flat", "circuits", "restrict", "contract", "simplify",
)
BACKENDS = ("VectorBackend", "LineBackend", "CircuitBackend", "MinorBackend")
CLI_STEPS = {"load_matroid": "cli.load", "_sha256": "cli.sha256",
             "_matroid_summary": "cli.summary", "_emit": "cli.emit"}


class Tracer:
    """Span recorder and work counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, child seconds, backend called beneath, layer]
        self.stack: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, *, role: str | None = None):
        """``fn`` recorded as span ``name`` of ``layer``.

        ``role`` adds a call counter and, by role: "kernel" (rows),
        "backend" (marks the open queries as misses), "query" (hits),
        "flats", "bases", "step" (an inclusive L3 step time); "count" and
        "built" count calls only.
        """
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        counts = self.counts
        times = self.times
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_key = layer + ".self"
        is_closure = name == "matroid.closure" or name.endswith(".closure_fast")
        is_rank = name == "matroid.rank"
        is_mod = name.endswith("_mod")
        is_closure_kernel = name.startswith("kernels.closure")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(parent[0] if parent is not None else -1)
            span_end.append(0.0)
            if role is not None:
                counts[name + ".calls"] += 1
                if role == "backend":
                    for frame in stack:
                        frame[2] = True
                elif role == "kernel":
                    rows = args[0]
                    if is_closure_kernel:
                        counts["kernels.rows_eliminated"] += len(args[2 if is_mod else 1])
                        counts["kernels.rows_tested"] += len(rows)
                    else:
                        counts["kernels.rows_eliminated"] += len(rows)
                if parent is not None:
                    if is_closure and parent[3] == "fan":
                        counts["fan.closure_queries"] += 1
                    elif is_rank and parent[3] == "cremona":
                        counts["cremona.rank_queries"] += 1
            frame = [idx, 0.0, False, layer]
            stack.append(frame)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_end[idx] = t1
                dur = t1 - t0
                times[self_key] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                else:
                    times["root"] += dur
            if role == "query" and not frame[2]:
                counts[name + ".hits"] += 1
            elif role == "flats":
                counts["matroid.flats"] += len(result)
            elif role == "bases":
                counts["cremona.bases_found"] += len(result)
            elif role == "step":
                times[name] += dur
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_class(self, cls, layer: str, prefix: str, roles: dict | None = None,
                    only: tuple[str, ...] | None = None) -> None:
        roles = roles or {}
        for attr, raw in list(vars(cls).items()):
            if only is not None and attr not in only:
                continue
            if only is None and attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            role = roles.get(attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, layer, role=role)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, layer, role=role)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, layer, role=role))

    def _wrap_module(self, module, layer: str, roles: dict | None = None) -> None:
        roles = roles or {}
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                self._wrap_class(obj, layer, f"{layer}.{attr}")
            elif inspect.isfunction(obj):
                setattr(module, attr, self.wrap(obj, f"{layer}.{attr}", layer, role=roles.get(attr)))

    def install(self) -> None:
        """Wrap every layer boundary. Call before any matroid is loaded."""
        from cremfan import cli, cremona, fan, kernels, matroid

        for k in KERNELS:
            setattr(kernels, k, self.wrap(getattr(kernels, k), f"kernels.{k}", "kernels", role="kernel"))
        self._wrap_class(
            matroid.Matroid, "matroid", "matroid", only=MATROID_QUERIES + MATROID_OTHER,
            roles={"rank": "query", "closure": "query", "is_connected": "query",
                   "is_flat": "count", "flats_of_rank": "flats", "__init__": "built"},
        )
        for b in BACKENDS:
            self._wrap_class(
                getattr(matroid, b), "matroid", f"matroid.{b}",
                only=("__init__", "rank_subset", "closure_fast"),
                roles={"rank_subset": "backend", "closure_fast": "backend"},
            )
        self._wrap_module(fan, "fan")
        self._wrap_module(cremona, "cremona", roles={"enumerate_cremona_bases": "bases"})
        cli.main = self.wrap(cli.main, "cli.main", "cli")
        for attr, name in CLI_STEPS.items():
            setattr(cli, attr, self.wrap(getattr(cli, attr), name, "cli", role="step"))

    # -- output -----------------------------------------------------------------

    def summary(self) -> dict:
        """Raw counters and times, mergeable across processes by addition."""
        return {"counts": dict(self.counts), "times": dict(self.times),
                "spans": len(self.span_start)}

    def dump(self, directory: str) -> None:
        """Write the spans: a name table and four parallel binary arrays."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w", encoding="utf-8") as handle:
            json.dump(self.names, handle)
        for field in ("span_name", "span_parent", "span_start", "span_end"):
            with open(os.path.join(directory, field + ".bin"), "wb") as handle:
                getattr(self, field).tofile(handle)
        with open(os.path.join(directory, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle, sort_keys=True)


def merge(summaries: list[dict]) -> dict:
    counts: dict[str, int] = defaultdict(int)
    times: dict[str, float] = defaultdict(float)
    for s in summaries:
        for k, v in s["counts"].items():
            counts[k] += v
        for k, v in s["times"].items():
            times[k] += v
    return {"counts": dict(counts), "times": dict(times)}


def per_layer_metrics(raw: dict, traced_wall: float, untraced_wall: float,
                      import_in_pass: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from merged raw counters."""
    c = defaultdict(int, raw["counts"])
    t = defaultdict(float, raw["times"])
    out: dict[str, tuple[float, str]] = {}
    out["kernels.calls"] = (sum(c[f"kernels.{k}.calls"] for k in KERNELS), "count")
    for k in KERNELS:
        out[f"kernels.{k}.calls"] = (c[f"kernels.{k}.calls"], "count")
    out["kernels.busy_s"] = (t["kernels.self"], "s")
    out["kernels.rows_eliminated"] = (c["kernels.rows_eliminated"], "count")
    out["kernels.rows_tested"] = (c["kernels.rows_tested"], "count")
    for q in MATROID_QUERIES:
        out[f"matroid.{q}.calls"] = (c[f"matroid.{q}.calls"], "count")
    for q in ("rank", "closure", "is_connected"):
        calls = c[f"matroid.{q}.calls"]
        out[f"matroid.{q}.hit_ratio"] = (c[f"matroid.{q}.hits"] / calls if calls else 0.0, "ratio")
    out["matroid.flats"] = (c["matroid.flats"], "count")
    out["matroid.built"] = (c["matroid.__init__.calls"], "count")
    out["matroid.self_s"] = (t["matroid.self"], "s")
    out["fan.self_s"] = (t["fan.self"], "s")
    out["cremona.self_s"] = (t["cremona.self"], "s")
    out["fan.closure_queries"] = (c["fan.closure_queries"], "count")
    out["cremona.rank_queries"] = (c["cremona.rank_queries"], "count")
    out["cremona.bases_found"] = (c["cremona.bases_found"], "count")
    out["cli.import_s"] = (t["cli.import"], "s")
    for step in ("load", "sha256", "summary", "emit"):
        out[f"cli.{step}_s"] = (t[f"cli.{step}"], "s")
    out["cli.self_s"] = (t["cli.self"], "s")
    attributed = t["root"] + (t["cli.import"] if import_in_pass else 0.0)
    out["trace.unattributed_s"] = (traced_wall - attributed, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out
