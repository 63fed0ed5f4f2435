"""One workload in one fresh process: set up, measure, print one JSON line.

Usage (from run.py, which owns the process):

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR --setup-only
    python3 perfbench/worker.py WORKLOAD SEED WORKDIR --seconds S [--trace]

In-process workloads call ``cremfan.cli.main`` once per job with stdout
captured; ``cli-small`` spawns one interpreter per job. Load is one client
in a closed loop: the next job starts when the previous one has ended.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl

# A job slower than this is killed (subprocess) or interrupted (in-process)
# and counted as failed.
JOB_LIMIT_S = {"cremona-enum": 60.0, "lattice-census": 60.0, "cli-small": 20.0}
MIN_PASSES = 3
MIN_JOBS = 100  # cli-small: at least ten samples beyond p90
TIMEOUT_CODE = -9

# Machine-speed reference: interpreted integer and dict work that allocates
# no containers, so the program's heap does not change its cost.
# REF_NOMINAL_S is its time on an idle machine (2-CPU VM, Python 3.11).
REF_TABLE = {i: (i * 7919) % 1000 for i in range(1000)}
REF_ITERS = 100_000
REF_NOMINAL_S = 0.0107


def reference_time() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc, table = 0, REF_TABLE
    for i in range(REF_ITERS):
        acc += table[i % 1000] * (i & 7)
    return time.perf_counter() - t0


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_inprocess(main, argv: list[str], limit: float) -> tuple[int, str, float, str]:
    """(exit code, stdout, seconds, stderr) of one ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except JobTimeout:
        code = TIMEOUT_CODE
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        code = 1
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), time.perf_counter() - t0, err.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = wl.SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], cwd: str, env: dict, limit: float) -> tuple[int, str, float, str]:
    """(exit code, stdout, seconds from spawn to exit, stderr) of one process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=limit)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = TIMEOUT_CODE
    return code, out.decode("utf-8", "replace"), time.perf_counter() - t0, err.decode("utf-8", "replace")


class Workload:
    """Inputs, argument lists and checker of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.jobs = wl.WORKLOADS[name]
        self.subprocess = name in wl.SUBPROCESS_WORKLOADS
        self.limit = JOB_LIMIT_S[name]
        self.env = child_env()

    def setup(self) -> None:
        """Generate the seeded inputs and warm up."""
        self.golden = wl.load_golden()
        self.labels = wl.write_inputs(self.workdir, self.jobs, self.seed)
        self.argvs = [wl.job_argv(j, self.golden, self.seed, self.labels) for j in self.jobs]
        self.checker = wl.Checker(self.golden, self.seed, self.labels)
        os.chdir(self.workdir)
        # warm-up: every input is read and parsed once; no job is run, so
        # caches inside the package start cold in the first measured pass
        from cremfan.serialize import load_matroid
        for spec in self.labels:
            load_matroid(wl.input_name(spec))
        if self.subprocess:
            run_child([sys.executable, "-c", "import cremfan.cli"], self.workdir, self.env, self.limit)

    def run_job(self, k: int, traced_dir: str | None = None):
        argv = self.argvs[k]
        if not self.subprocess:
            import cremfan.cli
            return run_inprocess(cremfan.cli.main, argv, self.limit)
        if traced_dir is None:
            cmd = [sys.executable, "-m", "cremfan.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(wl.HERE, "trace_child.py"), traced_dir, *argv]
        return run_child(cmd, self.workdir, self.env, self.limit)

    def run_pass(self, samples: list[list[float]], failures: list[str], *,
                 trace_root: str | None = None, slowdowns: list[float] | None = None) -> float:
        """Run every job once; returns the sum of the times appended to samples.

        With ``slowdowns`` each job's time is scaled to reference speed: it
        is divided by the slowdown, the mean time of the reference loop run
        just before and just after the job over REF_NOMINAL_S, and the
        slowdowns are appended to ``slowdowns``.
        """
        total = 0.0
        before = reference_time() if slowdowns is not None else 0.0
        for k, job in enumerate(self.jobs):
            traced_dir = None if trace_root is None else os.path.join(trace_root, job.id)
            code, out, dt, err = self.run_job(k, traced_dir)
            if slowdowns is not None:
                after = reference_time()
                slowdowns.append((before + after) / (2 * REF_NOMINAL_S))
                dt /= slowdowns[-1]
                before = after
            total += dt
            samples[k].append(dt)
            reason = self.checker.check(job, code, out)
            if reason is not None:
                failures.append(f"{job.id}: {reason}")
                print(f"FAILED {job.id} ({' '.join(self.argvs[k])}): {reason}\n{err[-2000:]}",
                      file=sys.stderr)
        return total


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(w: Workload, seconds: float) -> dict:
    """Repeat the job list for ``seconds`` (and at least MIN_PASSES/MIN_JOBS).

    Every job time is scaled to reference speed (see DESIGN.md): on a
    shared machine the speed of the core drifts by tens of percent within
    minutes, and a reference loop run next to each job tracks that drift.
    wall_s is the median over passes of the job list's scaled time.
    """
    samples: list[list[float]] = [[] for _ in w.jobs]
    failures: list[str] = []
    slowdowns: list[float] = []
    pass_times: list[float] = []
    min_passes = math.ceil(MIN_JOBS / len(w.jobs)) if w.subprocess else MIN_PASSES
    start = time.perf_counter()
    while not failures and (len(pass_times) < min_passes or time.perf_counter() - start < seconds):
        gc.collect()
        pass_times.append(w.run_pass(samples, failures, slowdowns=slowdowns))
    if w.subprocess:
        latencies = [s for per_job in samples for s in per_job]
    else:
        # a few runs of each job: percentiles over each job's median
        latencies = [statistics.median(s) for s in samples]
    who = resource.RUSAGE_CHILDREN if w.subprocess else resource.RUSAGE_SELF
    return {
        "attempted": sum(len(s) for s in samples),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(pass_times),
        "latency_samples": len(latencies),
        "slowdown": statistics.median(slowdowns),
        "metrics": {
            "wall_s": [statistics.median(pass_times), "s"],
            "job_p50_ms": [1e3 * _quantile(latencies, 50), "ms"],
            "job_p90_ms": [1e3 * _quantile(latencies, 90), "ms"],
            "peak_rss_mb": [resource.getrusage(who).ru_maxrss / 1024.0, "MB"],
        },
    }


def measure_traced(w: Workload, import_s: float) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    import tracer as tr

    samples: list[list[float]] = [[] for _ in w.jobs]
    failures: list[str] = []
    trace_root = os.path.join(wl.WORK_ROOT, "trace", w.name)
    shutil.rmtree(trace_root, ignore_errors=True)
    gc.collect()
    untraced = w.run_pass(samples, failures)
    gc.collect()
    if w.subprocess:
        traced = w.run_pass(samples, failures, trace_root=trace_root)
        summaries = []
        for job in w.jobs:
            path = os.path.join(trace_root, job.id, "summary.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    summaries.append(json.load(handle))
            else:
                failures.append(f"{job.id}: no trace written")
        raw = tr.merge(summaries)
    else:
        tracer = tr.Tracer()
        tracer.install()
        traced = w.run_pass(samples, failures)
        tracer.times["cli.import"] += import_s
        tracer.dump(trace_root)
        raw = tracer.summary()
    metrics = tr.per_layer_metrics(raw, traced, untraced, import_in_pass=w.subprocess)
    return {
        "attempted": sum(len(s) for s in samples),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: [v, unit] for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    import cremfan.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - t0
    w = Workload(name, seed, workdir)
    w.setup()
    if "--setup-only" in argv:
        return 0
    if "--trace" in argv:
        result = measure_traced(w, import_s)
    else:
        result = measure(w, float(argv[argv.index("--seconds") + 1]))
    from cremfan.kernels import ACTIVE_BACKEND
    result["backend"] = ACTIVE_BACKEND
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
