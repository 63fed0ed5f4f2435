"""The cremfan benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is cremona-enum, lattice-census or cli-small (see DESIGN.md). With
``--trace 0`` the run prints the end-to-end metrics (wall_s, job_p50_ms,
job_p90_ms, setup_s, peak_rss_mb); with ``--trace 1`` the per-layer
metrics of one traced pass. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every job's output matched the golden corpus.

Each workload runs in its own fresh worker process. Set-up (interpreter,
``import cremfan``, seeded input files, warm-up) is timed in separate
set-up-only processes, several times, and kept out of wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from worker import REF_NOMINAL_S, child_env, reference_time

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # the whole run, set-up included
RESULTS_DIR = os.path.join(wl.WORK_ROOT, "results")
END_TO_END = ("wall_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb")


def environment_stamp(seed: int, backend: str) -> dict:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "cremfan_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("CREMFAN_")},
    }


def worker_cmd(workload: str, seed: int, workdir: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(wl.HERE, "worker.py"), workload, str(seed), workdir, *extra]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, stamp) of one workload; raises RuntimeError on a broken run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(wl.WORK_ROOT, f"{workload}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    setups = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        before = reference_time()
        t0 = time.perf_counter()
        done = subprocess.run(worker_cmd(workload, seed, workdir, "--setup-only"), env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        setups.append(elapsed * 2 * REF_NOMINAL_S / (before + reference_time()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr[-3000:]}")
    extra = ["--trace"] if trace else ["--seconds", str(seconds)]
    # own process group, so a stuck worker is stopped with its job process
    proc = subprocess.Popen(worker_cmd(workload, seed, workdir, *extra), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {RUN_LIMIT_S:.0f}s run limit") from None
    sys.stderr.write(err[-5000:])
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = [statistics.median(setups), "s"]
        metrics = {k: metrics[k] for k in END_TO_END}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = environment_stamp(seed, result["backend"])
    stamp.update(workload=workload, trace=trace, seconds=seconds,
                 failed_frac=result["failed"] / result["attempted"],
                 failures=result["failures"],
                 passes=result.get("passes"), latency_samples=result.get("latency_samples"),
                 slowdown=result.get("slowdown"))
    return line, stamp


def print_table(workload: str, line: dict, stamp: dict) -> None:
    print(f"# {workload}  seed={stamp['seed']}  backend={stamp['backend']}  "
          f"python={stamp['python']}  nproc={stamp['nproc']}  commit={stamp['commit']}  "
          f"CREMFAN_*={stamp['cremfan_env']}")
    if stamp.get("passes") is not None:
        print(f"#   passes={stamp['passes']}  latency samples={stamp['latency_samples']}  "
              f"slowdown={stamp['slowdown']:.3f} (reference loop time over its idle time; "
              f"job times below are divided by it)")
    for name, m in line["metrics"].items():
        print(f"  {name:28} {m['value']:14.6f} {m['unit']}")
    print(f"  {'failed_frac':28} {stamp['failed_frac']:14.6f} ratio  "
          f"({line['failed']} of {line['attempted']} jobs)")
    for reason in stamp["failures"]:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "cremfan", "cli.py")):
        print(f"error: no cremfan sources under {wl.SRC}", file=sys.stderr)
        return 2
    if "CREMFAN_THREADS" in os.environ:
        print("error: unset CREMFAN_THREADS; the benchmark load is single-threaded",
              file=sys.stderr)
        return 2
    # every process of the run on one CPU, so the reference loop and the
    # jobs it scales see the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for name in names:
        try:
            line, stamp = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_table(name, line, stamp)
        path = os.path.join(RESULTS_DIR, f"{name}-s{args.seed}-t{args.trace}-{time.time_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp, "result": line}, handle, indent=1, sort_keys=True)
        lines.append((name, line))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}/{k}": v for name, line in lines for k, v in line["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
