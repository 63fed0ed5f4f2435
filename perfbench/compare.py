"""Compare two sets of saved results: python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of result files that run.py wrote to
perfbench/.work/results (copy them aside between commits). For each
workload and end-to-end metric it prints both medians, the change, and each
side's spread (quartile distance over median). Results measured on
different kernel backends are refused: their numbers are not comparable.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    """{(workload, metric): [values]} of the untraced runs, and the backends."""
    values: dict = {}
    backends = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        stamp = doc["stamp"]
        if stamp["trace"]:
            continue
        backends.add(stamp["backend"])
        for name, m in doc["result"]["metrics"].items():
            values.setdefault((stamp["workload"], name), []).append(m["value"])
    return {"values": values, "backends": backends}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = before["backends"] | after["backends"]
    if len(backends) != 1:
        print(f"error: results come from different kernel backends {sorted(backends)}; "
              "refusing to compare", file=sys.stderr)
        return 2
    for key in sorted(before["values"]):
        if key not in after["values"]:
            continue
        b, a = before["values"][key], after["values"][key]
        mb, ma = statistics.median(b), statistics.median(a)
        print(f"{key[0]:16} {key[1]:12} before {mb:12.4f} (n={len(b)}, spread {spread(b):.3f})  "
              f"after {ma:12.4f} (n={len(a)}, spread {spread(a):.3f})  change {ma / mb - 1:+.3%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
