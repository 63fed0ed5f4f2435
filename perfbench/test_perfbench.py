"""Self-tests of the benchmark: repeatable counts and a refusal without sources.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
(about two minutes: two traced runs of each workload).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# counts and ratios repeat exactly for one seed; times do not
EXACT_UNITS = {"count", "ratio"}


def _traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    return line["metrics"]


@pytest.mark.parametrize("workload", ["cremona-enum", "lattice-census", "cli-small"])
def test_traced_counts_repeat(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert set(first) == declared
    exact = {k for k, m in first.items() if m["unit"] in EXACT_UNITS}
    assert exact >= {"kernels.calls", "matroid.flats", "kernels.rows_eliminated",
                     "kernels.rows_tested", "cremona.bases_found"}
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    assert first["kernels.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
