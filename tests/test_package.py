"""The lazy package namespace and the modules each CLI job loads.

``import cremfan`` loads no submodule; every public name is imported from
its home module on first use.  The footprint tests run each job in a
fresh interpreter, so they are deterministic, machine-independent guards
on what a subcommand compiles at start-up.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cremfan
from cremfan.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = {**os.environ, "PYTHONPATH": SRC}


class TestNamespace:
    def test_name_table_and_all_agree(self):
        assert len(set(cremfan.__all__)) == len(cremfan.__all__)
        assert set(cremfan.__all__) == {"__version__", *cremfan._HOME}

    @pytest.mark.parametrize("name", sorted(cremfan._HOME))
    def test_name_resolves_to_its_home_definition(self, name):
        home = importlib.import_module(f"cremfan.{cremfan._HOME[name]}")
        obj = getattr(cremfan, name)
        assert obj is getattr(home, name)
        assert obj.__module__ == home.__name__

    def test_star_import_and_dir_list_every_public_name(self):
        namespace: dict = {}
        exec("from cremfan import *", namespace)
        assert set(cremfan.__all__) <= set(namespace)
        assert set(cremfan.__all__) <= set(dir(cremfan))
        assert namespace["__version__"] == cremfan.__version__

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="module 'cremfan' has no attribute 'nope'"):
            cremfan.nope
        assert not hasattr(cremfan, "_nope")

    def test_submodules_import_from_the_package(self):
        from cremfan import cli, cremona, fan, kernels, matroid

        for module in (cli, cremona, fan, kernels, matroid):
            assert module is sys.modules[module.__name__]


def _modules_loaded(*argv: str, time_lines: int = 1) -> set[str]:
    """Every module one ``python -X importtime *argv`` run imports.

    ``-X importtime`` writes one stderr line per imported module; every
    other stderr line must be a CLI job's own ``[time]`` line (``time_lines``
    of them), which also rules out runpy's "found in sys.modules" warning.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, timeout=120, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    others = [line for line in lines if not line.startswith("import time:")]
    assert len(others) == time_lines and all(x.startswith("[time] ") for x in others), others
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


@pytest.fixture(scope="module")
def jobs(tmp_path_factory) -> dict[str, set[str]]:
    """The modules each of three ``python -m cremfan.cli`` jobs imports."""
    root = tmp_path_factory.mktemp("footprint")
    paths = {}
    for spec in ("A3", "fano"):
        paths[spec] = str(root / f"{spec}.json")
        assert main(["gen", spec, "--out", paths[spec]]) == 0
    argvs = {
        "fan --graph": ("fan", paths["fano"], "--graph"),
        "cremona --check": ("cremona", paths["A3"], "--check", "0,1,5"),
        "gen": ("gen", "D4", "--out", str(root / "d4.json")),
    }
    return {job: _modules_loaded("-m", "cremfan.cli", *argv) for job, argv in argvs.items()}


def _submodules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.startswith("cremfan.")}


# ``dataclasses`` imports ``inspect`` (and through it ``ast``, ``dis`` and
# ``tokenize``): milliseconds of start-up that no output needs
HEAVY = {"dataclasses", "inspect"}


class TestImportFootprint:
    def test_bare_import_loads_no_submodule(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cremfan; print(sorted(m for m in sys.modules if m.startswith('cremfan')))"],
            capture_output=True, text=True, timeout=120, env=ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['cremfan']\n"

    def test_fan_graph_skips_cremona_and_generators(self, jobs):
        loaded = _submodules(jobs["fan --graph"])
        assert "cremfan.fan" in loaded
        assert not loaded & {"cremfan.cremona", "cremfan.generators", "cremfan.circuits"}

    def test_cremona_check_skips_fan_and_generators(self, jobs):
        loaded = _submodules(jobs["cremona --check"])
        assert "cremfan.cremona" in loaded
        assert not loaded & {"cremfan.fan", "cremfan.generators", "cremfan.circuits"}

    def test_gen_skips_fan_and_cremona(self, jobs):
        loaded = _submodules(jobs["gen"])
        assert "cremfan.generators" in loaded
        assert not loaded & {"cremfan.fan", "cremfan.cremona"}

    @pytest.mark.parametrize("job", ["fan --graph", "cremona --check", "gen"])
    def test_job_loads_no_dataclasses(self, jobs, job):
        assert not jobs[job] & HEAVY

    def test_modules_load_no_dataclasses(self):
        loaded = _modules_loaded(
            "-c", "import cremfan.cli, cremfan.cremona, cremfan.fan, cremfan.generators, "
                  "cremfan.circuits",
            time_lines=0,
        )
        assert {"cremfan.cremona", "cremfan.fan", "cremfan.circuits"} <= loaded
        assert not loaded & HEAVY


# Runs cremfan.cli.main on each argv of a JSON list, in order, in one
# process; after each job it reports the job's exit code, the cremfan
# modules loaded so far and, per module, the names it or a class of it
# defines that only another domain's job, the Cremona search or library and
# test code use.
_PROBE = r"""
import contextlib, io, json, re, sys

import cremfan.cli

OFF_PATH = {"QuadSqrt5", "FpElement", "_exact_cover_bases", "is_nested",
            "ray_permutation", "orbit", "flat_census", "census_mismatch"}
KERNEL = re.compile(r"\w+_(quad|mod)")


def defined(module):
    for k, v in vars(module).items():
        yield k, v
        if isinstance(v, type) and v.__module__ == module.__name__:
            yield from vars(v).items()


report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cremfan.cli.main(argv)
    loaded = {name: module for name, module in sys.modules.items()
              if name.startswith("cremfan.")}
    found = {
        name: sorted(k for k, v in defined(module)
                     if k in OFF_PATH or (callable(v) and KERNEL.fullmatch(k)))
        for name, module in loaded.items()
    }
    report.append({"code": code, "loaded": sorted(loaded),
                   "off_path": {k: v for k, v in found.items() if v}})
print(json.dumps(report))
"""


class TestDomainImportPath:
    """What each job's import path holds of the other domains' code."""

    @pytest.fixture(scope="class")
    def probes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("domains")
        paths = {}
        for spec in ("a3-arrangement", "fano", "H3", "D5"):
            paths[spec] = str(root / f"{spec}.json")
            assert main(["gen", spec, "--out", paths[spec]]) == 0
        q_jobs = [
            ["cremona", paths["a3-arrangement"], "--check", "1,2,6"],
            ["fan", paths["fano"], "--graph"],
            ["gen", "A3", "--out", str(root / "a3.json")],
        ]
        other = {
            "quad": ["cremona", paths["H3"], "--enumerate"],
            "fp": ["cremona", paths["a3-arrangement"], "--realize", "1,2,6", "2,3,5",
                   "--field", "Fp:7"],
            # a reflection arrangement walked to rank 2 alone
            "enumerate": ["cremona", paths["D5"], "--enumerate"],
        }

        def run(argvs):
            proc = subprocess.run(
                [sys.executable, "-c", _PROBE, json.dumps(argvs)],
                capture_output=True, text=True, timeout=120, env=ENV,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        return {"q": run(q_jobs), **{home: run([argv])[0] for home, argv in other.items()}}

    def test_q_jobs_define_no_other_domain_or_library_code(self, probes):
        # after each of the three jobs, in one process
        for step in probes["q"]:
            assert step["code"] == 0
            assert step["off_path"] == {}
            assert not {"cremfan.quad", "cremfan.fp", "cremfan.exact_cover",
                        "cremfan.isomorphism", "cremfan.orbits"} & set(step["loaded"])

    def test_a_walk_below_rank_3_loads_no_orbits(self, probes):
        # the walk fills orbits from rank 3 up, so a walk to the lines of a
        # reflection arrangement runs no reflection pass
        step = probes["enumerate"]
        assert step["code"] == 0
        assert "cremfan.orbits" not in step["loaded"]

    @pytest.mark.parametrize("home", ["quad", "fp"])
    def test_its_own_domain_loads(self, probes, home):
        step = probes[home]
        assert step["code"] == 0
        assert f"cremfan.{home}" in step["loaded"]
        assert ({"quad": "cremfan.fp", "fp": "cremfan.quad"}[home]) not in step["loaded"]

