"""The scripts under benchmarks/ import cleanly against the current package.

They are run by hand, so nothing else imports them; ``bench_kernels.py``
reaches into private names that a refactor can delete.
"""

import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.mark.parametrize("script", ["bench_kernels.py", "bench_startup.py"])
def test_script_imports_without_running(script):
    spec = importlib.util.spec_from_file_location(
        script.removesuffix(".py"), os.path.join(BENCHMARKS, script)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not __main__, so main() does not run
    assert callable(module.main)
