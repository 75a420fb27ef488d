"""Shared fixtures."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from qlab import _backend

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_SOURCE = SRC / "qlab" / "_kernel.c"

_BUILD = """
import sys
from setuptools import Extension, setup
source, build_lib, build_temp = sys.argv[1:]
setup(name="qlab-kernel", ext_modules=[Extension("qlab._kernel", [source])],
      script_args=["build_ext", "--build-lib", build_lib, "--build-temp", build_temp])
"""


def pytest_report_header(config):
    """Name the kernel the session tests: the importable build, or the
    Python backend with a temporary build for the compiled-kernel tests.
    kernel_build takes any importable build, so one older than _kernel.c
    tests the old code: the header warns of it, and the session still runs."""
    if _backend._kernel is None:
        return ["qlab kernel: Python backend; the compiled-kernel tests build "
                f"{KERNEL_SOURCE.name} in a temporary directory"]
    built = Path(_backend._kernel.__file__)
    lines = [f"qlab kernel: compiled, {built}"]
    if built.stat().st_mtime < KERNEL_SOURCE.stat().st_mtime:
        lines.append(f"WARNING: {built.name} is older than {KERNEL_SOURCE.name}, so these tests "
                     "run the old kernel; rebuild it with "
                     "`python setup.py build_ext --inplace --force`")
    return lines


@pytest.fixture(scope="session")
def kernel_build(tmp_path_factory):
    """``(module, None)`` for the compiled kernel: the built one when
    importable, otherwise compiled from the C source into a temporary
    directory (never into src/).  ``(None, compiler output)`` when that fails."""
    if _backend._kernel is not None:
        return _backend._kernel, None
    out = tmp_path_factory.mktemp("kernel")
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD, str(KERNEL_SOURCE), str(out / "lib"), str(out / "tmp")],
        cwd=out, capture_output=True, text=True,
    )
    built = sorted((out / "lib" / "qlab").glob("_kernel.*"))
    if proc.returncode or not built:
        return None, f"compiling {KERNEL_SOURCE.name} failed:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("qlab._kernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, None


@pytest.fixture(scope="session")
def compiled_kernel(kernel_build):
    """The compiled kernel module; skips only when compiling fails, with the
    compiler's message."""
    module, failure = kernel_build
    if module is None:
        pytest.skip(failure)
    return module


@pytest.fixture
def fastest_backend(kernel_build):
    """Run the test on the compiled kernel when one could be built, and on
    the Python kernel otherwise; never skips."""
    with mock.patch.object(_backend, "_kernel", kernel_build[0]):
        yield


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports qlab from src/,
    as a fresh command would; returns its stdout, and fails the test on a
    nonzero exit or on anything written to stderr."""

    def run(code: str) -> str:
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout

    return run
