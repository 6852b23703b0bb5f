"""The benchmark's hook points still exist in the package.

``perfbench/workloads.py`` binds to the package by module attribute
name: its tracer patches attributes such as ``boundary.integrate`` and
``_fastprobe.window_and_final_min``, and raises AttributeError on a
missing one.  Each test below binds one workload to a tracer, runs its
first item and checks the output with the benchmark's own oracles, so
a renamed or deleted hook fails here before the benchmark crashes on it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: perfbench's top-level modules; ``oracles`` shadows the tests' own
SIBLINGS = ("inputs", "oracles", "tracing", "workloads")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``workloads`` and ``tracing`` modules, loaded by path.

    They import each other as top-level modules, so perfbench is put
    first on the path while they load, and the modules they replace in
    ``sys.modules`` (the tests' ``oracles``) are put back afterwards.
    """
    saved = {name: sys.modules.pop(name) for name in SIBLINGS
             if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = workloads
        spec.loader.exec_module(workloads)
        tracing = sys.modules["tracing"]
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    return workloads, tracing


@pytest.mark.parametrize("name", ["certify", "screen", "algebra"])
def test_workload_binds_runs_and_checks_one_item(perfbench, name):
    workloads, tracing = perfbench
    wl = workloads.WORKLOADS[name](1)
    item = wl.items[0]
    tracer = tracing.Tracer()
    wl.bind(tracer)
    try:
        out = wl.run(item)
    finally:
        tracer.restore()
    assert tracer.spans
    assert wl.check(item, out) is None


def test_screen_backend_reads_the_probe_loop(perfbench):
    workloads, _ = perfbench
    assert workloads.Screen.backend() == "python"
