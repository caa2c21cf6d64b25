"""Every benchmark workload's op passes its own check on a few inputs.

Runs ``perfbench/workloads.py`` untimed, imported as the benchmark
imports it, so a library change that breaks a benchmark check fails
here and not only in ``perfbench/smoke.py``.
"""

import importlib
import sys
from pathlib import Path

import pytest

import ccwidth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INPUTS = 16
NAMES = ["experiment", "bandwidth", "certify"]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_is_listed(workloads):
    assert sorted(workloads) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_op_passes_check(workloads, name):
    wl = workloads[name]()
    wl.setup(ccwidth, 0)
    for i in range(INPUTS):
        inp = wl.make_input(i)
        assert wl.check(inp, wl.op(inp)) == [], (name, i)
