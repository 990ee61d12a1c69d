"""The benchmark's output checks, run once per workload: a change that moves
a scan or pulse slope past its reference, or an acceptance detail off
``ACCEPT_REFERENCE``, fails here and not only in a benchmark run."""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """The workloads module, executed from its source without writing
    bytecode next to it."""
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["scan", "accept", "pulse", "build"])
def test_workload_passes_its_output_checks(name):
    workload = _load_workloads().WORKLOADS[name]
    inputs = workload.setup(0)
    results = workload.check(inputs, workload.run(inputs))
    assert results
    failed = [(label, detail) for label, ok, detail in results if not ok]
    assert not failed
