"""One fixed item of each benchmark workload runs through its calls and
its gate with no problems.  The gates read attributes of what the package
returns (a tree's `num_vertices`, a system's `constraints`, a row's `rel`,
a report's `num_rays`, a value's `a`), so this catches a name that the
benchmark needs but that `test_benchmark_imports` cannot see."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name, item_id", [
    ("oracle-sweep", "4v#2"),
    ("verify-sweep", "6v#5"),
    ("fan-build", "S7"),
    ("moduli-trees", "S5"),
])
def test_a_benchmark_item_passes_its_gate(name, item_id):
    tr = tracing.NullTracer()
    workload = workloads.WORKLOADS[name](0, tr)
    payload = dict(workload.items)[item_id]
    out = workload.run(tr, payload)
    assert workload.gate(payload, out) == []
