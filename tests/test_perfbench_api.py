"""The benchmark's view of fstack: every name it calls still resolves, and
each declared workload sets up, runs one op and passes its own check."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
API_PATH = ROOT / "perfbench" / "api.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def api():
    # perfbench is not a package: load its api module by path
    spec = importlib.util.spec_from_file_location("perfbench_api", API_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_name_resolves(api):
    for name in api.NAMES:
        assert callable(api.resolve(name)), name


@pytest.mark.parametrize("name", [workload["name"] for workload in BENCHMARK["workloads"]])
def test_benchmark_workload_runs_one_op(name, monkeypatch):
    # the benchmark's scripts import each other by bare name from their directory
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    workload = workloads.WORKLOADS[name](seed=1, tracer=tracing.Tracer())
    workload.setup()
    errors, quality_db = workload.check(workload.op())
    assert errors == []
    assert quality_db > 0.0
