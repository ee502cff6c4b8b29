"""The benchmark's view of fstack: every name it calls still resolves."""

import importlib.util
from pathlib import Path

import pytest

API_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "api.py"


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
