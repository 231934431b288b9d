"""The benchmark's workloads still run on the package's current API.

``benchmarks/workloads.py`` is imported as it stands and one seed-0 iteration
of a workload runs through it: set-up, prepare, train (train_* only) and
evaluate. Every phase that checks its outputs must report no problems.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["eval_m3", "train_b256", "train_b4096"])
def test_one_benchmark_iteration_reports_no_problems(workloads, tmp_path, name):
    w = workloads.WORKLOADS[name]
    inputs = workloads.setup(w, 0, str(tmp_path))
    prepared = workloads.prepare(w, inputs, str(tmp_path))
    problems = []
    checkpoint = inputs.checkpoint
    if w.episodes is not None:
        trained = workloads.train(w, prepared, 0, str(tmp_path))
        problems += trained.problems
        checkpoint = trained.checkpoint
    evaluated = workloads.evaluate(w, prepared, checkpoint, 0, str(tmp_path))
    problems += evaluated.problems
    assert problems == []
    assert evaluated.env_steps == len(prepared.test_frame) - 1
