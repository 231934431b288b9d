"""The benchmark's workloads still run on the package's current API, and their
seed-0 outputs keep their bytes.

``benchmarks/workloads.py`` is imported as it stands and one seed-0 iteration
of a workload runs through it: set-up, prepare, train (train_* only) and
evaluate. Every phase that checks its outputs must report no problems, and
each phase's sha256 must equal the one recorded in ``output_digests.json``.
A change that alters output bytes on purpose updates that table and says why.
The table also records the numeric environment it was taken in (numpy, the
BLAS build, the kernel OpenBLAS picked at run time, the CPU), because the bits
rest on the BLAS kernel: a mismatch prints it beside the current one, so a
different host reads as one. train_b4096 trains once more in a one-thread
worker, to the same digests.
"""

import ctypes
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from workers import map_in_workers

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
RECORDED = json.loads((Path(__file__).resolve().parent / "output_digests.json").read_text())


def blas_kernel() -> str:
    """The kernel that numpy's OpenBLAS picked for this CPU when it loaded, as
    the library's ``scipy_openblas_get_corename64_`` names it; "unknown"
    where the library or the symbol is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def numeric_environment() -> dict:
    """The numpy version, the BLAS build string, the BLAS kernel and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts", or no BLAS entry
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
            "kernel": blas_kernel(),
            "cpu": cpu}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    yield _load_workloads()
    del sys.modules["benchmark_workloads"]


@pytest.mark.parametrize("name", ["eval_m3", "train_b256", "train_b4096"])
def test_one_benchmark_iteration_reports_no_problems(workloads, tmp_path, name):
    w = workloads.WORKLOADS[name]
    inputs = workloads.setup(w, 0, str(tmp_path))
    prepared = workloads.prepare(w, inputs, str(tmp_path))
    problems = []
    digests = {"prepare": prepared.digest}
    checkpoint = inputs.checkpoint
    if w.episodes is not None:
        trained = workloads.train(w, prepared, 0, str(tmp_path))
        problems += trained.problems
        checkpoint = trained.checkpoint
        digests["train"] = trained.digest
    evaluated = workloads.evaluate(w, prepared, checkpoint, 0, str(tmp_path))
    problems += evaluated.problems
    digests["evaluate"] = evaluated.digest
    assert problems == []
    assert evaluated.env_steps == len(prepared.test_frame) - 1
    recorded = RECORDED["digests"][name]
    changed = [phase for phase in recorded if digests.get(phase) != recorded[phase]]
    assert not changed, (
        f"{name} seed 0: the output bytes of {', '.join(changed)} differ from "
        f"output_digests.json\n  recorded in: {RECORDED['environment']}\n"
        f"  running in:  {numeric_environment()}")
    assert digests.keys() == recorded.keys()


def test_the_table_records_every_environment_field():
    assert RECORDED["environment"].keys() == numeric_environment().keys()


def _trained_digests(name: str, work_dir: str):
    """Seed 0's prepare and train digests of workload ``name``, the train
    phase's problems and the BLAS thread setting."""
    workloads = _load_workloads()
    w = workloads.WORKLOADS[name]
    prepared = workloads.prepare(w, workloads.setup(w, 0, work_dir), work_dir)
    trained = workloads.train(w, prepared, 0, work_dir)
    return ({"prepare": prepared.digest, "train": trained.digest}, trained.problems,
            os.environ.get("OPENBLAS_NUM_THREADS"))


def test_one_thread_trains_the_paper_batch_to_the_same_bytes(tmp_path):
    # README: the BLAS thread count does not change a training's bits. At the
    # paper's batch of 4096 the products are large enough for OpenBLAS to
    # split them over threads in this process; a worker runs them on one.
    [(digests, problems, threads)] = map_in_workers(_trained_digests,
                                                    [("train_b4096", str(tmp_path))], workers=1)
    assert threads == "1"
    assert problems == []
    recorded = RECORDED["digests"]["train_b4096"]
    assert digests == {phase: recorded[phase] for phase in ("prepare", "train")}
