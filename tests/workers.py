"""Independent, picklable jobs mapped over the machine's cores.

The slow acceptance criteria train one agent per seed, and each training is
deterministic and independent of the others, so they can run side by side.
:func:`map_jobs` runs ``fn(*job)`` for each job in fresh ``spawn`` worker
processes and returns the results in job order. Each worker runs OpenBLAS on
one thread, so two workers do not fight over the two cores, and turns every
warning into an error, as ``pyproject.toml`` does for the suite. The thread
count does not change the bits of a training.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor


def _init_worker() -> None:
    warnings.simplefilter("error")


def map_jobs(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]`` over ``min(len(jobs), os.cpu_count())``
    workers; in this process when that is 1."""
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*job) for job in jobs]
    return map_in_workers(fn, jobs, workers)


def map_in_workers(fn, jobs: list[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]`` in ``workers`` fresh worker processes,
    each with ``OPENBLAS_NUM_THREADS=1``; ``fn`` must be a module-level function."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    # a spawned worker takes this process's environment as it starts, and
    # OpenBLAS reads the variable once, when the worker imports numpy
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context,
                                 initializer=_init_worker) as pool:
            futures = [pool.submit(fn, *job) for job in jobs]
            return [f.result() for f in futures]
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
