"""Deterministic seed derivation for reproducible Monte-Carlo runs.

Every run draws from a generator seeded by a child seed derived from the
master seed and the run's index path, so results do not depend on execution
order or on how runs are spread over worker processes, and any single run
can be reproduced in isolation.
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np


def child_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit child seed for the run addressed by ``path``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    ss = np.random.SeedSequence((master_seed, *path))
    return int(ss.generate_state(1, np.uint64)[0])


_worker_run: Callable[[np.random.Generator], object] | None = None


def _set_worker_run(run: Callable[[np.random.Generator], object]) -> None:
    global _worker_run
    _worker_run = run


def _run_seed_in_worker(seed: int):
    return _worker_run(np.random.default_rng(seed))


def _map_runs(
    run: Callable[[np.random.Generator | None], object],
    seeds: Sequence[int],
    workers: int,
    replicate: bool = False,
) -> list:
    """``run(default_rng(seed))`` for every child seed, in seed order.

    Runs are spread over up to ``workers`` forked processes; the fork start
    method hands each worker ``run`` and the state it closes over without
    pickling them.  Without fork the runs go serially.  With ``replicate``
    the run draws nothing, so it is computed once, given no generator, and
    repeated for every seed.
    """
    if replicate:
        return [run(None)] * len(seeds)
    if workers > 1 and len(seeds) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(seeds)), mp_context=ctx,
                initializer=_set_worker_run, initargs=(run,),
            ) as pool:
                chunk = max(1, len(seeds) // (4 * workers))
                return list(pool.map(_run_seed_in_worker, seeds, chunksize=chunk))
    return [run(np.random.default_rng(seed)) for seed in seeds]
