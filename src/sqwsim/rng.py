"""Deterministic seed derivation for reproducible Monte-Carlo runs.

Every run draws from a generator seeded by a child seed derived from the
master seed and the run's index path, so results do not depend on execution
order or on how runs are spread over worker processes, and any single run
can be reproduced in isolation.
"""
from __future__ import annotations

import operator
from typing import Callable, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """numpy's ``hashmix`` on 32-bit words: xor with a constant, then
    multiply by it, advanced by ``mult`` on every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """numpy's ``mix``: fold the word ``y`` into the pool word ``x``."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def child_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit child seed for the run addressed by ``path``.

    Equal to ``np.random.SeedSequence((master_seed, *path))
    .generate_state(1, np.uint64)[0]``, computed in Python so that a process
    that only hands seeds to workers never imports ``numpy.random``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    entropy = [w for v in (master_seed, *path) for w in _words(operator.index(v))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    return hashmix(pool[0]) | hashmix(pool[1]) << 32


class _Runner:
    """Runs tasks in one process.  A job's run is built there, when the
    first of its tasks comes, and dropped when a task of another job comes,
    so the process holds one job's cover at a time.  Tasks come in job
    order, so each job is built at most once per process."""

    def __init__(self, prepares: list[Callable[[], Callable]]):
        self.prepares = prepares
        self.job = -1
        self.run: Callable | None = None

    def __call__(self, task: tuple[int, int | None]):
        job, seed = task
        if job != self.job:
            self.run = None  # free the last job's cover before building the next
            self.run = self.prepares[job]()
            self.job = job
        return self.run(None if seed is None else np.random.default_rng(seed))


_worker_runner: _Runner | None = None


def _start_worker(prepares: list[Callable[[], Callable]]) -> None:
    global _worker_runner
    _worker_runner = _Runner(prepares)


def _run_task_in_worker(task: tuple[int, int | None]):
    return _worker_runner(task)


def _map_runs(jobs: Sequence[tuple[Callable[[], Callable], Sequence[int], bool]], workers: int) -> list[list]:
    """``[run(default_rng(seed)) for seed in seeds]`` for every job
    ``(prepare, seeds, replicate)``, in job order.  ``prepare()`` builds the
    job's ``run`` (its cover, its start state), and ``replicate`` says that
    the run draws nothing.

    Every job's runs form one task list, a job index with a seed each,
    spread over up to ``workers`` forked processes: one pool serves them
    all, and the fork start method hands each worker the jobs' ``prepare``
    and the state it closes over without pickling them.  Without fork the
    tasks go serially.  A job with ``replicate`` is one task, given no
    generator, and its result is repeated for every seed.
    """
    prepares = [prepare for prepare, _, _ in jobs]
    tasks: list[tuple[int, int | None]] = []
    for j, (_, seeds, replicate) in enumerate(jobs):
        tasks.extend([(j, None)] if replicate else [(j, seed) for seed in seeds])
    results = None
    if workers > 1 and len(tasks) > 1:
        # Imported here, so a serial call never pays for the pool machinery.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)), mp_context=ctx,
                initializer=_start_worker, initargs=(prepares,),
            ) as pool:
                # Small chunks: the last jobs may be the costliest, and a
                # large final chunk would leave the other workers idle.
                chunk = max(1, len(tasks) // (16 * workers))
                results = list(pool.map(_run_task_in_worker, tasks, chunksize=chunk))
    if results is None:
        results = list(map(_Runner(prepares), tasks))
    done = iter(results)
    return [[next(done)] * len(seeds) if replicate else [next(done) for _ in seeds]
            for _, seeds, replicate in jobs]
