"""Whole blocks on every core, results in order.

``mel_blocks`` and ``encode_rows`` read and check each block in the
caller's thread, in order, and hand the block's kernel to
``ordered_blocks``, which runs up to ``threads`` kernels (no more than
the usable CPUs) at once on a thread pool and yields their results in
input order. A block is never split, so every matrix product has the
same shape at any thread count and the results are bit-identical to a
serial run.

``train_rvq`` runs each layer's codebook update on ``one_worker`` while
its own thread goes on with the cascade; the update touches only a book
the cascade does not read again in that step, so the bytes are those of
a serial run as well.
"""

from __future__ import annotations

import collections
import os

# where OpenBLAS reads its thread count; the first positive value wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def default_threads() -> int:
    """Usable CPUs // BLAS threads. BLAS threads come from the
    first of BLAS_THREAD_VARS set to a positive integer; with neither set,
    the BLAS library takes every usable CPU, and so one block at a time
    keeps them busy."""
    cpus = usable_cpus()
    blas = cpus
    for name in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas = min(value, cpus)
            break
    return cpus // blas


def one_worker(threads: int):
    """A pool of one worker thread when min(threads, usable CPUs) >= 2,
    so that the worker and the calling thread each have a CPU; else None,
    and the caller runs the work itself."""
    if min(threads, usable_cpus()) < 2:
        return None
    # imported here, so that a command that never starts a pool does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1)


def ordered_blocks(kernel, jobs, threads: int = 1):
    """Yield ``kernel(*job)`` for each job of the iterator ``jobs``, in
    order. Each ``next(jobs)`` runs in the calling thread, so a job's
    reads and checks happen one block after another, as in a serial run.

    Up to ``threads`` kernels, and never more than the usable CPUs, run
    at once: at one, in the calling thread, and otherwise on a pool, with
    no more jobs taken than that ahead of the blocks yielded. An error
    from a kernel comes out where its result would; an error from
    ``next(jobs)`` comes out after every earlier block's result.
    """
    n = min(threads, usable_cpus())
    if n <= 1:
        for job in jobs:
            yield kernel(*job)
        return
    # imported here, so that a command that never starts a pool does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    pending = collections.deque()
    jobs = iter(jobs)
    with ThreadPoolExecutor(n) as pool:
        while True:
            if len(pending) == n:
                yield pending.popleft().result()
            try:
                job = next(jobs)
            except StopIteration:
                break
            except Exception:
                while pending:
                    yield pending.popleft().result()
                raise
            pending.append(pool.submit(kernel, *job))
        while pending:
            yield pending.popleft().result()
