"""Worker processes: how many cores this process may use, and the process
pool that the search and the recording loader share.

Pool workers run BLAS on one thread, since the workers already share the
cores among themselves.  Tasks and initializer arguments are pickled, so a
pool behaves the same under every multiprocessing start method.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .blas import set_blas_threads

__all__ = ["usable_cores", "worker_pool"]


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask (which `taskset` and
    a restricted cpuset narrow), else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _init_worker(initializer, initargs) -> None:
    set_blas_threads(1)
    if initializer is not None:
        initializer(*initargs)


@contextmanager
def worker_pool(workers: int, initializer=None, initargs=()):
    """A pool of `workers` processes on one BLAS thread each, which then run
    `initializer(*initargs)`.  Leaving the block cancels the tasks not yet
    started, so an error does not wait for the rest of the work.  The pool
    machinery is imported here, so a serial command does not load it."""
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(initializer, initargs))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
