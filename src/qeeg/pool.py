"""Worker processes: how many cores this process may use, and the one
ordered map that the search and the recording loader run through.

Pool workers run BLAS on one thread, since the workers already share the
cores among themselves.  Tasks and the context must pickle, so that a pool
behaves the same under every multiprocessing start method.
"""

from __future__ import annotations

import math
import os
from functools import partial

from .blas import set_blas_threads

__all__ = ["usable_cores", "ordered_map"]


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask (which `taskset` and
    a restricted cpuset narrow), else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the context of this worker process, set once by `_init_worker`
_CONTEXT = None


def _init_worker(context) -> None:
    global _CONTEXT
    set_blas_threads(1)
    _CONTEXT = context


def _call(task, item):
    return task(_CONTEXT, item)


def ordered_map(task, items, limit: int, context=None) -> list:
    """`[task(context, item) for item in items]`, in item order, for a
    sequence of items.

    A pool starts all its workers at once, so it gets no more than `limit`,
    the usable cores or the items.  At one worker the loop runs here, and
    the pool machinery is not imported.  Otherwise each worker pins BLAS to
    one thread and receives `context` once; items go out in eight chunks
    per worker, which balances the load at one pickle per chunk.  The first
    error in item order is raised, and the chunks not yet started are
    cancelled, so an error does not wait for the rest of the work."""
    workers = min(limit, usable_cores(), len(items))
    if workers <= 1:
        return [task(context, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(context,))
    try:
        return list(pool.map(partial(_call, task), items,
                             chunksize=math.ceil(len(items) / (8 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)
