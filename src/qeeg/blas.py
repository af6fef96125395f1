"""Thread count of the OpenBLAS that numpy bundles.

qeeg multiplies and decomposes matrices of at most a few tens of rows, too
small for BLAS threads to pay: extra threads only add CPU time, and their
count changes how some products round.  The `qeeg` command and the pool
workers (`qeeg.pool`) therefore run BLAS on one thread.  Where numpy
bundles no OpenBLAS (a build against another BLAS), nothing is changed.
"""

from __future__ import annotations

import ctypes
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["set_blas_threads"]


@cache
def _openblas():
    """(get, set) thread-count entry points of the scipy-openblas library in
    numpy's wheels, or None when there is no such library."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def set_blas_threads(n: int) -> int | None:
    """Set numpy's bundled OpenBLAS to n threads and return the count it had;
    None, with BLAS left as it is, when numpy bundles no OpenBLAS."""
    entry = _openblas()
    if entry is None:
        return None
    get, put = entry
    previous = get()
    put(n)
    return previous
