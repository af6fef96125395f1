"""Thread count of the OpenBLAS that numpy bundles.

qeeg multiplies and decomposes matrices of at most a few tens of rows, too
small for BLAS threads to pay: extra threads only add CPU time, and their
count changes how some products round.  A qeeg process therefore starts
OpenBLAS on one thread unless the caller chose otherwise: `import qeeg`
imports this module first, and where numpy is not loaded yet and none of
the variables OpenBLAS reads its thread count from is set, it loads numpy
with OPENBLAS_NUM_THREADS=1 and then removes the variable, so that no
subprocess inherits it.  Else OpenBLAS would start one thread per core as
numpy loads, each busy-waiting before it sleeps, in every qeeg process and
in every pool worker forked from it.  The run-time pin still applies: the
`qeeg` command and the pool workers (`qeeg.pool`) set BLAS to one thread
with `set_blas_threads`, so that their outputs do not depend on a thread
count the caller chose.  Where numpy bundles no OpenBLAS (a build against
another BLAS), `set_blas_threads` changes nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
from functools import cache
from pathlib import Path

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as OpenBLAS loads
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np  # noqa: E402

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
