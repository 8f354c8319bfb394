"""BLAS thread control for the many small linear-algebra calls navcast makes.

navcast's solves and the LSTM's GEMMs are small: waking idle OpenBLAS
threads for them costs more than the threads gain, and on a busy machine a
GEMM split across threads waits for a core to come free.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np
import scipy


@functools.cache
def openblas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS pool that numpy and scipy load.

    Each wheel bundles its own OpenBLAS, with its own pool; the suffix is that
    library's symbol suffix.  A package whose library or symbols are absent
    (MKL, a system BLAS) adds no pool.
    """
    pools = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob(f"libscipy_openblas{suffix}-*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(handle, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            pools.append((get, set_))
            break
    return tuple(pools)


@contextlib.contextmanager
def single_threaded():
    """Run the body with every OpenBLAS pool at one thread, then restore each count.

    The counts are process-wide: BLAS calls made by other threads meanwhile
    also run on one thread.  A pool already at one thread is left alone:
    OpenBLAS stops its threads before a fork and setting a count starts them
    again, each spinning for a while before it sleeps, so a forked worker
    would restart a pool that it never uses.
    """
    pools = [(get, set_) for get, set_ in openblas_pools() if get() != 1]
    saved = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(pools, saved):
            set_threads(count)
