"""BLAS thread budget for the shard workers.

numpy's bundled OpenBLAS starts one compute thread per CPU in every
process.  A pool of N forked workers on N CPUs would then run N×N BLAS
threads that fight over the same cores, so each worker lowers its own
count to its share of the CPUs before it builds an engine.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import warnings
from typing import Optional

import numpy as np

__all__ = ["cpu_share", "limit_blas_threads"]


def _load_openblas():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not paths:
        raise OSError(f"no bundled OpenBLAS in {libs}")
    lib = ctypes.CDLL(paths[0])  # already loaded by numpy: same handle
    get, set_ = (lib.scipy_openblas_get_num_threads64_,
                 lib.scipy_openblas_set_num_threads64_)
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@functools.lru_cache(maxsize=None)
def _blas_controls():
    try:
        return _load_openblas()
    except (OSError, AttributeError) as exc:
        warnings.warn(f"BLAS thread count left unchanged: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None


def limit_blas_threads(budget: int) -> Optional[int]:
    """Lower this process's OpenBLAS thread count to ``budget``.

    Never raises the count, so ``OPENBLAS_NUM_THREADS=1`` still holds.
    Returns the count now in effect, or ``None`` (after one warning)
    when the library or its symbols cannot be found.
    """
    controls = _blas_controls()
    if controls is None:
        return None
    get, set_ = controls
    current = get()
    if budget < current:
        set_(max(1, int(budget)))
    return int(get())


def cpu_share(num_workers: int) -> int:
    """CPUs per worker when ``num_workers`` share this process's CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, cpus // num_workers)
