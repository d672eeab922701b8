"""The host a benchmark ran on, recorded in its JSON payload.

A wall-clock figure means little without the machine behind it: the core
count bounds any parallel speedup, and the BLAS thread count decides
whether the small GEMMs of the live model run on one core or spin on two.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Optional

import numpy as np


def blas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS (None for another BLAS)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        return int(get())
    return None


def host_record() -> dict:
    """Core counts and BLAS library/threads of the running process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": {key: os.environ.get(key) for key in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
