"""Environment stamp: what the numbers were measured on and what was pinned.

The BLAS thread count is requested through environment variables set
before numpy is imported (``threadpoolctl`` may be absent). This module
then asks every loaded OpenBLAS how many threads it will use, through
its own ``*_get_num_threads*`` entry point, and reports the setting as
verified only when every answer matches the request.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads(threads: int) -> None:
    """Request ``threads`` BLAS threads; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (numpy and scipy ship one each)."""
    paths = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name and path not in paths:
                paths.append(path)
    return paths


def blas_threads_in_effect() -> dict[str, int | None]:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        found[os.path.basename(path)] = None
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _openblas_build(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def stamp(requested_threads: int) -> dict:
    import numpy as np
    import scipy

    threads = blas_threads_in_effect()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": _openblas_build(np),
        "blas_threads_requested": requested_threads,
        "blas_threads_in_effect": threads,
        "blas_threads_verified": bool(threads)
        and all(n == requested_threads for n in threads.values()),
    }
