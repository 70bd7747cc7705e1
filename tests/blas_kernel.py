"""The BLAS kernel this process runs on, for the messages of digest tests.

numpy's wheels bundle an OpenBLAS built for several CPUs (`DYNAMIC_ARCH`)
that picks one kernel at load time. Kernels sum in different orders, so a
digest of anything that goes through BLAS holds only on the kernel it was
recorded under: SkylakeX for the digests in these tests.
"""

import ctypes
from pathlib import Path

import numpy as np

RECORDED_UNDER = "SkylakeX"


def _openblas(function: str):
    """`function` of numpy's bundled OpenBLAS through ctypes, or None where
    that library is absent."""
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/libscipy_openblas*"),
            *root.glob(".dylibs/libscipy_openblas*")]
    for lib in sorted(libs):
        try:
            return getattr(ctypes.CDLL(str(lib)), function)
        except (OSError, AttributeError):
            continue
    return None


def blas_kernel() -> str:
    """The kernel name numpy's bundled OpenBLAS reports
    (`scipy_openblas_get_corename64_`), or "unknown" where that library is
    absent."""
    corename = _openblas("scipy_openblas_get_corename64_")
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs with
    (`scipy_openblas_get_num_threads64_`), or None where that library is
    absent."""
    num_threads = _openblas("scipy_openblas_get_num_threads64_")
    return None if num_threads is None else num_threads()


def blas_note() -> str:
    """What a failing digest assert says about the kernel."""
    return f"digest recorded under the {RECORDED_UNDER} BLAS kernel; this run's is {blas_kernel()}"
