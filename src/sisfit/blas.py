"""One BLAS thread while a fit, spectrum, projection or verify runs.

OpenBLAS rounds ``a @ b``, and ``np.linalg.eigh`` from order 104 on, by
its thread count, so model bytes would follow ``OPENBLAS_NUM_THREADS``.
``one_blas_thread``, a context manager and decorator, sets the BLAS that
NumPy links to one thread and restores the old count when the last
holder leaves, also on an error.  The count is a setting of the whole
process: while the pin is held, BLAS calls that a host application makes
on other threads run on one thread too.  The setter is looked up once, on
first use, through ``ctypes``; with none of the known names (a BLAS other
than OpenBLAS) the pin does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import ContextDecorator
from functools import lru_cache

# NumPy's bundled scipy-openblas with 64- and 32-bit integers, then a
# system OpenBLAS; each has the getter of the same name with "_get_"
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")


@lru_cache(maxsize=None)
def _calls():
    """(setter, getter) of the BLAS that NumPy links, or None."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in _SETTERS:
        if hasattr(lib, name):
            return getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
    return None


class _OneThread(ContextDecorator):
    """The pin; holders on several threads share it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 0

    def __enter__(self):
        calls = _calls()
        with self._lock:
            if calls and not self._holders:
                self._saved = calls[1]()
                calls[0](1)
            self._holders += 1

    def __exit__(self, *exc):
        calls = _calls()
        with self._lock:
            self._holders -= 1
            if calls and not self._holders:
                calls[0](self._saved)


one_blas_thread = _OneThread()
