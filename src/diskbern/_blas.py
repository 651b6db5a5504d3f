"""One OpenBLAS thread inside the batch kernels.

The batch kernels run their gemms and gemvs on the threads of diskbern's
own pool (experiments._evaluate_groups). OpenBLAS would start threads of its
own inside each product, oversubscribing the cores and rounding some
products differently from its serial kernels, so values would depend on the
BLAS thread count of the host. one_thread() sets the OpenBLAS that numpy has
loaded to one thread while any caller is inside it.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

# (getter, setter): numpy >= 2 wheels' scipy-openblas, 64- then 32-bit
# integers, then OpenBLAS under its own names.
_NAMES = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
          for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]

_lock = threading.Lock()
_depth = 0  # callers inside one_thread()
_saved = 1  # the count the outermost caller found


@functools.cache
def _api():
    """(getter, setter) of the OpenBLAS thread count, looked up through
    numpy's core extension module, whose lookups also search the libraries
    it links; None when there is no OpenBLAS. RTLD_NOLOAD opens only what is
    already loaded."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):  # no RTLD_NOLOAD here, or not a shared library
        return None
    for get_name, set_name in _NAMES:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_thread():
    """OpenBLAS runs one thread while any caller, in any thread, is inside;
    when the last one leaves, normally or by an exception, the count found
    by the first is restored. Does nothing when there is no OpenBLAS."""
    global _depth, _saved
    api = _api()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
