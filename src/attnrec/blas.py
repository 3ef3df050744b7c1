"""OpenBLAS thread counts, read and set through each mapped OpenBLAS's own functions."""

import ctypes
import logging
from contextlib import contextmanager

logger = logging.getLogger(__name__)
_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",  # wheels
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _libraries() -> list:
    """The (get, set) thread-count functions of each mapped OpenBLAS, by path."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []
    found = []
    for lib in libs:
        name = next((name for name in _NAMES if hasattr(lib, name.format("set"))), None)
        if name is not None and hasattr(lib, name.format("get")):
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return found


def threads():
    """Threads of the first mapped OpenBLAS; None if none is found."""
    return next((get() for get, _ in _libraries()), None)


@contextmanager
def single_threaded():
    """Run with every mapped OpenBLAS at one thread, so a product's bits do not
    depend on how it is split between threads; restore each count after."""
    libs = [(put, get()) for get, put in _libraries()]
    if not libs:
        logger.debug("no OpenBLAS thread-count functions found; BLAS threads left as they are")
    for put, _ in libs:
        put(1)
    try:
        yield
    finally:
        for put, count in libs:
            put(count)
