"""OpenBLAS thread counts, read and set through each mapped OpenBLAS's own functions."""

import ctypes
import functools
import logging
import threading
from contextlib import contextmanager

import scipy.linalg  # noqa: F401  maps scipy's own OpenBLAS before the lookup below is cached

logger = logging.getLogger(__name__)
_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",  # wheels
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_LOCK = threading.Lock()
_depth, _saved = 0, []  # pins held now, in any thread; the counts the first one saved


@functools.cache  # once per process: reading the maps costs about 0.5 ms
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


@contextmanager
def single_threaded():
    """Run with every mapped OpenBLAS at one thread, so a product's bits do not
    depend on how it is split between threads; yield whether one was found.
    Pins nest, across threads too: the first in saves each count and sets it
    to 1, and the last out restores it."""
    global _depth, _saved
    with _LOCK:
        if _depth == 0:
            _saved = [(put, get()) for get, put in _libraries()]
            if not _saved:
                logger.debug("no OpenBLAS thread-count functions found; BLAS threads left as is")
            for put, _ in _saved:
                put(1)
        _depth += 1
    try:
        yield bool(_saved)  # no pin resets it while this one is held
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0:
                for put, count in _saved:
                    put(count)
