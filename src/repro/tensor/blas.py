"""One BLAS thread per process: the threading half of the numerics policy.

Every process that imports :mod:`repro.tensor` runs its BLAS on exactly
one thread.  Two measured reasons, on a 2-core host with numpy's
scipy-openblas:

- **Bitwise results must not depend on the host.**  OpenBLAS splits a
  long-K GEMM (the temporal conv's weight gradient is a
  ``32×7500 @ 7500×96`` product at 500 stocks) across its threads, and
  the partial sums are added in a thread-count-dependent order.  A
  serial 16-day RT-GCN (T) fit gave different parameter digests at 1 and
  2 threads, so "bitwise-deterministic" meant "on hosts with this many
  cores".
- **Forked workers must not oversubscribe.**  Every worker of
  :mod:`repro.parallel`, :mod:`repro.dist` and the serving cluster
  inherited a full thread pool; N workers then ran N×cores BLAS threads
  on cores the workers themselves already fill.  The 2-worker dist fit
  was slower than the serial one until BLAS was pinned.

There is deliberately no knob: an inherited ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is overridden.  Parallelism in this package comes
from processes (the three tiers above), never from BLAS threads.

The pin runs when :mod:`repro.tensor` is imported and again in the
shared fork-child set-up (:func:`repro.parallel.pool.die_with_parent`),
which also catches an OpenBLAS mapped after import.  It calls the
set-num-threads symbol of every OpenBLAS mapped into the process through
``ctypes``.  When none is found (a non-OpenBLAS build, or a platform
without ``/proc/self/maps``) the process warns once, naming the BLAS
numpy was built against, and reports the thread count as ``None`` —
it never claims a pin it could not make.
"""

from __future__ import annotations

import ctypes
import warnings
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["BLAS_THREADS", "blas_threads", "pin_blas_threads"]

#: the BLAS thread count of every repro process
BLAS_THREADS = 1

#: (setter, getter) symbol pairs, in lookup order: the scipy-openblas
#: builds numpy and scipy bundle (ILP64, then LP64), then upstream
#: OpenBLAS (ILP64-suffixed, then plain)
_SYMBOLS = tuple((f"{prefix}set_num_threads{suffix}",
                  f"{prefix}get_num_threads{suffix}")
                 for prefix in ("scipy_openblas_", "openblas_")
                 for suffix in ("64_", ""))

#: library path -> (set_num_threads, get_num_threads), or None when the
#: mapped file exports neither symbol pair
_bound: Dict[str, Optional[Tuple[Callable, Callable]]] = {}
_warned = False


def _mapped_openblas_paths() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            return sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []


def _bind(path: str) -> Optional[Tuple[Callable, Callable]]:
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in _SYMBOLS:
        setter = getattr(library, set_name, None)
        getter = getattr(library, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


def _openblas_libraries() -> List[Tuple[str, Callable, Callable]]:
    """``(path, setter, getter)`` for every OpenBLAS mapped right now."""
    found = []
    for path in _mapped_openblas_paths():
        if path not in _bound:
            _bound[path] = _bind(path)
        if _bound[path] is not None:
            found.append((path, *_bound[path]))
    return found


def _numpy_blas_name() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _warn_unpinned() -> None:
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        f"repro: numpy's BLAS ({_numpy_blas_name()}) exposes no OpenBLAS "
        "set-num-threads symbol, so BLAS threads are NOT pinned to "
        f"{BLAS_THREADS}: results may differ between hosts with different "
        "core counts and forked workers may oversubscribe the cores; "
        "reports record blas_threads as null", RuntimeWarning,
        stacklevel=3)


def blas_threads() -> Optional[int]:
    """The most threads any mapped OpenBLAS will use; ``None`` if unknown.

    This is what every telemetry report records: ``1`` once the policy
    holds, ``None`` when no OpenBLAS thread control was found.
    """
    libraries = _openblas_libraries()
    if not libraries:
        return None
    return max(int(getter()) for _, _, getter in libraries)


def pin_blas_threads() -> Optional[int]:
    """Set every mapped OpenBLAS to :data:`BLAS_THREADS` threads.

    Idempotent and cheap (one read of ``/proc/self/maps``).  Returns the
    effective thread count afterwards, or ``None`` — after a one-time
    warning — when there was nothing to pin.
    """
    libraries = _openblas_libraries()
    if not libraries:
        _warn_unpinned()
        return None
    for _, setter, _ in libraries:
        setter(BLAS_THREADS)
    return blas_threads()
