"""Keep freed NumPy buffers in the heap: the allocator half of the policy.

Every process that imports :mod:`repro.tensor` sets two glibc
``mallopt`` thresholds.  The measured reason, on a 2-core host: a
training step allocates and frees the same multi-megabyte activation and
gradient buffers every day.  By default glibc gives many of them back to
the kernel when they are freed (``munmap``, or a trim of the heap top),
so the next step faults every page in again.  A steady-state 16-day
500-stock RT-GCN (T) fit took about 190k minor page faults and 1.8 s;
with both thresholds it takes under 10 faults and 1.2-1.4 s, with
bitwise-identical losses.

- ``M_MMAP_THRESHOLD`` = 32 MiB (glibc's ceiling) serves buffers below
  it from the heap, so a freed buffer's pages stay mapped for reuse.
- ``M_TRIM_THRESHOLD`` = 256 MiB stops ``free`` from handing the heap
  top back to the kernel after every step.

Neither one is enough alone: setting either switches off glibc's
dynamic thresholds, so mmap-only trims the heap at the 128 KiB default
and trim-only mmaps every buffer above 128 KiB; both fault more than
the defaults.  There is deliberately no knob.  The thresholds are
process state, so forked pool, dist and serving workers inherit them.

Where the C library has no working ``mallopt`` (a non-glibc libc) the
process warns once and :func:`set_malloc_policy` reports ``None`` — it
never claims a policy it could not set.
"""

from __future__ import annotations

import ctypes
import warnings
from typing import Callable, Optional, Tuple

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "set_malloc_policy"]

#: allocations at least this large get their own ``mmap`` (bytes)
MMAP_THRESHOLD = 32 << 20
#: free heap top kept before ``free`` trims it back to the kernel (bytes)
TRIM_THRESHOLD = 256 << 20

# glibc's <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_warned = False


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """The C library's ``mallopt``, or ``None`` when it has none."""
    try:
        function = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    function.argtypes = [ctypes.c_int, ctypes.c_int]
    function.restype = ctypes.c_int
    return function


def _warn_unset() -> None:
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        "repro: the C library has no working mallopt, so freed NumPy "
        "buffers go back to the kernel after every step: training runs "
        "take many more page faults than on glibc", RuntimeWarning,
        stacklevel=3)


def set_malloc_policy() -> Optional[Tuple[int, int]]:
    """Set the mmap and trim thresholds of this process's allocator.

    Idempotent.  Returns ``(MMAP_THRESHOLD, TRIM_THRESHOLD)`` once both
    are set, or ``None`` — after a one-time warning — when ``mallopt`` is
    missing or refuses either value.
    """
    mallopt = _mallopt()
    if (mallopt is None
            or mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1
            or mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1):
        _warn_unset()
        return None
    return MMAP_THRESHOLD, TRIM_THRESHOLD
