"""Shared helpers: paths, host facts, percentiles, memory, the result line.

Everything here is stdlib plus numpy (which the program under test
already needs).  Nothing touches BLAS or thread settings: the host facts
only *read* the thread count of the OpenBLAS that numpy loaded.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: the checkout root (the benchmark runs from there)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for stores and checkpoints; removed at exit
WORK_ROOT = ROOT / ".perfbench-work"

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: environment variables that would pin BLAS or OpenMP threads; the
#: benchmark never sets them and reports any it inherited
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def program_env() -> Dict[str, str]:
    """The environment a user running the program from source would have:
    the inherited one plus ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def require_program() -> None:
    """Exit non-zero (printing no result) when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}; run "
                         "from the root of a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(tag: str) -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()           # only succeeds once no run uses it
    except OSError:
        pass


def setup_samples(workload: str, seed: int, count: int = 3) -> List[float]:
    """Seconds from process start to the end of set-up, measured in
    ``count`` fresh interpreters started the way the benchmark itself
    is (``run.py --setup-probe`` prints ``SETUP-DONE`` when set up)."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--setup-probe"],
            cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE,
            text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "SETUP-DONE":
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
        samples.append(elapsed)
    return samples


def setup_done() -> None:
    """The set-up probe's signal to :func:`setup_samples`."""
    sys.stdout.write("SETUP-DONE\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation), or ``None`` when
    fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    values = sorted(float(v) for v in samples)
    n = len(values)
    if n == 0 or math.floor(n * (100.0 - q) / 100.0) < MIN_TAIL_SAMPLES:
        return None
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    """Plain median for repeated whole-run measurements (no tail rule:
    it summarizes repetitions, not a latency distribution)."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a running process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (via /proc children lists)."""
    found: List[int] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants
    (``PR_SET_CHILD_SUBREAPER``), so :func:`stop_descendants` can wait
    for them too: a ``multiprocessing`` resource tracker outlives the
    process that started it, and would otherwise be re-parented away."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)      # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):   # pragma: no cover - non-Linux
        pass


def _reap() -> None:
    """Collect every exited child (zombies included) without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _wait_gone(exclude: Sequence[int], grace: float) -> None:
    """Wait up to ``grace`` seconds for every live descendant not in
    ``exclude`` to end, then kill the rest and wait for them."""
    deadline = time.monotonic() + grace
    while True:
        _reap()
        live = [pid for pid in descendants(os.getpid()) if pid not in exclude]
        if not live:
            return
        if time.monotonic() >= deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def stop_descendants(grace: float = 10.0) -> None:
    """End every process this one started, directly or not, and wait.

    The program shuts its own workers down; what remains at exit are
    ``multiprocessing`` resource trackers.  This process's own tracker
    ends when its pipe closes, once every worker sharing that pipe is
    gone, so it is stopped last.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    own = getattr(tracker, "_pid", None)
    _wait_gone([own] if own else [], grace)
    if own and hasattr(tracker, "_stop"):
        tracker._stop()
    _wait_gone([], grace)


def peak_rss_mb(include_self: bool = True,
                include_children: bool = True) -> float:
    """Largest resident set of this process and/or any reaped
    descendant, in MiB (``RUSAGE_CHILDREN`` keeps the maximum over the
    reaped tree)."""
    peaks = [0]
    if include_self:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if include_children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def _loaded_openblas() -> Optional[str]:
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    return sorted(paths)[0] if paths else None


def blas_facts() -> Dict[str, object]:
    """Library and effective thread count of the BLAS numpy loaded."""
    import numpy  # noqa: F401  (loads the BLAS into this process)

    path = _loaded_openblas()
    facts: Dict[str, object] = {"library": path and Path(path).name,
                                "threads": None, "config": None}
    if path is None:
        return facts
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if threads is None:
                continue
            threads.argtypes = []
            threads.restype = ctypes.c_int
            facts["threads"] = int(threads())
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if config is not None:
                config.argtypes = []
                config.restype = ctypes.c_char_p
                facts["config"] = config().decode("ascii", "replace")
            return facts
    return facts


def host_facts() -> Dict[str, object]:
    import numpy
    import scipy

    from repro.tensor import default_dtype

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:          # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas": blas_facts(),
        "dtype_policy": str(numpy.dtype(default_dtype())),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ[name] for name in THREAD_ENV_VARS
                       if name in os.environ},
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple], host: Dict[str, object],
                notes: Optional[Dict[str, object]] = None) -> None:
    """Print the host line, a human summary, then the one-line result.

    ``metrics`` maps name -> (value, unit).  The result object is the
    last line of standard output.
    """
    print("host " + json.dumps(host, sort_keys=True))
    if notes:
        print("notes " + json.dumps(notes, sort_keys=True, default=str))
    rate = failed / attempted if attempted else float("nan")
    print(f"error_rate {rate:.6f} ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    result = {"correct": bool(correct), "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
