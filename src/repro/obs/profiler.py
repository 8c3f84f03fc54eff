"""Op-level profiler for the autograd engine.

:class:`OpProfiler` instruments every primitive of :mod:`repro.tensor` —
the ``Tensor`` operator methods, the module-level graph functions
(``concat``, ``stack``, ``where``, ``maximum``, ``einsum``), the sparse
primitives (``spmm``, ``sddmm``, segment ops), ``conv1d`` and the fused
nodes — and records, per primitive and per pass (forward / backward):
call count, wall-clock seconds, and the bytes of the array each call
produced.

The instrumentation is installed by *patching*: while a profiler is active
the primitive attributes are replaced with timing wrappers, and on exit the
originals are restored.  When no profiler is active the engine runs the
original, unwrapped functions — the disabled-state overhead is exactly
zero.  Wrappers only measure; they never touch the computed arrays, so a
profiled run is bit-identical to an unprofiled one at the same seed.

Backward timing works by intercepting the closure an op records on its
output: the wrapper re-wraps ``out._backward`` so the reverse pass of every
profiled primitive is timed when :meth:`Tensor.backward` later invokes it.

Usage::

    with OpProfiler() as prof:
        trainer.fit()
    for row in prof.table(top=10):
        print(row)
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..tensor import fused as _fused_module
from ..tensor import ops as _ops_module
from ..tensor import sparse as _sparse_module
from ..tensor import tensor as _tensor_module
from ..tensor.tensor import Tensor

#: ``Tensor`` methods treated as primitives, mapped to their report names.
#: ``__radd__``/``__rmul__`` are class-level aliases of ``__add__``/
#: ``__mul__`` and are caught by identity when the originals are patched.
_TENSOR_PRIMITIVES: Dict[str, str] = {
    "__add__": "add", "__neg__": "neg", "__mul__": "mul",
    "__truediv__": "div", "__pow__": "pow", "__matmul__": "matmul",
    "exp": "exp", "log": "log", "sqrt": "sqrt", "abs": "abs",
    "tanh": "tanh", "sigmoid": "sigmoid", "relu": "relu",
    "leaky_relu": "leaky_relu", "elu": "elu", "clip": "clip",
    "sum": "sum", "max": "max",
    "reshape": "reshape", "transpose": "transpose", "swapaxes": "swapaxes",
    "squeeze": "squeeze", "unsqueeze": "unsqueeze",
    "broadcast_to": "broadcast_to", "__getitem__": "getitem", "pad": "pad",
}

#: module-level primitives of :mod:`repro.tensor.tensor`; these are
#: imported by name into many modules, so patching must rebind every
#: module-global that refers to the same function object.
_FUNCTION_PRIMITIVES: Dict[str, str] = {
    "concat": "concat", "stack": "stack", "where": "where",
    "maximum": "maximum", "einsum": "einsum",
}

#: single-node functional ops of :mod:`repro.tensor.ops`; ``conv1d`` runs
#: its GEMMs and col2im inside one node, so it is one primitive.
_OPS_PRIMITIVES: Dict[str, str] = {"conv1d": "conv1d"}

#: sparse primitives of :mod:`repro.tensor.sparse`, attributed under their
#: own names so a sparse run shows ``spmm`` replacing dense ``matmul`` in
#: the op table.  They are monolithic (raw-kernel forward + closure
#: backward, no inner Tensor ops), so there is no double counting.
_SPARSE_PRIMITIVES: Dict[str, str] = {
    "spmm": "spmm", "sddmm": "sddmm",
    "sparse_segment_sum": "segment_sum", "sparse_gather": "sparse_gather",
}

#: fused composite nodes of :mod:`repro.tensor.fused`.  Each is a single
#: tape node (two for the LSTM's h/c pair), so its row replaces the chain
#: of primitive rows the composed path would have produced — a profile of
#: a fused run attributes the whole cell/propagation to one labeled op.
_FUSED_PRIMITIVES: Dict[str, str] = {
    "affine_act_fused": "affine_act_fused",
    "lstm_cell_fused": "lstm_cell_fused",
    "gru_cell_fused": "gru_cell_fused",
    "gcn_propagate_fused": "gcn_propagate_fused",
    "temporal_block_fused": "temporal_block_fused",
}

_active_profiler: Optional["OpProfiler"] = None


class OpStat:
    """Aggregate cost of one (op, pass) pair."""

    __slots__ = ("count", "seconds", "bytes")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.bytes = 0

    def add(self, seconds: float, nbytes: int) -> None:
        self.count += 1
        self.seconds += seconds
        self.bytes += nbytes

    def __repr__(self) -> str:
        return (f"OpStat(count={self.count}, seconds={self.seconds:.6f}, "
                f"bytes={self.bytes})")


class OpProfiler:
    """Records per-primitive forward/backward cost while installed.

    Use as a context manager (or call :meth:`install` / :meth:`uninstall`
    explicitly).  Only one profiler may be active at a time; nesting raises
    ``RuntimeError`` rather than silently double-counting.
    """

    def __init__(self) -> None:
        #: ``{(op_name, "forward"|"backward"): OpStat}``
        self.records: Dict[Tuple[str, str], OpStat] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, name: str, pass_: str, seconds: float,
                nbytes: int) -> None:
        key = (name, pass_)
        stat = self.records.get(key)
        if stat is None:
            stat = self.records[key] = OpStat()
        stat.add(seconds, nbytes)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        profiler = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            # Fused cells return a tuple of Tensors (LSTM's (h, c)); time
            # each output's backward under the same op name.
            outputs = (out,) if isinstance(out, Tensor) else (
                tuple(t for t in out if isinstance(t, Tensor))
                if isinstance(out, tuple) else ())
            if outputs:
                profiler._record(name, "forward", elapsed,
                                 sum(t.data.nbytes for t in outputs))
                for tensor in outputs:
                    inner = tensor._backward
                    if inner is not None:
                        def timed_backward(grad, _inner=inner):
                            b_start = time.perf_counter()
                            _inner(grad)
                            profiler._record(name, "backward",
                                             time.perf_counter() - b_start,
                                             grad.nbytes)
                        tensor._backward = timed_backward
            else:
                profiler._record(name, "forward", elapsed, 0)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__profiled_original__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "OpProfiler":
        """Patch the engine's primitives to record into this profiler."""
        global _active_profiler
        if self._installed:
            raise RuntimeError("profiler is already installed")
        if _active_profiler is not None:
            raise RuntimeError("another OpProfiler is already active; "
                               "profilers cannot nest")
        _active_profiler = self
        self._installed = True

        # Tensor methods: wrap each original once, then rebind every class
        # attribute that refers to it (catches __radd__ = __add__ aliases).
        wrapped: Dict[int, Callable] = {}
        for attr, name in _TENSOR_PRIMITIVES.items():
            original = Tensor.__dict__[attr]
            wrapped[id(original)] = self._wrap(original, name)
        for attr, value in list(Tensor.__dict__.items()):
            if id(value) in wrapped:
                self._patches.append((Tensor, attr, value))
                setattr(Tensor, attr, wrapped[id(value)])

        # Module-level functions: rebind every repro module-global that is
        # the same object as the canonical definition in its home module.
        for home, mapping in ((_tensor_module, _FUNCTION_PRIMITIVES),
                              (_ops_module, _OPS_PRIMITIVES),
                              (_sparse_module, _SPARSE_PRIMITIVES),
                              (_fused_module, _FUSED_PRIMITIVES)):
            for attr, name in mapping.items():
                original = getattr(home, attr)
                replacement = self._wrap(original, name)
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, replacement)
        return self

    def uninstall(self) -> None:
        """Restore every patched primitive."""
        global _active_profiler
        if not self._installed:
            return
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False
        if _active_profiler is self:
            _active_profiler = None

    def __enter__(self) -> "OpProfiler":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Seconds across every recorded primitive and pass."""
        return sum(stat.seconds for stat in self.records.values())

    def as_rows(self) -> List[Dict[str, object]]:
        """JSON-ready rows sorted by descending seconds."""
        rows = [{"op": op, "pass": pass_, "count": stat.count,
                 "seconds": stat.seconds, "bytes": stat.bytes}
                for (op, pass_), stat in self.records.items()]
        rows.sort(key=lambda r: -r["seconds"])
        return rows

    def table(self, top: Optional[int] = None) -> str:
        """Aligned text table of the most expensive primitives."""
        rows = self.as_rows()
        if top is not None:
            rows = rows[:top]
        lines = [f"{'op':20s} {'pass':8s} {'count':>9s} {'seconds':>10s} "
                 f"{'MB':>10s}"]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append(f"{row['op']:20s} {row['pass']:8s} "
                         f"{row['count']:9d} {row['seconds']:10.4f} "
                         f"{row['bytes'] / 1e6:10.2f}")
        return "\n".join(lines)


def active_profiler() -> Optional[OpProfiler]:
    """The currently installed profiler, if any."""
    return _active_profiler
