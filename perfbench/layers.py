"""Per-layer timing by wrapping public callables on live instances.

The benchmark never edits the program and never reads its built-in
tracers.  Instead :class:`LayerClock` replaces a bound method on one
*instance* (``model.layer0.relational.strategy.forward``,
``dataset.features``, ``trainer.optimizer.step``, ...) with a timed
wrapper, and removes the wrapper again with ``delattr`` so untraced
repetitions pay nothing.

Busy seconds and call counts live in an anonymous shared mapping,
guarded by a process-shared lock, both created before any fork, so
wrappers inherited by forked workers (``repro.dist`` shard workers)
add into the same counters the parent reads.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.temporal import TemporalConvolution
from repro.graph.strategies import RelationStrategy
from repro.nn.graph import GraphConv


class LayerClock:
    """Busy seconds and calls per named layer, shared across ``fork``."""

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        # an anonymous MAP_SHARED mapping: forked children write into the
        # same pages, and no file backs it
        self._buffer = mmap.mmap(-1, 16 * len(self.names))
        self._cells = memoryview(self._buffer).cast("d")
        self._lock = multiprocessing.get_context("fork").Lock()
        self._wrapped: List[Tuple[object, str]] = []

    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float) -> None:
        slot = 2 * self._index[name]
        with self._lock:
            self._cells[slot] += seconds
            self._cells[slot + 1] += 1.0

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._cells)):
                self._cells[i] = 0.0

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (busy seconds, calls)``."""
        with self._lock:
            cells = list(self._cells)
        return {name: (cells[2 * i], int(cells[2 * i + 1]))
                for i, name in enumerate(self.names)}

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call adds its wall time to ``name``."""
        clock = time.perf_counter
        add = self.add

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, clock() - start)

        return wrapper

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a timed wrapper on the instance."""
        setattr(owner, attr, self.timed(name, getattr(owner, attr)))
        self._wrapped.append((owner, attr))

    def unwrap_all(self) -> None:
        """Drop every instance wrapper; the class methods show through."""
        while self._wrapped:
            owner, attr = self._wrapped.pop()
            delattr(owner, attr)


def model_layers(model) -> List[Tuple[object, str]]:
    """``(module, layer name)`` for the RT-GCN layers the benchmark times:
    each relation strategy, graph convolution and temporal convolution."""
    kinds = ((RelationStrategy, "graph.strategy"),
             (GraphConv, "nn.graph_conv"),
             (TemporalConvolution, "core.temporal"))
    found = []
    for _, module in model.named_modules():
        for kind, name in kinds:
            if isinstance(module, kind):
                found.append((module, name))
    return found


def wrap_model(clock: LayerClock, model, dataset) -> None:
    """Time the model's layers and the dataset's feature windows."""
    for module, name in model_layers(model):
        clock.wrap(module, "forward", name)
    clock.wrap(dataset, "features", "data.features")
