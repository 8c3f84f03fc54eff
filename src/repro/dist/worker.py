"""Shard execution: the forked worker pool and its inline twin.

One shard = forward + backward over a few training days against the
current shared parameters, gradients accumulated into the worker's
:class:`~repro.dist.params.GradSlots` slot.  The *same*
:func:`compute_shard` function runs in a forked worker and in the
parent's inline path (``workers=1``), so the serial reference and the
parallel run share every arithmetic instruction — bitwise equality is
then a property of the plan and the reducer, not of luck.

Worker lifecycle is the :mod:`repro.parallel.pool` recipe, specialized
to persistent step-synchronous workers:

- **fork once, at fit start** — the dataset and model travel by
  copy-on-write and the shared segments by inherited mapping; nothing
  is ever pickled but the tiny task tuples and per-day losses;
- **PDEATHSIG reaping** (:func:`repro.parallel.pool.die_with_parent`)
  so a SIGKILLed parent never orphans workers;
- **crash retry that replays the failed shard**: a worker that dies
  mid-shard is respawned (a fresh fork of the *current* parent, so it
  adopts the current weights) and the shard is re-dispatched — shard
  computation is deterministic, so the replay produces the identical
  gradients.  Python exceptions propagate immediately as
  :class:`~repro.parallel.pool.TaskFailedError` (a deterministic bug;
  retrying would reproduce it).

Per-shard RNG realignment (:func:`reseed_shard`) is what keeps dropout
masks identical across worker counts: every shard reseeds the model's
generators from ``(seed, epoch, step, shard, stream)``, in the worker
*and* in the inline path, so the streams never depend on which process
ran the previous shard.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.losses import combined_loss
from ..nn.random import get_rng
from ..obs.tracer import trace
from ..parallel.pool import (ParallelUnavailableError, TaskFailedError,
                             WorkerCrashError, WorkerHandle, die_with_parent,
                             fork_available)
from ..parallel.telemetry import PoolTelemetry
from ..tensor import Tensor, dtype_policy, fused_kernels
from .params import GradSlots, ParamStore
from .plan import Shard, StepGroup

__all__ = ["ShardExecutor", "WorkerContext", "compute_shard",
           "reseed_shard", "shard_rngs"]

_POLL_SECONDS = 0.05


# ----------------------------------------------------------------------
# deterministic per-shard randomness
# ----------------------------------------------------------------------
def shard_rngs(model) -> List[Tuple[str, np.random.Generator]]:
    """The model's RNG streams in a frozen order, global stream first.

    Mirrors ``Trainer._named_rngs`` (distinct generators by dotted
    module name) but always includes the library-global generator —
    modules built without an explicit ``rng`` *alias* it, and an alias
    is deduplicated by identity so each physical stream is reseeded
    exactly once.
    """
    seen: Dict[int, Tuple[str, np.random.Generator]] = {}
    global_rng = get_rng()
    seen[id(global_rng)] = ("<global>", global_rng)
    for name, module in model.named_modules():
        gen = getattr(module, "_rng", None)
        if isinstance(gen, np.random.Generator) and id(gen) not in seen:
            seen[id(gen)] = (name or "<root>", gen)
    return list(seen.values())


def reseed_shard(model, seed: int, epoch: int, step: int,
                 shard: int) -> None:
    """Reset every RNG stream to the shard's canonical state.

    A pure function of ``(seed, epoch, step, shard, stream index)`` —
    executed identically by the inline path and by whichever worker the
    shard lands on, so dropout masks are invariant to the worker count
    and to crash-replay.
    """
    entropy_seed = int(seed) & 0x7FFFFFFFFFFFFFFF
    for stream, (_, gen) in enumerate(shard_rngs(model)):
        seq = np.random.SeedSequence(
            [entropy_seed, int(epoch), int(step), int(shard), stream])
        gen.bit_generator.state = type(gen.bit_generator)(seq).state


# ----------------------------------------------------------------------
# the shard computation both paths share
# ----------------------------------------------------------------------
@dataclass
class WorkerContext:
    """Everything a shard computation needs; inherited over fork."""

    model: Any
    dataset: Any
    config: Any
    loss_fn: Optional[Callable]
    store: ParamStore
    slots: GradSlots


def compute_shard(context: WorkerContext, epoch: int, step_index: int,
                  shard: Shard,
                  grad_out: Dict[str, np.ndarray]
                  ) -> List[Tuple[int, float]]:
    """Run one shard's days; accumulate gradients into ``grad_out``.

    ``grad_out`` buffers are zeroed first and receive the sum of the
    shard's per-day gradients in day order.  Returns ``(day, loss)``
    pairs in the same order.  Identical in the parent and in a worker —
    this function is the single source of the shard's arithmetic.
    """
    cfg = context.config
    model = context.model
    reseed_shard(model, cfg.seed, epoch, step_index, shard.index)
    named = list(model.named_parameters())
    params = [param for _, param in named]
    for buffer in grad_out.values():
        buffer[...] = 0
    losses: List[Tuple[int, float]] = []
    for day in shard.days:
        with trace("data_prep"):
            features = context.dataset.features(int(day), cfg.window,
                                                cfg.num_features)
            label = context.dataset.label(int(day))
        for param in params:
            param.grad = None
        with trace("forward"):
            scores = model(Tensor(features))
            if context.loss_fn is not None:
                loss = context.loss_fn(scores, Tensor(label), params)
            else:
                loss = combined_loss(scores, Tensor(label), cfg.alpha,
                                     parameters=params,
                                     weight_decay=cfg.weight_decay)
        batch_loss = loss.item()
        with trace("backward"):
            loss.backward()
        for name, param in named:
            if param.grad is not None:
                grad_out[name] += param.grad
        losses.append((int(day), float(batch_loss)))
    return losses


# ----------------------------------------------------------------------
# forked worker loop
# ----------------------------------------------------------------------
def _dist_worker_main(slot: int, task_conn, event_conn,
                      context: WorkerContext) -> None:
    """Worker loop: recv ``(epoch, step, shard, generation)``, compute,
    send ``("done", slot, shard_index, losses, seconds)``.

    Runs in the forked child.  Exits on the ``None`` sentinel or a dead
    parent.  The child re-derives its numerics environment instead of
    trusting inherited thread state: fresh read-only parameter views and
    the config's dtype/fusion policy.
    """
    die_with_parent()
    cfg = context.config
    context.store.adopt_worker(context.model)
    grad_views = context.slots.views(slot)
    with dtype_policy(cfg.dtype_policy), \
            fused_kernels(cfg.fused_kernels):
        while True:
            try:
                task = task_conn.recv()
            except (EOFError, OSError):        # parent went away
                return
            if task is None:
                return
            epoch, step_index, shard, generation = task
            started = time.perf_counter()
            try:
                current = context.store.generation()
                if current != generation:
                    raise RuntimeError(
                        f"worker {slot} saw parameter generation "
                        f"{current}, parent dispatched against "
                        f"{generation} — the step protocol was violated")
                losses = compute_shard(context, epoch, step_index, shard,
                                       grad_views)
            except BaseException:
                event_conn.send(("fail", slot, shard.index,
                                 traceback.format_exc(),
                                 time.perf_counter() - started))
            else:
                event_conn.send(("done", slot, shard.index, losses,
                                 time.perf_counter() - started))


class _DistWorkerHandle(WorkerHandle):
    """One persistent dist worker slot (fork + pipe pair + respawn)."""

    def __init__(self, ctx, slot: int, context: WorkerContext):
        self.context = context
        super().__init__(ctx, slot, _dist_worker_main, args=(context,),
                         name_prefix="repro-dist")

    def respawn(self, ctx) -> "_DistWorkerHandle":
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.close()
        return _DistWorkerHandle(ctx, self.slot, self.context)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class ShardExecutor:
    """Run step groups over N persistent workers (or inline for N=1).

    ``run_step`` is a barrier: it returns only when every shard of the
    group has its gradients copied out of the slots, which is the
    window in which the parent may safely write shared parameters.
    """

    def __init__(self, context: WorkerContext, workers: int,
                 max_attempts: int = 3):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got "
                             f"{max_attempts}")
        if workers > context.slots.n_slots:
            raise ValueError(f"{workers} workers need {workers} grad "
                             f"slots, only {context.slots.n_slots} exist")
        self.context = context
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self.telemetry = PoolTelemetry(workers=self.workers)
        self.handles: List[_DistWorkerHandle] = []
        self._ctx = None
        if self.workers > 1:
            if not fork_available():
                raise ParallelUnavailableError(
                    "repro.dist requires the 'fork' start method; this "
                    "platform offers only "
                    f"{multiprocessing.get_all_start_methods()} — run "
                    "with dist_workers=1 instead")
            self._ctx = multiprocessing.get_context("fork")
            self.handles = [_DistWorkerHandle(self._ctx, slot, context)
                            for slot in range(self.workers)]

    # ------------------------------------------------------------------
    def run_step(self, epoch: int, step_index: int, group: StepGroup
                 ) -> Tuple[List[Dict[str, np.ndarray]],
                            Dict[int, List[Tuple[int, float]]]]:
        """Execute one step group; returns (grads by shard, losses).

        ``grads[i]`` is shard ``i``'s owned gradient-sum dict, ordered
        by shard index (the frozen reduction order); ``losses[i]`` its
        ``(day, loss)`` pairs.  Raises
        :class:`~repro.parallel.pool.TaskFailedError` on a worker
        exception and :class:`~repro.parallel.pool.WorkerCrashError`
        when one shard exhausts its crash budget.
        """
        started = time.perf_counter()
        try:
            if self.workers == 1:
                return self._run_inline(epoch, step_index, group)
            return self._run_forked(epoch, step_index, group)
        finally:
            self.telemetry.wall_seconds += time.perf_counter() - started

    def _run_inline(self, epoch: int, step_index: int, group: StepGroup):
        grads: List[Dict[str, np.ndarray]] = []
        losses: Dict[int, List[Tuple[int, float]]] = {}
        views = self.context.slots.views(0)
        for shard in group.shards:
            shard_start = time.perf_counter()
            losses[shard.index] = compute_shard(self.context, epoch,
                                                step_index, shard, views)
            grads.append(self.context.slots.read(0))
            self.telemetry.record_task(
                (epoch, step_index, shard.index), 0,
                time.perf_counter() - shard_start, 1)
        return grads, losses

    def _run_forked(self, epoch: int, step_index: int, group: StepGroup):
        generation = self.context.store.generation()
        pending: deque = deque(group.shards)
        attempts: Dict[int, int] = {shard.index: 0
                                    for shard in group.shards}
        grads: Dict[int, Dict[str, np.ndarray]] = {}
        losses: Dict[int, List[Tuple[int, float]]] = {}
        inflight: Dict[int, Shard] = {}        # slot -> shard
        while len(grads) < len(group.shards):
            self._dispatch(epoch, step_index, generation, pending,
                           attempts, inflight)
            self._pump(epoch, step_index, grads, losses, inflight)
            self._reap(epoch, step_index, grads, losses, pending,
                       attempts, inflight)
        ordered = [grads[shard.index] for shard in group.shards]
        return ordered, losses

    # ------------------------------------------------------------------
    def _dispatch(self, epoch, step_index, generation, pending, attempts,
                  inflight) -> None:
        self.telemetry.observe_queue_depth(len(pending))
        for handle in self.handles:
            if handle.slot in inflight or not pending:
                continue
            shard = pending.popleft()
            try:
                handle.task_w.send((epoch, step_index, shard, generation))
            except OSError:
                # Died between tasks.  Whether a killed worker is caught
                # here or in ``_reap`` is kernel pipe-teardown timing;
                # both paths warn identically so the observable behavior
                # is race-free.  (Unlike the mid-compute path this does
                # not charge the shard's replay budget — the shard was
                # never lost.)
                self.telemetry.crashes += 1
                warnings.warn(
                    f"repro.dist: worker {handle.slot} died idle; "
                    f"replaying shard {shard.index} of step "
                    f"{step_index} on a fresh worker",
                    RuntimeWarning, stacklevel=6)
                pending.appendleft(shard)
                self._replace(handle)
                continue
            attempts[shard.index] += 1
            inflight[handle.slot] = shard
            handle.current = shard.index
            handle.dispatched_at = time.perf_counter()

    def _pump(self, epoch, step_index, grads, losses, inflight) -> None:
        conns = {handle.event_r: handle for handle in self.handles
                 if handle.slot in inflight and not handle.broken}
        if not conns:
            if inflight:
                time.sleep(_POLL_SECONDS)      # only broken workers left
            return
        for conn in _wait_connections(list(conns), timeout=_POLL_SECONDS):
            handle = conns[conn]
            try:
                event = conn.recv()
            except (EOFError, OSError):
                handle.broken = True
                continue
            self._apply_event(handle, epoch, step_index, event, grads,
                              losses, inflight)

    def _apply_event(self, handle, epoch, step_index, event, grads,
                     losses, inflight) -> None:
        kind, slot, shard_index, payload, seconds = event
        inflight.pop(slot, None)
        handle.current = None
        if kind != "done":
            raise TaskFailedError((epoch, step_index, shard_index),
                                  slot, payload)
        # Copy the slot's gradients out *before* the worker can get a
        # new shard — the slot is single-writer by protocol.
        grads[shard_index] = self.context.slots.read(slot)
        losses[shard_index] = payload
        self.telemetry.record_task((epoch, step_index, shard_index), slot,
                                   seconds, 1)

    def _reap(self, epoch, step_index, grads, losses, pending, attempts,
              inflight) -> None:
        for handle in self.handles:
            shard = inflight.get(handle.slot)
            if shard is None:
                continue
            if handle.broken or not handle.process.is_alive():
                # Drain the result-then-died race: the worker may have
                # written its event before dying.
                if not handle.broken and handle.event_r.poll():
                    try:
                        event = handle.event_r.recv()
                    except (EOFError, OSError):
                        event = None
                    if event is not None:
                        self._apply_event(handle, epoch, step_index,
                                          event, grads, losses, inflight)
                        self._replace(handle)
                        continue
                self.telemetry.crashes += 1
                if attempts[shard.index] >= self.max_attempts:
                    raise WorkerCrashError(
                        (epoch, step_index, shard.index),
                        attempts[shard.index],
                        f"exit code {handle.process.exitcode}")
                warnings.warn(
                    f"repro.dist: worker {handle.slot} lost shard "
                    f"{shard.index} of step {step_index} (exit code "
                    f"{handle.process.exitcode}); replaying (attempt "
                    f"{attempts[shard.index]}/{self.max_attempts})",
                    RuntimeWarning, stacklevel=5)
                self.telemetry.retries += 1
                inflight.pop(handle.slot, None)
                pending.appendleft(shard)
                self._replace(handle)

    def _replace(self, handle: _DistWorkerHandle) -> None:
        """Respawn in place: a fresh fork of the *current* parent, so
        the newcomer adopts the current shared weights."""
        self.handles[handle.slot] = handle.respawn(self._ctx)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker: sentinel when idle, terminate otherwise."""
        for handle in self.handles:
            graceful = handle.process.is_alive()
            if graceful:
                try:
                    handle.task_w.send(None)
                except OSError:
                    graceful = False
            if not graceful and handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + 5.0
        for handle in self.handles:
            handle.process.join(timeout=max(deadline - time.monotonic(),
                                            0.1))
            if handle.process.is_alive():   # pragma: no cover - stuck
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.close()
        self.handles = []
