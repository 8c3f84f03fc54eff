"""Cluster backend: forked shared-memory inference workers.

Both serving modes share one transport, the asyncio front-end of
:mod:`repro.serve.httpd`.  In the threaded backend every model forward
runs in the front-end's process, where past a handful of concurrent
clients the GIL serializes them.  :class:`ServingCluster` is the
``mode="cluster"`` backend, which moves the ranking ops out of it:

- **Admission** — identical in-flight requests are coalesced, and the
  rest enter a bounded dispatch queue; overflow is answered immediately
  as ``429`` + ``Retry-After`` instead of queueing without bound until
  every client times out.
- **Workers** — ``cluster_workers`` forked inference processes, reusing
  the PDEATHSIG/respawn plumbing of
  :class:`repro.parallel.WorkerHandle`.  Weights live in **one** shared
  memory copy (:mod:`repro.serve.shm`): the parent publishes them,
  every worker maps its model parameters onto the segment zero-copy.
  Workers build their responses with :func:`repro.serve.ops.ranking`,
  the same envelopes as the threaded backend, plus ``generation`` and
  ``worker``.
- **Hot swap** — a watcher polls the checkpoint directory
  (:meth:`ModelRegistry.fingerprint`); when the promoted best changes,
  the parent publishes a new weight generation and flips the seqlock
  control word.  Workers notice *between* requests: in-flight requests
  finish on the old weights (the reader keeps the previous generation
  mapped), no request is ever dropped, and post-swap scores are
  bitwise-identical to a fresh engine on the new checkpoint.

Construction goes through :func:`repro.serve.build` with
``ServeConfig(mode="cluster")``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import time
import warnings
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..parallel.pool import WorkerHandle, die_with_parent, fork_available
from .httpd import ApiError, classify_exception, query_int, threaded_dispatch
from .ops import RANKING_OPS, ranking
from .shm import SharedWeightReader, SharedWeightStore, adopt_views


class ClusterError(RuntimeError):
    """The cluster could not start or lost all of its workers."""


# ----------------------------------------------------------------------
# worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _worker_execute(engine, reader: SharedWeightReader, slot: int,
                    op: str, query: Dict[str, str]) -> Dict[str, Any]:
    """One ranking op against the worker's (shared-weight) engine."""
    k = query_int(query, "k") if op == "top_k" else None
    payload = ranking(op, engine, query_int(query, "day"), k=k)
    payload.update(generation=reader.generation, worker=slot)
    return payload


def _cluster_worker_main(slot: int, task_conn, event_conn,
                         servable, base_name: str) -> None:
    """Forked inference worker: shared weights in, score payloads out.

    ``servable`` arrives via fork inheritance (model skeleton + dataset,
    copy-on-write); the parameter *storage* is immediately re-pointed at
    the shared-memory segment, so the fork's weight copy is never
    touched and N workers hold one physical set of weights.

    Hot swap: the generation word is checked **between** requests; a
    request already being computed finishes on the weights it started
    with (the reader keeps the previous generation mapped one swap
    back).  A failed adoption (e.g. an architecture-changing checkpoint)
    is survived by continuing on the old weights.
    """
    die_with_parent()
    from .engine import InferenceEngine

    reader = SharedWeightReader(base_name)
    reader.refresh()
    adopt_views(servable.model, reader.views())
    engine = InferenceEngine(servable)
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):         # parent went away
            break
        if message is None:                 # graceful shutdown sentinel
            break
        req_id, op, query = message
        try:
            try:
                if reader.refresh():
                    adopt_views(servable.model, reader.views())
            except Exception:
                # keep serving the previous weights; the parent's swap
                # machinery owns reporting/promotion correctness
                pass
            payload = _worker_execute(engine, reader, slot, op, query)
            response = (req_id, "ok", payload)
        except BaseException as exc:        # noqa: BLE001 — ship to parent
            status, code, retry_after = classify_exception(exc)
            response = (req_id, "err",
                        {"status": status, "code": code,
                         "retry_after": retry_after, "message": str(exc),
                         "type": type(exc).__name__})
        try:
            event_conn.send(response)
        except (BrokenPipeError, OSError):  # parent went away mid-reply
            break
    # Re-point the parameters at private copies before unmapping: numpy
    # views still aliasing the segment keep its buffer exported, which
    # makes the mmap close fail (and print) during interpreter teardown.
    for param in servable.model.parameters():
        param.data = np.array(param.data)
    reader.close()


class _WorkerDied(RuntimeError):
    """The pipe roundtrip to a worker failed (crash / kill mid-request)."""


# ----------------------------------------------------------------------
# front-end (parent process)
# ----------------------------------------------------------------------
class ServingCluster:
    """The ``mode="cluster"`` backend of the HTTP front-end.

    Lifecycle: :meth:`start` forks the workers and publishes the
    weights; the front-end then runs :meth:`run` (worker proxies and the
    checkpoint watcher) for as long as it listens and routes every
    request through :meth:`dispatch`; :meth:`close` stops the workers
    once the front-end is down.  Built by :func:`repro.serve.build`;
    ``service`` is the parent-side :class:`RankingService`, which answers
    what the workers do not.
    """

    def __init__(self, config, service, telemetry):
        if not fork_available():
            raise ClusterError(
                "cluster mode requires the 'fork' start method; use "
                "ServeConfig(mode='threaded') on this platform")
        self.config = config
        self.service = service
        self.telemetry = telemetry
        self.swaps = 0
        self._ctx = multiprocessing.get_context("fork")
        self._handles: list = []
        self._shm_store: Optional[SharedWeightStore] = None
        self._fingerprint = None
        self._servable = None
        self._req_ids = itertools.count()
        self._queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=config.max_queue)
        self._inflight: Dict[Any, asyncio.Future] = {}
        self._in_parent = threaded_dispatch(service)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        if self._started:
            return self
        self._started = True
        registry = self.service.registry
        self._servable = registry.load(None)
        self._fingerprint = registry.fingerprint(self._servable.version)
        self._shm_store = SharedWeightStore()
        self._shm_store.publish(self._servable.model.state_dict(),
                                version=self._servable.version)
        self._handles = [
            WorkerHandle(self._ctx, slot, _cluster_worker_main,
                         args=(self._servable, self._shm_store.base_name),
                         name_prefix="repro-serve-cluster")
            for slot in range(self.config.cluster_workers)]
        return self

    async def run(self) -> None:
        """One proxy task per worker plus the checkpoint watcher."""
        await asyncio.gather(
            *(self._worker_proxy(slot) for slot in range(len(self._handles))),
            self._watch_checkpoints())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.task_w.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():   # pragma: no cover - stuck
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.close()
        self._handles = []
        if self._shm_store is not None:
            self._shm_store.close(unlink=True)
            self._shm_store = None

    # ------------------------------------------------------------------
    # routing / dispatch
    # ------------------------------------------------------------------
    def _alive(self) -> int:
        return sum(1 for h in self._handles if h.process.is_alive())

    async def dispatch(self, op: str, query: Dict[str, str],
                       body: bytes = b"") -> Dict[str, Any]:
        """Answer one routed op.

        Ranking ops at the served version go to the workers; health,
        stats and reload describe the cluster; everything else (models,
        ingest, a ranking at another version) runs on the parent-side
        service, exactly as in threaded mode.
        """
        served = self._servable.version
        if op in RANKING_OPS and query.get("version", served) == served:
            return await self._dispatch_worker(op, query)
        if op == "health":
            alive = self._alive()
            return {"status": "ok" if alive else "degraded",
                    "mode": "cluster", "workers": len(self._handles),
                    "alive": alive,
                    "generation": self._shm_store.current_generation(),
                    "version": served}
        if op == "stats":
            snap = self.telemetry.snapshot()
            snap["registry"] = self.service.registry.stats()
            snap["cluster"] = {
                "workers": len(self._handles),
                "alive": self._alive(),
                "queue_depth": self._queue.qsize(),
                "max_queue": self.config.max_queue,
                "generation": self._shm_store.current_generation(),
                "swaps": self.swaps,
            }
            return snap
        if op == "reload":
            generation = await self._maybe_swap(force=True)
            return {"reloaded": generation is not None,
                    "generation": self._shm_store.current_generation(),
                    "version": self._servable.version}
        return await self._in_parent(op, query, body)

    async def _dispatch_worker(self, op: str, query: Dict[str, str]
                               ) -> Dict[str, Any]:
        """Admit one ranking request to the worker queue (or shed it)."""
        start = time.perf_counter()
        if not self._alive():
            self.telemetry.record_error(op)
            raise ApiError(503, "unavailable", "no inference workers "
                           "alive", retry_after=self.config.retry_after_s)
        key = (op, tuple(sorted(query.items())))
        shared = self._inflight.get(key)
        if shared is None:
            future: "asyncio.Future" = asyncio.get_running_loop() \
                .create_future()
            self._inflight[key] = future
            future.add_done_callback(
                lambda _f, _k=key: self._inflight.pop(_k, None))
            try:
                self._queue.put_nowait((key[0], query, future, 0))
            except asyncio.QueueFull:
                self._inflight.pop(key, None)
                self.telemetry.record_shed(op)
                raise ApiError(
                    429, "overloaded",
                    f"dispatch queue full ({self.config.max_queue} "
                    "requests waiting); retry later",
                    retry_after=self.config.retry_after_s) from None
        else:
            future = shared
        depth = self._queue.qsize()
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), timeout=self.config.default_timeout)
        except asyncio.TimeoutError:
            self.telemetry.record_error(op)
            raise ApiError(503, "timeout",
                           f"request missed its "
                           f"{self.config.default_timeout:g}s deadline",
                           retry_after=self.config.retry_after_s) from None
        except ApiError:
            self.telemetry.record_error(op)
            raise
        self.telemetry.record_request(op, time.perf_counter() - start,
                                      queue_depth=depth)
        return payload

    async def _worker_proxy(self, slot: int) -> None:
        """One task per worker: pull from the queue, roundtrip the pipe.

        A crashed worker (EOF mid-roundtrip) is respawned into the same
        slot and the request retried up to ``crash_retries`` times; the
        retries ride the front of the queue so a crash cannot reorder a
        request behind the whole backlog.
        """
        loop = asyncio.get_running_loop()
        while True:
            op, query, future, attempts = await self._queue.get()
            if future.done():               # waiter(s) already timed out
                continue
            handle = self._handles[slot]
            try:
                result = await loop.run_in_executor(
                    None, self._roundtrip, handle, op, query)
            except _WorkerDied as exc:
                await loop.run_in_executor(None, self._respawn, slot)
                if attempts < self.config.crash_retries:
                    try:
                        self._queue.put_nowait((op, query, future,
                                                attempts + 1))
                    except asyncio.QueueFull:
                        if not future.done():
                            future.set_exception(ApiError(
                                503, "unavailable",
                                "worker crashed and the retry queue is "
                                "full",
                                retry_after=self.config.retry_after_s))
                elif not future.done():
                    future.set_exception(ApiError(
                        503, "unavailable",
                        f"request crashed its worker on all "
                        f"{attempts + 1} attempt(s): {exc}",
                        retry_after=self.config.retry_after_s))
                continue
            except Exception as exc:        # noqa: BLE001
                if not future.done():
                    future.set_exception(exc)
                continue
            kind, body = result
            if future.done():
                continue
            if kind == "ok":
                future.set_result(body)
            else:
                error = ApiError(body["status"], body["code"],
                                 body["message"],
                                 retry_after=body.get("retry_after"))
                error.type_name = body.get("type")  # original class name
                future.set_exception(error)

    def _roundtrip(self, handle: WorkerHandle, op: str,
                   query: Dict[str, str]) -> Tuple[str, Dict[str, Any]]:
        """Blocking pipe send/recv (runs on an executor thread)."""
        req_id = next(self._req_ids)
        try:
            handle.task_w.send((req_id, op, query))
            while True:
                event = handle.event_r.recv()
                if event[0] == req_id:
                    return event[1], event[2]
                # stale reply from a request whose waiters gave up
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise _WorkerDied(
                f"worker {handle.slot} died mid-request "
                f"(exit code {handle.process.exitcode})") from exc

    def _respawn(self, slot: int) -> None:
        handle = self._handles[slot]
        warnings.warn(f"repro.serve.cluster: respawning crashed worker "
                      f"{slot}", RuntimeWarning, stacklevel=2)
        self._handles[slot] = handle.respawn(self._ctx)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    async def _watch_checkpoints(self) -> None:
        while True:
            await asyncio.sleep(self.config.watch_interval_s)
            try:
                await self._maybe_swap()
            except Exception as exc:        # noqa: BLE001 — keep serving
                warnings.warn(f"repro.serve.cluster: hot-swap check "
                              f"failed: {exc}", RuntimeWarning,
                              stacklevel=2)

    async def _maybe_swap(self, force: bool = False) -> Optional[int]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._swap_sync, force)

    def _swap_sync(self, force: bool) -> Optional[int]:
        """Publish a new weight generation if the best checkpoint moved.

        Runs on an executor thread (archive load + checksum are slow);
        publishing itself is atomic from the workers' point of view —
        the new segment is fully written before the control word flips.
        """
        registry = self.service.registry
        fingerprint = registry.fingerprint()
        if fingerprint is None:
            return None
        if fingerprint == self._fingerprint and not force:
            return None
        version = fingerprint[0]
        self.service.reload()               # parent-side engine caches
        registry.evict(version)             # force a fresh archive read
        servable = registry.load(version)
        published = self._shm_store.publish(servable.model.state_dict(),
                                            version=version)
        self._servable = servable
        self._fingerprint = fingerprint
        self.swaps += 1
        return published.generation
