"""Pool telemetry: per-run and per-worker stats as a schema-v1 report.

The executor records, while it runs, exactly what an operator needs to
judge a sweep's health: how busy each worker was, how deep the task
queue got, how many attempts each run took, and how long each run's
successful attempt lasted.  :meth:`PoolTelemetry.report` folds all of it
into the standard :class:`repro.obs.RunReport` (schema version 1) so
parallel sweeps leave the same machine-readable artifacts as profiles
and benchmarks:

- ``phases`` — one ``worker-<slot>`` entry per worker slot with its
  completed-task ``count`` and busy ``seconds``;
- ``ops`` — one row per task: ``{"op": "task-<id>", "pass": "run",
  "count": <attempts>, "seconds": <wall>, "bytes": 0}``;
- ``metrics`` — pool-level scalars (wall seconds, utilization, retries,
  crashes, timeouts, max queue depth) and ``blas_threads``, the BLAS
  thread count every process of the pool ran at (``None`` when it could
  not be pinned, see :mod:`repro.tensor.blas`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..obs.metrics import RunReport, new_run_id
from ..tensor.blas import blas_threads


@dataclass
class PoolTelemetry:
    """Counters filled in by :class:`~repro.parallel.ExperimentPool`."""

    workers: int
    wall_seconds: float = 0.0
    crashes: int = 0
    timeouts: int = 0
    retries: int = 0
    max_queue_depth: int = 0
    #: task id → stats of the successful attempt
    task_stats: Dict[Any, Dict[str, float]] = field(default_factory=dict)
    #: worker slot → cumulative busy seconds over completed tasks
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: worker slot → completed task count
    worker_tasks: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def observe_queue_depth(self, depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_task(self, task: Any, slot: int, seconds: float,
                    attempts: int) -> None:
        self.task_stats[task] = {"worker": slot,
                                 "seconds": float(seconds),
                                 "attempts": int(attempts)}
        self.worker_busy[slot] = (self.worker_busy.get(slot, 0.0)
                                  + float(seconds))
        self.worker_tasks[slot] = self.worker_tasks.get(slot, 0) + 1

    # ------------------------------------------------------------------
    def utilization(self) -> Dict[int, float]:
        """Busy fraction of the pool's wall clock, per worker slot."""
        if self.wall_seconds <= 0.0:
            return {slot: 0.0 for slot in range(self.workers)}
        return {slot: self.worker_busy.get(slot, 0.0) / self.wall_seconds
                for slot in range(self.workers)}

    def mean_utilization(self) -> float:
        util = self.utilization()
        return sum(util.values()) / len(util) if util else 0.0

    def report(self, kind: str = "parallel",
               config: Optional[Dict[str, Any]] = None,
               run_id: Optional[str] = None) -> RunReport:
        """This pool run as a schema-v1 :class:`~repro.obs.RunReport`."""
        phases = {f"worker-{slot}": {
                      "count": self.worker_tasks.get(slot, 0),
                      "seconds": self.worker_busy.get(slot, 0.0)}
                  for slot in range(self.workers)}
        ops = [{"op": f"task-{task}", "pass": "run",
                "count": stat["attempts"], "seconds": stat["seconds"],
                "bytes": 0}
               for task, stat in sorted(self.task_stats.items(),
                                        key=lambda kv: str(kv[0]))]
        metrics = {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "tasks_completed": len(self.task_stats),
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "max_queue_depth": self.max_queue_depth,
            "utilization_mean": self.mean_utilization(),
            "busy_seconds_total": sum(self.worker_busy.values()),
            "blas_threads": blas_threads(),
        }
        return RunReport(
            run_id=run_id if run_id is not None else new_run_id(kind),
            kind=kind, config=dict(config or {}), phases=phases, ops=ops,
            metrics=metrics)
