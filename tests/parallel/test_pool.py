"""ExperimentPool: fan-out, fault tolerance, telemetry."""

import os
import time

import pytest

from repro.obs import validate_report
from repro.parallel import (ExperimentPool, TaskFailedError,
                            WorkerCrashError, fork_available,
                            resolve_workers)
from repro.tensor import blas_threads

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="needs the fork start method")


def square(task):
    return task * task


class TestBasics:
    def test_results_match_serial_map(self):
        tasks = list(range(7))
        pool = ExperimentPool(3, square)
        assert pool.run(tasks) == {t: t * t for t in tasks}

    def test_empty_task_list(self):
        assert ExperimentPool(2, square).run([]) == {}

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentPool(2, square).run([1, 1])

    def test_single_worker_works(self):
        pool = ExperimentPool(1, square)
        assert pool.run([2, 3]) == {2: 4, 3: 9}

    def test_closures_pass_via_fork(self):
        # The whole point of fork: task_fn may capture arbitrary
        # (unpicklable) state, e.g. a lambda over local data.
        data = {"offset": 100}
        pool = ExperimentPool(2, lambda t: t + data["offset"])
        assert pool.run([1, 2]) == {1: 101, 2: 102}

    def test_on_result_fires_once_per_task(self):
        seen = {}
        pool = ExperimentPool(2, square)
        pool.run([4, 5, 6], on_result=lambda t, p: seen.__setitem__(t, p))
        assert seen == {4: 16, 5: 25, 6: 36}

    def test_invalid_max_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ExperimentPool(2, square, max_attempts=0)

    def test_resolve_workers(self):
        assert resolve_workers(4, 2) == 2      # never more than tasks
        assert resolve_workers(2, 10) == 2
        assert resolve_workers(None, 3) <= 3   # default: per-CPU, clamped
        assert resolve_workers(0, 3) >= 1
        assert resolve_workers(8, 0) == 1      # degenerate: no tasks


class TestFaultTolerance:
    def test_worker_exception_fails_fast(self):
        def boom(task):
            raise ValueError(f"bad task {task}")

        pool = ExperimentPool(2, boom)
        with pytest.raises(TaskFailedError, match="bad task") as info:
            pool.run([0, 1])
        assert "ValueError" in info.value.worker_traceback

    def test_crashed_worker_retried_via_marker(self, tmp_path):
        # In-memory flags don't survive the respawned worker, so the
        # "crash only once" state lives in a marker file.
        marker = tmp_path / "crashed-once"

        def crash_once(task):
            if task == 1 and not marker.exists():
                marker.write_text("x")
                os._exit(17)           # simulates SIGKILL/OOM
            return task * 10

        pool = ExperimentPool(2, crash_once)
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = pool.run([0, 1, 2])
        assert results == {0: 0, 1: 10, 2: 20}
        assert pool.telemetry.crashes == 1
        assert pool.telemetry.retries == 1
        assert pool.telemetry.task_stats[1]["attempts"] == 2

    def test_crash_budget_exhausted(self):
        def always_crash(task):
            os._exit(23)

        pool = ExperimentPool(1, always_crash, max_attempts=2)
        with pytest.warns(RuntimeWarning, match="retrying"):
            with pytest.raises(WorkerCrashError, match="2 attempt"):
                pool.run([0])

    def test_hung_worker_killed_and_retried(self, tmp_path):
        marker = tmp_path / "hung-once"

        def hang_once(task):
            if task == 0 and not marker.exists():
                marker.write_text("x")
                time.sleep(60)
            return task + 1

        pool = ExperimentPool(1, hang_once, task_timeout=0.5)
        started = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="hung"):
            results = pool.run([0, 1])
        assert results == {0: 1, 1: 2}
        assert time.perf_counter() - started < 30   # not the full sleep
        assert pool.telemetry.timeouts == 1


class TestTelemetry:
    def test_report_is_schema_v1(self):
        pool = ExperimentPool(2, square)
        pool.run(list(range(5)))
        report = pool.telemetry.report(config={"what": "test"})
        validate_report(report.to_dict())   # raises on schema violations
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["metrics"]["tasks_completed"] == 5
        assert payload["metrics"]["workers"] == 2
        assert len(payload["ops"]) == 5
        assert set(payload["phases"]) == {"worker-0", "worker-1"}
        assert payload["metrics"]["blas_threads"] == 1

    def test_workers_run_one_blas_thread(self, unpinned_blas):
        assert blas_threads() == 2
        pool = ExperimentPool(2, lambda task: blas_threads())
        assert pool.run([0, 1, 2, 3]) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_worker_accounting_covers_all_tasks(self):
        pool = ExperimentPool(2, square)
        pool.run(list(range(6)))
        stats = pool.telemetry
        assert sum(stats.worker_tasks.values()) == 6
        assert stats.wall_seconds > 0
        assert set(stats.task_stats) == set(range(6))
