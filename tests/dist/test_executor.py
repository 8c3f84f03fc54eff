"""ShardExecutor: inline == forked, crash replay, telemetry."""

import os
import signal

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig, Trainer
from repro.dist import GradSlots, ParamStore, ShardExecutor, ShardPlan, \
    WorkerContext
from repro.dist import worker as dist_worker
from repro.dist.worker import WorkerCrashError
from repro.parallel import fork_available
from repro.serve.shm import shm_available
from repro.tensor import blas_threads

pytestmark = pytest.mark.skipif(
    not (shm_available() and fork_available()),
    reason="needs shared_memory + fork")


def quick_config(**overrides):
    defaults = dict(window=6, epochs=1, max_train_days=8, seed=0,
                    dist_days_per_step=4)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def build_stack(dataset, workers, **overrides):
    cfg = quick_config(dist_workers=workers, **overrides)
    model = RTGCN(dataset.relations, strategy="uniform",
                  relational_filters=4, rng=np.random.default_rng(3))
    trainer = Trainer(model, dataset, cfg)
    store = ParamStore(model, trainer.optimizer)
    slots = GradSlots({name: p.data
                       for name, p in model.named_parameters()},
                      n_slots=workers)
    store.adopt_parent()
    store.commit(0)
    executor = ShardExecutor(
        WorkerContext(model=model, dataset=dataset, config=cfg,
                      loss_fn=trainer.loss_fn, store=store, slots=slots),
        workers=workers)
    return cfg, model, trainer, store, slots, executor


def teardown_stack(model, store, slots, executor):
    executor.shutdown()
    for _, param in model.named_parameters():
        param.data = np.array(param.data)
        param.grad = None
    store.close()
    slots.close()


def one_step(dataset, workers):
    cfg, model, trainer, store, slots, executor = build_stack(
        dataset, workers)
    try:
        days = trainer._training_days()[0][:4]
        plan = ShardPlan.for_days(days, cfg.dist_days_per_step)
        grads, losses = executor.run_step(0, 0, plan.steps[0])
        return grads, losses
    finally:
        teardown_stack(model, store, slots, executor)


class TestRunStep:
    def test_inline_and_forked_grads_bitwise_equal(self, nasdaq_mini):
        inline_grads, inline_losses = one_step(nasdaq_mini, workers=1)
        forked_grads, forked_losses = one_step(nasdaq_mini, workers=2)
        assert inline_losses == forked_losses
        assert len(inline_grads) == len(forked_grads)
        for a, b in zip(inline_grads, forked_grads):
            assert list(a) == list(b)
            for key in a:
                assert np.array_equal(a[key], b[key]), key

    def test_losses_keyed_by_shard_in_day_order(self, nasdaq_mini):
        _, losses = one_step(nasdaq_mini, workers=2)
        assert sorted(losses) == list(range(4))    # one shard per day
        for pairs in losses.values():
            assert all(np.isfinite(loss) for _, loss in pairs)

    def test_sigkill_replays_the_lost_shard(self, nasdaq_mini):
        cfg, model, trainer, store, slots, executor = build_stack(
            nasdaq_mini, workers=2)
        try:
            days = trainer._training_days()[0][:4]
            plan = ShardPlan.for_days(days, cfg.dist_days_per_step)
            clean_grads, clean_losses = executor.run_step(
                0, 0, plan.steps[0])
            os.kill(executor.handles[0].process.pid, signal.SIGKILL)
            with pytest.warns(RuntimeWarning, match="replaying"):
                replay_grads, replay_losses = executor.run_step(
                    0, 0, plan.steps[0])
            assert clean_losses == replay_losses
            for a, b in zip(clean_grads, replay_grads):
                for key in a:
                    assert np.array_equal(a[key], b[key]), key
            assert executor.telemetry.crashes >= 1
        finally:
            teardown_stack(model, store, slots, executor)

    def test_repeated_crashes_exhaust_attempts(self, nasdaq_mini):
        cfg, model, trainer, store, slots, executor = build_stack(
            nasdaq_mini, workers=2)
        executor.max_attempts = 1
        try:
            days = trainer._training_days()[0][:4]
            plan = ShardPlan.for_days(days, cfg.dist_days_per_step)
            os.kill(executor.handles[0].process.pid, signal.SIGKILL)
            os.kill(executor.handles[1].process.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                executor.run_step(0, 0, plan.steps[0])
        finally:
            teardown_stack(model, store, slots, executor)

    def test_worker_count_validated_against_slots(self, nasdaq_mini):
        cfg, model, trainer, store, slots, executor = build_stack(
            nasdaq_mini, workers=1)
        try:
            with pytest.raises(ValueError, match="grad"):
                ShardExecutor(executor.context, workers=2)
        finally:
            teardown_stack(model, store, slots, executor)

    def test_telemetry_reports_per_worker_utilization(self, nasdaq_mini):
        cfg, model, trainer, store, slots, executor = build_stack(
            nasdaq_mini, workers=2)
        try:
            days = trainer._training_days()[0][:4]
            plan = ShardPlan.for_days(days, cfg.dist_days_per_step)
            executor.run_step(0, 0, plan.steps[0])
            report = executor.telemetry.report(kind="dist")
            assert report.kind == "dist"
            assert report.metrics["tasks_completed"] == 4
            assert report.metrics["blas_threads"] == 1
            assert any(key.startswith("worker-")
                       for key in report.phases)
        finally:
            teardown_stack(model, store, slots, executor)

    def test_workers_run_one_blas_thread(self, nasdaq_mini, monkeypatch,
                                         unpinned_blas):
        """Each forked worker re-pins BLAS, whatever the parent runs."""
        monkeypatch.setattr(
            dist_worker, "compute_shard",
            lambda context, epoch, step, shard, grad_out:
                [(int(day), float(blas_threads())) for day in shard.days])
        assert blas_threads() == 2
        cfg, model, trainer, store, slots, executor = build_stack(
            nasdaq_mini, workers=2)
        try:
            days = trainer._training_days()[0][:4]
            plan = ShardPlan.for_days(days, cfg.dist_days_per_step)
            _, losses = executor.run_step(0, 0, plan.steps[0])
            assert sorted(losses) == list(range(4))
            assert {loss for pairs in losses.values()
                    for _, loss in pairs} == {1.0}
        finally:
            teardown_stack(model, store, slots, executor)
