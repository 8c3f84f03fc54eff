"""The ``train`` and ``train-dist`` workloads: repeated RT-GCN (T) fits.

Both fit the paper's time-sensitive model on a 500-stock, 80-relation
NASDAQ-derived universe at paper sparsity (the universe
``benchmarks/bench_sparse_scale.py`` builds), with ``graph_mode="auto"``
and the float64 defaults.  ``train`` runs the serial loop;
``train-dist`` the same fit with ``dist_workers=2`` and
``dist_days_per_step=4``.

A run repeats one fixed-size fit (:data:`FIT_DAYS` days, one epoch)
from the same initial trainer state until ``--seconds`` have passed,
so every repetition does identical arithmetic:

- correctness: losses are finite and every repetition is bitwise equal
  (losses and final parameters); ``train-dist`` is also bitwise equal
  to an untimed ``dist_workers=1`` fit (the inline serial reference);
- with tracing, repetitions alternate untraced/traced, so the same run
  reports the tracing overhead.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np
from repro.core import RTGCN, Trainer, TrainConfig, TrainerCallback
from repro.core.losses import combined_loss
from repro.data import load_market
from repro.graph import adjacency_cache

import sweep
from common import (emit_result, host_facts, median, peak_rss_mb,
                    percentile, setup_done, setup_samples)
from layers import LayerClock, wrap_model
from perlayer import FORWARD_LAYERS, end_to_end, training_layers

#: the paper-sparsity universe of benchmarks/bench_sparse_scale.py
#: (60 industry + 20 wiki relation types = 80)
UNIVERSE = dict(num_stocks=500, num_industries=60, industry_pair_ratio=0.025,
                wiki_types=20, wiki_pair_ratio=0.003, train_days=32,
                test_days=8)
#: days in one repeated fit (four 4-day steps under repro.dist)
FIT_DAYS = 16
DIST_WORKERS = 2
DIST_DAYS_PER_STEP = 4
#: at least this many timed optimizer steps, so the median step time
#: has ten samples beyond it
MIN_STEPS = 20
#: fresh-process set-ups per run; setup_s is their median
SETUP_SAMPLES = 3

LAYERS = FORWARD_LAYERS + ("core.loss", "optim.step", "dist.run_step")


def dataset_seed(seed: int) -> int:
    return 1000 + int(seed)


def make_dataset(seed: int):
    return load_market("nasdaq", seed=dataset_seed(seed),
                       spec_overrides=dict(UNIVERSE))


def make_trainer(dataset, seed: int, dist_workers: int) -> Trainer:
    config = TrainConfig(epochs=1, max_train_days=FIT_DAYS, seed=int(seed),
                         dist_workers=dist_workers,
                         dist_days_per_step=DIST_DAYS_PER_STEP)
    model = RTGCN(dataset.relations, num_features=config.num_features,
                  strategy="time", rng=np.random.default_rng(int(seed)))
    return Trainer(model, dataset, config)


def params_digest(model) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class StepClock(TrainerCallback):
    """Wall time of each optimizer step, from the epoch start.

    Under ``repro.dist`` the ``on_batch_end`` events of one step fire
    together after it, so the first event of each step marks its end.
    The epoch starts after the dist workers are forked, so the steps
    exclude that per-fit cost (the fit wall includes it).  With a
    ``clock``, the dist executor's ``run_step`` is timed too.
    """

    def __init__(self, days_per_step: int,
                 clock: Optional[LayerClock] = None):
        self.days_per_step = days_per_step
        self.clock = clock
        self.steps: List[float] = []
        self.days = 0
        self.executor = None
        self._last = 0.0

    def on_epoch_start(self, trainer, epoch) -> None:
        executor = trainer.dist_executor
        if executor is not None:
            self.executor = executor
            if self.clock is not None:
                self.clock.wrap(executor, "run_step", "dist.run_step")
        self._last = time.perf_counter()

    def on_batch_end(self, trainer, epoch, day, loss) -> None:
        if self.days % self.days_per_step == 0:
            now = time.perf_counter()
            self.steps.append(now - self._last)
            self._last = now
        self.days += 1


def _traced_loss(clock: LayerClock, config):
    """``combined_loss`` with the trainer's own arguments, timed."""
    def loss_fn(scores, labels, parameters):
        return combined_loss(scores, labels, config.alpha,
                             parameters=parameters,
                             weight_decay=config.weight_decay)

    return clock.timed("core.loss", loss_fn)


def fit_once(trainer, initial, days_per_step: int,
             clock: Optional[LayerClock] = None) -> Dict[str, object]:
    """One fit from ``initial``; wrappers installed only when traced."""
    trainer.load_state_dict(initial)
    steps = StepClock(days_per_step, clock)
    cache_before = dict(adjacency_cache().stats())
    if clock is not None:
        clock.reset()
        wrap_model(clock, trainer.model, trainer.dataset)
        clock.wrap(trainer.optimizer, "step", "optim.step")
        trainer.loss_fn = _traced_loss(clock, trainer.config)
    try:
        started = time.perf_counter()
        losses = trainer.fit(callbacks=[steps])
        wall = time.perf_counter() - started
    finally:
        if clock is not None:
            clock.unwrap_all()
            trainer.loss_fn = None
    cache_after = adjacency_cache().stats()
    rep = {"wall": wall, "steps": steps.steps, "losses": list(losses),
           "days": steps.days, "digest": params_digest(trainer.model),
           "cache": {key: cache_after[key] - cache_before[key]
                     for key in ("hits", "misses")}}
    if clock is not None:
        rep["layers"] = clock.snapshot()
    if steps.executor is not None:
        telemetry = steps.executor.telemetry
        rep["dist"] = telemetry.report(kind="dist").metrics
        rep["worker_busy"] = sum(telemetry.worker_busy.values())
    return rep


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup(seed: int, dist: bool):
    """Everything before the first timed step: data, model, and one
    warm-up step (the first step pays one-off costs)."""
    dataset = make_dataset(seed)
    days_per_step = DIST_DAYS_PER_STEP if dist else 1
    trainer = make_trainer(dataset, seed, DIST_WORKERS if dist else 0)
    initial = trainer.state_dict()
    trainer.config = replace(trainer.config, max_train_days=days_per_step)
    trainer.fit()
    trainer.config = replace(trainer.config, max_train_days=FIT_DAYS)
    return trainer, initial


def probe_setup(seed: int, dist: bool) -> None:
    """Child-process body of one set-up sample: set up, report, exit."""
    setup(seed, dist)
    setup_done()


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    dist = workload == "train-dist"
    days_per_step = DIST_DAYS_PER_STEP if dist else 1
    setups = setup_samples(workload, seed, SETUP_SAMPLES)
    trainer, initial = setup(seed, dist)
    # one untimed warm-up fit: the first fit of a process runs slower
    # (allocator growth), which would skew the overhead comparison
    fit_once(trainer, initial, days_per_step)
    clock = LayerClock(LAYERS) if trace else None

    reps: List[Dict[str, object]] = []
    traced_reps: List[Dict[str, object]] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and (len(reps) + len(traced_reps)) % 2 == 1
        rep = fit_once(trainer, initial, days_per_step,
                       clock if traced else None)
        (traced_reps if traced else reps).append(rep)
        n_steps = sum(len(r["steps"]) for r in reps)
        if (time.perf_counter() >= deadline and n_steps >= MIN_STEPS
                and len(reps) >= 2 and (not trace or traced_reps)):
            break
    timed = reps + traced_reps

    # correctness
    failures = []
    reference = timed[0]
    for rep in timed:
        if not all(np.isfinite(rep["losses"])):
            failures.append("non-finite loss")
        if (rep["losses"] != reference["losses"]
                or rep["digest"] != reference["digest"]):
            failures.append("repetitions differ")
    if dist:
        inline_trainer = make_trainer(trainer.dataset, seed, 1)
        inline = fit_once(inline_trainer, inline_trainer.state_dict(),
                          days_per_step)
        if (inline["losses"] != reference["losses"]
                or inline["digest"] != reference["digest"]):
            failures.append("dist_workers=2 differs from dist_workers=1")
    attempted = sum(r["days"] for r in timed)
    failed = attempted if failures else 0
    sweeps: List[Dict[str, object]] = []
    if dist and trace:
        # the run-level pool's rows (the sweep workload is not in
        # BENCHMARK.json), after and apart from the timed fits
        sweeps = sweep.run_sweeps(seed, 0.0, sweep.PROBE_SWEEPS
                                  * sweep.N_RUNS)
        found = sweep.failures(sweeps)
        failures.extend(found)
        attempted += sweep.N_RUNS * len(sweeps)
        failed += sweep.N_RUNS * len(sweeps) if found else 0

    step_ms = [s * 1e3 for r in reps for s in r["steps"]]
    if not trace:
        # days per second of step time: a fit's start-up (forking the
        # dist workers, mapping shared memory) is paid once per fit, not
        # per step, so it stays out of the rate
        metrics = end_to_end(
            median(setups),
            median([r["days"] / sum(r["steps"]) for r in reps]),
            percentile(step_ms, 50), peak_rss_mb())
    else:
        metrics = training_layers(reps, traced_reps, dist,
                                  sweep.layer_values(sweeps) if sweeps
                                  else {})
    emit_result(not failures, attempted, failed, metrics, host_facts(),
                notes={"workload": workload,
                       "fit_walls_s": [r["wall"] for r in timed],
                       "fit_days": FIT_DAYS, "steps_timed": len(step_ms),
                       "setup_samples_s": setups,
                       "sweep_walls_s": [s["wall"] for s in sweeps],
                       "failures": failures})
