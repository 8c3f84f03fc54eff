"""Intra-run data-parallel scaling: 1/2/4 dist workers on one fit.

Runs the *same* ``Trainer.fit`` (RT-GCN on a mini market preset) with
``TrainConfig.dist_workers`` at 1, 2, and 4 — plus the plain serial
trainer (``dist_workers=0``) to price the dist loop's overhead — and
reports, per worker count:

- wall clock over :data:`REPEATS` fits (median and quartiles; the
  repeats are interleaved across worker counts so host drift hits every
  count alike) and the speedup of the medians over the 1-worker
  (inline) dist run — the acceptance floor is **1.6×** at 2 workers,
  enforced only when the host has ≥2 CPU cores; on a single core the
  forked workers can only time-slice and the honest speedup is ~1×,
  which the artifact records rather than hides,
- bitwise equality of the epoch losses AND the final ``state_dict()``
  against the 1-worker run (a parallel fit that returned *different
  numbers* would be worthless however fast — docs/distributed.md),
- per-worker executor telemetry (utilization, crash/replay counts) and
  the BLAS thread count every process ran at (one, by the numerics
  policy of :mod:`repro.tensor.blas`).

Artifacts land in ``results/dist_scale.{txt,json}`` (schema-v1
envelope); set ``RTGCN_BENCH_STORE`` to tee them into the experiment
store.  Scale knobs: ``RTGCN_BENCH_EPOCHS``, ``RTGCN_BENCH_DIST_DAYS``
(training days), ``RTGCN_BENCH_DIST_DPS`` (days per optimizer step).

Run directly: ``PYTHONPATH=src python benchmarks/bench_dist_scale.py``
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import RTGCN, TrainConfig, Trainer
from repro.core.callbacks import TrainerCallback
from repro.parallel import fork_available
from repro.serve.shm import shm_available
from repro.tensor import blas_threads

from _harness import (BENCH_EPOCHS, BENCH_MARKETS, BENCH_SEED,
                      bench_dataset, format_table, publish, publish_result)

MARKET = BENCH_MARKETS[0]
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR_2W = 1.6
#: timed fits per worker count; speedups and the floor use the medians
REPEATS = 5
DIST_DAYS = int(os.environ.get("RTGCN_BENCH_DIST_DAYS", "24"))
DAYS_PER_STEP = int(os.environ.get("RTGCN_BENCH_DIST_DPS", "4"))


class _TelemetryCapture(TrainerCallback):
    """Snapshot the executor telemetry while the workers are still up."""

    def __init__(self):
        self.report = None

    def on_epoch_end(self, trainer, epoch, mean_loss):
        if getattr(trainer, "dist_executor", None) is not None:
            self.report = trainer.dist_executor.telemetry.report(
                kind="dist")


def fit_once(workers: int):
    """One fit at ``dist_workers=workers``; returns everything measured."""
    cfg = TrainConfig(window=6, epochs=BENCH_EPOCHS, seed=BENCH_SEED,
                      max_train_days=DIST_DAYS, dist_workers=workers,
                      dist_days_per_step=DAYS_PER_STEP)
    dataset = bench_dataset(MARKET)
    model = RTGCN(dataset.relations, strategy="uniform",
                  rng=np.random.default_rng(BENCH_SEED))
    capture = _TelemetryCapture()
    started = time.perf_counter()
    losses = Trainer(model, dataset, cfg).fit(callbacks=[capture])
    seconds = time.perf_counter() - started
    return {"losses": losses, "state": model.state_dict(),
            "seconds": seconds, "telemetry": capture.report}


def states_equal(a, b) -> bool:
    return (list(a) == list(b)
            and all(np.array_equal(a[key], b[key]) for key in a))


def quartiles(samples):
    """``(q1, median, q3)`` of a list of wall-clock samples."""
    return tuple(float(q) for q in np.percentile(samples, (25, 50, 75)))


def main() -> None:
    if not (shm_available() and fork_available()):
        raise SystemExit("bench_dist_scale needs multiprocessing."
                         "shared_memory and the fork start method")

    counts = (0,) + WORKER_COUNTS          # 0 = the plain serial trainer
    runs = {workers: [] for workers in counts}
    for repeat in range(REPEATS):
        for workers in counts:
            run = fit_once(workers)
            runs[workers].append(run)
            print(f"repeat {repeat + 1}/{REPEATS}, dist_workers="
                  f"{workers}: {run['seconds']:.2f}s")
    reference = runs[1][0]
    walls = {workers: quartiles([run["seconds"] for run in runs[workers]])
             for workers in counts}

    def spread(workers) -> str:
        q1, med, q3 = walls[workers]
        return f"{med:.2f} [{q1:.2f}, {q3:.2f}]"

    rows = [["serial (0)", spread(0), "-", "-", "-", "-"]]
    entries = []
    for workers in WORKER_COUNTS:
        last = runs[workers][-1]
        speedup = (walls[1][1] / walls[workers][1]
                   if walls[workers][1] > 0 else float("nan"))
        losses_equal = all(run["losses"] == reference["losses"]
                           for run in runs[workers])
        params_equal = all(states_equal(run["state"], reference["state"])
                           for run in runs[workers])
        telemetry = last["telemetry"].metrics if last["telemetry"] else {}
        util = telemetry.get("utilization_mean")
        rows.append([f"{workers}", spread(workers), f"{speedup:.2f}x",
                     "yes" if losses_equal and params_equal else "NO",
                     f"{util:.0%}" if util is not None else "-",
                     sum(run["telemetry"].metrics.get("crashes", 0)
                         for run in runs[workers] if run["telemetry"])])
        entries.append({
            "workers": workers,
            "wall_seconds": walls[workers][1],
            "wall_seconds_q1": walls[workers][0],
            "wall_seconds_q3": walls[workers][2],
            "wall_seconds_samples": [run["seconds"]
                                     for run in runs[workers]],
            "speedup_vs_one_worker": speedup,
            "losses_equal_reference": losses_equal,
            "params_equal_reference": params_equal,
            "epoch_losses": last["losses"],
            "telemetry": last["telemetry"].to_dict()
                         if last["telemetry"] else None,
        })
        if not (losses_equal and params_equal):
            raise SystemExit(
                f"dist fit at {workers} workers diverged from the "
                "1-worker reference — the determinism contract is broken")

    cores = os.cpu_count() or 1
    threads = blas_threads()
    floor_applies = cores >= 2
    speedup_2w = entries[1]["speedup_vs_one_worker"]
    overhead = (walls[1][1] / walls[0][1]
                if walls[0][1] > 0 else float("nan"))
    floor_note = (f"acceptance floor: {SPEEDUP_FLOOR_2W}x"
                  if floor_applies else
                  f"floor {SPEEDUP_FLOOR_2W}x not enforced: host has "
                  f"{cores} CPU core, workers can only time-slice")
    table = format_table(
        f"Dist fit scaling — RT-GCN × {MARKET}, {BENCH_EPOCHS} epochs, "
        f"{DIST_DAYS} days, {DAYS_PER_STEP} days/step, {cores} CPU "
        f"core(s), {threads} BLAS thread(s), median [q1, q3] of "
        f"{REPEATS} fits",
        ["dist workers", "wall s", "speedup", "== 1-worker", "util",
         "crashes"],
        rows,
        note=(f"2-worker speedup of the medians: {speedup_2w:.2f}x "
              f"({floor_note}); dist-loop overhead vs plain serial "
              f"trainer: {overhead:.2f}x wall (different schedule: "
              f"{DAYS_PER_STEP} days/step vs 1)"))
    publish("dist_scale", table)
    publish_result("dist_scale", {
        "market": MARKET,
        "train_days": DIST_DAYS,
        "days_per_step": DAYS_PER_STEP,
        "cpu_cores": cores,
        "repeats": REPEATS,
        "speedup_floor_2_workers": SPEEDUP_FLOOR_2W,
        "speedup_floor_enforced": floor_applies,
        "serial_trainer_wall_seconds": walls[0][1],
        "scaling": entries,
    })
    print("JSON artifact: benchmarks/results/dist_scale.json")
    if floor_applies and speedup_2w < SPEEDUP_FLOOR_2W:
        raise SystemExit(
            f"2-worker speedup {speedup_2w:.2f}x is below the "
            f"{SPEEDUP_FLOOR_2W}x acceptance floor")


if __name__ == "__main__":
    main()
