"""The ``sweep`` workload: the run-level pool behind the 15-run protocol.

Each repetition is one call of
``repro.parallel.run_experiments_parallel(["RT-GCN (T)"],
["nasdaq-mini"], n_runs=4, workers=2)`` writing through a fresh
experiment store, as ``repro.cli sweep --store`` does.  Runs are kept
short (one epoch of :data:`RUN_DAYS` days) so a run repeats whole
sweeps.

With unpinned BLAS the two workers' runs are bimodal (fast or about
three times slower, a state that holds for a whole run), so the
workload's end-to-end figures are too unsteady to carry a bound and it
is not in ``BENCHMARK.json``.  Its per-layer rows are measured on the
traced ``train-dist`` run, which ends with :data:`PROBE_SWEEPS` sweeps.

Correctness: every sweep executes all four runs (nothing restored from
the store, so ``store.dedup_hits`` reads 0) and the per-run metrics are
bitwise equal across repetitions.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core import TrainConfig
from repro.data import load_market
from repro.parallel import run_experiments_parallel
from repro.store import ExperimentStore

from common import (emit_result, host_facts, median, peak_rss_mb,
                    percentile, remove_work_dir, setup_done, setup_samples,
                    work_dir)
from perlayer import complete, end_to_end

MODEL = "RT-GCN (T)"
MARKET = "nasdaq-mini"
N_RUNS = 4
WORKERS = 2
#: optimizer days per run (one epoch over the last RUN_DAYS train days)
RUN_DAYS = 4
#: at least this many runs, so the median run time has ten beyond it
MIN_RUNS = 20
#: sweeps at the end of a traced train-dist run
PROBE_SWEEPS = 2
SETUP_SAMPLES = 3


def config(seed: int):
    return TrainConfig(epochs=1, max_train_days=RUN_DAYS, seed=int(seed))


def days_per_sweep(seed: int) -> int:
    cfg = config(seed)
    train_days, _ = load_market(MARKET, seed=seed).split(cfg.window)
    return N_RUNS * cfg.epochs * min(cfg.max_train_days, len(train_days))


def one_sweep(seed: int, store_path) -> Dict[str, object]:
    started = time.perf_counter()
    result = run_experiments_parallel(
        [MODEL], [MARKET], config=config(seed), n_runs=N_RUNS,
        base_seed=seed, dataset_seed=seed, workers=WORKERS,
        store=str(store_path))
    wall = time.perf_counter() - started
    store = ExperimentStore(store_path)
    try:
        rows = store.execute("SELECT COUNT(*) FROM runs")[0][0]
    finally:
        store.close()
    experiment = result.results[(MODEL, MARKET)]
    metrics = (result.telemetry or {}).get("metrics", {})
    return {"wall": wall, "executed": result.executed,
            "restored": result.restored, "runs": experiment.runs,
            "run_seconds": [t + s for t, s in zip(experiment.train_seconds,
                                                  experiment.test_seconds)],
            "rows": int(rows), "pool": metrics}


def probe_setup(seed: int) -> None:
    """Set-up sample body: the imports, the fresh store and the market
    load a sweep needs before its first run starts."""
    scratch = work_dir("sweep-setup")
    try:
        ExperimentStore(scratch / "experiments.sqlite").close()
        load_market(MARKET, seed=seed)
    finally:
        remove_work_dir(scratch)
    setup_done()


def run_sweeps(seed: int, seconds: float,
               min_runs: int = MIN_RUNS) -> List[Dict[str, object]]:
    """Whole sweeps, each through a fresh store, until ``seconds`` have
    passed and at least ``min_runs`` runs have finished."""
    scratch = work_dir("sweep")
    sweeps: List[Dict[str, object]] = []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            sweeps.append(one_sweep(seed, scratch / f"s{len(sweeps)}.sqlite"))
            n_runs = sum(len(s["run_seconds"]) for s in sweeps)
            if time.perf_counter() >= deadline and n_runs >= min_runs:
                return sweeps
    finally:
        remove_work_dir(scratch)


def failures(sweeps: List[Dict[str, object]]) -> List[str]:
    """Why the sweeps are wrong: a run restored or missing, or per-run
    metrics that differ between repetitions."""
    found = []
    for sweep in sweeps:
        if sweep["executed"] != N_RUNS or sweep["restored"] != 0:
            found.append(f"executed {sweep['executed']}, restored "
                         f"{sweep['restored']}")
        if sweep["runs"] != sweeps[0]["runs"]:
            found.append("per-run metrics differ between sweeps")
        if sweep["rows"] != N_RUNS:
            found.append(f"store holds {sweep['rows']} runs")
    return found


def layer_values(sweeps: List[Dict[str, object]]) -> Dict[str, float]:
    """The ``parallel.*`` and ``store.*`` rows: the pool's telemetry and
    the store, read after each sweep (nothing is wrapped)."""
    return {
        "parallel.run_s": median([s for sweep in sweeps
                                  for s in sweep["run_seconds"]]),
        "parallel.worker_util": median(
            [s["pool"].get("utilization_mean", 0.0) for s in sweeps]),
        "parallel.retries": sum(s["pool"].get("retries", 0)
                                for s in sweeps),
        "store.rows_written": median([s["rows"] for s in sweeps]),
        "store.dedup_hits": sum(s["restored"] for s in sweeps),
    }


def run(seed: int, seconds: float, trace: bool) -> None:
    setups = setup_samples("sweep", seed, SETUP_SAMPLES)
    days = days_per_sweep(seed)
    sweeps = run_sweeps(seed, seconds)
    found = failures(sweeps)
    attempted = N_RUNS * len(sweeps)
    failed = attempted if found else 0

    run_ms = [s * 1e3 for sweep in sweeps for s in sweep["run_seconds"]]
    if not trace:
        metrics = end_to_end(
            median(setups),
            days * len(sweeps) / sum(s["wall"] for s in sweeps),
            percentile(run_ms, 50), peak_rss_mb())
    else:
        # nothing is wrapped inside the timed region, so
        # trace.overhead_pct reads 0
        metrics = complete(layer_values(sweeps))
    emit_result(not found, attempted, failed, metrics, host_facts(),
                notes={"workload": "sweep",
                       "sweep_walls_s": [s["wall"] for s in sweeps],
                       "run_walls_s": [s["run_seconds"] for s in sweeps],
                       "days_per_sweep": days, "setup_samples_s": setups,
                       "failures": found})
