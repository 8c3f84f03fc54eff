"""The metric sets (``--trace 0`` and ``--trace 1``) and training rows.

Every traced run prints every metric below.  A layer that the workload
does not reach reads 0 (for example ``dist.run_step_ms`` on ``train``):
that is the measured value, and it is the "no change" row of the
prediction table in ``perfbench/README.md``.

Training timings are milliseconds per optimizer day, so the parts add
up: on ``train`` the step wall is features + strategy + graph conv +
temporal conv + loss + Adam + ``tensor.backward_ms`` (the remainder:
backward, grad clipping, and the un-timed rest of the forward).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import median

#: (name, unit) of every per-layer metric, in print order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("data.features_ms", "ms"),
    ("graph.strategy_ms", "ms"),
    ("nn.graph_conv_ms", "ms"),
    ("core.temporal_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("graph.adjacency_cache_hit_ratio", "ratio"),
    ("dist.run_step_ms", "ms"),
    ("dist.parent_other_ms", "ms"),
    ("dist.worker_util", "ratio"),
    ("dist.respawns", "count"),
    ("parallel.run_s", "s"),
    ("parallel.worker_util", "ratio"),
    ("parallel.retries", "count"),
    ("store.rows_written", "count"),
    ("store.dedup_hits", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_depth_p99", "count"),
    ("serve.shed", "count"),
    ("serve.read_p90_ms", "ms"),
    ("serve.knee_read_rps", "1/s"),
    ("serve.ingest_p50_ms", "ms"),
    ("serve.ingest_p90_ms", "ms"),
    ("graph.ingest_tick_ms", "ms"),
    ("graph.touched_rows", "count"),
    ("loadgen.send_lag_p90_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("trace.overhead_pct", "%"),
)

#: (name, unit) of every end-to-end metric (``--trace 0``)
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: forward-path layers timed by instance wrappers
FORWARD_LAYERS = ("data.features", "graph.strategy", "nn.graph_conv",
                  "core.temporal")


def end_to_end(setup_s: float, ops_per_s: float, op_p50_ms: float,
               peak_rss_mb: float) -> Dict[str, tuple]:
    """The end-to-end metrics as ``name -> (value, unit)``."""
    values = (setup_s, ops_per_s, op_p50_ms, peak_rss_mb)
    if any(value is None for value in values):
        raise ValueError("an end-to-end metric has too few samples")
    return {name: (float(value), unit)
            for (name, unit), value in zip(END_TO_END, values)}


def complete(values: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``; absent = 0."""
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"not a per-layer metric: {sorted(unknown)}")
    missing = sorted(name for name, value in values.items() if value is None)
    if missing:
        raise ValueError(f"too few samples for {missing}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    """Tracing overhead: traced minus untraced median cost, in percent."""
    base = median(untraced)
    return (median(traced) - base) / base * 100.0


def training_layers(reps: List[dict], traced_reps: List[dict],
                    dist: bool, extra: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer rows of a traced ``train``/``train-dist`` run, plus
    ``extra`` rows measured beside the fits."""
    days = sum(r["days"] for r in traced_reps)
    busy: Dict[str, float] = {}
    for rep in traced_reps:
        for name, (seconds, _) in rep["layers"].items():
            busy[name] = busy.get(name, 0.0) + seconds

    def per_day_ms(seconds: float) -> float:
        return seconds * 1e3 / days

    values = {f"{name}_ms": per_day_ms(busy.get(name, 0.0))
              for name in FORWARD_LAYERS + ("core.loss", "optim.step")}
    step_wall = sum(sum(r["steps"]) for r in traced_reps)
    worker_side = sum(busy.get(name, 0.0)
                      for name in FORWARD_LAYERS + ("core.loss",))
    if dist:
        worker_busy = sum(r["worker_busy"] for r in traced_reps)
        run_step = busy.get("dist.run_step", 0.0)
        values["tensor.backward_ms"] = per_day_ms(worker_busy - worker_side)
        values["dist.run_step_ms"] = per_day_ms(run_step)
        values["dist.parent_other_ms"] = per_day_ms(
            step_wall - run_step - busy.get("optim.step", 0.0))
        values["dist.worker_util"] = median(
            [r["dist"]["utilization_mean"] for r in traced_reps])
        values["dist.respawns"] = sum(r["dist"]["crashes"]
                                      for r in traced_reps)
    else:
        values["tensor.backward_ms"] = per_day_ms(
            step_wall - worker_side - busy.get("optim.step", 0.0))
    hits = sum(r["cache"]["hits"] for r in traced_reps)
    lookups = hits + sum(r["cache"]["misses"] for r in traced_reps)
    values["graph.adjacency_cache_hit_ratio"] = (hits / lookups
                                                 if lookups else 0.0)
    values["trace.overhead_pct"] = overhead_pct(
        [sum(r["steps"]) / r["days"] for r in reps],
        [sum(r["steps"]) / r["days"] for r in traced_reps])
    values.update(extra)
    return complete(values)
