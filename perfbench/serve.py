"""The ``serve`` workload: open-loop reads and ingest ticks over HTTP.

A cluster-mode server (``repro.cli serve --mode cluster
--cluster-workers 2``) runs in its own process, started the way users
start it, and serves an RT-GCN (T) checkpoint of the full ``csi``
preset (242 stocks, 1474 days).  The generator is one single-threaded
asyncio process with at most ``nproc`` keep-alive connections
(:mod:`httpload`).  The server is booted :data:`BOOTS` times; each
boot is a set-up sample and serves a share of two phases, timed apart
so neither latency depends on a read/write share:

- reads: open loop, one read every ``1 / NOMINAL_READ_RPS`` seconds
  for a share of ``--seconds`` (at least :data:`MIN_READS` in all, so
  p90 has ten samples beyond it), mixing ``top_k`` at the latest day
  (work every client shares) with ``scores``/``top_k`` at uniformly
  drawn past days (one forward each).  The read p50 is ``op_p50_ms``;
- ticks: ``TICKS / BOOTS`` days of a seeded ``StreamingMarket``
  scenario sized to the universe, POSTed to ``/v1/ingest`` in day
  order, each as soon as the previous one is answered, the way
  ``repro.cli stream`` replays a scenario.  Ticks per second of that
  replay is ``ops_per_s``;
- traced runs only, on the last boot: a rate ladder of reads that
  climbs until the p75 read latency of a rung breaks
  :data:`READ_LIMIT_MS` or the backlog grows; its interpolated knee is
  ``serve.knee_read_rps``.  With unpinned BLAS it swings between a fast
  and a slow state of the forked workers, too unsteady to carry a
  regression bound.

Correctness: every response is 2xx, no ingest falls back, every
ranking is a permutation, and for sampled past days the served
``scores`` are bitwise equal to an in-process forward of the same
checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.ckpt import CheckpointCallback
from repro.core import RTGCN, Trainer, TrainConfig
from repro.data import StreamingMarket, get_scenario, load_market
from repro.graph import adjacency_cache
from repro.serve.registry import build_servable
from repro.tensor import Tensor, inference_mode

from common import (descendants, emit_result, host_facts, median,
                    peak_rss_mb, percentile, program_env, remove_work_dir,
                    vm_hwm_mb, work_dir)
from httpload import Request, Response, run_schedule, run_sequence
from layers import LayerClock, wrap_model
from perlayer import FORWARD_LAYERS, complete, end_to_end, overhead_pct

MODEL = "RT-GCN (T)"
MARKET = "csi"
CLUSTER_WORKERS = 2
#: days the checkpoint is trained on (the benchmark serves, not trains)
CHECKPOINT_DAYS = 4
#: reads per second in the read phase (a rung of bench_serving's
#: open-loop ladder)
NOMINAL_READ_RPS = 10.0
MIN_READS = 100
#: scenario days replayed in the tick phase (p90 has ten beyond it)
TICKS = 300
#: share of reads asking for the latest day's top-k (shared work)
LATEST_SHARE = 0.2
#: the read latency limit of each ladder rung's p75 (the server's
#: default ingest tick budget, ServeConfig.tick_budget_ms)
LADDER_PCT = 75.0
READ_LIMIT_MS = 250.0
#: ladder rates NOMINAL_READ_RPS * GRID_STEP ** k, climbed COARSE grid
#: points at a time while far below the limit; each rung lasts
#: LADDER_RUNG_S
GRID_STEP = 1.12
COARSE = 3
LADDER_RUNG_S = 3.5
LADDER_MIN_READS = 45          # p75 needs 40 for ten samples beyond it
MAX_RUNGS = 16
#: backlog (requests waiting for a connection) that marks overload
BACKLOG_LIMIT = 16
#: past days whose served scores are checked against a local forward
CHECKED_DAYS = 16
#: server boots per run: each is a set-up sample and serves a share of
#: the reads and ticks
BOOTS = 3

_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")


def dataset_seed(seed: int) -> int:
    return 2000 + int(seed)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_checkpoint(seed: int, directory) -> Tuple[object, str]:
    """Train the served checkpoint; returns (dataset, archive path)."""
    ds_seed = dataset_seed(seed)
    dataset = load_market(MARKET, seed=ds_seed)
    config = TrainConfig(epochs=1, max_train_days=CHECKPOINT_DAYS,
                         seed=ds_seed)
    model = RTGCN(dataset.relations, num_features=config.num_features,
                  strategy="time", rng=np.random.default_rng(ds_seed))
    Trainer(model, dataset, config).fit(callbacks=[CheckpointCallback(
        directory, metadata={"model": MODEL, "market": MARKET})])
    archives = sorted(directory.glob("*.npz"))
    if not archives:
        raise RuntimeError("training wrote no checkpoint")
    return dataset, str(archives[-1])


def draw_read(rng: np.random.Generator, first_day: int, last_day: int,
              at: float = 0.0) -> Request:
    """One read of the mix: latest-day top-k, or a past day's scores or
    top-k."""
    draw = rng.random()
    if draw < LATEST_SHARE:
        path = "/v1/top_k?k=10"
    else:
        day = int(rng.integers(first_day, last_day))
        path = (f"/v1/scores?day={day}"
                if draw < (1.0 + LATEST_SHARE) / 2.0
                else f"/v1/top_k?day={day}&k=10")
    return Request(at=at, method="GET", path=path, kind="read")


def read_schedule(rng: np.random.Generator, rate: float, duration: float,
                  first_day: int, last_day: int,
                  min_count: int = 0) -> List[Request]:
    """``max(min_count, rate * duration)`` reads, one every ``1 / rate``
    seconds, as bench_serving's open-loop steps send them; the seed
    draws only what each read asks for."""
    count = max(min_count, round(rate * duration))
    return [draw_read(rng, first_day, last_day, (i + 0.5) / rate)
            for i in range(count)]


def tick_requests(ticks: List[bytes]) -> List[Request]:
    return [Request(at=0.0, method="POST", path="/v1/ingest", kind="ingest",
                    body=body) for body in ticks]


def scenario_ticks(seed: int, num_stocks: int, days: int) -> List[bytes]:
    market = StreamingMarket(get_scenario(
        "default", num_stocks=num_stocks, num_days=days,
        seed=dataset_seed(seed)))
    return [json.dumps(events.to_payload()).encode("utf-8")
            for events in market.replay()]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``repro.cli serve`` in its own process, stopped with SIGINT."""

    def __init__(self, checkpoint_dir):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--checkpoint-dir", str(checkpoint_dir), "--mode", "cluster",
             "--cluster-workers", str(CLUSTER_WORKERS), "--port", "0"],
            env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: List[str] = []
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()
        self.host, self.port = self._address()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def _address(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for line in list(self.lines):
                match = _ADDRESS.search(line)
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start: " + "".join(self.lines))

    def first_ranking(self, timeout: float = 60.0) -> float:
        """Seconds from process start until ``/v1/top_k`` answers 200."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            report = run_schedule(self.host, self.port, [Request(
                0.0, "GET", "/v1/top_k?k=10", "read")], 1, timeout=10.0)
            if report.responses[0].status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.02)
        raise RuntimeError("server never served a ranking")

    def get(self, path: str) -> dict:
        report = run_schedule(self.host, self.port,
                              [Request(0.0, "GET", path, "meta")], 1)
        response = report.responses[0]
        if response.status != 200:
            raise RuntimeError(f"GET {path} failed: {response.error}")
        return response.payload

    def pids(self) -> List[int]:
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._drain.join(timeout=5)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check(response: Response, symbols: set) -> Optional[str]:
    """Why ``response`` failed, or None."""
    if response.error is not None:
        return response.error
    if not 200 <= response.status < 300:
        return f"HTTP {response.status}"
    payload = response.payload or {}
    if response.request.kind == "ingest":
        if payload.get("fallback"):
            return "ingest fell back to the previous ranking"
        names = [row["symbol"] for row in payload.get("ranking") or ()]
        if not names or len(set(names)) != len(names):
            return "ingest ranking is not a permutation prefix"
        return None
    if "scores" in payload:
        if set(payload["scores"]) != symbols:
            return "scores do not cover the universe"
        return None
    rows = payload.get("top_k") or []
    ranks = [row["rank"] for row in rows]
    names = [row["symbol"] for row in rows]
    scores = [row["score"] for row in rows]
    if (ranks != list(range(1, len(rows) + 1)) or not rows
            or len(set(names)) != len(names) or not set(names) <= symbols
            or any(a < b for a, b in zip(scores, scores[1:]))):
        return "top_k is not a ranking permutation"
    return None


def local_forward(servable, day: int) -> np.ndarray:
    features = servable.dataset.features(day, servable.window,
                                         servable.num_features)
    with inference_mode():
        out = servable.model(Tensor(features))
    return np.asarray(out.data, dtype=float).reshape(-1)


def scores_match(servable, served: Dict[int, dict]) -> List[str]:
    symbols = servable.dataset.universe.symbols
    failures = []
    for day, payload in sorted(served.items()):
        local = local_forward(servable, day)
        remote = np.array([payload["scores"][s] for s in symbols])
        if not np.array_equal(local, remote):
            failures.append(f"served scores differ on day {day}")
    return failures


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def latencies_ms(responses: List[Response], kind: str) -> List[float]:
    return [r.latency * 1e3 for r in responses if r.request.kind == kind]


def ladder(server: Server, rng, first_day, last_day, n_connections: int,
           read_tail: float) -> Tuple[float, List[dict], List[Response]]:
    """Find the knee: the read rate where the rung tail crosses the limit.

    Rates sit on a fixed grid ``NOMINAL_READ_RPS * GRID_STEP ** k``
    (``k = 0`` is the read phase).  The climb skips COARSE grid
    points while the tail is under half the limit, then walks single
    points; after a coarse step fails it backs off and walks single
    points from the last pass.  A failing rung is run once more and
    counts as failed only if both runs fail, so one transient stall
    does not end the climb.  The knee is interpolated (log latency,
    geometric rate) between the last passing and the first failing
    neighbouring grid points.
    """
    responses: List[Response] = []
    results: Dict[int, dict] = {0: {"rate": NOMINAL_READ_RPS,
                                    "tail_ms": read_tail, "ok": True}}
    rungs: List[dict] = []

    def run_rung(k: int) -> dict:
        rate = NOMINAL_READ_RPS * GRID_STEP ** k
        schedule = read_schedule(rng, rate, LADDER_RUNG_S, first_day,
                                 last_day, min_count=LADDER_MIN_READS)
        report = run_schedule(server.host, server.port, schedule,
                              n_connections)
        responses.extend(report.responses)
        tail = percentile(latencies_ms(report.responses, "read"),
                          LADDER_PCT)
        failed = any(r.error or not 200 <= r.status < 300
                     for r in report.responses)
        rung = {"rate": rate, "tail_ms": tail,
                "backlog": report.backlog_at_end,
                "ok": (tail is not None and tail <= READ_LIMIT_MS
                       and not failed
                       and report.backlog_at_end <= BACKLOG_LIMIT)}
        rungs.append(rung)
        return rung

    def measure(k: int) -> dict:
        if k not in results:
            rung = run_rung(k)
            if not rung["ok"]:
                again = run_rung(k)
                rung = again if again["ok"] else min(
                    (rung, again), key=lambda r: r["tail_ms"] or 1e9)
            results[k] = rung
        return results[k]

    last_pass, step = 0, COARSE
    while len(rungs) < MAX_RUNGS:
        k = last_pass + step
        rung = measure(k)
        if rung["ok"]:
            last_pass = k
            if rung["tail_ms"] > READ_LIMIT_MS / 2:
                step = 1
        elif step > 1:
            step = 1
        else:
            break
    else:
        raise RuntimeError(f"read tail never broke {READ_LIMIT_MS} ms "
                           f"within {MAX_RUNGS} rungs")
    low, high = results[last_pass], results[last_pass + 1]
    high_tail = high["tail_ms"] if high["tail_ms"] is not None else 1e9
    share = ((math.log(READ_LIMIT_MS) - math.log(low["tail_ms"]))
             / max(math.log(high_tail) - math.log(low["tail_ms"]), 1e-9))
    share = min(max(share, 0.0), 1.0)
    knee = low["rate"] * (high["rate"] / low["rate"]) ** share
    return knee, rungs, responses


def server_peaks(server: Server) -> Dict[str, float]:
    """Peak resident set (MiB) of each process of the running server:
    the front-end and its children (the cluster workers and their
    helper processes)."""
    peaks = {f"server-{server.proc.pid}": vm_hwm_mb(server.proc.pid)}
    for pid in descendants(server.proc.pid):
        peaks[f"child-{pid}"] = vm_hwm_mb(pid)
    return peaks


def serve_boot(server: Server, reads: List[Request], ticks: List[bytes],
               last_day: int, n_connections: int) -> Dict[str, object]:
    """One boot's share of the phases: warm-up, reads, then ticks."""
    warm = [Request(0.02 * i, "GET", f"/v1/scores?day={last_day - i}",
                    "read") for i in range(20)]
    run_schedule(server.host, server.port, warm, n_connections)
    # the first tick has no previous ranking to fall back to
    run_sequence(server.host, server.port, tick_requests(ticks[:1]))
    before = server.get("/v1/stats")
    read_phase = run_schedule(server.host, server.port, reads,
                              n_connections)
    after = server.get("/v1/stats")
    tick_phase = run_sequence(server.host, server.port,
                              tick_requests(ticks[1:]))
    return {"reads": read_phase, "ticks": tick_phase, "before": before,
            "after": after}


def run(seed: int, seconds: float, trace: bool) -> None:
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # an ignored SIGINT would be inherited by the server, which then
        # could not be stopped gracefully
        signal.signal(signal.SIGINT, signal.default_int_handler)
    n_connections = max(1, len(os.sched_getaffinity(0)))
    rng = np.random.default_rng(dataset_seed(seed))
    scratch = work_dir("serve")
    server = None
    try:
        dataset, archive = make_checkpoint(seed, scratch)
        servable = build_servable(archive, "local")
        symbols = set(dataset.universe.symbols)
        train_days, _ = dataset.split(servable.window)
        first_day, last_day = min(train_days), dataset.num_days - 1
        ticks = scenario_ticks(seed, len(symbols), TICKS // BOOTS + 1)
        reads = [read_schedule(rng, NOMINAL_READ_RPS, seconds / BOOTS,
                               first_day, last_day,
                               min_count=-(-MIN_READS // BOOTS))
                 for _ in range(BOOTS)]

        # Each boot is a set-up sample and serves a share of the reads
        # and ticks: the forked workers' speed differs from boot to
        # boot, and pooling the boots averages over that.
        setups, boots, peaks = [], [], {}
        climb, rungs, knee = [], [], None
        for index in range(BOOTS):
            server = Server(scratch)
            setups.append(server.first_ranking())
            boots.append(serve_boot(server, reads[index], ticks, last_day,
                                    n_connections))
            if trace and index == BOOTS - 1:
                knee, rungs, climb = ladder(
                    server, rng, first_day, last_day, n_connections,
                    percentile(latencies_ms(boots[-1]["reads"].responses,
                                            "read"), LADDER_PCT))
            # the server tree only: the generator's own memory is not
            # the program's
            peaks.update(server_peaks(server))
            server.stop()
            server = None
        peaks["reaped-servers"] = peak_rss_mb(include_self=False)
        rss = max(peaks.values())

        read_responses = [r for b in boots for r in b["reads"].responses]
        tick_responses = [r for b in boots for r in b["ticks"].responses]
        measured = read_responses + tick_responses + climb
        failures: List[str] = []
        for response in measured:
            why = check(response, symbols)
            if why is not None:
                failures.append(f"{response.request.path}: {why}")
        served = {}
        for response in read_responses:
            path = response.request.path
            if path.startswith("/v1/scores?day=") and response.status == 200:
                served.setdefault(int(path.split("=")[1]), response.payload)
            if len(served) >= CHECKED_DAYS:
                break
        mismatched = scores_match(servable, served)
        attempted = len(measured)
        failed = len(failures) + len(mismatched)
        failures.extend(mismatched)
        if len(served) < CHECKED_DAYS:
            failures.append(f"only {len(served)} days checked")

        read_ms = latencies_ms(read_responses, "read")
        tick_wall = sum(b["ticks"].wall for b in boots)
        if not trace:
            metrics = end_to_end(median(setups),
                                 len(tick_responses) / tick_wall,
                                 percentile(read_ms, 50), rss)
        else:
            metrics = serve_layers(boots, servable, sorted(served), knee)
    finally:
        if server is not None:
            server.stop()
        remove_work_dir(scratch)
    emit_result(not failures, attempted, failed, metrics, host_facts(),
                notes={"workload": "serve", "setup_samples_s": setups,
                       "reads": len(read_ms), "ticks": len(tick_responses),
                       "tick_replay_s": tick_wall,
                       "tick_rate_by_boot": [len(b["ticks"].responses)
                                             / b["ticks"].wall
                                             for b in boots],
                       "tick_ms_quartiles": [percentile(latencies_ms(
                           tick_responses, "ingest"), q)
                           for q in (25, 50, 75)],
                       "read_p50_ms_by_boot": [percentile(latencies_ms(
                           b["reads"].responses, "read"), 50)
                           for b in boots],
                       "peak_rss_mb_by_process": peaks,
                       "generator_rss_mb": peak_rss_mb(
                           include_children=False),
                       "read_limit_ms": READ_LIMIT_MS, "rungs": rungs,
                       "failures": failures[:10]})


def _read_ops(stats: dict) -> Dict[str, dict]:
    return {op: row for op, row in stats.get("per_op", {}).items()
            if op in ("scores", "top_k")}


def serve_layers(boots: List[dict], servable, days: List[int],
                 knee: float) -> Dict[str, tuple]:
    """Per-layer rows of a traced ``serve`` run, pooled over the boots."""
    reads = [r for b in boots for r in b["reads"].responses]
    read_ms = latencies_ms(reads, "read")
    ingest_ms = latencies_ms([r for b in boots
                              for r in b["ticks"].responses], "ingest")
    weighted = total = 0.0
    server_p99 = queue_p99 = shed = 0.0
    for boot in boots:
        before, after = _read_ops(boot["before"]), _read_ops(boot["after"])
        for op, row in after.items():
            count = row["requests"] - before.get(op, {}).get("requests", 0)
            weighted += row["latency_seconds"]["p50"] * count
            total += count
            server_p99 = max(server_p99, row["latency_seconds"]["p99"])
        queue_p99 = max(queue_p99, boot["after"]["queue_depth"]["p99"])
        shed += boot["after"]["shed"] - boot["before"]["shed"]
    server_p50 = weighted / max(total, 1.0) * 1e3
    tick_payloads = [r.payload for b in boots for r in b["ticks"].responses
                     if r.payload]

    # Forward-path attribution: the same checkpoint's in-process forward
    # (the correctness reference), alternating untraced/traced passes.
    clock = LayerClock(FORWARD_LAYERS)
    cache = adjacency_cache()
    plain, traced = [], []
    hits = lookups = 0
    for index in range(4):
        if index % 2:
            clock.reset()
            wrap_model(clock, servable.model, servable.dataset)
            before_stats = dict(cache.stats())
        started = time.perf_counter()
        for day in days:
            local_forward(servable, day)
        (traced if index % 2 else plain).append(
            time.perf_counter() - started)
        if index % 2:
            clock.unwrap_all()
            after_stats = cache.stats()
            hits += after_stats["hits"] - before_stats["hits"]
            lookups += (after_stats["hits"] + after_stats["misses"]
                        - before_stats["hits"] - before_stats["misses"])
            layer_seconds = clock.snapshot()
    forwards = len(days)
    values = {f"{name}_ms": layer_seconds[name][0] * 1e3 / forwards
              for name in FORWARD_LAYERS}
    values.update({
        "graph.adjacency_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.server_p50_ms": server_p50,
        "serve.server_p99_ms": server_p99 * 1e3,
        "serve.transport_ms": percentile(read_ms, 50) - server_p50,
        "serve.queue_depth_p99": queue_p99,
        "serve.shed": shed,
        "serve.read_p90_ms": percentile(read_ms, 90),
        "serve.knee_read_rps": knee,
        "serve.ingest_p50_ms": percentile(ingest_ms, 50),
        "serve.ingest_p90_ms": percentile(ingest_ms, 90),
        "graph.ingest_tick_ms": median([t["tick_ms"]
                                        for t in tick_payloads]),
        "graph.touched_rows": float(np.mean([t["touched_rows"]
                                             for t in tick_payloads])),
        "loadgen.send_lag_p90_ms": percentile(
            [r.lag * 1e3 for r in reads], 90),
        "loadgen.backlog": max(b["reads"].max_backlog for b in boots),
        "trace.overhead_pct": overhead_pct(plain, traced),
    })
    return complete(values)
