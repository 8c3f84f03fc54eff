"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import io
import json
import multiprocessing
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.require_program()

import httpload  # noqa: E402
import layers  # noqa: E402
import perlayer  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402
import train  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# inputs come from the seed alone
# ----------------------------------------------------------------------
def test_training_inputs_follow_the_seed():
    a, b, c = (train.make_dataset(seed) for seed in (3, 3, 4))
    day = a.split(15)[0][-1]
    assert np.array_equal(a.features(day, 15), b.features(day, 15))
    assert np.array_equal(a.relations.tensor, b.relations.tensor)
    assert not np.array_equal(a.features(day, 15), c.features(day, 15))
    assert a.relations.num_stocks == 500


def test_sweep_inputs_follow_the_seed():
    assert sweep.days_per_sweep(3) == sweep.days_per_sweep(3)
    assert sweep.config(3) == sweep.config(3)
    assert sweep.config(3) != sweep.config(4)


def test_serve_inputs_follow_the_seed():
    def schedule(seed):
        rng = np.random.default_rng(serve.dataset_seed(seed))
        return [(r.at, r.path) for r in serve.read_schedule(
            rng, 20.0, 5.0, 40, 1400)]

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)
    assert len(schedule(3)) == len(schedule(4)) == 100
    assert serve.scenario_ticks(3, 242, 12) == serve.scenario_ticks(3, 242, 12)
    assert serve.scenario_ticks(3, 242, 12) != serve.scenario_ticks(4, 242, 12)


# ----------------------------------------------------------------------
# printed metric names are the ones BENCHMARK.json declares
# ----------------------------------------------------------------------
def _declared(section):
    return {row["name"]: row["unit"] for row in BENCHMARK[section]}


def test_metric_sets_match_benchmark_json():
    assert dict(perlayer.END_TO_END) == _declared("end_to_end")
    assert dict(perlayer.PER_LAYER) == _declared("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "train", "train-dist", "serve"]


def test_result_line_prints_declared_metrics_only():
    out = io.StringIO()
    with redirect_stdout(out):
        common.emit_result(True, 10, 0, perlayer.end_to_end(1.5, 2.0, 3.0,
                                                            4.0), {})
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: row["unit"] for name, row in result["metrics"].items()} \
        == _declared("end_to_end")

    out = io.StringIO()
    with redirect_stdout(out):
        common.emit_result(True, 10, 0, perlayer.complete({}), {})
    result = json.loads(out.getvalue().splitlines()[-1])
    assert {name: row["unit"] for name, row in result["metrics"].items()} \
        == _declared("per_layer")


def test_complete_rejects_undeclared_names():
    with pytest.raises(KeyError):
        perlayer.complete({"serve.read_p99_ms": 1.0})


# ----------------------------------------------------------------------
# a percentile needs ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert common.percentile(list(range(enough - 1)), q) is None
    value = common.percentile(list(range(enough)), q)
    assert value == pytest.approx(np.percentile(np.arange(enough), q))


def test_end_to_end_refuses_an_unsupported_percentile():
    with pytest.raises(ValueError):
        perlayer.end_to_end(1.0, 1.0, common.percentile([1.0] * 5, 50), 1.0)


# ----------------------------------------------------------------------
# the open-loop client times from the schedule
# ----------------------------------------------------------------------
class _SlowHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.05

    def _reply(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        time.sleep(self.delay)
        payload = json.dumps({"path": self.path,
                              "echo": body.decode()}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _reply

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_open_loop_counts_waiting_behind_a_busy_connection(slow_server):
    host, port = slow_server
    schedule = [httpload.Request(0.0, "GET", f"/r{i}", "read")
                for i in range(4)]
    schedule.append(httpload.Request(0.0, "POST", "/w", "ingest",
                                     body=b'{"x": 1}'))
    report = httpload.run_schedule(host, port, schedule, connections=1)
    assert [r.status for r in report.responses] == [200] * 5
    latencies = sorted(r.latency for r in report.responses)
    # one connection: the k-th request waited for k-1 earlier replies
    for k, latency in enumerate(latencies, start=1):
        assert latency >= k * _SlowHandler.delay * 0.9
    assert report.max_backlog >= 4
    assert report.responses[-1].payload == {"path": "/w",
                                            "echo": '{"x": 1}'}


def test_sequence_sends_each_request_after_the_previous_reply(slow_server):
    host, port = slow_server
    ticks = [httpload.Request(0.0, "POST", "/w", "ingest",
                              body=f'{{"day": {i}}}'.encode())
             for i in range(4)]
    report = httpload.run_sequence(host, port, ticks)
    assert [r.payload["echo"] for r in report.responses] == [
        f'{{"day": {i}}}' for i in range(4)]
    # timed from each send, so waiting for the previous tick is not added
    for response in report.responses:
        assert _SlowHandler.delay * 0.9 <= response.latency < 0.5
    assert report.wall >= 4 * _SlowHandler.delay * 0.9


# ----------------------------------------------------------------------
# layer counters survive fork and concurrent writers
# ----------------------------------------------------------------------
def _add_many(clock, name, times):
    for _ in range(times):
        clock.add(name, 0.001)


def test_layer_clock_counts_every_add_across_forked_writers():
    clock = layers.LayerClock(["worker", "parent"])
    ctx = multiprocessing.get_context("fork")
    children = [ctx.Process(target=_add_many, args=(clock, "worker", 2000))
                for _ in range(4)]          # more writers than cores
    for child in children:
        child.start()
    _add_many(clock, "parent", 2000)
    for child in children:
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0
    counts = clock.snapshot()
    assert counts["worker"][1] == 8000      # a lost update would show here
    assert counts["parent"][1] == 2000
    assert counts["worker"][0] == pytest.approx(8.0)


def test_layer_clock_wraps_and_unwraps_instances():
    class Thing:
        def work(self, x):
            return x + 1

    thing = Thing()
    clock = layers.LayerClock(["thing.work"])
    clock.wrap(thing, "work", "thing.work")
    assert thing.work(1) == 2
    clock.unwrap_all()
    assert "work" not in vars(thing)
    assert thing.work(2) == 3
    assert clock.snapshot()["thing.work"][1] == 1



# ----------------------------------------------------------------------
# process clean-up
# ----------------------------------------------------------------------
_ORPHANS = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
import common
from multiprocessing import resource_tracker, shared_memory
common.adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
orphan = subprocess.run(["sh", "-c", "sleep 3 >/dev/null 2>&1 & echo $!"],
                        capture_output=True, text=True).stdout.strip()
print(orphan, resource_tracker._resource_tracker._pid, flush=True)
common.stop_descendants()
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_stop_descendants_waits_for_orphans_and_the_resource_tracker():
    import subprocess

    done = subprocess.run([sys.executable, "-c", _ORPHANS, str(HERE)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    orphan, tracker = (int(pid) for pid in done.stdout.split())
    assert not _alive(orphan)       # a sleep re-parented to the benchmark
    assert not _alive(tracker)      # outlives its starter unless stopped
