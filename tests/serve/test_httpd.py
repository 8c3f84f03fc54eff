"""HTTP endpoint: routing, JSON shapes, error statuses."""

import json
import multiprocessing
import socket
import urllib.error
import urllib.request

import pytest

from repro.serve import SERVE_MODES, ServeConfig, build
from repro.serve.shm import shm_available


@pytest.fixture(scope="module")
def server(serving_ckpt_dir):
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, max_wait_ms=2.0)).start()
    yield handle
    handle.close()


def get(server, path):
    host, port = server.address
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_health(self, server):
        status, payload = get(server, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        # the unversioned alias is gone
        status, payload = get(server, "/health")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_models_lists_archives(self, server):
        status, payload = get(server, "/v1/models")
        assert status == 200
        versions = [m["version"] for m in payload["models"]]
        assert versions == ["best", "ckpt-e0000-b000000"]

    def test_top_k_shape(self, server):
        status, payload = get(server, "/v1/top_k?k=4")
        assert status == 200
        assert payload["k"] == 4
        assert [r["rank"] for r in payload["top_k"]] == [1, 2, 3, 4]
        assert all(isinstance(r["symbol"], str) for r in payload["top_k"])

    def test_scores_with_version_and_day(self, server):
        status, payload = get(
            server, "/v1/scores?version=best&day=200")
        assert status == 200
        assert payload["version"] == "best" and payload["day"] == 200

    def test_rank_and_delta(self, server):
        status, rank = get(server, "/v1/rank")
        assert status == 200 and rank["ranking"]
        status, delta = get(server, "/v1/delta?day=100")
        assert status == 200 and delta["prior_day"] == 99

    def test_stats(self, server):
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert "latency_seconds" in payload
        assert "batch_size_histogram" in payload


class TestErrorStatuses:
    def test_unknown_route_404(self, server):
        status, payload = get(server, "/v2/everything")
        assert status == 404 and "error" in payload

    def test_unknown_version_404(self, server):
        status, payload = get(server, "/v1/top_k?version=ghost")
        assert status == 404
        assert "ghost" in payload["error"]["message"]

    def test_bad_day_400(self, server):
        status, payload = get(server, "/v1/scores?day=1")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "type" not in payload["error"]

    def test_non_integer_param_400(self, server):
        status, payload = get(server, "/v1/top_k?k=lots")
        assert status == 400
        assert "integer" in payload["error"]["message"]


@pytest.fixture(scope="module", params=SERVE_MODES)
def any_mode(request, serving_ckpt_dir):
    if request.param == "cluster" and not (
            shm_available()
            and "fork" in multiprocessing.get_all_start_methods()):
        pytest.skip("cluster mode needs fork + shared_memory")
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, mode=request.param,
                               cluster_workers=1,
                               watch_interval_s=30.0)).start()
    yield handle
    handle.close()


class TestFraming:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_400_then_close(self, any_mode,
                                                        length):
        host, port = any_mode.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"POST /v1/ingest HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n{}")
            raw = b""
            while True:                  # the server closes after replying
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw
        assert b"Connection: close" in head
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert "Content-Length" in error["message"]

    def test_keep_alive_serves_several_requests(self, any_mode):
        host, port = any_mode.address
        request = b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n"
        with socket.create_connection((host, port), timeout=30) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(request)
                assert stream.readline().startswith(b"HTTP/1.1 200 ")
                headers = {}
                for line in iter(stream.readline, b"\r\n"):
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                assert headers["connection"] == "keep-alive"
                body = stream.read(int(headers["content-length"]))
                assert json.loads(body)["status"] == "ok"
