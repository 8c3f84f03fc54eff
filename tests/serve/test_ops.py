"""One set of ranking envelopes for both serving modes.

The same request list goes to a threaded and a cluster server built from
one checkpoint directory.  Once the cluster's ``generation``/``worker``
fields are removed, the two bodies must be byte-identical, and both must
equal :func:`repro.serve.ops.ranking` applied to an in-process engine.
"""

import json
import multiprocessing
import urllib.error
import urllib.request
from urllib.parse import parse_qs, urlparse

import pytest

from repro.serve import ServeConfig, build
from repro.serve.engine import InferenceEngine
from repro.serve.httpd import error_payload
from repro.serve.ops import ranking
from repro.serve.registry import build_servable
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="cluster mode needs fork + shared_memory")

RANKING_PATHS = [
    "/v1/scores",
    "/v1/top_k?k=4",
    "/v1/rank",
    "/v1/delta?day=100",
    "/v1/scores?version=ckpt-e0000-b000000&day=200",
]

#: path -> expected status
ERROR_PATHS = {
    "/v1/scores?day=1": 400,             # before the first servable day
    "/v1/top_k?k=0": 400,
    "/v1/top_k?k=lots": 400,
    "/v1/delta?day=5": 400,              # no prior servable day
    "/v1/scores?version=ghost": 404,
    "/v1/nope": 404,
    "/scores": 404,                      # unversioned alias: removed
}


def _body(handle, path):
    host, port = handle.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _canonical(raw):
    """Reserialize a body the way the server does, minus the cluster's
    worker-identity fields."""
    payload = json.loads(raw)
    payload.pop("generation", None)
    payload.pop("worker", None)
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def responses(serving_ckpt_dir):
    """``{mode: {path: (status, raw body)}}`` for every listed path."""
    out = {}
    for mode in ("threaded", "cluster"):
        with build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, mode=mode, cluster_workers=1,
                               watch_interval_s=30.0)).start() as handle:
            out[mode] = {path: _body(handle, path)
                         for path in [*RANKING_PATHS, *ERROR_PATHS]}
    return out


def _in_process(serving_ckpt_dir, path):
    """The ops builder's body for ``path`` on a fresh in-process engine."""
    parsed = urlparse(path)
    query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
    version = query.get("version", "best")
    engine = InferenceEngine(build_servable(
        serving_ckpt_dir / f"{version}.npz", version))
    op = parsed.path[len("/v1/"):]
    day = int(query["day"]) if "day" in query else None
    k = int(query["k"]) if "k" in query else None
    try:
        payload = ranking(op, engine, day, k=k)
    except ValueError as exc:
        payload = error_payload("bad_request", str(exc))
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("path", RANKING_PATHS)
def test_ranking_bodies_identical_across_modes(responses, path):
    threaded_status, threaded = responses["threaded"][path]
    cluster_status, cluster = responses["cluster"][path]
    assert threaded_status == cluster_status == 200
    assert b"generation" not in threaded
    assert threaded == _canonical(cluster)


@pytest.mark.parametrize("path", RANKING_PATHS)
def test_ranking_bodies_equal_ops_builders(responses, serving_ckpt_dir,
                                           path):
    _, threaded = responses["threaded"][path]
    assert threaded == _in_process(serving_ckpt_dir, path)


@pytest.mark.parametrize("path", sorted(ERROR_PATHS))
def test_error_bodies_identical_across_modes(responses, path):
    threaded_status, threaded = responses["threaded"][path]
    cluster_status, cluster = responses["cluster"][path]
    assert threaded_status == cluster_status == ERROR_PATHS[path]
    assert threaded == cluster
    assert "error" in json.loads(threaded)


@pytest.mark.parametrize("path", sorted(
    p for p, status in ERROR_PATHS.items()
    if status == 400 and "lots" not in p))
def test_bad_request_bodies_equal_ops_builders(responses, serving_ckpt_dir,
                                               path):
    _, threaded = responses["threaded"][path]
    assert threaded == _in_process(serving_ckpt_dir, path)
