"""repro.serve — micro-batched inference serving for trained checkpoints.

**Construction goes through one path**::

    from repro.serve import ServeConfig, build

    with build(ServeConfig(checkpoint_dir="ckpts")) as handle:
        handle.serve_forever()

:class:`ServeConfig` holds every knob (listener, mode, batching,
admission control, SLO, hot reload, persistence) and :func:`build`
wires the whole stack from it.  The layers below are ordinary internals
of their submodules; :func:`build` composes them.

The stack, bottom to top:

- :mod:`~repro.serve.registry` — :class:`ModelRegistry`: discover/verify
  checkpoint archives, reconstruct models via the unified ``state_dict``
  API, LRU-cache them under a memory budget;
- :mod:`~repro.serve.engine` — :class:`InferenceEngine`: tape-free
  forwards with explicit dense/sparse graph-mode dispatch;
- :mod:`~repro.serve.ops` — the ``scores``/``top_k``/``rank``/``delta``
  envelopes every serving path returns;
- :mod:`~repro.serve.batcher` — :class:`MicroBatcher`: coalesce
  concurrent requests into shared forwards;
- :mod:`~repro.serve.service` — :class:`RankingService`: the in-process
  ranking facade with timeout fallback (``mode="threaded"``);
- :mod:`~repro.serve.shm` — shared-memory weights with generation-tagged
  hot swap (:class:`SharedWeightStore` / :class:`SharedWeightReader`);
- :mod:`~repro.serve.cluster` — :class:`ServingCluster`: forked
  zero-copy inference workers with admission control and hot reload
  (``mode="cluster"``);
- :mod:`~repro.serve.httpd` — the asyncio ``/v1/`` JSON front-end both
  modes serve through (``repro.cli serve`` / ``repro.cli query`` wrap
  it);
- :mod:`~repro.serve.telemetry` — :class:`ServingTelemetry`: latency
  percentiles, SLO evaluation, batch-size histograms, schema-v1 reports.

See ``docs/serving.md`` for the train → checkpoint → serve → query
lifecycle.
"""

from .batcher import BatcherClosedError
from .client import ClientConnectError, QueryClient, fetch_endpoints
from .cluster import ClusterError, ServingCluster
from .config import SERVE_MODES, ServeConfig, ServeHandle, build
from .httpd import ApiError
from .registry import (RegistryError, ServableModel, build_servable,
                       infer_rtgcn_architecture, resolve_strategy)
from .service import ServiceTimeoutError
from .shm import (SharedWeightReader, SharedWeightStore,
                  ShmUnavailableError, shm_available)
from .stream import StreamIngestor
from .telemetry import ServingTelemetry

__all__ = [
    # the construction path
    "ServeConfig", "ServeHandle", "build", "SERVE_MODES",
    # cluster serving
    "ServingCluster", "ClusterError",
    "SharedWeightStore", "SharedWeightReader", "ShmUnavailableError",
    "shm_available",
    # query client
    "QueryClient", "fetch_endpoints", "ClientConnectError",
    # errors / telemetry / helpers
    "ApiError", "ServiceTimeoutError", "RegistryError",
    "BatcherClosedError", "ServingTelemetry", "StreamIngestor",
    "ServableModel",
    "build_servable", "infer_rtgcn_architecture", "resolve_strategy",
]
