"""The asyncio JSON/HTTP front-end: one transport for both serving modes.

No third-party web framework (the whole repo is stdlib+NumPy).  One
asyncio event loop on a background thread accepts every connection
(idle keep-alive sockets cost one fd each, no threads), parses
HTTP/1.1, routes the **versioned** API surface and renders the JSON
reply:

=======================  =================================================
``GET /v1/health``        liveness + loaded versions
``GET /v1/models``        available / loaded versions with metadata
``GET /v1/scores``        raw per-symbol scores
``GET /v1/top_k``         the k best-ranked symbols (``?k=10``)
``GET /v1/rank``          the full ranked universe
``GET /v1/delta``         day-over-day rank movement
``GET /v1/stats``         serving telemetry snapshot
``POST /v1/reload``       re-discover checkpoints, drop cached engines
``POST /v1/ingest``       apply a streaming day's event batch, re-rank
=======================  =================================================

Ranking endpoints accept ``?version=<ckpt>&day=<int>`` (defaults: the
registry's best version, the latest servable day).  Any other path,
the unversioned spellings (``/scores``, ...) included, is a ``404``.

Errors come back as a uniform envelope —
``{"error": {"code", "message", "retry_after"}}`` — with a meaningful
status code, so a misaddressed query never manifests as an opaque 500.
``retry_after`` is non-null exactly when retrying helps (load shed,
timeout) and mirrors the ``Retry-After`` response header.

What runs an op is the *backend*, a coroutine function
``dispatch(op, query, body) -> payload`` handed to :class:`HttpFrontEnd`:

- ``mode="threaded"`` — :func:`threaded_dispatch`: :func:`execute`
  against the in-process :class:`RankingService` on the loop's executor,
  where the micro-batcher coalesces concurrent requests;
- ``mode="cluster"`` — :meth:`ServingCluster.dispatch
  <repro.serve.cluster.ServingCluster.dispatch>`: forked shared-memory
  workers behind an admission queue.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http import HTTPStatus
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .registry import RegistryError
from .service import RankingService, ServiceTimeoutError

#: canonical API ops, keyed by their ``/v1/`` path segment.
API_OPS = ("health", "models", "scores", "top_k", "rank", "delta",
           "stats", "reload", "ingest")

Dispatch = Callable[[str, Dict[str, str], bytes],
                    Awaitable[Dict[str, Any]]]


class ApiError(Exception):
    """An error with a wire-level identity: status, code, retry hint."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.retry_after = retry_after


def resolve_route(path: str) -> Optional[str]:
    """The canonical op for a request path; ``None`` for unknown paths."""
    if not path.startswith("/v1/"):
        return None
    op = path[len("/v1/"):].strip("/")
    return op if op in API_OPS else None


def error_payload(code: str, message: str,
                  retry_after: Optional[float] = None) -> Dict[str, Any]:
    """The uniform JSON error envelope; clients switch on ``code``."""
    return {"error": {"code": code, "message": message,
                      "retry_after": retry_after}}


def classify_exception(exc: BaseException
                       ) -> Tuple[int, str, Optional[float]]:
    """``(status, code, retry_after)`` for an exception from the service."""
    if isinstance(exc, ApiError):
        return exc.status, exc.code, exc.retry_after
    if isinstance(exc, ServiceTimeoutError):
        return 503, "timeout", 1.0
    if isinstance(exc, (RegistryError, FileNotFoundError)):
        return 404, "not_found", None
    if isinstance(exc, ValueError):
        return 400, "bad_request", None
    return 500, "internal", None


def exception_response(exc: BaseException
                       ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """``(status, extra_headers, payload)`` for an exception."""
    status, code, retry_after = classify_exception(exc)
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{retry_after:g}"
    return status, headers, error_payload(code, str(exc), retry_after)


def parse_query(query_string: str) -> Dict[str, str]:
    return {key: values[-1]
            for key, values in parse_qs(query_string).items()}


def query_int(query: Dict[str, str], name: str) -> Optional[int]:
    raw = query.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer, "
                         f"got {raw!r}") from None


def parse_body(body: Optional[bytes]) -> Dict[str, Any]:
    """Decode a JSON request body; empty/missing bodies become ``{}``."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, "bad_request",
                       f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request",
                       "request body must be a JSON object")
    return payload


def execute(service: RankingService, op: str, query: Dict[str, str],
            body: Optional[bytes] = None) -> Dict[str, Any]:
    """Run one canonical op against a :class:`RankingService`.

    The whole of threaded mode; cluster mode runs the ops its workers
    and front-end do not answer themselves through here too.
    """
    version = query.get("version")
    day = query_int(query, "day")
    if op == "health":
        return {"status": "ok",
                "loaded": service.registry.loaded_versions()}
    if op == "models":
        registry = service.registry
        return {"directory": str(registry.directory),
                "loaded": registry.loaded_versions(),
                "models": [registry.describe(v)
                           for v in registry.discover()]}
    if op == "scores":
        return service.predict_scores(version=version, day=day)
    if op == "top_k":
        k = query_int(query, "k")
        return service.top_k(k=10 if k is None else k,
                             version=version, day=day)
    if op == "rank":
        return service.rank_universe(version=version, day=day)
    if op == "delta":
        return service.rank_delta(version=version, day=day)
    if op == "stats":
        return service.stats()
    if op == "reload":
        return service.reload(version=version)
    if op == "ingest":
        return service.ingest(parse_body(body), version=version)
    raise ApiError(404, "not_found", f"no route for op {op!r}")


def threaded_dispatch(service: RankingService) -> Dispatch:
    """The ``mode="threaded"`` backend: :func:`execute` on the executor.

    Requests block on the micro-batcher there, never on the event loop;
    nothing is shed, a missed deadline falls back to the last served
    ranking.
    """
    async def dispatch(op: str, query: Dict[str, str],
                       body: bytes) -> Dict[str, Any]:
        return await asyncio.get_running_loop().run_in_executor(
            None, execute, service, op, query, body)
    return dispatch


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader
                       ) -> Optional[Tuple[str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request into ``(target, headers, body)``.

    ``None`` on clean EOF.  A ``Content-Length`` that is not a
    non-negative integer raises :class:`ApiError` (400): the body cannot
    be framed, so the connection must close after the reply.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise ConnectionError("malformed request line")
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise ApiError(400, "bad_request",
                       f"Content-Length must be a non-negative integer, "
                       f"got {raw_length!r}")
    body = await reader.readexactly(length) if length else b""
    return parts[1], headers, body


def _render(status: int, extra: Dict[str, str], payload: Dict[str, Any],
           keep_alive: bool) -> bytes:
    """One complete HTTP/1.1 response carrying ``payload`` as JSON."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines += [f"{name}: {value}" for name, value in extra.items()]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


# ----------------------------------------------------------------------
# the listener
# ----------------------------------------------------------------------
class HttpFrontEnd:
    """An asyncio HTTP/1.1 listener on a background thread.

    ``dispatch`` answers one routed op (its exceptions become error
    envelopes); ``background``, when given, is a coroutine function run
    for the listener's lifetime and cancelled at :meth:`close` (the
    cluster's worker proxies and checkpoint watcher).  :meth:`start`
    returns once the socket is bound — :attr:`address` is then real.
    """

    def __init__(self, host: str, port: int, dispatch: Dispatch,
                 background: Optional[Callable[[], Awaitable[None]]] = None):
        self.host = host
        self.port = port
        self.dispatch = dispatch
        self.background = background
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HttpFrontEnd":
        """Bind and begin serving without blocking; idempotent."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise RuntimeError("HTTP front-end did not come up within 30s")
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or KeyboardInterrupt upstream)."""
        self.start()
        self._thread.join()

    def close(self) -> None:
        """Stop listening and wait for the loop thread; idempotent."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:            # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:        # pragma: no cover - defensive
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        tasks = ([asyncio.create_task(self.background())]
                 if self.background is not None else [])
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ApiError as exc:     # unframeable: reply, close
                    writer.write(_render(*exception_response(exc),
                                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                target, headers, body = request
                keep_alive = (headers.get("connection", "").lower()
                              != "close")
                status, extra, payload = await self._respond(target, body)
                writer.write(_render(status, extra, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, target: str, body: bytes
                       ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        parsed = urlparse(target)
        try:
            op = resolve_route(parsed.path)
            if op is None:
                raise ApiError(404, "not_found",
                               f"no route for {parsed.path!r}")
            payload = await self.dispatch(op, parse_query(parsed.query),
                                          body)
        except Exception as exc:  # noqa: BLE001 — uniform JSON envelope
            return exception_response(exc)
        return 200, {}, payload
