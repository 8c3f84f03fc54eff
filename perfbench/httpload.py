"""Open-loop HTTP/1.1 load generator (asyncio, keep-alive, GET and POST).

``repro.serve.client.QueryClient`` opens one ``Connection: close``
exchange per GET, so it cannot hold a keep-alive session or send the
ingest POSTs.  This client:

- keeps at most ``connections`` persistent connections (the benchmark
  uses ``nproc``), each carrying one request at a time;
- sends on a fixed schedule regardless of how fast responses come back
  (open loop): a request that finds every connection busy waits in the
  client's backlog, and that wait counts;
- times every request from its *scheduled* send time, so a stall adds
  its delay to every request due during it (no coordinated omission);
- reports how late the generator itself dispatched each request.

:func:`run_sequence` replays requests back to back on one connection,
the way ``repro.cli stream`` POSTs a scenario's days in order.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class Request:
    at: float                     # scheduled send offset, seconds
    method: str
    path: str
    kind: str                     # caller's label ("read", "ingest", ...)
    body: Optional[bytes] = None


@dataclass
class Response:
    request: Request
    latency: float                # done - scheduled, seconds
    lag: float                    # dispatch - scheduled, seconds
    status: int = 0
    payload: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class LoadReport:
    responses: List[Response]
    #: requests queued behind busy connections when the last one was due
    backlog_at_end: int = 0
    max_backlog: int = 0
    wall: float = 0.0


class _Connection:
    """One keep-alive HTTP/1.1 connection, reopened after a failure."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      body: Optional[bytes]) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                "Connection: keep-alive"]
        if body is not None:
            head += ["Content-Type: application/json",
                     f"Content-Length: {len(body)}"]
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                          + (body or b""))
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed before a response")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                close = value.strip().lower() == "close"
        payload = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


async def _exchange(conn: _Connection, request: Request, response: Response,
                    timeout: float) -> None:
    """Send ``request`` on ``conn``; fill ``response``'s status/payload."""
    try:
        status, raw = await asyncio.wait_for(
            conn.request(request.method, request.path, request.body), timeout)
        response.status = status
        response.payload = json.loads(raw) if raw else None
    except (OSError, ConnectionError, ValueError, asyncio.IncompleteReadError,
            asyncio.TimeoutError) as exc:
        response.error = f"{type(exc).__name__}: {exc}"
        await conn.close()


async def _run(host: str, port: int, schedule: Sequence[Request],
               connections: int, timeout: float) -> LoadReport:
    loop = asyncio.get_running_loop()
    backlog: "asyncio.Queue" = asyncio.Queue()
    responses: List[Response] = []
    report = LoadReport(responses=responses)
    origin = loop.time() + 0.05

    async def worker() -> None:
        conn = _Connection(host, port)
        try:
            while True:
                item = await backlog.get()
                if item is None:
                    return
                request, dispatched = item
                due = origin + request.at
                response = Response(request=request, latency=0.0,
                                    lag=dispatched - due)
                await _exchange(conn, request, response, timeout)
                response.latency = loop.time() - due
                responses.append(response)
        finally:
            await conn.close()

    workers = [asyncio.create_task(worker()) for _ in range(connections)]
    for request in schedule:
        delay = origin + request.at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        backlog.put_nowait((request, loop.time()))
        report.max_backlog = max(report.max_backlog, backlog.qsize())
    report.backlog_at_end = backlog.qsize()
    for _ in workers:
        backlog.put_nowait(None)
    await asyncio.gather(*workers)
    report.wall = loop.time() - origin
    return report


async def _run_sequence(host: str, port: int, requests: Sequence[Request],
                        timeout: float) -> LoadReport:
    loop = asyncio.get_running_loop()
    conn = _Connection(host, port)
    responses: List[Response] = []
    start = loop.time()
    try:
        for request in requests:
            sent = loop.time()
            response = Response(request=request, latency=0.0, lag=0.0)
            await _exchange(conn, request, response, timeout)
            response.latency = loop.time() - sent
            responses.append(response)
    finally:
        await conn.close()
    return LoadReport(responses=responses, wall=loop.time() - start)


def run_schedule(host: str, port: int, schedule: Sequence[Request],
                 connections: int, timeout: float = 30.0) -> LoadReport:
    """Play ``schedule`` (sorted by ``at``) against ``host:port``."""
    if connections < 1:
        raise ValueError("connections must be >= 1")
    return asyncio.run(_run(host, port, list(schedule), connections,
                            timeout))


def run_sequence(host: str, port: int, requests: Sequence[Request],
                 timeout: float = 30.0) -> LoadReport:
    """Send ``requests`` one after another on one keep-alive connection,
    each as soon as the previous one is answered; latency is timed from
    each send.  ``Request.at`` is ignored."""
    return asyncio.run(_run_sequence(host, port, list(requests), timeout))
