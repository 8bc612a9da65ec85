"""Stdlib asyncio HTTP front-end of the solve service.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — request line, headers, Content-Length
body, one request per connection (``Connection: close``) — because the
container has no web framework and the protocol surface is four routes:

``POST /solve``
    Body is a :class:`~repro.service.protocol.SolveRequest`; the
    response a :class:`~repro.service.protocol.SolveResponse`.  Error
    codes map to HTTP statuses via
    :data:`~repro.service.protocol.ERROR_STATUS`, and overload
    rejections carry a ``Retry-After`` header.
``GET /result/<digest>?solver=<name>[&params=<json>]``
    Cache lookup by content address; 404 with a structured
    ``not-found`` error when the store has no such record.
``GET /healthz``
    Liveness JSON (status, pending count, record count).
``GET /metrics``
    Prometheus text exposition of the shared registry.

:class:`SolveService` owns the broker, the listener, and (optionally) a
co-located :class:`~repro.service.worker.WorkerPool`;
:class:`ServiceThread` runs the whole thing on a background event loop
thread — the test fixture and the building block behind ``repro
serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.service.broker import BrokerConfig, SolveBroker
from repro.service.protocol import (
    ERROR_STATUS,
    ProtocolError,
    SolveRequest,
    SolveResponse,
    error_response,
)
from repro.service.worker import WorkerPool

#: Largest accepted request body (inline instances can be big, but a
#: runaway upload must not exhaust the service).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class SolveService:
    """Broker + HTTP listener + optional co-located worker pool."""

    def __init__(
        self,
        cache_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[BrokerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 0,
        worker_mode: str = "process",
        trace: Optional[str] = None,
    ):
        self.host = host
        self.port = port  # rebound to the real port once listening
        self.metrics = metrics or MetricsRegistry()
        self._tracer = None
        if trace is not None:
            from repro.obs.export import JsonlSink
            from repro.obs.spans import Tracer

            # One tracer for the whole service lifetime: every request
            # gets its own trace ID inside this shared JSONL sink.
            self._tracer = Tracer(
                sink=JsonlSink(str(trace)), metrics=self.metrics
            )
        self.broker = SolveBroker(
            cache_dir, config=config, metrics=self.metrics,
            tracer=self._tracer,
        )
        self.pool: Optional[WorkerPool] = (
            WorkerPool(cache_dir, workers, mode=worker_mode)
            if workers > 0
            else None
        )
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.broker.start()
        if self.pool is not None:
            self.broker.connect(self.pool.work, self.pool.done)
            self.pool.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Drain, then tear down listener, workers, and broker."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.broker.drain(timeout=drain_timeout)
        if self.pool is not None:
            self.broker.disconnect()
            self.pool.stop()
            self.pool = None
        await self.broker.stop()
        if self._tracer is not None:
            self._tracer.finish()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            status, content_type, body, extra = await self._respond(reader)
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            head.extend(f"{k}: {v}" for k, v in extra)
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader) -> Tuple[int, str, bytes, list]:
        try:
            method, target, body = await _read_request(reader)
        except _HttpError as exc:
            return _json_body(
                exc.status, error_response("bad-request", str(exc))
            )
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        endpoint = path.split("/", 2)[1] or "root"
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            result = await self._route(method, path, split.query, body)
        except Exception as exc:  # pragma: no cover - last-resort guard
            result = _json_body(
                500,
                error_response("internal", f"{type(exc).__name__}: {exc}"),
            )
        self.metrics.observe(
            "repro_request_seconds", loop.time() - started,
            endpoint=endpoint,
            help="HTTP request handling latency",
        )
        self.metrics.counter(
            "repro_http_requests_total",
            endpoint=endpoint, status=str(result[0]),
            help="HTTP requests by endpoint and status",
        )
        return result

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, str, bytes, list]:
        if path == "/solve":
            if method != "POST":
                return _json_body(
                    405, error_response("bad-request", "POST /solve")
                )
            try:
                payload = json.loads(body.decode("utf-8"))
                request = SolveRequest.from_dict(payload)
            except ProtocolError as exc:
                return _json_body(
                    ERROR_STATUS.get(exc.code, 400),
                    error_response(exc.code, str(exc)),
                )
            except (UnicodeDecodeError, ValueError) as exc:
                return _json_body(
                    400,
                    error_response(
                        "bad-request", f"request body is not JSON: {exc}"
                    ),
                )
            return _json_body(None, await self.broker.submit(request))
        if path.startswith("/result/") and method == "GET":
            digest = path[len("/result/"):]
            args = parse_qs(query)
            solver = (args.get("solver") or [""])[0]
            if not solver:
                return _json_body(
                    400,
                    error_response(
                        "bad-request",
                        "GET /result/<digest> needs ?solver=<name>",
                    ),
                )
            try:
                params = json.loads((args.get("params") or ["{}"])[0])
            except ValueError as exc:
                return _json_body(
                    400,
                    error_response(
                        "bad-request", f"'params' is not JSON: {exc}"
                    ),
                )
            record = self.broker.result(digest, solver, params)
            if record is None:
                return _json_body(
                    404,
                    error_response(
                        "not-found",
                        f"no stored result for solver={solver!r} "
                        f"digest={digest[:16]}…",
                    ),
                )
            from repro.api.store import canonical_key

            return _json_body(
                200,
                SolveResponse(
                    status="ok",
                    solver=solver,
                    digest=digest,
                    key=canonical_key(solver, digest, params),
                    source="cache",
                    report=record,
                ),
            )
        if path == "/healthz" and method == "GET":
            payload = json.dumps(self.broker.healthz()).encode("utf-8")
            return 200, "application/json", payload, []
        if path == "/metrics" and method == "GET":
            text = self.metrics.render().encode("utf-8")
            return 200, "text/plain; version=0.0.4; charset=utf-8", text, []
        return _json_body(
            404, error_response("not-found", f"no route {method} {path}")
        )


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.x request: ``(method, target, body)``."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise _HttpError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    length = 0
    while True:
        raw = await reader.readline()
        header = raw.decode("latin-1").rstrip("\r\n")
        if not header:
            break
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise _HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, body


def _json_body(
    status: Optional[int], response: SolveResponse
) -> Tuple[int, str, bytes, list]:
    """Encode ``response``; derive the status from its error when None."""
    if status is None:
        status = (
            200
            if response.ok
            else ERROR_STATUS.get(
                response.error.code if response.error else "internal", 500
            )
        )
    extra = []
    if response.error is not None and response.error.retry_after is not None:
        extra.append(("Retry-After", f"{response.error.retry_after:g}"))
    payload = json.dumps(response.to_dict(), sort_keys=True).encode("utf-8")
    return status, "application/json", payload, extra


class ServiceThread:
    """A whole :class:`SolveService` on a background event-loop thread.

    The constructor arguments are forwarded verbatim; :meth:`start`
    blocks until the listener is bound (so ``service.port`` and
    ``service.address`` are immediately usable) and re-raises any
    startup failure in the caller's thread.  Context-manager use gives
    the one-liner test fixture::

        with ServiceThread(cache_dir, workers=2, worker_mode="thread") as svc:
            client = ServiceClient(svc.address)
    """

    def __init__(self, cache_dir: str, **kwargs):
        self.service = SolveService(cache_dir, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> str:
        return self.service.address

    @property
    def port(self) -> int:
        return self.service.port

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stopped.wait()
        await self.service.stop()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and stop the service; joins the loop thread."""
        if self._loop is None or self._stopped is None:
            return
        self._loop.call_soon_threadsafe(self._stopped.set)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
