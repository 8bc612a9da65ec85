"""Blocking ``http.client`` client for the solve service.

The counterpart of :mod:`repro.service.server`, used by the ``repro
submit`` CLI, the CI smoke job, and ``examples/service_client.py``.
Speaks exactly the :mod:`repro.service.protocol` wire types; every
transport- or service-level failure surfaces as :class:`ServiceError`
carrying the structured error code, so callers branch on
``exc.code == "queue-full"`` instead of parsing prose.

:meth:`ServiceClient.solve` optionally retries overload rejections
(429/503) honouring the server's ``Retry-After`` value — the polite
client loop the admission-control design assumes.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote, urlsplit

from repro.service.protocol import ErrorInfo, SolveRequest, SolveResponse

#: Error codes worth retrying: the server is healthy, just saturated.
RETRYABLE_CODES = ("queue-full", "solver-busy")


class ServiceError(RuntimeError):
    """A request that did not produce an ``ok`` response.

    ``code`` is the structured protocol error code (``"timeout"``,
    ``"queue-full"``, …) or ``"transport"`` when the HTTP exchange
    itself failed; ``retry_after`` is the server's backoff hint, when
    it sent one.  ``error`` is the server's error body, or for a
    transport failure one built from the message.
    """

    def __init__(
        self,
        message: str,
        code: str = "transport",
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after = retry_after
        self.error = ErrorInfo(code, message, retry_after)

    @staticmethod
    def from_error(info: ErrorInfo, status: Optional[int]) -> "ServiceError":
        exc = ServiceError(
            f"[{info.code}] {info.message}",
            code=info.code,
            status=status,
            retry_after=info.retry_after,
        )
        exc.error = info
        return exc


class ServiceClient:
    """Blocking client bound to one service address.

    ``address`` is ``http://host:port`` (the scheme is optional);
    ``timeout`` bounds each HTTP exchange — keep it above the service's
    solve timeout or the transport gives up before the server answers.
    """

    def __init__(self, address: str, timeout: Optional[float] = 300.0):
        if "//" not in address:
            address = "http://" + address
        split = urlsplit(address)
        if split.scheme != "http" or split.hostname is None:
            raise ValueError(
                f"address must be http://host:port, got {address!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            conn.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"}
                if payload is not None
                else {},
            )
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException) as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            )
        finally:
            conn.close()

    def _solve_response(self, status: int, body: bytes) -> SolveResponse:
        try:
            response = SolveResponse.from_dict(json.loads(body.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"service answered HTTP {status} with a non-protocol body: "
                f"{exc}"
            )
        if not response.ok:
            info = response.error or ErrorInfo(
                code="internal", message=f"HTTP {status}"
            )
            raise ServiceError.from_error(info, status)
        return response

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def solve(
        self,
        solver: str,
        instance: Optional[Any] = None,
        scenario: Optional[Any] = None,
        seed: int = 0,
        params: Optional[Dict[str, Any]] = None,
        verify: bool = False,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 1.0,
        trace: Optional[str] = None,
    ) -> SolveResponse:
        """Submit one solve and return its ``ok`` response.

        ``instance`` may be a typed :class:`~repro.core.instance.
        Instance` (serialized automatically) or an already-encoded
        payload dict; alternatively pass ``scenario``.  With ``retries
        > 0`` overload rejections are retried up to that many times,
        sleeping the server's ``Retry-After`` (or ``backoff``) between
        attempts.  ``trace`` is a caller-chosen trace ID the service
        adopts for this request's spans (echoed back as
        ``SolveResponse.trace_id``).  Anything else raises
        :class:`ServiceError`.
        """
        if instance is not None and hasattr(instance, "to_dict"):
            instance = instance.to_dict()
        request = SolveRequest(
            solver=solver,
            instance=instance,
            scenario=scenario,
            seed=seed,
            params=dict(params or {}),
            verify=verify,
            timeout=timeout,
            trace=trace,
        )
        attempt = 0
        while True:
            status, body = self._request("POST", "/solve", request.to_dict())
            try:
                return self._solve_response(status, body)
            except ServiceError as exc:
                if exc.code not in RETRYABLE_CODES or attempt >= retries:
                    raise
                attempt += 1
                time.sleep(
                    exc.retry_after if exc.retry_after is not None else backoff
                )

    def result(
        self,
        digest: str,
        solver: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> SolveResponse:
        """Fetch a stored result by content address (raises when absent)."""
        path = f"/result/{quote(digest)}?solver={quote(solver)}"
        if params:
            path += f"&params={quote(json.dumps(params, sort_keys=True))}"
        status, body = self._request("GET", path)
        return self._solve_response(status, body)

    def healthz(self) -> dict:
        """The service's liveness payload."""
        status, body = self._request("GET", "/healthz")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(f"bad healthz body: {exc}", status=status)
        if status != 200:
            raise ServiceError(
                f"healthz answered HTTP {status}: {payload}", status=status
            )
        return payload

    def metrics(self) -> str:
        """The raw Prometheus exposition text from ``GET /metrics``."""
        status, body = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(
                f"metrics answered HTTP {status}", status=status
            )
        return body.decode("utf-8")
