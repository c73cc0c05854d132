"""Typed clients for the measurement service.

:class:`InprocClient` wraps a live :class:`MeasurementService` in the
same process -- the zero-copy path tests use, raising the service's
own typed exceptions.  :class:`HttpClient` speaks the wire protocol of
:mod:`repro.service.http` over stdlib asyncio streams (one request per
connection) and *re-raises the same exception types*: an HTTP 429 with
``"type": "RateLimited"`` comes back as
:class:`~repro.service.jobs.RateLimited`, so client code is identical
against either transport.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.service.core import MeasurementService
from repro.service.jobs import (
    BadRequest,
    Job,
    JobCancelled,
    JobTimeout,
    QueueFull,
    RateLimited,
    ServiceClosed,
    ServiceError,
    UnknownJob,
)

#: Wire ``type`` field -> exception class, for HTTP error rehydration.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        BadRequest,
        UnknownJob,
        RateLimited,
        QueueFull,
        JobTimeout,
        JobCancelled,
        ServiceClosed,
        ServiceError,
    )
}


class InprocClient:
    """Direct in-process client: typed submit/wait/cancel."""

    def __init__(self, service: MeasurementService):
        self.service = service

    def submit(
        self,
        kind: str,
        params: Dict[str, Any],
        tenant: str = "default",
        timeout_s: Optional[float] = None,
    ) -> Job:
        return self.service.submit(
            kind, params, tenant=tenant, timeout_s=timeout_s
        )

    async def run(
        self,
        kind: str,
        params: Dict[str, Any],
        tenant: str = "default",
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit and await the result payload in one call."""
        job = self.submit(
            kind, params, tenant=tenant, timeout_s=timeout_s
        )
        return await job.wait()

    def view(self, job_id: str) -> Dict[str, Any]:
        return self.service.job_view(job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.service.cancel(job_id).view()

    def stats(self) -> Dict[str, Any]:
        return self.service.stats()


class HttpClient:
    """Minimal asyncio HTTP/1.1 client for the service wire protocol."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One request/response exchange; returns (status, payload).

        A response the server cuts short (no status line, or a head or
        body that ends early) or garbles (a status code or
        ``Content-Length`` that is not ASCII digits, a body that is not
        a JSON object) raises one :class:`ServiceError` naming the
        server and what was missing or malformed.
        """
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        reader, writer = await asyncio.open_connection(
            self.host, self.port
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
            status_line = (
                (await reader.readline()).decode("latin-1").strip()
            )
            if not status_line:
                raise self._cut_short("the status line")
            code = status_line.partition(" ")[2].partition(" ")[0]
            if not code.isdecimal():
                raise ValueError(f"status line {status_line!r}")
            status = int(code)
            content_length = 0
            while True:
                raw_line = await reader.readline()
                if not raw_line.endswith(b"\n"):
                    raise self._cut_short("the end of the response head")
                line = raw_line.decode("latin-1").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not value.isdecimal():
                        raise ValueError(f"Content-Length {value!r}")
                    content_length = int(value)
            raw = (
                await reader.readexactly(content_length)
                if content_length
                else b"{}"
            )
            reply = json.loads(raw)
            if not isinstance(reply, dict):
                raise ValueError(f"body {raw[:40]!r}: not a JSON object")
            return status, reply
        except asyncio.IncompleteReadError as exc:
            raise self._cut_short(
                f"the last {content_length - len(exc.partial)} of "
                f"{content_length} body bytes"
            ) from None
        except ValueError as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors too.
            raise ServiceError(
                f"{self.host}:{self.port} sent a malformed response: {exc}"
            ) from None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _cut_short(self, missing: str) -> ServiceError:
        return ServiceError(
            f"{self.host}:{self.port} closed the connection before "
            f"sending {missing}"
        )

    def _raise_for(self, status: int, payload: Dict[str, Any]) -> None:
        if status < 400:
            return
        message = payload.get("error", f"HTTP {status}")
        cls = _ERROR_TYPES.get(payload.get("type", ""), ServiceError)
        if cls is RateLimited:
            raise RateLimited(
                "unknown", float(payload.get("retry_after_s", 0.0))
            )
        exc = cls(message)
        exc.http_status = status
        raise exc

    # ------------------------------------------------------------------
    async def healthz(self) -> Dict[str, Any]:
        status, payload = await self.request("GET", "/healthz")
        self._raise_for(status, payload)
        return payload

    async def submit(
        self,
        kind: str,
        params: Dict[str, Any],
        tenant: str = "default",
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "kind": kind,
            "params": params,
            "tenant": tenant,
        }
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        status, payload = await self.request("POST", "/v1/jobs", body)
        self._raise_for(status, payload)
        return payload

    async def view(self, job_id: str) -> Dict[str, Any]:
        status, payload = await self.request(
            "GET", f"/v1/jobs/{job_id}"
        )
        self._raise_for(status, payload)
        return payload

    async def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Long-poll until the job is terminal (202 = still running:
        poll again)."""
        while True:
            path = f"/v1/jobs/{job_id}/wait"
            if timeout_s is not None:
                path += f"?timeout_s={timeout_s}"
            status, payload = await self.request("GET", path)
            self._raise_for(status, payload)
            if status != 202:
                return payload

    async def events(self, job_id: str) -> Dict[str, Any]:
        status, payload = await self.request(
            "GET", f"/v1/jobs/{job_id}/events"
        )
        self._raise_for(status, payload)
        return payload

    async def cancel(self, job_id: str) -> Dict[str, Any]:
        status, payload = await self.request(
            "POST", f"/v1/jobs/{job_id}/cancel"
        )
        self._raise_for(status, payload)
        return payload

    async def stats(self) -> Dict[str, Any]:
        status, payload = await self.request("GET", "/v1/stats")
        self._raise_for(status, payload)
        return payload
