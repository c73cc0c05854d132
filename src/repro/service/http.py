"""Stdlib asyncio HTTP front end for :class:`MeasurementService`.

A deliberately small HTTP/1.1 server built directly on
:func:`asyncio.start_server` -- no web framework, no new dependency.
One connection carries one request (``Connection: close``); bodies are
JSON both ways.  Routes:

==========================================  =================================
``GET  /healthz``                           liveness probe
``GET  /v1/stats``                          counters + queue depth
``POST /v1/jobs``                           submit ``{kind, params, tenant,
                                            timeout_s}`` -> 202 + job view
``GET  /v1/jobs/<id>``                      status/result view (falls back
                                            to the persisted manifest)
``GET  /v1/jobs/<id>/wait?timeout_s=T``     long-poll until terminal
``GET  /v1/jobs/<id>/events``               per-job progress notes
``POST /v1/jobs/<id>/cancel``               cancel
==========================================  =================================

Service exceptions carry their own ``http_status``
(:mod:`repro.service.jobs`), so the error path is a single translation:
``{"error": str(exc), "type": type(exc).__name__}`` with that status.
Rate-limit rejections add ``retry_after_s`` and a ``Retry-After``
header, which is all a well-behaved client needs to back off.  A
request that cannot be parsed (a malformed or over-long line, a bad
``Content-Length``, a body that is not a JSON object) gets a 400.  Any
other exception a route raises is answered the same way with a 500
and logged as a ``service_error`` event carrying the route and the
traceback, so every request gets a status line.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.core import MeasurementService
from repro.service.jobs import (
    BadRequest,
    RateLimited,
    ServiceError,
    parse_timeout,
)

MAX_BODY_BYTES = 1_000_000

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """Bind a :class:`MeasurementService` to a TCP port."""

    def __init__(
        self,
        service: MeasurementService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ServiceServer":
        """Start listening; with ``port=0`` the OS picks a free port
        and :attr:`port` is updated to the bound one."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.service.event_log.emit(
            "service_listening", host=self.host, port=self.port
        )
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ServiceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
            except _HttpParseError as exc:
                await _respond(
                    writer, exc.status, json.dumps({"error": str(exc)})
                )
                return
            try:
                status, payload, headers = await self._route(
                    method, path, body
                )
                text = json.dumps(payload)
            except Exception as exc:  # audit: ignore[R6]
                # Transport, not swallow: the failure is answered as a
                # 500 and logged with its traceback as service_error;
                # the server must answer every request it read.
                status, headers = 500, {}
                text = json.dumps(
                    {"error": str(exc), "type": type(exc).__name__}
                )
                self.service.event_log.emit(
                    "service_error",
                    route=f"{method} {path}",
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                )
            await _respond(writer, status, text, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _route(
        self, method: str, target: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        try:
            return await self._dispatch(method, path, query, body)
        except RateLimited as exc:
            return (
                exc.http_status,
                {
                    "error": str(exc),
                    "type": type(exc).__name__,
                    "retry_after_s": exc.retry_after_s,
                },
                {"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
        except ServiceError as exc:
            return (
                exc.http_status,
                {"error": str(exc), "type": type(exc).__name__},
                {},
            )

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, list],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        service = self.service
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "closed": service._closed}, {}
        if path == "/v1/stats" and method == "GET":
            return 200, service.stats(), {}
        if path == "/v1/jobs" and method == "POST":
            if body is None:
                raise BadRequest("POST /v1/jobs needs a JSON body")
            job = service.submit(
                kind=body.get("kind", ""),
                params=body.get("params", {}),
                tenant=body.get("tenant", "default"),
                timeout_s=body.get("timeout_s"),
            )
            return 202, job.view(), {}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if "/" not in rest:
                if method != "GET":
                    return _method_not_allowed(method, path)
                return 200, service.job_view(rest), {}
            job_id, action = rest.split("/", 1)
            if action == "wait" and method == "GET":
                return await self._wait(job_id, query)
            if action == "events" and method == "GET":
                job = service.get(job_id)
                return (
                    200,
                    {"job_id": job.id, "events": job.progress},
                    {},
                )
            if action == "cancel" and method == "POST":
                return 200, service.cancel(job_id).view(), {}
        return _method_not_allowed(method, path)

    async def _wait(
        self, job_id: str, query: Dict[str, list]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        job = self.service.get(job_id)
        timeout_s: Optional[float] = None
        if "timeout_s" in query:
            try:
                timeout_s = parse_timeout(float(query["timeout_s"][0]))
            except ValueError as exc:
                raise BadRequest(
                    f"timeout_s must be a number: {exc}"
                ) from exc
        if job.future is not None and not job.finished:
            try:
                await asyncio.wait_for(
                    asyncio.shield(job.future), timeout_s
                )
            except asyncio.TimeoutError:
                # Long-poll window elapsed with the job still live:
                # report current state, client polls again.
                return 202, job.view(), {}
            except ServiceError:
                pass  # terminal error is part of the view below
        return 200, job.view(), {}


def _method_not_allowed(
    method: str, path: str
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    return (
        405 if path.startswith("/v1/") or path == "/healthz" else 404,
        {"error": f"no route for {method} {path}"},
        {},
    )


class _HttpParseError(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:  # the line overran the stream's buffer limit
        raise _HttpParseError(
            400, "request line or header field too long"
        ) from None
    return line.decode("latin-1").strip()


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Optional[Dict[str, Any]]]:
    request_line = await _read_line(reader)
    if not request_line:
        raise _HttpParseError(400, "empty request")
    try:
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise _HttpParseError(
            400, f"malformed request line: {request_line!r}"
        ) from None
    content_length = 0
    while True:
        line = await _read_line(reader)
        if not line:
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _HttpParseError(
                    400, f"bad Content-Length: {value.strip()!r}"
                ) from None
    if content_length > MAX_BODY_BYTES:
        raise _HttpParseError(
            413, f"body of {content_length} bytes exceeds limit"
        )
    body: Optional[Dict[str, Any]] = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpParseError(
                400, f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise _HttpParseError(
                400, "request body must be a JSON object"
            )
    return method.upper(), target, body


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    body = text.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(
        ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    )
    await writer.drain()
