"""HTTP front end: wire roundtrips and error mapping.

Each test boots a real :class:`ServiceServer` on an OS-assigned port
and drives it with the stdlib-streams :class:`HttpClient`, so the
whole request path -- parsing, routing, status mapping, long-poll --
is exercised over an actual TCP connection.
"""

import asyncio

import pytest

from repro.obs.events import EventLog, MemorySink
from repro.service import (
    BadRequest,
    HttpClient,
    MeasurementService,
    RateLimited,
    ServiceError,
    ServiceServer,
    UnknownJob,
)

MEASURE = {"platform": "a53", "program_seed": 1}


def _run(coro):
    return asyncio.run(coro)


async def _boot(**kwargs):
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("samples", 3)
    service = await MeasurementService(**kwargs).start()
    server = await ServiceServer(service, port=0).start()
    return service, server, HttpClient(server.host, server.port)


class TestRoutes:
    def test_healthz(self):
        async def run():
            service, server, client = await _boot()
            try:
                assert (await client.healthz())["ok"] is True
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_submit_wait_view_events_stats(self):
        async def run():
            service, server, client = await _boot()
            try:
                accepted = await client.submit("measure", MEASURE)
                assert accepted["status"] in ("queued", "running")
                job_id = accepted["job_id"]
                done = await client.wait(job_id)
                assert done["status"] == "done"
                assert done["result"]["kind"] == "em-measurement"
                view = await client.view(job_id)
                assert view == done
                events = await client.events(job_id)
                names = [e["event"] for e in events["events"]]
                assert names[0] == "submitted"
                assert "finished" in names
                stats = await client.stats()
                assert stats["counters"]["done"] == 1
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_wait_long_poll_returns_202_while_running(self):
        async def run():
            # Not started: the job can never finish, so a bounded
            # wait must come back 202 with the live view.
            service = MeasurementService(seed=3, samples=3)
            server = await ServiceServer(service, port=0).start()
            client = HttpClient(server.host, server.port)
            try:
                accepted = await client.submit("measure", MEASURE)
                status, payload = await client.request(
                    "GET",
                    f"/v1/jobs/{accepted['job_id']}/wait"
                    "?timeout_s=0.05",
                )
                assert status == 202
                assert payload["status"] == "queued"
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_cancel_roundtrip(self):
        async def run():
            service = MeasurementService(seed=3, samples=3)
            server = await ServiceServer(service, port=0).start()
            client = HttpClient(server.host, server.port)
            try:
                accepted = await client.submit("measure", MEASURE)
                view = await client.cancel(accepted["job_id"])
                assert view["status"] == "cancelled"
            finally:
                await server.close()
                await service.close()

        _run(run())


class TestErrorMapping:
    def test_unknown_job_is_404_and_typed(self):
        async def run():
            service, server, client = await _boot()
            try:
                status, payload = await client.request(
                    "GET", "/v1/jobs/job-000077"
                )
                assert status == 404
                assert payload["type"] == "UnknownJob"
                with pytest.raises(UnknownJob):
                    await client.view("job-000077")
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_bad_request_is_400_and_typed(self):
        async def run():
            service, server, client = await _boot()
            try:
                with pytest.raises(BadRequest):
                    await client.submit("calibrate", {"platform": "a53"})
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_resume_dir_outside_state_dir_is_400(self, tmp_path):
        async def run():
            service, server, client = await _boot(state_dir=tmp_path)
            try:
                status, payload = await client.request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "virus",
                        "params": {
                            "platform": "a53",
                            "resume_dir": "../../etc/passwd",
                        },
                    },
                )
                assert status == 400
                assert "resume_dir" in payload["error"]
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_malformed_job_is_400_not_a_dropped_connection(self):
        async def run():
            service, server, client = await _boot(rate_per_s=100.0)
            try:
                for kind, params, tenant in [
                    ("measure", {**MEASURE, "program_length": "x"}, "t"),
                    ("virus", {"platform": "a53", "loop_length": 0}, "t"),
                    ("measure", MEASURE, ["not", "hashable"]),
                ]:
                    with pytest.raises(BadRequest):
                        await client.submit(kind, params, tenant=tenant)
                status, payload = await client.request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "measure",
                        "params": MEASURE,
                        "timeout_s": "soon",
                    },
                )
                assert status == 400
                assert "timeout_s" in payload["error"]
                # The server is still answering.
                assert (await client.healthz())["ok"] is True
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_unexpected_route_failure_is_500_and_logged(self):
        sink = MemorySink()

        async def run():
            service, server, client = await _boot(
                event_log=EventLog([sink])
            )

            def broken_stats():
                raise RuntimeError("stats exploded")

            service.stats = broken_stats
            try:
                status, payload = await client.request("GET", "/v1/stats")
                assert status == 500
                assert payload == {
                    "error": "stats exploded",
                    "type": "RuntimeError",
                }
                with pytest.raises(ServiceError) as excinfo:
                    await client.stats()
                assert excinfo.value.http_status == 500
                # The server is still answering.
                assert (await client.healthz())["ok"] is True
            finally:
                await server.close()
                await service.close()

        _run(run())
        errors = sink.events("service_error")
        assert len(errors) == 2
        assert errors[0]["route"] == "GET /v1/stats"
        assert errors[0]["error"] == "RuntimeError: stats exploded"
        assert "broken_stats" in errors[0]["traceback"]

    def test_rate_limited_is_429_with_retry_after(self):
        async def run():
            service, server, client = await _boot(
                rate_per_s=0.001, burst=1.0
            )
            try:
                await client.submit("measure", MEASURE)
                status, payload = await client.request(
                    "POST",
                    "/v1/jobs",
                    {"kind": "measure", "params": MEASURE},
                )
                assert status == 429
                assert payload["retry_after_s"] > 0.0
                with pytest.raises(RateLimited) as excinfo:
                    await client.submit("measure", MEASURE)
                assert excinfo.value.retry_after_s > 0.0
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_unknown_route_is_404(self):
        async def run():
            service, server, client = await _boot()
            try:
                status, _ = await client.request("GET", "/nope")
                assert status == 404
                status, _ = await client.request(
                    "DELETE", "/v1/jobs/job-1"
                )
                assert status == 405
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_oversize_request_line_is_400(self):
        async def run():
            service, server, _client = await _boot()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
                await service.close()

        _run(run())

    def test_malformed_body_is_400(self):
        async def run():
            service, server, _client = await _boot()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                body = b"not json"
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n%s"
                    % (len(body), body)
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
                await service.close()

        _run(run())


class TestBrokenResponse:
    """A server that closes without answering or mid-response, or
    answers garbage, gives one ``ServiceError`` naming it, never an
    ``IndexError``, ``ValueError`` or ``asyncio.IncompleteReadError``
    from the parser."""

    @pytest.mark.parametrize(
        "reply, ending",
        [
            (b"", "before sending the status line"),
            (
                b"HTTP/1.1 200 OK\r\nContent-Len",
                "before sending the end of the response head",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"ok\"",
                "before sending the last 35 of 40 body bytes",
            ),
            (
                b"hello\r\n\r\n",
                "sent a malformed response: status line 'hello'",
            ),
            # '\xb2' is a superscript two: str.isdigit() accepts it,
            # int() does not.
            (
                b"HTTP/1.1 \xb200 OK\r\n\r\n",
                "sent a malformed response: status line 'HTTP/1.1 \xb200 OK'",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
                "sent a malformed response: Content-Length 'abc'",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                "sent a malformed response: Expecting value: "
                "line 1 column 1 (char 0)",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n[1]",
                "sent a malformed response: body b'[1]': "
                "not a JSON object",
            ),
        ],
        ids=[
            "no-reply",
            "head-cut",
            "body-cut",
            "malformed-status",
            "superscript-status",
            "malformed-length",
            "body-not-json",
            "body-not-object",
        ],
    )
    def test_broken_response_is_one_service_error(self, reply, ending):
        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def run():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await HttpClient("127.0.0.1", port).healthz()
            finally:
                server.close()
                await server.wait_closed()
            message = str(excinfo.value)
            assert message.startswith(f"127.0.0.1:{port} ")
            assert message.endswith(ending)

        _run(run())
