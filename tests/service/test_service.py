"""MeasurementService behavior: determinism, overload, lifecycle.

The headline test pins the service's bit-identity contract: a
coalesced batch of compatible jobs produces byte-for-byte the same
per-job results -- and leaves the shared analyzer RNG in the same
state -- as the identical jobs submitted strictly sequentially to a
twin service built with the same seed.
"""

import asyncio
import json

import pytest

from repro.obs.events import EventLog, MemorySink
from repro.obs.manifest import RunManifest
from repro.platforms import registry
from repro.service import (
    BadRequest,
    InprocClient,
    JobCancelled,
    JobTimeout,
    MeasurementService,
    QueueFull,
    RateLimited,
    UnknownJob,
)

CLOCKS = registry.make_cluster("a53").spec.allowed_clocks_hz()[:2]

MEASURE_SPECS = [
    {"platform": "a53", "program_seed": 1},
    {"platform": "a53", "program_seed": 2},
    {"platform": "a53", "program_seed": 3},
]


def _service(**kwargs):
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("samples", 3)
    return MeasurementService(**kwargs)


def _rng_state(service, platform="a53"):
    analyzer = service._states[platform].characterizer.analyzer
    return json.dumps(
        analyzer.rng.bit_generator.state, sort_keys=True, default=str
    )


class TestDeterminism:
    def test_coalesced_batch_bit_identical_to_sequential(self):
        async def coalesced():
            async with _service() as svc:
                jobs = [
                    svc.submit("measure", spec)
                    for spec in MEASURE_SPECS
                ]
                results = [await j.wait() for j in jobs]
                # All three really rode one batch.
                assert svc.counters["batches"] == 1
                assert len({j.batch_id for j in jobs}) == 1
                return results, _rng_state(svc)

        async def sequential():
            async with _service() as svc:
                results = []
                for spec in MEASURE_SPECS:
                    job = svc.submit("measure", spec)
                    results.append(await job.wait())
                assert svc.counters["batches"] == 3
                return results, _rng_state(svc)

        batched, rng_a = asyncio.run(coalesced())
        serial, rng_b = asyncio.run(sequential())
        assert json.dumps(batched, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert rng_a == rng_b

    def test_mixed_measure_sweep_coalesce_and_match_sequential(self):
        specs = [
            ("measure", {"platform": "a53", "program_seed": 5}),
            ("sweep", {"platform": "a53", "clocks_hz": list(CLOCKS)}),
            ("measure", {"platform": "a53", "program_seed": 6}),
        ]

        async def run(sequential):
            async with _service() as svc:
                results = []
                if sequential:
                    for kind, params in specs:
                        results.append(
                            await svc.submit(kind, params).wait()
                        )
                else:
                    jobs = [svc.submit(k, p) for k, p in specs]
                    results = [await j.wait() for j in jobs]
                    assert svc.counters["batches"] == 1
                return results, _rng_state(svc)

        batched, rng_a = asyncio.run(run(sequential=False))
        serial, rng_b = asyncio.run(run(sequential=True))
        assert json.dumps(batched, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert rng_a == rng_b

    def test_incompatible_settings_split_but_stay_deterministic(self):
        specs = [
            {"platform": "a53", "program_seed": 1},
            {"platform": "a53", "program_seed": 2, "samples": 5},
            {"platform": "a53", "program_seed": 3},
        ]

        async def run():
            async with _service() as svc:
                jobs = [svc.submit("measure", s) for s in specs]
                results = [await j.wait() for j in jobs]
                # Differing samples breaks the run at job 2: no batch
                # may skip over it.
                assert svc.counters["batches"] == 3
                return results

        first = asyncio.run(run())
        second = asyncio.run(run())
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestOverload:
    def test_rate_limited_tenant_gets_429(self):
        async def run():
            async with _service(rate_per_s=0.001, burst=1.0) as svc:
                client = InprocClient(svc)
                job = client.submit(
                    "measure", MEASURE_SPECS[0], tenant="alice"
                )
                with pytest.raises(RateLimited) as excinfo:
                    client.submit(
                        "measure", MEASURE_SPECS[1], tenant="alice"
                    )
                assert excinfo.value.http_status == 429
                assert excinfo.value.retry_after_s > 0.0
                # An independent tenant is not affected.
                other = client.submit(
                    "measure", MEASURE_SPECS[1], tenant="bob"
                )
                await asyncio.gather(job.wait(), other.wait())
                assert svc.counters["rejected_rate_limit"] == 1

        asyncio.run(run())

    def test_full_queue_sheds_load(self):
        async def run():
            svc = _service(max_pending_jobs=2)  # never started: no drain
            svc.submit("measure", MEASURE_SPECS[0])
            svc.submit("measure", MEASURE_SPECS[1])
            with pytest.raises(QueueFull) as excinfo:
                svc.submit("measure", MEASURE_SPECS[2])
            assert excinfo.value.http_status == 429
            assert svc.counters["rejected_queue_full"] == 1

        asyncio.run(run())


class TestLifecycle:
    def test_queued_job_times_out(self):
        async def run():
            svc = _service()
            job = svc.submit(
                "measure", MEASURE_SPECS[0], timeout_s=0.005
            )
            await asyncio.sleep(0.05)  # expire while still queued
            await svc.start()
            with pytest.raises(JobTimeout):
                await job.wait()
            assert job.status == "timeout"
            await svc.close()

        asyncio.run(run())

    def test_cancel_queued_job(self):
        async def run():
            svc = _service()
            job = svc.submit("measure", MEASURE_SPECS[0])
            svc.cancel(job.id)
            assert job.status == "cancelled"
            await svc.start()
            with pytest.raises(JobCancelled):
                await job.wait()
            await svc.close()

        asyncio.run(run())

    def test_unknown_platform_rejected_before_queueing(self):
        async def run():
            async with _service() as svc:
                with pytest.raises(BadRequest, match="pdp11"):
                    svc.submit("measure", {"platform": "pdp11"})
                assert len(svc._coalescer) == 0

        asyncio.run(run())

    def test_invalid_operating_point_rejects_submission(self):
        async def run():
            async with _service() as svc:
                with pytest.raises(BadRequest, match="not reachable"):
                    svc.submit(
                        "measure",
                        {"platform": "a53", "clock_hz": 1.23456e9},
                    )

        asyncio.run(run())

    MALFORMED = [
        ("measure", {"program_length": 0}, {}, "program_length"),
        ("measure", {"program_length": -3}, {}, "program_length"),
        ("measure", {"program_length": "x"}, {}, "program_length"),
        ("measure", {"program_seed": "abc"}, {}, "program_seed"),
        ("measure", {"program_seed": -1}, {}, "program_seed"),
        ("measure", {"samples": "3"}, {}, "samples"),
        ("measure", {"clock_hz": "fast"}, {}, "clock_hz"),
        ("measure", {"platform": ["a53"]}, {}, "platform"),
        ("measure", {"band": [1e8, 1e8]}, {}, "band"),
        ("measure", {"band": [5e9, 6e9]}, {}, "band"),
        ("sweep", {"clocks_hz": 5}, {}, "clocks_hz"),
        ("sweep", {"clocks_hz": ["x"]}, {}, "clocks_hz"),
        ("virus", {"population": "x"}, {}, "population"),
        ("virus", {"mutation_rate": 2.0}, {}, "mutation_rate"),
        ("virus", {"loop_length": 0}, {}, "loop_length"),
        ("measure", {}, {"timeout_s": "soon"}, "timeout_s"),
        ("measure", {}, {"timeout_s": float("nan")}, "timeout_s"),
        ("measure", {}, {"timeout_s": float("inf")}, "timeout_s"),
        ("measure", {}, {"timeout_s": 0.0}, "timeout_s"),
        ("measure", {}, {"tenant": ["alice"]}, "tenant"),
        ("measure", {}, {"tenant": 7}, "tenant"),
        # One over the size caps (1,000 each): refused before any
        # program is built or any noise block is drawn.
        ("measure", {"program_length": 1001}, {}, "program_length"),
        ("measure", {"samples": 1001}, {}, "samples"),
        ("sweep", {"samples": 1001}, {}, "samples"),
        ("sweep", {"clocks_hz": [CLOCKS[0]] * 1001}, {}, "clocks_hz"),
        ("virus", {"loop_length": 1001}, {}, "loop_length"),
        # A virus campaign holds the single worker thread: its size is
        # capped too.
        ("virus", {"population": 1001}, {}, "population"),
        ("virus", {"population": 10**7}, {}, "population"),
        ("virus", {"generations": 1001}, {}, "generations"),
        ("virus", {"generations": 10**6}, {}, "generations"),
    ]

    @pytest.mark.parametrize(
        "kind, params, submit_kwargs, field",
        MALFORMED,
        ids=[
            f"{kind}-{field}-{index}"
            for index, (kind, _, _, field) in enumerate(MALFORMED)
        ],
    )
    def test_malformed_submission_is_one_bad_request(
        self, kind, params, submit_kwargs, field
    ):
        async def run():
            # With a rate limit the tenant keys a bucket dict, where an
            # unhashable tenant used to raise TypeError.
            async with _service(rate_per_s=100.0) as svc:
                with pytest.raises(BadRequest, match=field):
                    svc.submit(
                        kind,
                        {"platform": "a53", **params},
                        **submit_kwargs,
                    )
                assert len(svc._coalescer) == 0
                assert svc.counters["submitted"] == 0

        asyncio.run(run())

    def test_bad_job_refused_without_failing_its_neighbours(self):
        async def run():
            async with _service() as svc:
                # No await between submissions: the good jobs queue
                # together and coalesce into one batch.
                good = [svc.submit("measure", MEASURE_SPECS[0])]
                with pytest.raises(BadRequest, match="active_cores"):
                    svc.submit(
                        "measure",
                        {"platform": "a53", "active_cores": 0},
                    )
                good += [
                    svc.submit("measure", spec)
                    for spec in MEASURE_SPECS[1:]
                ]
                for job in good:
                    await job.wait()
                assert [job.status for job in good] == ["done"] * 3
                assert len({job.batch_id for job in good}) == 1
                assert svc.counters["failed"] == 0

        asyncio.run(run())

    def test_close_without_drain_cancels_queued_jobs(self):
        async def run():
            svc = _service()
            await svc.start()
            # Occupy the dispatcher, then pile on queued work.
            first = svc.submit("measure", MEASURE_SPECS[0])
            await first.wait()
            svc._wake.clear()
            queued = svc.submit("measure", MEASURE_SPECS[1])
            await svc.close()
            assert queued.status == "cancelled"

        asyncio.run(run())


class TestVirusJobs:
    def test_virus_runs_exclusively(self):
        async def run():
            async with _service() as svc:
                virus = svc.submit(
                    "virus",
                    {
                        "platform": "a53",
                        "generations": 1,
                        "population": 2,
                        "loop_length": 4,
                    },
                )
                measure = svc.submit("measure", MEASURE_SPECS[0])
                summary = await virus.wait()
                await measure.wait()
                assert summary["kind"] == "ga-run-summary"
                assert svc.counters["batches"] == 2  # never coalesced

        asyncio.run(run())

    def test_virus_resume_from_missing_checkpoint_fails_cleanly(
        self, tmp_path
    ):
        """``resume_dir`` names a checkpoint file under ``state_dir``."""

        async def run():
            async with _service(state_dir=tmp_path) as svc:
                job = svc.submit(
                    "virus",
                    {
                        "platform": "a53",
                        "generations": 1,
                        "population": 2,
                        "resume_dir": "nope/checkpoint.json",
                    },
                )
                with pytest.raises(Exception):
                    await job.wait()
                assert job.status == "failed"
                # One-line error naming the file as the client did, not
                # a traceback, and not the server's own path.
                assert "'nope/checkpoint.json': no checkpoint found" in (
                    job.error
                )
                assert str(tmp_path) not in job.error
                assert "\n" not in job.error

        asyncio.run(run())

    def test_virus_resume_from_corrupt_checkpoint_fails_cleanly(
        self, tmp_path
    ):
        (tmp_path / "checkpoint.json").write_text("not a checkpoint")

        async def run():
            async with _service(state_dir=tmp_path) as svc:
                job = svc.submit(
                    "virus",
                    {
                        "platform": "a53",
                        "generations": 1,
                        "population": 2,
                        "resume_dir": "checkpoint.json",
                    },
                )
                with pytest.raises(Exception):
                    await job.wait()
                assert job.status == "failed"
                assert job.error.endswith(
                    "'checkpoint.json': no valid checkpoint"
                )
                assert str(tmp_path) not in job.error

        asyncio.run(run())

    @pytest.mark.parametrize(
        "resume_dir, reason",
        [
            ("/etc/hostname", "relative"),
            ("../../etc/passwd", "inside"),
            ("sub/../../outside.json", "inside"),
            ("escape/checkpoint.json", "inside"),
            ("loop/checkpoint.json", "usable"),
            ("nul\x00byte.json", "usable"),
        ],
        ids=[
            "absolute", "dotdot", "dotdot-after-subdir", "symlink",
            "symlink-loop", "nul-byte",
        ],
    )
    def test_bad_resume_dir_refused_at_submission(
        self, tmp_path, resume_dir, reason
    ):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        outside = tmp_path / "outside"
        outside.mkdir()
        (state_dir / "escape").symlink_to(outside)
        (state_dir / "loop").symlink_to(state_dir / "loop")

        async def run():
            async with _service(state_dir=state_dir) as svc:
                with pytest.raises(BadRequest) as excinfo:
                    svc.submit(
                        "virus",
                        {"platform": "a53", "resume_dir": resume_dir},
                    )
                message = str(excinfo.value)
                assert excinfo.value.http_status == 400
                assert message.startswith("resume_dir ")
                assert reason in message
                # The refusal says nothing about the file itself.
                assert "etc" not in message and "\n" not in message
                assert svc.counters["submitted"] == 0

        asyncio.run(run())

    def test_resume_dir_refused_without_state_dir(self):
        async def run():
            async with _service() as svc:
                with pytest.raises(BadRequest, match="^resume_dir needs"):
                    svc.submit(
                        "virus",
                        {"platform": "a53", "resume_dir": "c.json"},
                    )
                assert svc.counters["submitted"] == 0

        asyncio.run(run())


class TestPersistence:
    def test_unknown_job_error_names_checked_path(self, tmp_path):
        async def run():
            async with _service(state_dir=tmp_path) as svc:
                with pytest.raises(UnknownJob) as excinfo:
                    svc.job_view("job-000099")
                message = str(excinfo.value)
                assert "job-000099" in message
                assert str(tmp_path / "job-000099") in message
                assert "\n" not in message

        asyncio.run(run())

    def test_unknown_job_without_state_dir(self):
        async def run():
            async with _service() as svc:
                with pytest.raises(UnknownJob, match="job-000042"):
                    svc.get("job-000042")

        asyncio.run(run())

    def test_evicted_job_rehydrates_from_manifest(self, tmp_path):
        async def run():
            async with _service(
                state_dir=tmp_path, max_finished_jobs=1
            ) as svc:
                first = svc.submit("measure", MEASURE_SPECS[0])
                await first.wait()
                second = svc.submit("measure", MEASURE_SPECS[1])
                await second.wait()
                assert first.id not in svc._jobs  # evicted
                view = svc.job_view(first.id)
                assert view["from_manifest"] is True
                assert view["status"] == "done"
                assert view["result"]["kind"] == "em-measurement"
                # The artifact dir speaks the standard provenance
                # protocol.
                manifest = RunManifest.load(tmp_path / first.id)
                assert manifest.command == "service-measure"
                assert manifest.extra["job_id"] == first.id
                assert "result.json" in manifest.artifacts

        asyncio.run(run())

    def test_provenance_report_renders_service_job(self, tmp_path):
        from repro.analysis.report import report_from_provenance

        async def run():
            async with _service(state_dir=tmp_path) as svc:
                job = svc.submit("measure", MEASURE_SPECS[0])
                await job.wait()
                return job.id

        job_id = asyncio.run(run())
        report = report_from_provenance(tmp_path / job_id)
        assert "service-measure" in report


def _assert_same_tree(a, b, path="payload"):
    """Equal values of the same type at every node (a tuple or a numpy
    scalar differs in type from what its JSON round trip gives)."""
    assert type(a) is type(b), (path, type(a), type(b))
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            _assert_same_tree(x, y, f"{path}[{index}]")
    else:
        assert a == b, path


class TestPayloads:
    """A job's payload is plain data, exactly its own JSON round trip,
    so the HTTP body and the persisted ``result.json`` equal it."""

    JOBS = [
        ("measure", {"platform": "a53", "program_seed": 4}),
        ("sweep", {"platform": "a53", "clocks_hz": list(CLOCKS)}),
        (
            "virus",
            {
                "platform": "a53",
                "generations": 1,
                "population": 2,
                "loop_length": 4,
            },
        ),
    ]

    @pytest.mark.parametrize(
        "kind, params", JOBS, ids=[kind for kind, _ in JOBS]
    )
    def test_payload_equals_its_json_round_trip(self, kind, params):
        async def run():
            async with _service() as svc:
                return await svc.submit(kind, params).wait()

        payload = asyncio.run(run())
        _assert_same_tree(payload, json.loads(json.dumps(payload)))
        assert payload["kind"] in (
            "em-measurement",
            "resonance-sweep",
            "ga-run-summary",
        )


class TestObservability:
    def test_job_events_stream_with_batch_tags(self):
        sink = MemorySink()

        async def run():
            async with _service(event_log=EventLog([sink])) as svc:
                jobs = [
                    svc.submit("measure", spec)
                    for spec in MEASURE_SPECS[:2]
                ]
                for job in jobs:
                    await job.wait()
                return jobs

        jobs = asyncio.run(run())
        names = [r["event"] for r in sink.records]
        assert names.count("job_submitted") == 2
        assert names.count("job_batched") == 1
        assert names.count("job_done") == 2
        assert names[-1] == "service_stop"
        # Chain events carry the job attribution.
        chain_events = [
            r for r in sink.records if r["event"] == "chain_run"
        ]
        assert chain_events
        assert chain_events[0]["jobs"] == [j.id for j in jobs]
        assert chain_events[0]["batch"] == jobs[0].batch_id

    def test_stats_shape(self):
        async def run():
            async with _service() as svc:
                job = svc.submit("measure", MEASURE_SPECS[0])
                await job.wait()
                stats = svc.stats()
                assert stats["counters"]["done"] == 1
                assert stats["queue_depth"] == 0
                assert stats["platforms_active"] == ["a53"]

        asyncio.run(run())
