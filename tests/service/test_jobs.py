"""Job specs: wire-format parsing, validation, lifecycle views."""

import pytest

from repro.service.jobs import (
    DONE,
    QUEUED,
    BadRequest,
    Job,
    MeasureSpec,
    QueueFull,
    RateLimited,
    SweepSpec,
    VirusSpec,
    spec_from_params,
)


class TestSpecParsing:
    def test_measure_roundtrip(self):
        spec = spec_from_params(
            "measure",
            {
                "platform": "a53",
                "program_seed": 7,
                "band": [60e6, 90e6],
                "samples": 3,
            },
        )
        assert isinstance(spec, MeasureSpec)
        assert spec.band == (60e6, 90e6)
        again = MeasureSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_sweep_roundtrip(self):
        spec = spec_from_params(
            "sweep", {"platform": "a53", "clocks_hz": [1.15e9, 1.1e9]}
        )
        assert isinstance(spec, SweepSpec)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_virus_roundtrip(self):
        spec = spec_from_params(
            "virus", {"platform": "a53", "generations": 2}
        )
        assert isinstance(spec, VirusSpec)
        assert VirusSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequest, match="unknown job kind"):
            spec_from_params("calibrate", {"platform": "a53"})

    def test_missing_platform_rejected(self):
        for kind in ("measure", "sweep", "virus"):
            with pytest.raises(BadRequest, match="platform"):
                spec_from_params(kind, {})

    def test_non_dict_params_rejected(self):
        with pytest.raises(BadRequest, match="JSON object"):
            spec_from_params("measure", [1, 2])

    @pytest.mark.parametrize(
        "band", [[2e8, 1e8], [float("nan"), 1e8], [1e8], "bad"]
    )
    def test_bad_band_rejected(self, band):
        with pytest.raises(BadRequest):
            spec_from_params(
                "measure", {"platform": "a53", "band": band}
            )

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("measure", "program_length", 0),
            ("measure", "program_length", -3),
            ("measure", "program_length", "x"),
            ("measure", "program_length", 2.5),
            ("measure", "program_seed", "abc"),
            ("measure", "program_seed", -1),
            ("measure", "samples", "3"),
            ("measure", "samples", 0),
            ("measure", "clock_hz", "fast"),
            ("measure", "clock_hz", float("nan")),
            ("measure", "voltage", -0.9),
            ("measure", "active_cores", 0),
            ("measure", "powered_cores", True),
            ("measure", "platform", ["a53"]),
            ("sweep", "clocks_hz", 5),
            ("sweep", "clocks_hz", ["x"]),
            ("sweep", "clocks_hz", [1.1e9, float("inf")]),
            ("sweep", "active_cores", 0),
            ("virus", "population", "x"),
            ("virus", "generations", 1.5),
            ("virus", "seed", -1),
            ("virus", "resume_dir", 7),
            # One over the size caps (1,000 each), and far over.
            ("measure", "program_length", 1001),
            ("measure", "program_length", 50_000),
            ("measure", "samples", 1001),
            ("measure", "samples", 10_000_000),
            ("sweep", "samples", 1001),
            ("sweep", "clocks_hz", [1.0e9] * 1001),
            ("virus", "loop_length", 1001),
            ("virus", "population", 1001),
            ("virus", "population", 10**7),
            ("virus", "generations", 1001),
            ("virus", "generations", 10**6),
        ],
    )
    def test_malformed_field_named_in_one_bad_request(
        self, kind, field, value
    ):
        params = {"platform": "a53", field: value}
        with pytest.raises(BadRequest, match=field) as excinfo:
            spec_from_params(kind, params)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("population", 1),
            ("generations", 0),
            ("loop_length", 0),
            ("mutation_rate", 2.0),
            ("mutation_rate", -0.1),
        ],
    )
    def test_virus_fields_checked_against_ga_bounds(self, field, value):
        with pytest.raises(BadRequest, match="virus spec"):
            spec_from_params("virus", {"platform": "a53", field: value})

    @pytest.mark.parametrize("kind", [["measure"], {"measure": 1}])
    def test_unhashable_kind_rejected(self, kind):
        with pytest.raises(BadRequest, match="unknown job kind"):
            spec_from_params(kind, {"platform": "a53"})

    def test_null_fields_take_their_defaults(self):
        spec = spec_from_params(
            "measure",
            {"platform": "a53", "program_length": None, "samples": None},
        )
        assert spec == MeasureSpec(platform="a53")


class TestErrors:
    def test_http_status_mapping(self):
        assert BadRequest("x").http_status == 400
        assert QueueFull(9).http_status == 429
        limited = RateLimited("alice", 1.5)
        assert limited.http_status == 429
        assert limited.retry_after_s == 1.5
        assert "alice" in str(limited)


class TestJobRecord:
    def _job(self):
        return Job(
            id="job-1",
            tenant="t",
            spec=MeasureSpec(platform="a53"),
            seq=1,
        )

    def test_view_shape(self):
        job = self._job()
        view = job.view()
        assert view["job_id"] == "job-1"
        assert view["kind"] == "measure"
        assert view["status"] == QUEUED
        assert "result" not in view
        job.status = DONE
        job.result = {"amplitude_w": 1.0}
        assert job.view()["result"] == {"amplitude_w": 1.0}

    def test_progress_notes_accumulate(self):
        job = self._job()
        job.note("submitted", tenant="t")
        job.note("batched", batch_id="batch-1")
        assert [n["event"] for n in job.progress] == [
            "submitted",
            "batched",
        ]
