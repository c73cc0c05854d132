"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, resolve_cluster
from repro.obs.events import read_jsonl
from repro.obs.manifest import RunManifest

VIRUS_ARGS = [
    "virus", "--platform", "a53",
    "--population", "6", "--generations", "3", "--loop-length", "6",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_platform_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--platform", "m1"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8423
        assert args.rate is None
        assert args.state_dir is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--rate", "2.5",
             "--state-dir", "/tmp/svc", "--timeout", "30"]
        )
        assert args.port == 0
        assert args.rate == 2.5
        assert args.state_dir == "/tmp/svc"
        assert args.timeout == 30.0


class TestResolve:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("a72", "cortex-a72"),
            ("a53", "cortex-a53"),
            ("amd", "amd-athlon-ii-x4-645"),
            ("gpu", "gpu-8cu"),
        ],
    )
    def test_resolve_cluster(self, name, expected):
        assert resolve_cluster(name).name == expected

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            resolve_cluster("sparc")


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Cortex-A72" in out and "Athlon" in out

    def test_impedance(self, capsys):
        assert main(
            ["impedance", "--platform", "a72", "--points", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "first-order resonance" in out
        assert "67" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--platform", "a72", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "first-order resonance" in out

    def test_virus_to_stdout(self, capsys):
        assert main(
            [
                "virus", "--platform", "a72",
                "--population", "8", "--generations", "3",
                "--loop-length", "16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "virus for cortex-a72" in out
        assert "b " in out  # assembly back-edge

    def test_virus_archive_and_vmin(self, capsys, tmp_path):
        assert main(
            [
                "virus", "--platform", "a72",
                "--population", "8", "--generations", "3",
                "--loop-length", "16", "--out", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        meta = tmp_path / "cortex-a72-em-amplitude.meta.json"
        assert meta.exists()
        assert main(
            [
                "vmin", "--platform", "a72",
                "--workloads", "idle",
                "--virus", str(meta),
                "--virus-repeats", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "idle" in out and "virus" in out

    def test_vmin_unknown_workload(self, capsys):
        assert main(
            ["vmin", "--platform", "a72", "--workloads", "doom"]
        ) == 2

    @pytest.mark.parametrize(
        "names, message",
        [(",", "must name at least one"), ("idle,idle", "'idle' twice")],
        ids=["empty", "repeated"],
    )
    def test_vmin_bad_workload_list(
        self, capsys, monkeypatch, names, message
    ):
        """An empty or repeated workload list used to print an empty
        or short table and exit 0; it fails before any ladder runs."""
        from repro.stability.vmin import VminTester

        def no_ladder(*args, **kwargs):
            raise AssertionError("a ladder ran before the name check")

        monkeypatch.setattr(VminTester, "run", no_ladder)
        assert main(
            ["vmin", "--platform", "a53", "--workloads", names]
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: bad --workloads {names}: ")
        assert message in line

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for key in ("a72", "a53", "amd", "gpu"):
            assert key in out

    def test_report(self, capsys):
        assert main(
            [
                "report", "--platform", "a72",
                "--population", "8", "--generations", "3",
                "--no-vmin",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "# PDN characterization: cortex-a72" in out
        assert "EM-driven dI/dt virus" in out
        assert "V_MIN ladder" not in out


class TestArtifactProvenance:
    def test_virus_out_writes_manifest_and_event_log(
        self, capsys, tmp_path
    ):
        assert main(VIRUS_ARGS + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = RunManifest.load(tmp_path)
        assert manifest.command == "virus"
        assert manifest.platform == "a53"
        assert manifest.config["generations"] == 3
        assert manifest.event_log == "events.jsonl"
        for artifact in manifest.artifacts:
            assert (tmp_path / artifact).exists()
        events = read_jsonl(tmp_path / manifest.event_log)
        names = [e["event"] for e in events]
        assert "ga_run_start" in names
        assert names.count("generation_end") == 3
        assert "checkpoint_saved" not in names  # every 5 > 3 gens
        assert "ga_run_end" in names

    def test_sweep_out_writes_manifest_and_result(
        self, capsys, tmp_path
    ):
        assert main(
            [
                "sweep", "--platform", "a72", "--samples", "2",
                "--out", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        manifest = RunManifest.load(tmp_path)
        assert manifest.command == "sweep"
        assert (tmp_path / "cortex-a72-sweep.json").exists()
        events = read_jsonl(tmp_path / manifest.event_log)
        assert any(e["event"] == "sweep_point" for e in events)

    def test_provenance_regenerates_report(self, capsys, tmp_path):
        assert main(VIRUS_ARGS + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["provenance", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# Run report: virus on a53" in out
        assert "## GA convergence (from event log)" in out
        assert "## Archived virus (from summary artifact)" in out


class TestResumeFlow:
    def test_interrupted_run_resumes_identically(
        self, capsys, tmp_path
    ):
        full_dir = tmp_path / "full"
        part_dir = tmp_path / "part"
        assert main(VIRUS_ARGS + ["--out", str(full_dir)]) == 0
        # truncated campaign, checkpointing every generation
        assert main(
            [
                "virus", "--platform", "a53",
                "--population", "6", "--generations", "2",
                "--loop-length", "6",
                "--out", str(part_dir), "--checkpoint-every", "1",
            ]
        ) == 0
        ckpt = part_dir / "checkpoint.json"
        assert ckpt.exists()
        assert main(
            VIRUS_ARGS
            + [
                "--out", str(part_dir),
                "--checkpoint-every", "1",
                "--resume", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()

        name = "cortex-a53-em-amplitude.summary.json"
        full = json.loads((full_dir / name).read_text())
        resumed = json.loads((part_dir / name).read_text())
        assert resumed == full  # byte-identical continuation

        manifest = RunManifest.load(part_dir)
        assert manifest.extra["resumed_from"] == str(ckpt)
        assert manifest.extra["checkpoint"] == "checkpoint.json"

    def test_resume_missing_file_fails_with_one_line_error(
        self, capsys, tmp_path
    ):
        """No traceback: a clear one-liner naming the path, exit 2."""
        missing = tmp_path / "nope.json"
        assert main(VIRUS_ARGS + ["--resume", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot resume from {missing}" in err
        assert str(missing) in err

    def test_resume_from_directory_fails_with_one_line_error(
        self, capsys, tmp_path
    ):
        """A directory is not a checkpoint file: one ``error:`` line
        naming it, exit 2."""
        empty = tmp_path / "checkpoints"
        empty.mkdir()
        assert main(VIRUS_ARGS + ["--resume", str(empty)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot resume from {empty}")


class TestFaultPlanFlow:
    @staticmethod
    def _plan(tmp_path, specs):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            specs=tuple(FaultSpec(**s) for s in specs)
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        return path

    def test_virus_under_fault_plan_matches_fault_free(
        self, capsys, tmp_path
    ):
        """A transient chain fault retried to success leaves the
        archived campaign byte-identical to the fault-free one."""
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"
        plan = self._plan(
            tmp_path,
            [{"site": "chain.receive", "at_visit": 0}],
        )
        assert main(VIRUS_ARGS + ["--out", str(clean_dir)]) == 0
        assert main(
            VIRUS_ARGS
            + [
                "--out", str(chaos_dir),
                "--fault-plan", str(plan),
                "--max-retries", "2",
            ]
        ) == 0
        capsys.readouterr()
        name = "cortex-a53-em-amplitude.summary.json"
        clean = (clean_dir / name).read_text()
        chaos = (chaos_dir / name).read_text()
        assert chaos == clean
        events = read_jsonl(chaos_dir / "events.jsonl")
        names = [e["event"] for e in events]
        assert "fault_injected" in names
        assert "retry_attempt" in names
        manifest = RunManifest.load(chaos_dir)
        assert manifest.extra["fault_plan"] == str(plan)
        assert manifest.extra["max_retries"] == 2

    def test_bad_fault_plan_path_errors_cleanly(self, capsys, tmp_path):
        assert main(
            VIRUS_ARGS
            + ["--fault-plan", str(tmp_path / "missing.json")]
        ) == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_malformed_fault_plan_errors_cleanly(
        self, capsys, tmp_path
    ):
        path = tmp_path / "plan.json"
        path.write_text('{"kind": "not-a-plan"}', encoding="utf-8")
        assert main(VIRUS_ARGS + ["--fault-plan", str(path)]) == 2
        assert "bad fault plan" in capsys.readouterr().err



#: (command, flags) pairs whose last flag carries a value out of the
#: bounds GAConfig, RetryPolicy, the engine, VminTester, ResonanceSweep,
#: the cluster's core count or the impedance command's resonance band
#: check.
BAD_NUMBERS = [
    ("virus", ["--workers", "0"]),
    ("virus", ["--population", "1"]),
    ("virus", ["--generations", "0"]),
    ("virus", ["--loop-length", "0"]),
    ("virus", ["--mutation-rate", "2"]),
    ("virus", ["--checkpoint-every", "0"]),
    ("virus", ["--max-retries", "-1"]),
    ("virus", ["--seed", "-1"]),
    ("report", ["--population", "1"]),
    ("report", ["--seed", "-1"]),
    ("vmin", ["--step", "0"]),
    ("vmin", ["--step", "-0.01"]),
    ("vmin", ["--step", "inf"]),
    ("vmin", ["--step", "nan"]),
    ("vmin", ["--step", "5"]),
    ("vmin", ["--seed", "-1"]),
    ("vmin", ["--repeats", "0"]),
    ("vmin", ["--virus-repeats", "0"]),
    ("sweep", ["--samples", "0"]),
    ("sweep", ["--samples", "-1"]),
    ("sweep", ["--cores", "9"]),
    ("sweep", ["--cores", "0"]),
    ("sweep", ["--seed", "-1"]),
    ("impedance", ["--cores", "9"]),
    ("impedance", ["--cores", "0"]),
    ("impedance", ["--points", "0"]),
    ("impedance", ["--points", "5"]),
    ("impedance", ["--points", "-1"]),
]

#: Arguments each command gets before the bad flag.
BAD_NUMBER_BASES = {
    "virus": VIRUS_ARGS,
    "report": ["report", "--platform", "a53"],
    "vmin": ["vmin", "--platform", "a72"],
    "sweep": ["sweep", "--platform", "a72"],
    "impedance": ["impedance", "--platform", "a72"],
}

#: Commands that archive to ``--out`` (which must stay empty).
ARCHIVING = {"virus", "report", "sweep"}

#: ``serve`` flags whose last value is out of the bounds of the job
#: ``samples`` check, the service's default timeout, the coalescer, the
#: token bucket or a TCP port.
BAD_SERVE_NUMBERS = [
    ["--samples", "0"],
    ["--samples", "1001"],
    ["--max-pending", "0"],
    ["--max-batch-items", "0"],
    ["--rate", "0"],
    ["--rate", "-1"],
    ["--rate", "1", "--burst", "0.5"],
    ["--timeout", "0"],
    ["--timeout", "-1"],
    ["--port", "70000"],
    ["--port", "-1"],
    ["--seed", "-1"],
]


def write_virus_archive(directory):
    """A minimal virus archive, as ``load_virus_archive`` reads it."""
    from repro.cpu.arm import ARM_ISA
    from repro.cpu.program import program_from_mnemonics
    from repro.io.serialization import save_program

    save_program(
        program_from_mnemonics(ARM_ISA, ["add", "sdiv"]),
        directory / "virus.json",
    )
    meta = directory / "virus.meta.json"
    meta.write_text(json.dumps({"program_file": "virus.json"}))
    return meta


class TestBadNumbers:
    @pytest.mark.parametrize(
        "command, flags",
        BAD_NUMBERS,
        ids=[" ".join([c, *f]) for c, f in BAD_NUMBERS],
    )
    def test_one_line_error_naming_the_flag(
        self, capsys, tmp_path, command, flags
    ):
        out_flags = ["--out", str(tmp_path)] if command in ARCHIVING else []
        assert main(BAD_NUMBER_BASES[command] + flags + out_flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: bad {flags[-2]} {flags[-1]}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags", BAD_SERVE_NUMBERS, ids=[" ".join(f) for f in BAD_SERVE_NUMBERS]
    )
    def test_serve_checks_numbers_before_starting(
        self, capsys, monkeypatch, flags
    ):
        from repro.service import MeasurementService, ServiceServer

        async def no_start(self):
            raise AssertionError("started before the numbers were checked")

        monkeypatch.setattr(MeasurementService, "start", no_start)
        monkeypatch.setattr(ServiceServer, "start", no_start)
        assert main(["serve"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: bad {flags[-2]} {flags[-1]}")

    @pytest.mark.parametrize("flag", ["--virus-repeats", "--repeats"])
    def test_vmin_repeats_checked_before_any_ladder(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        from repro.stability.vmin import VminTester

        def no_ladder(*args, **kwargs):
            raise AssertionError("a ladder ran before the repeat check")

        monkeypatch.setattr(VminTester, "run", no_ladder)
        meta = write_virus_archive(tmp_path)
        assert main(
            BAD_NUMBER_BASES["vmin"]
            + ["--workloads", "idle,gcc", "--virus", str(meta), flag, "0"]
        ) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: bad {flag} 0: ")

    @pytest.mark.parametrize("step", ["inf", "5"])
    def test_vmin_step_checked_before_any_ladder(
        self, capsys, tmp_path, monkeypatch, step
    ):
        """A step that leaves no second rung would print a made-up
        ``nan`` V_MIN; it must fail before the first workload runs."""
        from repro.stability.vmin import VminTester

        def no_ladder(*args, **kwargs):
            raise AssertionError("a ladder ran before the step check")

        monkeypatch.setattr(VminTester, "run", no_ladder)
        meta = write_virus_archive(tmp_path)
        assert main(
            BAD_NUMBER_BASES["vmin"]
            + ["--workloads", "idle,gcc", "--virus", str(meta),
               "--step", step]
        ) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: bad --step {float(step)}: step_v ")

    @pytest.mark.parametrize(
        "meta_text, registers, message",
        [
            (None, None, ""),
            ("{}", None, ""),
            # The program's vmul needs the vec file the archive drops.
            (None, {"int": 16}, "instruction 0 (vmul) uses the 'vec' "
             "register file, which armv8 does not declare"),
            (None, {"int": 2, "fp": 16, "vec": 16},
             "instruction 1 (add) uses register 2 outside 0..1"),
            ('{"program_file": 5}', None, "must be a file name, not 5"),
            (b"\xff\xfe", None, "invalid start byte"),
        ],
        ids=["missing", "no-program-file", "no-vec-file",
             "register-outside-file", "program-file-not-a-name",
             "undecodable"],
    )
    def test_vmin_bad_virus_archive(
        self, capsys, tmp_path, meta_text, registers, message
    ):
        meta = tmp_path / "virus.meta.json"
        if isinstance(meta_text, bytes):
            meta.write_bytes(meta_text)
        elif meta_text is not None:
            meta.write_text(meta_text)
        if registers is not None:
            from repro.cpu.arm import ARM_ISA
            from repro.cpu.program import program_from_mnemonics
            from repro.io.serialization import program_to_dict

            data = program_to_dict(
                program_from_mnemonics(ARM_ISA, ["vmul", "add"])
            )
            data["registers"] = registers
            (tmp_path / "virus.json").write_text(json.dumps(data))
            meta.write_text(json.dumps({"program_file": "virus.json"}))
        assert main(BAD_NUMBER_BASES["vmin"] + ["--virus", str(meta)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: bad --virus {meta}: ")
        assert line.endswith(message)
