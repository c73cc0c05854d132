"""Command-line interface: characterize simulated platforms from a shell.

Subcommands mirror the paper's workflow; every artifact-producing run
writes a ``run_manifest.json`` + JSONL event log next to its outputs::

    python -m repro platforms
    python -m repro table1
    python -m repro impedance --platform a72
    python -m repro sweep --platform a53 --cores 1 --out sweeps/
    python -m repro virus --platform a72 --generations 40 --out viruses/
    # interrupted?  resume bit-identically from the saved checkpoint:
    python -m repro virus --platform a72 --generations 40 --out viruses/ \
        --resume viruses/checkpoint.json
    python -m repro vmin --platform a72 --workloads lbm,gcc,idle \
        --virus viruses/cortex-a72-em-amplitude.meta.json
    python -m repro report --platform a72 --out reports/
    # regenerate a report from provenance alone (no re-run):
    python -m repro provenance viruses/

Platform keys are resolved through the Table 1 registry
(:mod:`repro.platforms.registry`); ``platforms`` lists every runnable
entry.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import ResonanceSweep, check_samples_per_point
from repro.core.virusgen import VirusGenerator
from repro.faults.retry import RetryPolicy
from repro.ga.engine import GAConfig
from repro.ga.topology import TOPOLOGIES
from repro.instruments.spectrum_analyzer import (
    SpectrumAnalyzer,
    watts_to_dbm,
)
from repro.obs.context import RunContext
from repro.obs.events import EventLog, JsonlFileSink, StderrSink
from repro.obs.manifest import RunManifest
from repro.pdn.impedance import points_in_band
from repro.platforms import registry
from repro.platforms.base import Cluster

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.chain.session import SimulationSession

PLATFORM_CHOICES = registry.platform_keys()

EVENT_LOG_FILENAME = "events.jsonl"
CHECKPOINT_FILENAME = "checkpoint.json"

#: Default checkpoint directory for island campaigns (``--islands``).
ISLAND_CHECKPOINT_DIRNAME = "island-checkpoints"

#: The flag that sets each field whose bound ``GAConfig``,
#: ``IslandConfig``, ``RetryPolicy``, the GA engine, ``VminTester`` or
#: ``ResonanceSweep`` checks.
_FIELD_FLAGS = {
    "population_size": "--population",
    "generations": "--generations",
    "loop_length": "--loop-length",
    "mutation_rate": "--mutation-rate",
    "workers": "--workers",
    "islands": "--islands",
    "migration_interval": "--migration-interval",
    "max_retries": "--max-retries",
    "checkpoint_every": "--checkpoint-every",
    "step_v": "--step",
    "virus_repeats": "--virus-repeats",
    "benchmark_repeats": "--repeats",
    "samples_per_point": "--samples",
}

#: The band the ``impedance`` command reads the first-order resonance in.
FIRST_ORDER_BAND_HZ = (50e6, 200e6)


def resolve_cluster(name: str) -> Cluster:
    """Build the named platform's cluster at its nominal state."""
    try:
        return registry.make_cluster(name)
    except KeyError as exc:
        raise ValueError(str(exc)) from None


def make_characterizer(
    seed: int, session: Optional["SimulationSession"] = None
) -> EMCharacterizer:
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=10,
        session=session,
    )


def _audited_characterizer(args, log) -> tuple:
    """(characterizer, tracker-or-None) honouring ``--audit``.

    With ``--audit`` the characterizer's session carries a
    :class:`repro.audit.DeterminismTracker`: cache hits are
    shadow-recomputed on a seeded sample and the chain keeps an RNG
    draw ledger, with violations raised and mirrored into the event
    log.  The tracker's own sampling PRNG is seeded from the run seed,
    so an audited run is itself reproducible -- and never perturbs the
    measurement streams, so results stay byte-identical to an
    un-audited run.
    """
    if not getattr(args, "audit", False):
        return make_characterizer(args.seed), None
    from repro.audit import DeterminismTracker
    from repro.chain.session import SimulationSession

    tracker = DeterminismTracker(seed=args.seed, event_log=log)
    session = SimulationSession(audit=tracker)
    return make_characterizer(args.seed, session=session), tracker


def _open_event_log(args) -> tuple:
    """(EventLog, relative log name or None) for an artifact run.

    ``--out`` runs always archive a JSONL event log next to their
    artifacts; ``--events -`` additionally streams records to stderr.
    """
    sinks = []
    log_name = None
    out = getattr(args, "out", None)
    if out:
        log_name = EVENT_LOG_FILENAME
        sinks.append(JsonlFileSink(Path(out) / log_name))
    if getattr(args, "events", None) == "-":
        sinks.append(StderrSink())
    elif getattr(args, "events", None):
        sinks.append(JsonlFileSink(args.events))
    return EventLog(sinks), log_name


def _flag_error(args, exc: Exception, flag: Optional[str] = None) -> int:
    """Report a bad flag value as one ``error:`` line naming its flag,
    and return exit status 2.

    Without ``flag`` the flag comes from the message: the bound checks
    raise ``"<field> must ..."``, and a message naming no flag is a
    bug, not bad input, and is re-raised.
    """
    if flag is None:
        flag = _FIELD_FLAGS.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise exc
    value = getattr(args, flag[2:].replace("-", "_"))
    print(f"error: bad {flag} {value}: {exc}", file=sys.stderr)
    return 2


def _virus_settings(args) -> tuple:
    """(GAConfig, IslandConfig or None, RetryPolicy) from the ``virus``
    flags; raises ``ValueError`` on the first out-of-bounds value."""
    from repro.ga.engine import check_checkpoint_every
    from repro.ga.islands import IslandConfig

    config = GAConfig(
        population_size=args.population,
        generations=args.generations,
        loop_length=args.loop_length,
        mutation_rate=args.mutation_rate,
        seed=args.seed,
        workers=args.workers,
    )
    island_config = IslandConfig(
        islands=args.islands,
        topology=args.topology,
        migration_interval=(
            None if args.migration_interval == 0 else args.migration_interval
        ),
    )
    check_checkpoint_every(args.checkpoint_every)
    retry_policy = RetryPolicy(
        max_retries=args.max_retries,
        base_delay_s=0.05,
        seed=args.seed,
    )
    if island_config.islands == 1:
        island_config = None
    return config, island_config, retry_policy


# ---------------------------------------------------------------------------
def cmd_table1(args) -> int:
    from repro.platforms.registry import render_table

    print(render_table())
    return 0


def cmd_platforms(args) -> int:
    print(registry.render_registry())
    return 0


def _power_gate(args, cluster: Cluster) -> Optional[int]:
    """Apply ``--cores`` to ``cluster``; exit status 2 if out of range."""
    if args.cores is None:
        return None
    try:
        cluster.power_gate(args.cores)
    except ValueError as exc:
        return _flag_error(args, exc, "--cores")
    return None


def cmd_impedance(args) -> int:
    cluster = resolve_cluster(args.platform)
    status = _power_gate(args, cluster)
    if status is not None:
        return status
    cores = cluster.powered_cores
    # A grid of fewer than one point is an empty grid.
    freqs = np.logspace(4, 8.7, max(args.points, 0))
    try:
        points_in_band(freqs, FIRST_ORDER_BAND_HZ)
    except ValueError as exc:
        return _flag_error(args, exc, "--points")
    analysis = cluster.pdn.impedance_analysis(freqs, cores)
    mag = analysis.impedance_magnitude("die")
    print(f"# {cluster.name}, {cores} powered cores")
    print(f"# {'frequency_hz':>14} {'z_mohm':>10}")
    for f, z in zip(freqs, mag):
        print(f"{f:>16.1f} {z * 1e3:>10.4f}")
    peak = analysis.peak_frequency_hz("die", FIRST_ORDER_BAND_HZ)
    print(f"# first-order resonance: {peak / 1e6:.1f} MHz")
    return 0


def cmd_sweep(args) -> int:
    cluster = resolve_cluster(args.platform)
    try:
        check_samples_per_point(args.samples)
    except ValueError as exc:
        return _flag_error(args, exc)
    status = _power_gate(args, cluster)
    if status is not None:
        return status
    log, log_name = _open_event_log(args)
    manifest = RunManifest.create(
        "sweep",
        args.platform,
        args.seed,
        config={"samples": args.samples, "cores": args.cores},
    )
    ctx = RunContext(
        cluster=cluster,
        seed=args.seed,
        event_log=log,
        active_cores=None if args.cores is None else 1,
    )
    characterizer, tracker = _audited_characterizer(args, log)
    if tracker is not None:
        manifest.extra["audit"] = True
    sweep = ResonanceSweep(
        characterizer, samples_per_point=args.samples
    )
    result = sweep.run(ctx)
    if tracker is not None:
        tracker.emit_summary()
    print(f"# {cluster.name}, {cluster.powered_cores} powered cores")
    print(f"# {'loop_freq_hz':>14} {'amplitude_dbm':>14}")
    for point in sorted(result.points, key=lambda p: p.loop_frequency_hz):
        dbm = float(watts_to_dbm(np.array(point.amplitude_w)))
        print(f"{point.loop_frequency_hz:>16.1f} {dbm:>14.2f}")
    print(
        f"# first-order resonance: {result.resonance_hz() / 1e6:.1f} MHz"
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        sweep_name = f"{cluster.name}-sweep.json"
        (out_dir / sweep_name).write_text(
            result.to_json(indent=2), encoding="utf-8"
        )
        manifest.event_log = log_name
        manifest.add_artifact(sweep_name)
        manifest.write(out_dir)
        print(f"# archived to {out_dir / sweep_name}")
    log.close()
    return 0


def cmd_virus(args) -> int:
    from dataclasses import asdict

    from repro.io.serialization import (
        load_checkpoint,
        save_virus_archive,
    )

    cluster = resolve_cluster(args.platform)
    try:
        config, island_config, retry_policy = _virus_settings(args)
    except ValueError as exc:
        return _flag_error(args, exc)
    out_dir = Path(args.out) if args.out else None
    log, log_name = _open_event_log(args)
    manifest = RunManifest.create(
        "virus", args.platform, args.seed, config=asdict(config)
    )
    checkpoint_path = args.checkpoint
    if checkpoint_path is None and out_dir is not None:
        checkpoint_path = (
            out_dir / ISLAND_CHECKPOINT_DIRNAME
            if island_config is not None
            else out_dir / CHECKPOINT_FILENAME
        )
    if island_config is not None:
        manifest.extra["islands"] = {
            "islands": island_config.islands,
            "topology": island_config.topology,
            "migration_interval": island_config.migration_interval,
        }
    fault_injector = None
    if args.fault_plan:
        from repro.faults import FaultInjector, load_fault_plan

        try:
            fault_injector = FaultInjector(
                load_fault_plan(args.fault_plan)
            )
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan: {exc}", file=sys.stderr)
            return 2
        manifest.extra["fault_plan"] = str(args.fault_plan)
    manifest.extra["max_retries"] = args.max_retries
    resume = None
    if args.resume:
        from repro.faults.errors import CorruptArtifact
        from repro.io.serialization import SerializationError

        try:
            if island_config is not None:
                from repro.ga.islands import load_island_checkpoint

                resume = load_island_checkpoint(
                    args.resume, event_log=log
                )
            else:
                resume = load_checkpoint(args.resume, event_log=log)
        except (
            FileNotFoundError,
            CorruptArtifact,
            SerializationError,
            OSError,
            ValueError,
        ) as exc:
            print(
                f"error: cannot resume from {args.resume}: {exc}",
                file=sys.stderr,
            )
            log.close()
            return 2
    if resume is not None:
        manifest.extra["resumed_from"] = str(args.resume)
        manifest.extra["resumed_at_generation"] = resume.generation
    characterizer, tracker = _audited_characterizer(args, log)
    if tracker is not None:
        manifest.extra["audit"] = True
    generator = VirusGenerator(
        cluster,
        characterizer,
        config=config,
        event_log=log,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
        retry_policy=retry_policy,
        fault_injector=fault_injector,
        island_config=island_config,
    )

    def progress(record):
        dbm = float(watts_to_dbm(np.array(record.best.score)))
        print(
            f"gen {record.generation:3d}: {dbm:6.1f} dBm, dominant "
            f"{record.best.dominant_frequency_hz / 1e6:5.1f} MHz",
            file=sys.stderr,
        )

    summary = generator.generate_em_virus(
        progress=progress, resume=resume
    )
    if tracker is not None:
        tracker.emit_summary()
    print(
        f"# virus for {cluster.name}: dominant "
        f"{summary.dominant_frequency_hz / 1e6:.1f} MHz, droop "
        f"{summary.max_droop_v * 1e3:.1f} mV, IPC {summary.ipc:.2f}"
    )
    if out_dir is not None:
        meta = save_virus_archive(summary, out_dir)
        stem = meta.name[: -len(".meta.json")]
        manifest.event_log = log_name
        for suffix in (".meta.json", ".json", ".s", ".summary.json"):
            manifest.add_artifact(f"{stem}{suffix}")
        if checkpoint_path is not None and Path(checkpoint_path).exists():
            manifest.extra["checkpoint"] = Path(checkpoint_path).name
        manifest.write(out_dir)
        print(f"# archived to {meta}")
    else:
        print(summary.virus.assembly())
    log.close()
    return 0


def cmd_vmin(args) -> int:
    from repro.stability.failure import failure_model_for
    from repro.stability.vmin import VminTester, check_repeat_counts
    from repro.workloads.base import ProgramWorkload
    from repro.workloads.spec import SPEC_PROFILES, spec_workload
    from repro.workloads.stress import idle_workload

    cluster = resolve_cluster(args.platform)
    try:
        tester = VminTester(
            cluster,
            failure_model_for(cluster.name),
            step_v=args.step,
            seed=args.seed,
        )
        check_repeat_counts(args.virus_repeats, args.repeats)
    except ValueError as exc:
        return _flag_error(args, exc)
    workloads = []
    spec_names = {p.name for p in SPEC_PROFILES}
    for name in args.workloads.split(","):
        name = name.strip()
        if not name:
            continue
        if name == "idle":
            workloads.append(idle_workload())
        elif name in spec_names:
            workloads.append(spec_workload(cluster.spec.isa, name))
        else:
            print(f"error: unknown workload {name!r}", file=sys.stderr)
            return 2
    virus_names = ()
    if args.virus:
        from repro.io.serialization import (
            SerializationError,
            load_virus_archive,
        )

        try:
            program, metadata = load_virus_archive(args.virus)
        except (OSError, SerializationError) as exc:
            return _flag_error(args, exc, "--virus")
        workloads.append(
            ProgramWorkload("virus", program, jitter_seed=None)
        )
        virus_names = ("virus",)

    results = tester.compare(
        workloads,
        virus_repeats=args.virus_repeats,
        benchmark_repeats=args.repeats,
        virus_names=virus_names,
    )
    nominal = cluster.spec.nominal_voltage
    print(f"# {cluster.name} at {cluster.clock_hz / 1e6:.0f} MHz")
    print(f"# {'workload':<14} {'vmin_v':>8} {'margin_mv':>10}")
    for name, res in sorted(results.items(), key=lambda kv: kv[1].vmin):
        print(
            f"{name:<16} {res.vmin:>8.4f} "
            f"{(nominal - res.vmin) * 1e3:>10.1f}"
        )
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import characterize

    cluster = resolve_cluster(args.platform)
    try:
        config = GAConfig(
            population_size=args.population,
            generations=args.generations,
            loop_length=50,
            seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        return _flag_error(args, exc)
    log, log_name = _open_event_log(args)
    from dataclasses import asdict

    manifest = RunManifest.create(
        "report", args.platform, args.seed, config=asdict(config)
    )
    characterizer, tracker = _audited_characterizer(args, log)
    if tracker is not None:
        manifest.extra["audit"] = True
    report = characterize(
        cluster,
        characterizer,
        ga_config=config,
        run_vmin=not args.no_vmin,
        seed=args.seed,
        event_log=log,
    )
    if tracker is not None:
        tracker.emit_summary()
    markdown = report.to_markdown()
    print(markdown)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_name = f"{cluster.name}-report.md"
        (out_dir / report_name).write_text(markdown, encoding="utf-8")
        manifest.event_log = log_name
        manifest.add_artifact(report_name)
        manifest.write(out_dir)
        print(f"# archived to {out_dir / report_name}", file=sys.stderr)
    log.close()
    return 0


def cmd_provenance(args) -> int:
    from repro.analysis.report import report_from_provenance

    print(report_from_provenance(args.path))
    return 0


def cmd_serve(args) -> int:
    """Run the measurement service HTTP front end until interrupted."""
    import asyncio

    from repro.service import MeasurementService, ServiceServer

    log, _log_name = _open_event_log(args)

    async def _serve() -> int:
        service = MeasurementService(
            seed=args.seed,
            samples=args.samples,
            max_pending_jobs=args.max_pending,
            max_batch_items=args.max_batch_items,
            rate_per_s=args.rate,
            burst=args.burst,
            default_timeout_s=args.timeout,
            state_dir=Path(args.state_dir) if args.state_dir else None,
            event_log=log,
        )
        await service.start()
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"# serving on http://{server.host}:{server.port} "
            f"(platforms: {', '.join(service.platforms)})",
            file=sys.stderr,
        )
        try:
            await asyncio.Event().wait()  # until KeyboardInterrupt
        finally:
            await server.close()
            await service.close()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("# shutdown", file=sys.stderr)
        return 0
    finally:
        log.close()


# ---------------------------------------------------------------------------
def _add_artifact_flags(parser) -> None:
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument(
        "--events",
        default=None,
        help="extra event-log destination: a path, or '-' for stderr",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="enable the runtime determinism audit (shadow-recomputed "
        "cache hits + RNG draw ledger; results stay byte-identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EM-driven CPU voltage-noise characterization "
        "(MICRO 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the platform matrix")
    sub.add_parser(
        "platforms", help="list the runnable platform registry"
    )

    p = sub.add_parser("impedance", help="PDN impedance seen by the die")
    p.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    p.add_argument("--cores", type=int, default=None)
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("sweep", help="fast EM resonance sweep")
    p.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    p.add_argument("--cores", type=int, default=None,
                   help="powered cores (1 active)")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_artifact_flags(p)

    p = sub.add_parser("virus", help="EM-driven GA virus generation")
    p.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--generations", type=int, default=60)
    p.add_argument("--loop-length", type=int, default=50)
    p.add_argument("--mutation-rate", type=float, default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="fitness evaluation processes (1 = serial)")
    p.add_argument("--islands", type=int, default=1,
                   help="shard the population across N islands "
                        "(1 = single-population search)")
    p.add_argument("--topology", choices=list(TOPOLOGIES),
                   default="ring",
                   help="island migration topology")
    p.add_argument("--migration-interval", type=int, default=5,
                   help="generations between champion migrations "
                        "(0 = never migrate)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file (default: <out>/checkpoint.json; "
                        "with --islands a directory, default "
                        "<out>/island-checkpoints)")
    p.add_argument("--checkpoint-every", type=int, default=5,
                   help="generations between checkpoints")
    p.add_argument("--fault-plan", default=None,
                   help="JSON fault plan armed during the run "
                        "(see docs/testing.md)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retry budget for transient measurement and "
                        "checkpoint-IO faults")
    p.add_argument("--resume", default=None,
                   help="resume from a checkpoint file; continues "
                   "bit-identically (same flags except --generations "
                   "and --workers)")
    _add_artifact_flags(p)

    p = sub.add_parser(
        "report", help="full characterization report (markdown)"
    )
    p.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    p.add_argument("--population", type=int, default=30)
    p.add_argument("--generations", type=int, default=25)
    p.add_argument("--no-vmin", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="fitness evaluation processes (1 = serial)")
    _add_artifact_flags(p)

    p = sub.add_parser(
        "provenance",
        help="regenerate a report from an artifact directory's "
        "manifest + event log (no re-run)",
    )
    p.add_argument("path", help="artifact directory or run_manifest.json")

    p = sub.add_parser(
        "serve",
        help="measurement-as-a-service HTTP front end "
        "(async job batching over shared warm sessions)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8423,
                   help="TCP port (0 = OS-assigned)")
    p.add_argument("--seed", type=int, default=0,
                   help="analyzer RNG seed per platform")
    p.add_argument("--samples", type=int, default=10,
                   help="default analyzer samples per measurement")
    p.add_argument("--max-pending", type=int, default=64,
                   help="pending-queue capacity before 429 rejections")
    p.add_argument("--max-batch-items", type=int, default=256,
                   help="coalesced chain-items budget per batch")
    p.add_argument("--rate", type=float, default=None,
                   help="per-tenant submissions/second "
                        "(default: unlimited)")
    p.add_argument("--burst", type=float, default=5.0,
                   help="per-tenant token-bucket burst")
    p.add_argument("--timeout", type=float, default=None,
                   help="default job timeout in seconds")
    p.add_argument("--state-dir", default=None,
                   help="persist per-job result + RunManifest here")
    p.add_argument("--events", default=None,
                   help="event-log destination: a path, or '-' for "
                        "stderr")
    p.add_argument("--audit", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help=argparse.SUPPRESS)

    p = sub.add_parser("vmin", help="progressive-undervolting V_MIN test")
    p.add_argument("--platform", choices=PLATFORM_CHOICES, required=True)
    p.add_argument("--workloads", default="idle",
                   help="comma list: idle or SPEC names")
    p.add_argument("--virus", default=None,
                   help="path to a .meta.json virus archive")
    p.add_argument("--step", type=float, default=0.010)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument("--virus-repeats", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "platforms": cmd_platforms,
    "impedance": cmd_impedance,
    "sweep": cmd_sweep,
    "virus": cmd_virus,
    "vmin": cmd_vmin,
    "report": cmd_report,
    "provenance": cmd_provenance,
    "serve": cmd_serve,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
