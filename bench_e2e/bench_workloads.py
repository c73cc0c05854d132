"""The five benchmark workloads, driven through ``repro``'s public API.

Every workload is a sequence of *rounds* built from the workload seed,
so a run can stop at any round boundary.  ``setup`` builds everything
the first timed op needs; ``measure`` runs rounds until a deadline (or
a fixed round count) and returns op latencies, work counts and the
outputs the checks compare.  The GA workloads run fresh campaigns each
round; every other workload repeats identical rounds, and each must
reproduce round 0's outputs exactly.

Why each workload exists (see README.md for the metric mapping):

* ``ga-campaign`` -- the paper's headline EM-fitness GA (Figs 7/12/17),
  the only path where scheduling, AC analysis and the analyzer
  amplitude all carry weight on mostly fresh genomes.
* ``ga-workers`` -- the same campaigns through a warmed 2-worker
  ``ParallelEvaluator``: the only path through the persistent pool and
  the shared-memory transport, so its difference to ``ga-campaign`` is
  dispatch cost.
* ``sweep-study`` -- cold power-gating resonance sweeps (Figs
  8/11/13/16): every point misses the transfer-function cache.
* ``vmin-ladder`` -- the Fig. 10/14/18 V_MIN protocol, the only path
  through the legacy ``Cluster.run``.
* ``service-burst`` -- an open loop of coalescable job bursts against a
  warm in-process ``MeasurementService``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.characterizer import FIRST_ORDER_BAND, EMCharacterizer
from repro.core.resonance import ResonanceSweep
from repro.core.virusgen import VirusGenerator
from repro.em.propagation import AmbientEnvironment
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import ClusterFitness, EMAmplitudeFitness
from repro.ga.parallel import ParallelEvaluator
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.io.serialization import load_virus_archive
from repro.obs.context import RunContext
from repro.obs.events import EventLog
from repro.platforms import registry
from repro.service import MeasurementService
from repro.service.jobs import DONE, ServiceError
from repro.stability.failure import failure_model_for
from repro.stability.vmin import VminTester
from repro.workloads.base import ProgramWorkload, Workload
from repro.workloads.spec import spec_suite
from repro.workloads.stress import idle_workload

#: The seed the committed references were recorded with.
DEFAULT_SEED = 0

#: The golden suite's float tolerance (tests/golden/test_golden.py).
REL_TOL = 1e-12

PLATFORMS = ("a72", "a53", "amd")
VIRUS_DIR = Path(__file__).resolve().parent / "viruses"

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "ga_population": 32,
        "ga_generations": 20,
        "sweep_clocks": None,  # every multiplier-reachable clock
        "vmin_spec": ("perlbench", "mcf", "namd", "lbm"),
        "vmin_virus_repeats": 30,
        "vmin_bench_repeats": 2,
        "service_period_s": 0.15,
        "service_burst": 8,
        "service_cycle": 10,
        "service_pool": 64,
    },
    "tiny": {
        "ga_population": 6,
        "ga_generations": 3,
        "sweep_clocks": 4,
        "vmin_spec": ("lbm",),
        "vmin_virus_repeats": 2,
        "vmin_bench_repeats": 1,
        "service_period_s": 0.05,
        "service_burst": 4,
        "service_cycle": 4,
        "service_pool": 4,
    },
}


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


#: Every run measures at least this many identical rounds, so per-slot
#: medians can discard a round slowed by other tenants of the host.
MIN_ROUNDS = 3

_PROBE_SIGNAL = np.random.default_rng(0).standard_normal(2048)


def _probe_once() -> float:
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc + i * i) % 1009
        table[i & 63] = acc
    for _ in range(10):
        np.fft.irfft(np.fft.rfft(_PROBE_SIGNAL))
    return time.perf_counter() - start


class HostSpeed:
    """A fixed probe (interpreter loop plus small FFTs, about 1 ms) timed
    between ops, outside every timed region.

    Other tenants of a shared host slow its vCPUs by up to 2x for
    seconds at a time, and the probe slows with them.  Each op's time
    is scaled by ``REF_S / probe`` (the probe averaged over the samples
    bracketing the op), which reports it as on a host where the probe
    takes exactly :data:`REF_S`.  The probe is benchmark code, so a
    change to ``repro`` moves normalized and raw times alike.
    """

    REF_S = 1.0e-3

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        best = min(_probe_once() for _ in range(3))
        self.samples.append(best)
        return best

    @classmethod
    def factor(cls, before: float, after: float) -> float:
        return cls.REF_S / ((before + after) / 2.0)


@dataclass
class Measurement:
    """What one measured phase produced.

    The op at position *i* of every round (its *slot*) does the same
    work -- identical work, or the same GA generation of a fresh
    campaign -- so latencies and rates are taken per slot as the
    median over rounds.  ``ops`` are normalized by :class:`HostSpeed`;
    ``raw_ops`` are the wall times.
    """

    ops: List[float] = field(default_factory=list)  # op latencies, s
    raw_ops: List[float] = field(default_factory=list)
    ops_per_round: List[int] = field(default_factory=list)
    work: int = 0  # simulated program evaluations
    unit_work: List[List[int]] = field(default_factory=list)  # [round][unit]
    unit_s: List[List[float]] = field(default_factory=list)  # [round][unit]
    rounds: int = 0
    outputs: List[List[dict]] = field(default_factory=list)  # per round
    failed_ops: int = 0
    late_s: List[float] = field(default_factory=list)  # open-loop only
    events: List[tuple] = field(default_factory=list)  # traced phase

    def add_ops(self, raw: List[float], before: float, after: float) -> None:
        """Record ops timed between two host-speed samples."""
        scale = HostSpeed.factor(before, after)
        self.raw_ops += raw
        self.ops += [t * scale for t in raw]

    def slot_ops(self) -> List[float]:
        """Each slot's median latency over the rounds."""
        sizes = set(self.ops_per_round)
        if len(sizes) != 1:
            return list(self.ops)
        n = sizes.pop()
        rounds = [self.ops[i * n:(i + 1) * n]
                  for i in range(len(self.ops_per_round))]
        return [statistics.median(slot) for slot in zip(*rounds)]

    def rate(self) -> float:
        """Evaluations per second of op time in a round whose every unit
        (one platform's campaign, study or ladder) does its median work
        in its median time."""
        work = [statistics.median(unit) for unit in zip(*self.unit_work)]
        unit_s = [statistics.median(unit) for unit in zip(*self.unit_s)]
        return sum(work) / sum(unit_s)


class StampSink:
    """Event sink that timestamps the events a driver cares about.

    ``on_event`` lets the traced run turn program events into span
    request ids (generation, sweep, batch).
    """

    def __init__(self, names, on_event=None):
        self.names = frozenset(names)
        self.on_event = on_event
        self.records: List[tuple] = []

    def emit(self, record: Dict[str, Any]) -> None:
        if record["event"] in self.names:
            self.records.append(
                (record["event"], time.perf_counter(), record)
            )
            if self.on_event is not None:
                self.on_event(record)

    def close(self) -> None:
        pass


def compare(expected, produced, where: str = "") -> List[str]:
    """Differences between two JSON-shaped values: floats at
    :data:`REL_TOL`, everything else exactly."""
    if isinstance(expected, float) and isinstance(produced, (int, float)):
        if produced == expected or abs(produced - expected) <= REL_TOL * abs(
            expected
        ):
            return []
        return [f"{where}: {expected!r} -> {produced!r}"]
    if type(expected) is not type(produced):
        return [f"{where}: type {type(expected).__name__} -> "
                f"{type(produced).__name__}"]
    if isinstance(expected, dict):
        if sorted(expected) != sorted(produced):
            return [f"{where}: keys {sorted(expected)} -> {sorted(produced)}"]
        return [
            diff
            for key in expected
            for diff in compare(expected[key], produced[key], f"{where}.{key}")
        ]
    if isinstance(expected, list):
        if len(expected) != len(produced):
            return [f"{where}: length {len(expected)} -> {len(produced)}"]
        return [
            diff
            for i, (e, p) in enumerate(zip(expected, produced))
            for diff in compare(e, p, f"{where}[{i}]")
        ]
    return [] if expected == produced else [
        f"{where}: {expected!r} -> {produced!r}"
    ]


def jsonable(value):
    """Tuples and numpy scalars as the lists and numbers JSON reads back."""
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class RoundWorkload:
    """A workload made of identical rounds over :data:`PLATFORMS`.

    Subclasses implement ``prepare(round, platform_index)`` (untimed
    state for one unit of a round) and ``execute(prepared, measurement)`` (the
    timed ops, returning the unit's outputs), and may override
    ``check``.
    """

    name = ""
    #: Program events the traced run listens to.
    traced_events: tuple = ()
    #: Whether each round draws fresh inputs (else rounds are identical).
    distinct_rounds = False

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size_name = size
        self.size = SIZES[size]
        self.on_event = None  # set by the traced run
        self.speed = HostSpeed()

    def setup(self):
        return self.prepare(0, 0)

    def discard(self, state) -> None:
        pass

    def close(self) -> None:
        pass

    def event_log(self, m: Measurement, names) -> Optional[EventLog]:
        """A log whose timestamped records land in ``m.events``."""
        if not names:
            return None
        sink = StampSink(names, self.on_event)
        sink.records = m.events
        return EventLog([sink])

    def traced_log(self, m: Measurement) -> Optional[EventLog]:
        return self.event_log(
            m, self.traced_events if self.on_event is not None else ()
        )

    def measure(self, state, deadline=None, rounds=None) -> Measurement:
        """Rounds until ``deadline`` (at least :data:`MIN_ROUNDS`), or
        exactly ``rounds``."""
        m = Measurement()
        pending = state
        while True:
            first_op = len(m.ops)
            outputs, unit_work, unit_s = [], [], []
            for index in range(len(PLATFORMS)):
                prepared = pending if pending is not None else (
                    self.prepare(m.rounds, index)
                )
                pending = None
                work, ops = m.work, len(m.ops)
                outputs.append(self.execute(prepared, m))
                unit_work.append(m.work - work)
                unit_s.append(sum(m.ops[ops:]))
            m.outputs.append(outputs)
            m.unit_work.append(unit_work)
            m.unit_s.append(unit_s)
            m.ops_per_round.append(len(m.ops) - first_op)
            m.rounds += 1
            if rounds is not None:
                if m.rounds >= rounds:
                    break
            elif m.rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
        return m

    def check(self, m: Measurement, references, state) -> List[tuple]:
        """``[(round, message)]`` for every failed output check: each
        round against its recorded reference, and identical rounds
        against round 0."""
        failures = []
        expected = references.get(self.name) if references else None
        for r, outputs in enumerate(m.outputs):
            if expected is not None:
                reference = expected[r if self.distinct_rounds else 0] if (
                    r < len(expected) or not self.distinct_rounds
                ) else None
                if reference is not None:
                    failures += [
                        (r, f"reference{d}")
                        for d in compare(reference, jsonable(outputs))
                    ]
            if r > 0 and not self.distinct_rounds:
                failures += [
                    (r, f"round 0{d}")
                    for d in compare(m.outputs[0], outputs)
                ]
        return failures


# ---------------------------------------------------------------------------
# GA campaigns
# ---------------------------------------------------------------------------
def _ga_output(platform: str, result) -> dict:
    return {
        "platform": platform,
        "evaluations": result.evaluations,
        "best_generation": result.best.generation,
        "champion": jsonable(result.best_program.genome()),
        "best_scores": [r.best.score for r in result.history],
        "mean_scores": [r.mean_score for r in result.history],
    }


class GACampaign(RoundWorkload):
    """``VirusGenerator.generate_em_virus`` on a72, a53 and amd.

    The analyzer's sweep-to-sweep noise spread is 0 dB: with noise,
    each pool worker draws from its own copy of the analyzer RNG, so
    ``workers=2`` scores would differ from ``workers=1`` (see
    ``repro.ga.parallel``).  The noise draws still happen, so the
    evaluation cost is unchanged.
    """

    name = "ga-campaign"
    workers = 1
    traced_events = ("generation_start", "generation_end")
    distinct_rounds = True

    def prepare(self, round_: int, index: int):
        platform = PLATFORMS[index]
        cluster = registry.make_cluster(platform)
        characterizer = EMCharacterizer(
            analyzer=SpectrumAnalyzer(
                rng=np.random.default_rng(derive(self.seed, round_, index, 1)),
                environment=AmbientEnvironment(noise_sigma_db=0.0),
            ),
            samples=10,
        )
        config = GAConfig(
            population_size=self.size["ga_population"],
            generations=self.size["ga_generations"],
            loop_length=50,
            seed=derive(self.seed, round_, index, 0),
            workers=self.workers,
        )
        return platform, cluster, characterizer, config

    def _timed(self, m: Measurement, run):
        """Run a campaign, timing each generation between host-speed
        samples taken in the progress callback."""
        probe = [self.speed.sample()]
        start = [time.perf_counter()]

        def progress(record) -> None:
            raw = time.perf_counter() - start[0]
            after = self.speed.sample()
            m.add_ops([raw], probe[0], after)
            probe[0] = after
            start[0] = time.perf_counter()

        result = run(progress)
        m.work += result.evaluations
        return result

    def execute(self, prepared, m: Measurement) -> dict:
        platform, cluster, characterizer, config = prepared
        generator = VirusGenerator(
            cluster,
            characterizer,
            config=config,
            event_log=self.traced_log(m),
        )
        result = self._timed(
            m,
            lambda progress: generator.generate_em_virus(
                progress=progress
            ).ga_result,
        )
        return _ga_output(platform, result)


class GAWorkers(GACampaign):
    """The ``ga-campaign`` inputs at ``workers=2`` through a
    ``ParallelEvaluator`` warmed before timing starts, with the fitness
    built exactly as ``VirusGenerator.generate_em_virus`` builds it."""

    name = "ga-workers"
    workers = 2

    def prepare(self, round_: int, index: int):
        platform, cluster, characterizer, config = super().prepare(
            round_, index
        )
        fitness = ClusterFitness(
            EMAmplitudeFitness(
                analyzer=characterizer.analyzer,
                radiator=characterizer.radiator,
                band=FIRST_ORDER_BAND,
                samples=characterizer.samples,
                session=characterizer.session,
            ),
            cluster,
        )
        evaluator = ParallelEvaluator(fitness, config.workers)
        try:
            evaluator.warm_up()
        except BaseException:
            evaluator.close()
            raise
        return platform, cluster, config, fitness, evaluator

    def discard(self, state) -> None:
        state[-1].close()

    def execute(self, prepared, m: Measurement) -> dict:
        platform, cluster, config, fitness, evaluator = prepared
        log = self.traced_log(m)
        try:
            result = self._timed(
                m,
                lambda progress: GAEngine(fitness, config).run(
                    cluster.spec.isa,
                    progress=progress,
                    event_log=log,
                    evaluator=evaluator,
                ),
            )
        finally:
            evaluator.close()
        return _ga_output(platform, result)

    def check(self, m: Measurement, references, state) -> List[tuple]:
        """``workers=2`` must reproduce ``workers=1``: against the
        recorded ``ga-campaign`` references at the default seed, and
        against a serial twin of round 0 at any other seed."""
        expected = references.get("ga-campaign") if references else None
        if expected is None:
            twin = GACampaign(self.seed, self.size_name)
            expected = twin.measure(twin.setup(), rounds=1).outputs
        failures = []
        for r, outputs in enumerate(m.outputs[: len(expected)]):
            failures += [
                (r, f"workers=1{d}")
                for d in compare(jsonable(expected[r]), jsonable(outputs))
            ]
        return failures


# ---------------------------------------------------------------------------
# resonance sweeps across power-gating states
# ---------------------------------------------------------------------------
class SweepStudy(RoundWorkload):
    """``ResonanceSweep.power_gating_study`` over every gating state,
    cold: a fresh cluster and characterizer per platform per round, as
    ``repro sweep`` builds them."""

    name = "sweep-study"
    traced_events = ("sweep_start", "sweep_end", "chain_run")

    def prepare(self, round_: int, index: int):
        platform = PLATFORMS[index]
        cluster = registry.make_cluster(platform)
        characterizer = EMCharacterizer(
            analyzer=SpectrumAnalyzer(
                rng=np.random.default_rng(derive(self.seed, index))
            ),
            samples=10,
        )
        clocks = list(cluster.spec.allowed_clocks_hz())
        if self.size["sweep_clocks"] is not None:
            clocks = clocks[: self.size["sweep_clocks"]]
        return platform, cluster, characterizer, clocks

    def execute(self, prepared, m: Measurement) -> dict:
        platform, cluster, characterizer, clocks = prepared
        log = self.event_log(m, self.traced_events)
        first = len(m.events)
        ctx = RunContext(cluster=cluster, seed=self.seed, event_log=log)
        sweep = ResonanceSweep(characterizer, samples_per_point=5)
        before = self.speed.sample()
        results = sweep.power_gating_study(ctx, clocks_hz=clocks)
        after = self.speed.sample()
        records = m.events[first:]
        starts = [t for e, t, _ in records if e == "sweep_start"]
        ends = [t for e, t, _ in records if e == "sweep_end"]
        m.add_ops([b - a for a, b in zip(starts, ends)], before, after)
        m.work += sum(len(r.points) for r in results)
        counts = [r.powered_cores for r in results]
        return {
            "platform": platform,
            "resonance_hz": [[r.powered_cores, r.resonance_hz()]
                             for r in results],
            "ac_analyses": sum(
                cluster.pdn.solver(n).tf_analyses for n in counts
            ),
        }


# ---------------------------------------------------------------------------
# V_MIN ladders
# ---------------------------------------------------------------------------
class _StepClock:
    """Times ladder steps: a step starts at ``Workload.run`` and ends
    when its outcome is classified (nominal reference runs are never
    classified, so they are not steps).  The host speed is sampled
    before the next step once :attr:`PROBE_EVERY` steps or
    :attr:`PROBE_EVERY_S` of step time have passed since the last
    sample."""

    PROBE_EVERY = 64
    PROBE_EVERY_S = 0.05

    def __init__(self, speed: HostSpeed, on_step=None):
        self.speed = speed
        self.on_step = on_step
        self.m: Optional[Measurement] = None
        self.probe = 0.0
        self.start = 0.0
        self.steps: List[float] = []
        self.block_s = 0.0

    def begin(self) -> None:
        if (len(self.steps) >= self.PROBE_EVERY
                or self.block_s >= self.PROBE_EVERY_S):
            self.flush()
        if self.on_step is not None:
            self.on_step({"event": "ladder_step"})
        self.start = time.perf_counter()

    def end(self) -> None:
        step = time.perf_counter() - self.start
        self.steps.append(step)
        self.block_s += step

    def flush(self) -> None:
        after = self.speed.sample()
        self.m.add_ops(self.steps, self.probe, after)
        self.m.work += len(self.steps)
        self.probe, self.steps, self.block_s = after, [], 0.0


class _TimedWorkload(Workload):
    def __init__(self, inner: Workload, clock: _StepClock):
        super().__init__(inner.name)
        self.inner = inner
        self.clock = clock

    def run(self, cluster, active_cores=None):
        self.clock.begin()
        return self.inner.run(cluster, active_cores=active_cores)


class _TimedFailureModel:
    def __init__(self, inner, clock: _StepClock):
        self.inner = inner
        self.clock = clock

    def classify(self, min_rail_voltage, clock_hz, rng):
        outcome = self.inner.classify(min_rail_voltage, clock_hz, rng)
        self.clock.end()
        return outcome


class VminLadder(RoundWorkload):
    """``VminTester.compare`` per platform with the Fig. 10 protocol:
    idle and a SPEC slice at 2 repeats, the committed virus at 30."""

    name = "vmin-ladder"

    def setup(self):
        self.viruses = [
            load_virus_archive(VIRUS_DIR / f"{p}.meta.json")[0]
            for p in PLATFORMS
        ]
        return super().setup()

    def prepare(self, round_: int, index: int):
        platform = PLATFORMS[index]
        cluster = registry.make_cluster(platform)
        clock = _StepClock(self.speed, self.on_event)
        tester = VminTester(
            cluster,
            _TimedFailureModel(failure_model_for(cluster.name), clock),
            seed=derive(self.seed, index),
        )
        workloads = (
            [idle_workload()]
            + spec_suite(cluster.spec.isa, list(self.size["vmin_spec"]))
            + [ProgramWorkload("virus", self.viruses[index],
                               jitter_seed=None)]
        )
        return platform, tester, [
            _TimedWorkload(w, clock) for w in workloads
        ], clock

    def execute(self, prepared, m: Measurement) -> dict:
        platform, tester, workloads, clock = prepared
        clock.m = m
        clock.probe = self.speed.sample()
        results = tester.compare(
            workloads,
            virus_repeats=self.size["vmin_virus_repeats"],
            benchmark_repeats=self.size["vmin_bench_repeats"],
            virus_names=("virus",),
        )
        clock.flush()
        return {
            "platform": platform,
            "vmin": {name: r.vmin for name, r in results.items()},
            "descents": sum(r.repeats for r in results.values()),
        }

    def check(self, m: Measurement, references, state) -> List[tuple]:
        failures = super().check(m, references, state)
        spec = set(self.size["vmin_spec"])
        for r, outputs in enumerate(m.outputs):
            for out in outputs:
                worst = max(out["vmin"][name] for name in spec)
                if not out["vmin"]["virus"] > worst:
                    failures.append((r, (
                        f"{out['platform']}: virus V_MIN "
                        f"{out['vmin']['virus']} not above SPEC {worst}"
                    )))
        return failures


# ---------------------------------------------------------------------------
# measurement service bursts
# ---------------------------------------------------------------------------
async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class ServiceBurst:
    """Open-loop job bursts against a warm in-process service.

    Every ``service_period_s`` one burst of jobs from distinct tenants
    arrives: ``service_burst - 1`` measure jobs with programs from a
    fixed pool (small enough for the session caches) and one sweep
    with a rotating ``powered_cores`` override.  The average rate stays
    below saturation, and latency runs from each job's due time.  A
    round is a cycle of ``service_cycle`` bursts; every cycle repeats
    the same bursts.
    """

    name = "service-burst"
    platform = "a53"
    traced_events = ("job_submitted", "job_batched", "job_done")
    PROBE_LEAD_S = 0.01

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        self.on_event = None
        self.speed = HostSpeed()
        self.loop = asyncio.new_event_loop()
        rng = np.random.default_rng(derive(self.seed, 0))
        self.pool_seeds = [
            int(s) for s in rng.integers(0, 2**31, self.size["service_pool"])
        ]
        cores = registry.make_cluster(self.platform).spec.num_cores
        self.gating = list(range(cores, 0, -1))

    def _measure_params(self, program_seed: int) -> dict:
        return {"platform": self.platform, "program_seed": program_seed,
                "program_length": 50}

    def _sweep_params(self, powered: int) -> dict:
        return {"platform": self.platform, "powered_cores": powered,
                "active_cores": 1}

    def burst(self, k: int) -> List[tuple]:
        k %= self.size["service_cycle"]
        picks = np.random.default_rng(derive(self.seed, 1, k)).integers(
            len(self.pool_seeds), size=self.size["service_burst"] - 1
        )
        jobs = [
            ("measure", self._measure_params(self.pool_seeds[int(i)]))
            for i in picks
        ]
        jobs.append(
            ("sweep", self._sweep_params(self.gating[k % len(self.gating)]))
        )
        return jobs

    # -- lifecycle ------------------------------------------------------
    def _new_service(self, log: Optional[EventLog]) -> MeasurementService:
        kwargs = {"event_log": log} if log is not None else {}
        return MeasurementService(
            seed=self.seed, samples=10, platforms=(self.platform,), **kwargs
        )

    async def _setup(self):
        names = self.traced_events if self.on_event else ()
        sink = StampSink(names, self.on_event)
        log = EventLog([sink]) if names else None
        service = await self._new_service(log).start()
        # Warm-up pass: every pooled program and every gating state once,
        # so the timed bursts run on warm session caches.
        warm = [("measure", self._measure_params(s)) for s in self.pool_seeds]
        warm += [("sweep", self._sweep_params(n)) for n in self.gating]
        jobs, size = [], self.size["service_burst"]
        for first in range(0, len(warm), size):
            group = [service.submit(kind, params, tenant="warmup")
                     for kind, params in warm[first:first + size]]
            for job in group:
                await job.wait()
            jobs += group
        return {"service": service, "sink": sink,
                "submitted": [(kind, params, "warmup", job)
                              for (kind, params), job in zip(warm, jobs)]}

    def setup(self):
        return self.loop.run_until_complete(self._setup())

    def discard(self, state) -> None:
        self.loop.run_until_complete(state["service"].close())

    def close(self) -> None:
        self.loop.close()

    # -- the open loop ----------------------------------------------------
    async def _cycle(self, service, m: Measurement, state) -> None:
        """One cycle of bursts on its own schedule, drained before the
        next cycle starts.

        Host speed is sampled :attr:`PROBE_LEAD_S` before each burst is
        due, but only once the previous burst has finished: a probe
        must not contend with the service's worker thread for the
        interpreter lock.  Otherwise the previous sample carries over.
        """
        period = self.size["service_period_s"]
        bursts: List[list] = []  # per burst: (job or None, due, done)
        probes = [self.speed.sample()]
        start = time.perf_counter() + self.PROBE_LEAD_S
        for k in range(self.size["service_cycle"]):
            due = start + k * period
            if k:
                await _sleep_until(due - self.PROBE_LEAD_S)
                idle = all(done for _, _, done in bursts[-1])
                probes.append(self.speed.sample() if idle else probes[-1])
            await _sleep_until(due)
            m.late_s.append(time.perf_counter() - due)
            if self.on_event is not None:
                self.on_event({"event": "burst", "burst": k})
            jobs = []
            for j, (kind, params) in enumerate(self.burst(k)):
                tenant = f"tenant-{j}"
                done: List[float] = []
                try:
                    job = service.submit(kind, params, tenant=tenant)
                except ServiceError:
                    jobs.append((None, due, done))
                    continue
                job.future.add_done_callback(
                    lambda _f, done=done: done.append(time.perf_counter())
                )
                state["submitted"].append((kind, params, tenant, job))
                jobs.append((job, due, done))
            bursts.append(jobs)
        await service.join()
        # Let the done callbacks scheduled by the last batch run.
        await asyncio.sleep(0)
        probes.append(self.speed.sample())
        first, unit_work, unit_s = len(m.ops), [], []
        for k, jobs in enumerate(bursts):
            latencies, work = [], 0
            for job, due, done in jobs:
                if job is None or job.status != DONE or not done:
                    m.failed_ops += 1
                if done:
                    latencies.append(done[0] - due)
                if job is not None and job.status == DONE:
                    work += len(job._items)
            m.add_ops(latencies, probes[k], probes[k + 1])
            # The burst's jobs share one batch, so its slowest job ends
            # the service's busy time for the burst.
            unit_s.append(max(m.ops[len(m.ops) - len(latencies):],
                              default=0.0))
            unit_work.append(work)
        m.unit_work.append(unit_work)
        m.unit_s.append(unit_s)
        m.work += sum(unit_work)
        m.ops_per_round.append(len(m.ops) - first)
        m.rounds += 1

    async def _measure(self, state, deadline, rounds) -> Measurement:
        m = Measurement()
        while True:
            await self._cycle(state["service"], m, state)
            if rounds is not None:
                if m.rounds >= rounds:
                    break
            elif m.rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
        return m

    def measure(self, state, deadline=None, rounds=None) -> Measurement:
        """Cycles of bursts until ``deadline`` (at least
        :data:`MIN_ROUNDS`), or exactly ``rounds`` cycles."""
        m = self.loop.run_until_complete(
            self._measure(state, deadline, rounds)
        )
        m.events = state["sink"].records
        return m

    async def _replay(self, submitted) -> List[Optional[dict]]:
        """The same submissions, one at a time, on a twin service."""
        payloads = []
        async with self._new_service(None) as twin:
            for kind, params, tenant, _ in submitted:
                job = twin.submit(kind, params, tenant=tenant)
                payloads.append(await job.wait())
        return payloads

    def check(self, m: Measurement, references, state) -> List[tuple]:
        """Coalesced payloads must equal a sequential replay."""
        self.loop.run_until_complete(state["service"].close(drain=True))
        submitted = state["submitted"]
        replay = self.loop.run_until_complete(self._replay(submitted))
        warm = len(submitted) - len(m.ops)
        per_round = m.ops_per_round[0] if m.ops_per_round else 1
        failures = []
        for index, ((kind, _, tenant, job), payload) in enumerate(
            zip(submitted, replay)
        ):
            if job.result != payload:
                failures.append((
                    max(0, index - warm) // per_round,
                    f"job {job.id} ({kind}, {tenant}) differs from "
                    "sequential replay",
                ))
        return failures


WORKLOADS = {
    cls.name: cls
    for cls in (GACampaign, GAWorkers, SweepStudy, VminLadder, ServiceBurst)
}


def median(values):
    return statistics.median(values) if values else 0.0
